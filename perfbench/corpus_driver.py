"""Child-process driver for the corpus_build workload.

Reads one JSON command per stdin line and answers with one JSON line:

  {"op": "ingest", "path": P, "budget": B}   read the corpus, start a pass
  {"op": "record", "index": I, "seed": S}    curate record I; if kept, mutate
                                             it three ways and re-classify
                                             each mutant
  {"op": "stats"}                            corpus_stats over this pass's keepers

It prints {"ready": true} once `vsr` is imported, and exits at end of input.
The traced run imports `Driver` and replays the same commands in-process.
"""

from __future__ import annotations

import json
import sys

from vsr import corpus, parser

MUTATIONS = (
    corpus.MutationKind.REORDER_TOP_ITEMS,
    corpus.MutationKind.RENAME_IDENTIFIERS,
    corpus.MutationKind.REWRITE_CONSTANTS,
)


class Driver:
    def __init__(self) -> None:
        self.records: list = []
        self.kept: list = []
        self.cfg = corpus.FilterConfig()

    def handle(self, cmd: dict) -> dict:
        op = cmd["op"]
        if op == "ingest":
            self.records = corpus.ingest(cmd["path"])
            self.kept = []
            self.cfg = corpus.FilterConfig(max_tokens=cmd["budget"])
            return {"records": len(self.records)}
        if op == "record":
            record = self.records[cmd["index"]]
            kept, dropped = corpus.curate([record], self.cfg)
            if dropped:
                d = dropped[0]
                return {"id": record.id, "kept": False,
                        "reason": d.reason.value, "detail": d.detail}
            self.kept.append(kept[0])
            mutants = []
            for kind in MUTATIONS:
                try:
                    text = corpus.mutate(record.ref_code, corpus.MutationSpec(kind, cmd["seed"]))
                except corpus.MutationError as exc:
                    mutants.append([None, f"mutation error: {exc}"])
                    continue
                mutants.append([text, parser.classify(text).status.value])
            return {"id": record.id, "kept": True, "mutants": mutants}
        if op == "stats":
            return {"stats": corpus.corpus_stats(self.kept)}
        raise ValueError(f"unknown op {op!r}")


def main() -> int:
    driver = Driver()
    out = sys.stdout
    out.write('{"ready": true}\n')
    out.flush()
    for line in sys.stdin:
        out.write(json.dumps(driver.handle(json.loads(line))) + "\n")
        out.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
