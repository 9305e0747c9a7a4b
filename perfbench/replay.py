"""Replay a run's calls in-process, in a fresh interpreter, untraced or traced.

    python3 perfbench/replay.py CALLS.jsonl RESULT.json [SPANS.jsonl]

Each line of CALLS is either {"line", "batch", "expected"}: one service call
as the stdio loop would get it and the exact bytes it must answer, or
{"cmd", "reply"}: one corpus-driver command and the reply the driver process
gave.  With a SPANS path the replay is traced (see trace.py) and the spans
are written there.  RESULT gets the total and per-call seconds, any
mismatches, response status counts and, when traced, the per-layer metrics.

The run starts a fresh process for each replay so that neither inherits
state, such as a warmed cache, from the other or from input preparation.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from collections import Counter
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def replay(calls, tracer) -> dict:
    from perfbench.corpus_driver import Driver

    service = importlib.import_module("vsr.service")
    config = service.ServiceConfig()
    per_call, problems = [], []
    statuses: Counter = Counter()
    driver = None
    with tracer.install() if tracer else nullcontext():
        start = time.perf_counter()
        for i, call in enumerate(calls):
            t0 = time.perf_counter()
            if tracer:
                tracer.request = i
                idx = tracer.open("bench.call")
            try:
                if "cmd" in call:
                    if call["cmd"]["op"] == "ingest":
                        driver = Driver()
                    reply = driver.handle(call["cmd"])
                    ok = reply == call["reply"]
                else:
                    responses = service.handle_line(call["line"], config)
                    payload = responses if call["batch"] else responses[0]
                    if tracer:
                        body = tracer.span("service.encode", json.dumps, payload)
                    else:
                        body = json.dumps(payload)
                    ok = body == call["expected"]
            finally:
                if tracer:
                    tracer.close(idx)
            per_call.append(time.perf_counter() - t0)
            if not ok:
                problems.append(f"replayed call {i} answered differently")
            if "cmd" in call:
                if "kept" in reply:
                    statuses["corpus.kept" if reply["kept"] else "corpus.dropped"] += 1
            else:
                for r in responses:
                    statuses[f"service.status.{r['status']}"] += 1
                    if str(r.get("error") or "").startswith("evaluation exceeded"):
                        statuses["service.timeouts"] += 1
        total = time.perf_counter() - start
    return {"seconds": total, "per_call": per_call, "problems": problems, "counts": statuses}


def main(argv: list[str]) -> int:
    calls_path, result_path = Path(argv[0]), Path(argv[1])
    spans_path = Path(argv[2]) if len(argv) > 2 else None
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import trace

    calls = [json.loads(line) for line in calls_path.read_text(encoding="utf-8").splitlines()]
    tracer = trace.Tracer() if spans_path else None
    result = replay(calls, tracer)
    if tracer:
        result["metrics"] = trace.layer_metrics(tracer)
        result["layer_self_ms"] = trace.layer_self_ms(tracer)
        tracer.write(spans_path)
    result_path.write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
