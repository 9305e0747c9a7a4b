"""Spans around the calls into each layer, and the per-layer metrics they give.

The traced run replays a run's calls in-process.  For the length of the
replay, `Tracer.install` rebinds each layer's public functions at the places
the package and the corpus driver look them up, so every call into a layer
opens a span; leaving the block restores the originals.  The package source
is not changed.

A span is (name, start ns, end ns, parent index, request id, tag).  Spans
stay in memory and are written out as JSON lines when the run ends.  A
span's self time is its duration minus the time its children cover.  Work
the tracer does itself (counting nodes) sits in `trace.count` spans, so no
layer is charged for it.

Which end-to-end metric each layer should move, and where:
  lexer, parser   cpu_ms_per_op and ops_per_s on rl_groups and corpus_build
  trees           cpu_ms_per_op on rl_groups
  similarity      call_p50_ms, call_tail_ms, cpu_ms_per_op on wide_items
  reward          ops_per_s and peak_rss_mb on rl_groups (ref_repeat_frac is
                  the best hit ratio a reference cache could reach,
                  ref_busy_frac the most it could save; both 0 elsewhere)
  service         call_p50_ms on http_single and rl_groups, cpu_ms_per_op on
                  http_single and wide_items
  printer, corpus ops_per_s on corpus_build only
"""

from __future__ import annotations

import importlib
import json
import time
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

# Span name -> layer.  Names not listed (bench.*, trace.*) belong to no layer.
LAYER = {
    "lexer.lex": "lexer",
    "parser.classify": "parser",
    "parser.parse": "parser",
    "trees.clean": "trees",
    "similarity.sim_ast": "similarity",
    "similarity.sim_ast_seq": "similarity",
    "reward.reward": "reward",
    "service.handle_line": "service",
    "service.evaluate": "service",
    "service.encode": "service",
    "printer.pretty_print": "printer",
    "corpus.ingest": "corpus",
    "corpus.curate": "corpus",
    "corpus.mutate": "corpus",
    "corpus.corpus_stats": "corpus",
}
FRONT_END = ("lexer", "parser", "trees")
REF, REPEATED_REF = "ref", "ref+"  # tags on front-end spans working on a reference


def _count(tree) -> int:
    n = 0
    stack = [tree]
    while stack:
        node = stack.pop()
        n += 1
        stack.extend(node.children)
    return n


class Tracer:
    """Nested spans on one logical thread of control.

    Replayed calls run one at a time; the service's per-request worker thread
    runs while the caller waits on it, so one stack keeps spans nested.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.request = None
        self.counts: Counter = Counter()
        self.max_sim_ns = 0
        self._nodes: dict[int, int] = {}  # id(clean tree) -> node count
        self._reward: dict | None = None  # the reward call in progress
        self._refs_seen: set[str] = set()

    def open(self, name: str, tag: str | None = None) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        if tag is None and parent >= 0:
            tag = self.spans[parent][5]
        self.spans.append([name, time.perf_counter_ns(), 0, parent, self.request, tag])
        self.stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter_ns()
        self.stack.pop()

    def span(self, name: str, fn, *args, **kwargs):
        idx = self.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(idx)

    # -- wrappers for each layer function --

    def _wrap(self, name, fn, after=None, tag_of=None):
        def traced(*args, **kwargs):
            idx = self.open(name, tag_of(args) if tag_of else None)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if after is not None:
                cidx = self.open("trace.count")
                try:
                    after(args, out, idx)
                finally:
                    self.close(cidx)
            return out

        return traced

    def _after_lex(self, args, tokens, idx):
        self.counts["lexer.tokens"] += len(tokens)

    def _after_parse(self, args, tree, idx):
        self.counts["parser.raw_nodes"] += _count(tree)

    def _after_classify(self, args, validity, idx):
        self.counts[f"parser.status.{validity.status.value}"] += 1
        ctx = self._reward
        if ctx is not None and args[0] is ctx["ref"]:
            ctx["ref_ast"] = validity.ast

    def _after_clean(self, args, tree, idx):
        n = _count(tree)
        self._nodes[id(tree)] = n
        self.counts["trees.clean_nodes"] += n

    def _after_sim(self, args, score, idx):
        self.counts["similarity.nodes"] += sum(self._nodes.get(id(t), 0) for t in args[:2])
        span = self.spans[idx]
        self.max_sim_ns = max(self.max_sim_ns, span[2] - span[1])

    def _ref_tag(self, arg, key):
        ctx = self._reward
        if ctx is None or arg is not ctx.get(key):
            return None
        return REPEATED_REF if ctx["repeat"] else REF

    def _classify_tag(self, args):
        return self._ref_tag(args[0], "ref")

    def _clean_tag(self, args):
        return self._ref_tag(args[0], "ref_ast")

    def _traced_reward(self, fn):
        inner = self._wrap("reward.reward", fn)

        def reward(gen, ref, **kwargs):
            repeat = ref in self._refs_seen
            self._refs_seen.add(ref)
            self._nodes = {}
            self.counts["reward.ref_repeats"] += repeat
            self._reward = {"ref": ref, "repeat": repeat}
            try:
                return inner(gen, ref, **kwargs)
            finally:
                self._reward = None

        return reward

    def _sites(self):
        """(object, attribute, replacement) for every call site traced."""
        # `vsr.reward` the module, not the function the package re-exports.
        corpus, parser, reward, service = (
            importlib.import_module(f"vsr.{m}") for m in ("corpus", "parser", "reward", "service")
        )

        w = self._wrap
        lex = w("lexer.lex", parser.lex, self._after_lex)
        classify = w("parser.classify", parser.classify, self._after_classify, self._classify_tag)
        clean = w("trees.clean", reward.clean, self._after_clean, self._clean_tag)
        sites = [
            (parser, "lex", lex),
            (parser, "parse", w("parser.parse", parser.parse, self._after_parse)),
            (parser, "classify", classify),
            (reward, "classify", classify),
            (reward, "clean", clean),
            (reward, "sim_ast", w("similarity.sim_ast", reward.sim_ast, self._after_sim)),
            (reward, "sim_ast_seq", w("similarity.sim_ast_seq", reward.sim_ast_seq, self._after_sim)),
            (service, "reward", self._traced_reward(service.reward)),
            (service, "evaluate", w("service.evaluate", service.evaluate)),
            (service, "handle_line", w("service.handle_line", service.handle_line)),
            (corpus, "lex", lex),
            (corpus, "classify", classify),
            (corpus, "clean", clean),
            (corpus, "pretty_print", w("printer.pretty_print", corpus.pretty_print)),
        ]
        for name in ("ingest", "curate", "mutate", "corpus_stats"):
            sites.append((corpus, name, w(f"corpus.{name}", getattr(corpus, name))))
        return sites

    @contextmanager
    def install(self):
        """Trace every site while inside the block; restore them on leaving."""
        saved = []
        try:
            for obj, attr, new in self._sites():
                saved.append((obj, attr, getattr(obj, attr)))
                setattr(obj, attr, new)
            yield self
        finally:
            for obj, attr, old in reversed(saved):
                setattr(obj, attr, old)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        keys = ("name", "start_ns", "end_ns", "parent", "request", "tag")
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(dict(zip(keys, span))) + "\n")


def self_times(spans) -> tuple[Counter, Counter, Counter, int]:
    """Per span name: self ns, total ns and count; plus repeated-ref front-end ns."""
    child_ns = [0] * len(spans)
    for _, start, end, parent, _, _ in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    self_ns: Counter = Counter()
    total_ns: Counter = Counter()
    count: Counter = Counter()
    repeated_ref_ns = 0
    for i, (name, start, end, _, _, tag) in enumerate(spans):
        own = end - start - child_ns[i]
        self_ns[name] += own
        total_ns[name] += end - start
        count[name] += 1
        if tag == REPEATED_REF and LAYER.get(name) in FRONT_END:
            repeated_ref_ns += own
    return self_ns, total_ns, count, repeated_ref_ns


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """The per-layer metrics that spans and counters give directly."""
    self_ns, total_ns, n, repeated_ref_ns = self_times(tracer.spans)
    c = tracer.counts
    ms = 1e-6

    def ratio(a, b):
        return a / b if b else 0.0

    lex_ns = self_ns["lexer.lex"]
    parser_ns = self_ns["parser.classify"] + self_ns["parser.parse"]
    sim_ast_ns, sim_seq_ns = self_ns["similarity.sim_ast"], self_ns["similarity.sim_ast_seq"]
    # In-process scoring time.  Every layer call under it is counted inside
    # it, so the tracer's own counting is taken off.
    scoring_ns = total_ns["service.evaluate"] - total_ns["trace.count"] if n["service.evaluate"] else 0
    requests = n["service.evaluate"]
    front_ns = lex_ns + parser_ns + self_ns["trees.clean"]
    return {
        "lexer.calls": n["lexer.lex"],
        "lexer.tokens": c["lexer.tokens"],
        "lexer.busy_ms": lex_ns * ms,
        "lexer.ns_per_token": ratio(lex_ns, c["lexer.tokens"]),
        "parser.calls": n["parser.classify"],
        "parser.raw_nodes": c["parser.raw_nodes"],
        "parser.busy_ms": parser_ns * ms,
        "parser.ns_per_node": ratio(parser_ns, c["parser.raw_nodes"]),
        "parser.parse_fail_frac": ratio(c["parser.status.parse_fail"], n["parser.classify"]),
        "parser.not_code_frac": ratio(c["parser.status.not_code"], n["parser.classify"]),
        "trees.clean_calls": n["trees.clean"],
        "trees.clean_nodes": c["trees.clean_nodes"],
        "trees.clean_busy_ms": self_ns["trees.clean"] * ms,
        "similarity.ast_calls": n["similarity.sim_ast"],
        "similarity.ast_busy_ms": sim_ast_ns * ms,
        "similarity.seq_calls": n["similarity.sim_ast_seq"],
        "similarity.seq_busy_ms": sim_seq_ns * ms,
        "similarity.nodes": c["similarity.nodes"],
        "similarity.us_per_node": ratio((sim_ast_ns + sim_seq_ns) / 1e3, c["similarity.nodes"]),
        "similarity.max_call_ms": tracer.max_sim_ns * ms,
        "reward.calls": n["reward.reward"],
        "reward.self_ms": self_ns["reward.reward"] * ms,
        "reward.ref_repeat_frac": ratio(c["reward.ref_repeats"], n["reward.reward"]),
        "reward.ref_busy_frac": ratio(repeated_ref_ns, total_ns["reward.reward"]),
        "service.evaluate_busy_ms": scoring_ns * ms,
        "service.dispatch_ms_per_req": ratio(self_ns["service.handle_line"] * ms, requests),
        "service.encode_ms_per_req": ratio(self_ns["service.encode"] * ms, requests),
        "printer.calls": n["printer.pretty_print"],
        "printer.busy_ms": self_ns["printer.pretty_print"] * ms,
        "corpus.curate_busy_ms": self_ns["corpus.curate"] * ms,
        "corpus.mutate_busy_ms": self_ns["corpus.mutate"] * ms,
        "scoring.frontend_frac": ratio(front_ns, scoring_ns),
        "scoring.similarity_frac": ratio(sim_ast_ns + sim_seq_ns, scoring_ns),
        "trace.spans": len(tracer.spans),
    }


def layer_self_ms(tracer: Tracer) -> dict[str, float]:
    self_ns = self_times(tracer.spans)[0]
    out: Counter = Counter()
    for name, ns in self_ns.items():
        if name in LAYER:
            out[LAYER[name]] += ns * 1e-6
    return dict(out)
