#!/usr/bin/env python3
"""The vsr benchmark: one seeded workload against the program in a child process.

    python3 perfbench/run.py --workload rl_groups --seed 1 --seconds 10 --trace 0

Run from a checkout holding `src/vsr` and `tests/golden`.  The program runs
in a child process built from that source tree; the benchmark drives it
closed loop for `--seconds`, checks every answer against the oracle, and
prints its metrics.  The last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  With `--trace 0` the metrics
are the end-to-end ones; with `--trace 1` the run is shorter, its calls are
then replayed in-process untraced and traced, and the metrics are per layer.

Workloads (see BENCHMARK.json for why each exists):
  rl_groups     POST /v1/reward/batch, 2 keep-alive connections, 16 samples
                against one golden reference per call
  wide_items    `vsr serve --stdio`, one generated 150-200 item pair per line
  http_single   POST /v1/reward, 1 keep-alive connection, one small pair per call
  corpus_build  curate, mutate and re-classify a JSONL corpus in a driver process

Exit status: 0 when every answer was right, 1 when any was wrong, 2 when the
benchmark could not run (no source tree, the program would not start).
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import random
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import inputs, oracle, transport  # noqa: E402

OUT = ROOT / "perfbench" / "out"
SETUP_SAMPLES = 7  # set-up is timed this many times per run; the median is reported
TRACE_E2E_SHARE = 0.4  # share of --seconds a traced run spends on its untraced e2e part
TAIL_BEYOND = 10  # the tail percentile has at least this many samples beyond it



def declared_units(trace: bool) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them for this kind of run."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def log(*parts) -> None:
    print(*parts, flush=True)


def tail(latencies: list[float]) -> tuple[float, float]:
    """(value, percentile): the highest percentile with TAIL_BEYOND samples above it."""
    xs = sorted(latencies)
    n = len(xs)
    k = max(0, n - TAIL_BEYOND - 1)
    return xs[k], 100.0 * (k + 1) / n


def environment(server_argv, load_start) -> dict:
    head = ROOT / ".git" / "HEAD"
    rev = "unknown (not a git checkout)"
    if head.is_file():
        ref = head.read_text().strip()
        rev = ref
        if ref.startswith("ref: "):
            target = ROOT / ".git" / ref[5:]
            rev = target.read_text().strip() if target.is_file() else ref
    return {
        "git_rev": rev,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_start": load_start,
        "loadavg_end": list(os.getloadavg()),
        "server_cmd": server_argv,
    }


# ---- workloads ----


class ServiceWorkload:
    """A workload served by `vsr serve` over HTTP or stdio."""

    def __init__(self, name, vsr, naive, seed):
        self.name = name
        self.vsr = vsr
        golden = inputs.load_golden(ROOT)
        if name == "rl_groups":
            self.stream = inputs.GroupStream(vsr, naive, golden, seed)
            self.transport, self.path, self.connections = "http", "/v1/reward/batch", 2
        elif name == "http_single":
            self.stream = inputs.SingleStream(vsr, naive, golden, seed)
            self.transport, self.path, self.connections = "http", "/v1/reward", 1
        else:
            self.stream = inputs.WideStream(vsr, naive, seed)
            self.transport, self.path, self.connections = "stdio", None, 1
        self.argv = None

    def start(self, log_path):
        if self.transport == "http":
            child, self.port, took = transport.start_http(ROOT, log_path)
        else:
            child, took = transport.start_stdio(ROOT, log_path)
        self.argv = child.argv
        return child, took

    def run(self, child, seconds):
        if self.transport == "http":
            clients = [transport.HttpClient(self.port, self.path) for _ in range(self.connections)]
            try:
                return transport.closed_loop(self.stream.next, transport.http_call, clients, seconds)
            finally:
                for c in clients:
                    c.close()
        return transport.closed_loop(self.stream.next, transport.stdio_call, [child], seconds)

    def post_check(self, records) -> list[str]:
        return []

    def replay_record(self, call) -> dict:
        """The call as the in-process replay gets it: a stdio line and its answer."""
        batch = self.path == "/v1/reward/batch"
        line = json.dumps({"batch": call.requests} if batch else call.requests[0])
        want = oracle.encode(call.expected if batch else call.expected[0]).decode()
        return {"line": line, "batch": batch, "expected": want}

    def pairs(self, call):
        """(ref, gen, mode, expected sim) for each request expected to parse."""
        for req, exp in zip(call.requests, call.expected):
            if exp.get("status") == "parsed":
                yield req["ref"], req["gen"], req["mode"], exp["sim"]


class CorpusCall:
    """One driver command; only record commands are timed calls and ops."""

    refs = ()

    def __init__(self, cmd, record=None, tokens=0, nodes=0, status=None):
        self.cmd = cmd
        self.timed = record is not None
        self.ops = int(self.timed)
        self.expected = record
        self.tokens, self.nodes = tokens, nodes
        self.statuses = [status] if status else []
        self.reply = None


class CorpusWorkload:
    """corpus_build: a driver process curates, mutates and re-classifies records."""

    def __init__(self, name, vsr, naive, seed):
        self.name = name
        self.vsr = vsr
        self.plan = inputs.corpus_plan(inputs.load_golden(ROOT), seed)
        self.corpus_path = OUT / f"corpus-{seed}.jsonl"
        inputs.write_corpus(self.plan, self.corpus_path)
        self.budget = inputs.CORPUS_BUDGET
        self.rng = random.Random(seed)
        self.pending: list[CorpusCall] = []
        front = inputs.Front(vsr)
        self.shapes = []
        for record in self.plan.records:
            _, tree, tokens = front.analyse(record["code"])
            outcome = self.plan.outcome[record["id"]]
            status = "kept" if outcome is None else f"dropped:{outcome[0]}"
            self.shapes.append((tokens, front.nodes(tree), status))
        self.argv = None

    def next_call(self) -> CorpusCall:
        if not self.pending:
            path = str(self.corpus_path)
            calls = [CorpusCall({"op": "ingest", "path": path, "budget": self.budget})]
            for i, record in enumerate(self.plan.records):
                cmd = {"op": "record", "index": i, "seed": self.rng.randrange(1 << 30)}
                calls.append(CorpusCall(cmd, record, *self.shapes[i]))
            calls.append(CorpusCall({"op": "stats"}))
            self.pending = calls[::-1]
        return self.pending.pop()

    def start(self, log_path):
        child, took = transport.start_corpus(ROOT, log_path)
        self.argv = child.argv
        return child, took

    def run(self, child, seconds):
        return transport.closed_loop(self.next_call, self.do_call, [child], seconds)

    def do_call(self, child, call):
        child.send_line(json.dumps(call.cmd).encode())
        line = child.read_line()
        try:
            call.reply = json.loads(line)
        except ValueError:
            return oracle.WRONG, 0, f"undecodable reply {line[:200]!r}"
        problem = self.judge(call, call.reply)
        if problem:
            return oracle.WRONG, 0, problem
        return oracle.OK, call.ops, None

    def judge(self, call, reply) -> str | None:
        """What is wrong with a reply, judged from the plan alone; None if nothing."""
        op = call.cmd["op"]
        if op == "ingest":
            return None if reply == {"records": len(self.plan.records)} else f"ingest said {reply}"
        if op == "stats":
            specs = [float(len(r["spec"].split())) for r in self.plan.records
                     if self.plan.outcome[r["id"]] is None]
            want = {"min": min(specs), "mean": sum(specs) / len(specs), "max": max(specs)}
            got = reply.get("stats", {})
            if got.get("spec_tokens") != want or len(got) != 5:
                return f"corpus_stats said {got}"
            return None
        record = call.expected
        outcome = self.plan.outcome[record["id"]]
        if reply.get("id") != record["id"]:
            return f"record {record['id']} answered as {reply.get('id')}"
        if outcome is None:
            mutants = reply.get("mutants")
            if not reply.get("kept") or not isinstance(mutants, list) or len(mutants) != 3:
                return f"record {record['id']} should be kept: {str(reply)[:200]}"
            for text, status in mutants:
                if not isinstance(text, str) or status != "parsed":
                    return f"record {record['id']} mutant is {status}"
            return None
        reason, detail = outcome
        got_detail = reply.get("detail", "")
        exact = record["id"] in self.plan.exact_detail
        if reply.get("kept") is not False or reply.get("reason") != reason:
            return f"record {record['id']} should drop for {reason}: {str(reply)[:200]}"
        if (got_detail != detail) if exact else not got_detail.startswith(detail):
            return f"record {record['id']} drop detail {got_detail!r}, want {detail!r}"
        if reason == "length" and not exact and not got_detail.endswith(f", budget {self.budget}"):
            return f"record {record['id']} drop detail {got_detail!r}"
        return None

    def post_check(self, records) -> list[str]:
        """Each mutant keeps its source's cleaned node kinds; rename and
        constants keep the whole cleaned tree."""
        vsr = self.vsr
        problems = []
        shapes = {}

        def shape(text):
            tree = vsr.clean(vsr.classify(text).ast)
            kinds = Counter(node.kind for node in vsr.iter_tree(tree))
            return kinds, vsr.serialize(tree)

        for rec in records:
            call = rec.call
            if not call.timed or rec.verdict != oracle.OK or not call.reply.get("kept"):
                continue
            code = call.expected["code"]
            if code not in shapes:
                shapes[code] = shape(code)
            kinds, text = shapes[code]
            for (mutant, _), kind in zip(call.reply["mutants"], ("reorder", "rename", "constants")):
                m_kinds, m_text = shape(mutant)
                if m_kinds != kinds or (kind != "reorder" and m_text != text):
                    problems.append(f"{kind} mutant of {call.expected['id']} changed the tree")
        return problems

    def replay_record(self, call) -> dict:
        return {"cmd": call.cmd, "reply": call.reply}

    def pairs(self, call):
        return ()


WORKLOADS = {
    "rl_groups": ServiceWorkload,
    "wide_items": ServiceWorkload,
    "http_single": ServiceWorkload,
    "corpus_build": CorpusWorkload,
}


# ---- measuring ----


def start_timed(workload, samples: int, tag: str):
    """Start the program `samples` times and keep the last child running.

    Returns the child, each start's seconds to first answer, and the CPU
    seconds each child but the last had used when stopped at that point.
    """
    times, startup_cpu = [], []
    child = None
    for _ in range(samples):
        if child is not None:
            startup_cpu.append(child.stop().cpu_s)
        child, took = workload.start(OUT / f"{tag}.stderr")
        times.append(took)
    return child, times, startup_cpu


def shape_of(records) -> dict:
    calls = [r.call for r in records if r.call.timed]
    status = Counter()
    seen, repeats, scored = set(), 0, 0
    for call in calls:
        status.update(call.statuses)
        for ref in call.refs:
            scored += 1
            repeats += ref in seen
            seen.add(ref)
    return {
        "calls": len(calls),
        "ops": sum(c.ops for c in calls),
        "tokens": sum(c.tokens for c in calls),
        "clean_nodes": sum(c.nodes for c in calls),
        "status": dict(status),
        "reward.ref_repeat_frac": repeats / scored if scored else 0.0,
    }


def summarize_loop(result):
    """(timed calls, ops answered, wall seconds, failed calls, wrong calls)."""
    timed = [r for r in result.records if r.call.timed]
    ops = sum(r.ops_ok for r in result.records)
    wall = result.records[-1].end - result.records[0].start if result.records else 0.0
    failed = sum(r.verdict == oracle.FAILED for r in timed)
    wrong = sum(r.verdict == oracle.WRONG for r in result.records)
    return timed, ops, wall, failed, wrong


def end_to_end(workload, seconds, seed):
    child, setup, startup_cpu = start_timed(workload, SETUP_SAMPLES, f"{workload.name}-{seed}")
    try:
        result = workload.run(child, seconds)
    finally:
        usage = child.stop()
    timed, ops, wall, failed, wrong = summarize_loop(result)
    problems = list(result.wrong) + workload.post_check(result.records)
    latencies = [r.latency_s * 1e3 for r in timed]
    log("setup_s samples:", [round(x, 4) for x in setup])
    log("shape", json.dumps(shape_of(result.records)))
    checked = sum(len(r.call.expected) if isinstance(r.call.expected, list) else 1
                  for r in result.records)
    log(f"check: {checked} responses checked, {wrong} calls wrong, "
        f"{len(problems) - len(result.wrong)} post-run problems, "
        f"{failed} of {len(timed)} calls failed")
    for p in problems:
        log("WRONG:", p)
    if not latencies or not ops:
        raise RuntimeError("no call completed")
    tail_ms, tail_pct = tail(latencies)
    metrics = {
        "setup_s": statistics.median(setup),
        "ops_per_s": ops / wall,
        "call_p50_ms": statistics.median(latencies),
        "call_tail_ms": tail_ms,
        # The child's CPU after set-up: what starting one costs is taken off.
        "cpu_ms_per_op": (usage.cpu_s - statistics.median(startup_cpu)) * 1e3 / ops,
        "peak_rss_mb": usage.maxrss_kb / 1024.0,
        "ok_call_frac": 1.0 - failed / len(timed),
    }
    log(f"call_tail_ms is p{tail_pct:.2f} of {len(latencies)} samples")
    return metrics, not problems and not wrong, len(timed), failed


def traced(workload, seconds, seed, vsr):
    child, _, _ = start_timed(workload, 1, f"{workload.name}-{seed}-trace")
    try:
        result = workload.run(child, max(1.0, seconds * TRACE_E2E_SHARE))
    finally:
        child.stop()
    timed, _, _, failed, wrong = summarize_loop(result)
    problems = list(result.wrong) + workload.post_check(result.records)
    calls = [r.call for r in result.records]
    log("shape", json.dumps(shape_of(result.records)))

    # Untraced and traced in-process replays, each in a fresh process.
    stem = OUT / f"{workload.name}-{seed}"
    calls_path = stem.with_suffix(".calls.jsonl")
    with open(calls_path, "w", encoding="utf-8") as handle:
        for call in calls:
            handle.write(json.dumps(workload.replay_record(call)) + "\n")
    plain = transport.replay(ROOT, calls_path, stem.with_suffix(".plain.json"))
    traced_run = transport.replay(ROOT, calls_path, stem.with_suffix(".traced.json"),
                                   OUT / f"spans-{workload.name}-{seed}.jsonl")
    problems += plain["problems"] + traced_run["problems"]

    # Each scored pair, rebuilt by hand through lex -> parse -> clean -> sim,
    # must give the reward's own score.
    chains = 0
    for call in calls:
        for ref, gen, mode, sim in workload.pairs(call):
            fn = vsr.sim_ast if mode == "ast" else vsr.sim_ast_seq
            trees = [vsr.clean(vsr.parse(vsr.lex(text))) for text in (gen, ref)]
            chains += 1
            if fn(*trees) != sim:
                problems.append(f"chain score differs from reward on {mode} pair")
    log(f"check: {len(calls)} calls replayed twice, {chains} lex->parse->clean->sim chains")

    metrics = traced_run["metrics"]
    counts = traced_run["counts"]
    latencies = [r.latency_s * 1e3 for r in timed]
    inproc = plain["per_call"]
    outside = [r.latency_s - inproc[i] for i, r in enumerate(result.records) if r.call.timed]
    metrics["e2e.call_p50_ms"] = statistics.median(latencies) if latencies else 0.0
    metrics["service.transport_ms_per_call"] = (
        statistics.fmean(outside) * 1e3 if workload.name != "corpus_build" and outside else 0.0)
    for name in ("service.timeouts", "service.status.parsed", "service.status.parse_fail",
                 "service.status.not_code", "service.status.reference_error",
                 "corpus.kept", "corpus.dropped"):
        metrics[name] = counts.get(name, 0)
    metrics["trace.overhead_frac"] = traced_run["seconds"] / plain["seconds"] - 1.0
    traced_ms = traced_run["seconds"] * 1e3
    for layer, ms in sorted(traced_run["layer_self_ms"].items()):
        log(f"layer {layer:<10} self {ms:10.2f} ms  {100 * ms / traced_ms:5.1f}% of the traced replay")
    for p in problems:
        log("WRONG:", p)
    return metrics, not problems and not wrong, len(timed), failed


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "vsr" / "__init__.py").is_file() or not (ROOT / "tests" / "golden").is_dir():
        print(f"perfbench: {ROOT} holds no vsr source tree (src/vsr) and golden corpus "
              "(tests/golden); run from a full checkout", file=sys.stderr)
        return 2
    import vsr

    spec = importlib.util.spec_from_file_location("naive_reference", ROOT / "tests" / "naive_reference.py")
    naive_module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(naive_module)

    load_start = list(os.getloadavg())
    log(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    t0 = time.perf_counter()
    workload = WORKLOADS[args.workload](args.workload, vsr, oracle.NaiveOracle(naive_module), args.seed)
    log(f"inputs prepared in {time.perf_counter() - t0:.2f} s")
    try:
        if args.trace:
            metrics, correct, attempted, failed = traced(workload, args.seconds, args.seed, vsr)
        else:
            metrics, correct, attempted, failed = end_to_end(workload, args.seconds, args.seed)
    except RuntimeError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    units = declared_units(bool(args.trace))
    if set(units) != set(metrics):
        print(f"perfbench: measured {sorted(set(metrics) - set(units))} undeclared, "
              f"declared {sorted(set(units) - set(metrics))} unmeasured", file=sys.stderr)
        return 2
    for name, value in metrics.items():
        log(f"metric {name} = {value} {units[name]}")
    log("env", json.dumps(environment(workload.argv, load_start)))
    print(json.dumps({
        "correct": bool(correct),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
