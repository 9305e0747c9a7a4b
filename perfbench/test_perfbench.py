"""Tests of the benchmark itself: inputs, oracle, metric names, child failures.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import importlib.util
import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import vsr  # noqa: E402

from perfbench import inputs, oracle, run, transport  # noqa: E402


@pytest.fixture(scope="module")
def naive():
    spec = importlib.util.spec_from_file_location("naive_reference", ROOT / "tests" / "naive_reference.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return oracle.NaiveOracle(module)


@pytest.fixture(scope="module")
def golden():
    return inputs.load_golden(ROOT)[:12]


@pytest.fixture
def small_wide(monkeypatch):
    monkeypatch.setattr(inputs, "WIDE_SIZES", (30, 40))


def _calls(stream, n=6):
    return [stream.next() for _ in range(n)]


def _dump(calls):
    return json.dumps([(c.requests, c.expected) for c in calls])


@pytest.mark.parametrize("kind", ["groups", "single", "wide"])
def test_generator_is_deterministic_per_seed_and_varies_across_seeds(kind, naive, golden, small_wide):
    def make(seed):
        if kind == "groups":
            return inputs.GroupStream(vsr, naive, golden, seed)
        if kind == "single":
            return inputs.SingleStream(vsr, naive, golden, seed)
        return inputs.WideStream(vsr, naive, seed)

    assert _dump(_calls(make(7))) == _dump(_calls(make(7)))
    assert _dump(_calls(make(7))) != _dump(_calls(make(8)))


def test_corpus_plan_is_deterministic_per_seed_and_varies_across_seeds(golden):
    assert inputs.corpus_plan(golden, 3) == inputs.corpus_plan(golden, 3)
    assert inputs.corpus_plan(golden, 3).records != inputs.corpus_plan(golden, 4).records


def test_references_repeat_in_groups_and_never_in_single_calls(naive, golden):
    groups = _calls(inputs.GroupStream(vsr, naive, golden, 1), 4)
    for call in groups:
        assert len(call.requests) == 16 and len(set(call.refs)) == 1
    singles = _calls(inputs.SingleStream(vsr, naive, golden, 1), 40)
    refs = [ref for call in singles for ref in call.refs]
    assert len(refs) == len(set(refs))


def test_expectations_match_the_library_byte_for_byte(naive, golden, small_wide):
    """The oracle's expected responses are what vsr.service.evaluate encodes."""
    streams = [
        inputs.GroupStream(vsr, naive, golden, 2),
        inputs.SingleStream(vsr, naive, golden, 2),
        inputs.WideStream(vsr, naive, 2),
    ]
    checked = 0
    for stream in streams:
        for call in _calls(stream, 20):
            for req, exp in zip(call.requests, call.expected):
                assert json.dumps(vsr.service.evaluate(req)) == json.dumps(exp)
                checked += 1
    assert checked > 100


def test_oracle_rejects_corrupted_responses():
    good = oracle.response("a", oracle.scored("parsed", 0.5))
    assert oracle.check_body(oracle.encode(good), [good], False) == (oracle.OK, 1)

    flipped = dict(good, reward=-good["reward"])
    assert oracle.check_body(oracle.encode(flipped), [good], False)[0] == oracle.WRONG

    bad = oracle.response("b", oracle.rejected(oracle.MSG_BAD_MODE))
    altered = dict(bad, error=oracle.MSG_BAD_MODE + ".")
    assert oracle.check_body(oracle.encode(altered), [bad], False)[0] == oracle.WRONG

    respaced = json.dumps(good, separators=(",", ":")).encode()
    assert oracle.check_body(respaced, [good], False)[0] == oracle.WRONG


def test_timeouts_and_unexpected_reference_errors_are_failed_calls_not_wrong_answers():
    good = oracle.response("a", oracle.scored("parsed", 1.0))
    timeout = oracle.response("a", oracle.rejected("evaluation exceeded 5000 ms"))
    unexpected = oracle.response("a", oracle.rejected("internal error: boom"))
    for got in (timeout, unexpected):
        body = oracle.encode([good, got])
        assert oracle.check_body(body, [good, good], True) == (oracle.FAILED, 1)


def test_tail_is_the_highest_percentile_with_ten_samples_beyond_it():
    value, pct = run.tail([float(i) for i in range(1, 101)])
    assert value == 90.0 and pct == 90.0
    assert sum(1 for x in range(1, 101) if x > value) == 10


@pytest.mark.parametrize("trace", [0, 1])
def test_every_printed_metric_is_declared(trace):
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "http_single", "--seed", "5",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert out.returncode == 0, out.stderr
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    lines = out.stdout.strip().splitlines()
    printed = {line.split()[1] for line in lines if line.startswith("metric ")}
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1
    assert printed == set(result["metrics"]) and printed <= set(declared)
    for name, m in result["metrics"].items():
        assert m["unit"] == declared[name]


def test_a_child_that_dies_mid_run_gives_failed_calls(tmp_path, naive, golden):
    stream = inputs.SingleStream(vsr, naive, golden, 1)
    child, _ = transport.start_stdio(ROOT, tmp_path / "stderr")
    child.proc.kill()
    result = transport.closed_loop(stream.next, transport.stdio_call, [child], 5.0)
    child.stop()
    assert [r.verdict for r in result.records] == [oracle.FAILED]

    server, port, _ = transport.start_http(ROOT, tmp_path / "stderr")
    client = transport.HttpClient(port, "/v1/reward")
    try:
        assert transport.http_call(client, stream.next())[0] == oracle.OK
        server.proc.kill()
        server.stop()
        result = transport.closed_loop(stream.next, transport.http_call, [client], 5.0)
    finally:
        client.close()
        server.stop()
    assert [r.verdict for r in result.records] == [oracle.FAILED]


def test_fails_without_a_source_tree(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "rl_groups", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
