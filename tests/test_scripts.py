"""Smoke tests for the scripts README documents: each runs as a subprocess,
as a user would run it, with `src` on PYTHONPATH."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

from conftest import GOLDEN_DIR

ROOT = Path(__file__).parent.parent


def _run(script: str, *args) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *map(str, args)],
        capture_output=True, text=True, env=env, timeout=60,
    )


def test_mutation_demo_keeps_greedy_similarity_at_one():
    proc = _run("mutation_demo.py", GOLDEN_DIR / "fifo_sync.v")
    assert proc.returncode == 0, proc.stderr
    rows = {line.split()[0]: line.split()[1:] for line in proc.stdout.splitlines()[2:]}
    assert set(rows) == {"reorder", "rename", "constants"}, proc.stdout
    for name, (sim_ast, _seq, _reward) in rows.items():
        assert sim_ast == "1.000000", (name, proc.stdout)


def test_build_corpus_writes_one_line_per_kept_record(tmp_path):
    out = tmp_path / "c.jsonl"
    proc = _run("build_corpus.py", GOLDEN_DIR, "--out", out)
    assert proc.returncode == 0, proc.stderr
    scanned, kept = map(int, re.match(r"(\d+) scanned, (\d+) kept", proc.stdout).groups())
    assert scanned == len(list(GOLDEN_DIR.glob("*.v")))
    records = [json.loads(line) for line in out.read_text(encoding="utf-8").splitlines()]
    assert len(records) == kept > 0
    assert all(set(record) == {"id", "spec", "code"} for record in records)
