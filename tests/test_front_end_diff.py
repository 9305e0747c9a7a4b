"""`scripts/front_end_diff.py`: a seeded, repeatable fingerprint per input."""

import importlib.util
import re
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "front_end_diff.py"
SMALL = ["--seed", "3", "--copies", "1", "--generated", "10", "--limit", "2", "--wide", "2"]


def load_script():
    spec = importlib.util.spec_from_file_location("front_end_diff", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run(script, capsys, args):
    assert script.main(args) == 0
    return capsys.readouterr().out.splitlines()


def test_small_seed_runs_and_repeats(capsys):
    script = load_script()
    first = run(script, capsys, SMALL)
    assert run(script, capsys, SMALL) == first
    # 2 golden files and 2 fixtures, a token- and a character-damaged copy
    # of each, a copy of each with its blank runs redrawn, 10 generated texts
    # of each family and 2 wide module pairs
    assert len(first) == 4 + 4 * 2 + 4 + 10 + 10 + 2
    assert all(re.fullmatch(r"[^\t]+\t[0-9a-f]{40}", line) for line in first)
    names = [line.split("\t")[0] for line in first]
    assert names[:2] == ["golden/abs_val.v", "golden/adder4.v"]
    assert names[-2:] == ["wide/0", "wide/1"]
    assert names[12:16] == [f"blank/{name}/0" for name in names[:4]]
    assert len(set(names)) == len(names)


def test_seed_picks_the_generated_inputs(capsys):
    script = load_script()
    one = run(script, capsys, SMALL)
    other = run(script, capsys, [*SMALL[:1], "4", *SMALL[2:]])
    # the files as they are hash alike; the generated texts differ
    assert one[:4] == other[:4]
    assert one[-10:] != other[-10:]
