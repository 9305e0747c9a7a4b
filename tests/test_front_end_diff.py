"""`scripts/front_end_diff.py`: a seeded, repeatable fingerprint per input,
and the front end's fingerprints checked against a file kept in the repo."""

import importlib.util
import platform
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "front_end_diff.py"
EXPECTED = ROOT / "tests" / "expected" / "front_end_fingerprints.txt"
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
    # of each family, 2 wide module pairs and 4 long texts
    assert len(first) == 4 + 4 * 2 + 4 + 10 + 10 + 2 + 4
    assert all(re.fullmatch(r"[^\t]+\t[0-9a-f]{40}", line) for line in first)
    names = [line.split("\t")[0] for line in first]
    assert names[:2] == ["golden/abs_val.v", "golden/adder4.v"]
    assert names[-6:] == ["wide/0", "wide/1", "long/0", "long/1", "long/2", "long/3"]
    assert names[12:16] == [f"blank/{name}/0" for name in names[:4]]
    assert len(set(names)) == len(names)


def test_seed_picks_the_generated_inputs(capsys):
    script = load_script()
    one = run(script, capsys, SMALL)
    other = run(script, capsys, [*SMALL[:1], "4", *SMALL[2:]])
    # the files as they are hash alike; the generated texts differ
    assert one[:4] == other[:4]
    assert one[-10:] != other[-10:]


def test_long_texts_have_their_shapes():
    script = load_script()
    files = [(p.name, p.read_text(encoding="utf-8"))
             for p in sorted((ROOT / "tests" / "golden").glob("*.v"))]
    rng = script.random.Random(5)
    texts = [script.gen_long(files, rng, n)[0] for n in range(4)]
    run = script.RUN
    assert all(len(text) > 3 * run for n, text in enumerate(texts) if n != 1)
    assert "\n" not in texts[1] and len(texts[1]) > run
    assert any(piece in texts[2] for piece in script.LONG_RARE[:4])
    assert any(piece in texts[3] for piece in script.LONG_RARE[4:-2])


def read_expected():
    """(the script's arguments, the Python version, name -> hash) from EXPECTED."""
    lines = EXPECTED.read_text(encoding="utf-8").splitlines()
    args = lines[0].removeprefix("# args: ").split()
    version = lines[1].removeprefix("# python: ")
    return args, version, dict(line.split("\t") for line in lines[2:])


def test_front_end_fingerprints_match_the_kept_file(capsys):
    """Every front-end output the script hashes is what the kept file says.

    A change that means to alter an output regenerates the file with the
    command in its first line and says why in CHANGES.md; any other change
    must leave every line as it is.
    """
    args, version, expected = read_expected()
    got = dict(line.split("\t") for line in run(load_script(), capsys, args))
    differ = sorted(name for name in expected.keys() & got.keys() if expected[name] != got[name])
    missing = sorted(expected.keys() - got.keys())
    extra = sorted(got.keys() - expected.keys())
    assert not (differ or missing or extra), (
        f"fingerprints kept under Python {version}, run under "
        f"{platform.python_version()}: differ {differ}, missing {missing}, new {extra}"
    )
