"""Every CLI command is total: on hostile input it exits 0, 1 or 2, with one
`vsr:` line on stderr for 1 and argparse's usage for 2, and never lets an
exception escape `vsr.cli.main`."""

import json

import pytest

from vsr import cli

GOOD = "module m(input a, output y);\n  assign y = a;\nendmodule\n"
CHAIN = " + ".join(["a", "4'd3"] * 600)
NESTED = "(" * 300 + "a" + ")" * 300

# name -> file contents; `None` names a path that is a directory or missing
HOSTILE = {
    "non_utf8": b"module m(input a, output y);\n  assign y = \xff\xfe;\nendmodule\n",
    "nul": b"module m(input a, output y);\x00\n  assign y = a;\nendmodule\n",
    "empty": b"",
    "directory": None,
    "missing": None,
    "chain": f"module m(input a, output y);\n  assign y = {CHAIN};\nendmodule\n".encode(),
    "nested": f"module m(input a, output y);\n  assign y = {NESTED};\nendmodule\n".encode(),
    "lone_cr": GOOD.replace("\n", "\r").encode(),
    "bom": b"\xef\xbb\xbf" + GOOD.encode(),
}


def _record(code: bytes) -> bytes:
    return json.dumps({"id": "r", "spec": "s", "code": code.decode()}).encode() + b"\n"


# A JSONL command also reads each decodable text as a corpus record's code,
# and a file whose first line is a corpus record and an outcome, and whose
# second is not UTF-8.
RECORDS = {
    f"record_{name}": _record(data)
    for name, data in HOSTILE.items()
    if name in ("chain", "nested", "lone_cr", "bom", "nul")
}
BOTH = {"id": "r", "spec": "s", "code": GOOD, "task": "t", "trials": [True]}
RECORDS["jsonl_non_utf8"] = json.dumps(BOTH).encode() + b'\n{"id": "\xff"}\n'


def _path(tmp_path, name, data):
    path = tmp_path / name
    if name == "directory":
        path.mkdir()
    elif data is not None:
        path.write_bytes(data)
    return str(path)


def _argvs(tmp_path):
    """Every command on every hostile input, as (label, argv)."""
    good = _path(tmp_path, "good.v", GOOD.encode())
    for name, data in {**HOSTILE, **RECORDS}.items():
        path = _path(tmp_path, name, data)
        if name in HOSTILE:
            yield name, ["parse", path]
            yield name, ["parse", path, "--emit", "tokens"]
            yield name, ["clean", path]
            yield name, ["clean", path, "--emit", "stats"]
            for gen, ref in ((path, good), (good, path)):
                yield name, ["sim", ref, gen]
                yield name, ["sim", ref, gen, "--trace"]
                yield name, ["reward", ref, gen]
            for kind in ("reorder", "rename", "constants"):
                yield name, ["corpus", "mutate", path, "--kind", kind, "--seed", "1"]
        yield name, ["report", path]
        yield name, ["corpus", "filter", path]
        yield name, ["corpus", "stats", path]
    for n, c, k in (("0", "0", "1"), ("3", "5", "1"), ("x", "1", "1"), ("10" * 40, "1", "7")):
        yield f"passk {n[:8]} {c} {k}", ["passk", "--n", n, "--c", c, "--k", k]


def test_every_command_is_total_on_hostile_input(tmp_path, capsys):
    codes = set()
    for label, argv in _argvs(tmp_path):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        out, err = capsys.readouterr()
        assert "Traceback" not in out + err, (label, argv)
        assert code in (0, 1, 2), (label, argv, code)
        if code == 0:
            assert err == "", (label, argv, err)
        elif code == 1:
            assert err.startswith("vsr: ") and err.count("\n") == 1, (label, argv, err)
        else:
            assert err.startswith("usage: vsr"), (label, argv, err)
        codes.add(code)
    assert codes == {0, 1, 2}
