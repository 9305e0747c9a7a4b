"""Every CLI command is total: on hostile input it exits 0, 1 or 2, with one
`vsr:` line on stderr for 1 and argparse's usage for 2, and never lets an
exception escape `vsr.cli.main`.  Every library entry point is total too: on
the same inputs, and on drawn text, it raises only the errors README lists
for it."""

import json
from functools import partial

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from vsr import cli
from vsr.corpus import (
    CorpusFormatError,
    CorpusRecord,
    MutationError,
    MutationKind,
    MutationSpec,
    curate,
    ingest,
    mutate,
)
from vsr.parser import classify
from vsr.printer import PrintError, pretty_print
from vsr.reward import ReferenceParseError, ReferenceTooDeepError, reward
from vsr.service import evaluate

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


# The errors README lists for each library entry point; an empty tuple
# means it never raises.
DOCUMENTED = {
    "reward": (ReferenceParseError, ReferenceTooDeepError),
    "evaluate": (),
    "classify": (),
    "ingest": (CorpusFormatError, OSError),
    "curate": (),
    "mutate": (MutationError,),
    "pretty_print": (PrintError,),
}


def _library_calls(text: str, memo: dict):
    """(name, call) for each library entry point on `text`, as generation
    and as reference, with and without a batch memo."""
    for gen, ref in ((text, GOOD), (GOOD, text)):
        for mode in ("ast", "seq"):
            yield "reward", partial(reward, gen, ref, mode=mode)
            yield "reward", partial(reward, gen, ref, mode=mode, memo=memo)
        yield "evaluate", partial(evaluate, {"id": 1, "ref": ref, "gen": gen})
    yield "classify", partial(classify, text)
    yield "curate", partial(curate, [CorpusRecord("r", "spec", text)])
    for kind in MutationKind:
        yield "mutate", partial(mutate, text, MutationSpec(kind, 1))
    validity = classify(text)
    # every non-parsed result names its one cause
    assert validity.is_parsed or len(validity.diagnostics) == 1, validity
    root = validity.ast
    if root is not None:
        # a module item is no printable root, so it must be a PrintError
        for node in (root, *root.children, *(m.children[0] for m in root.children if m.children)):
            yield "pretty_print", partial(pretty_print, node)


def _errors_raised(text: str, memo: dict) -> set:
    """The documented error types the calls on `text` raised; any other
    exception escapes and fails the test."""
    raised = set()
    for name, call in _library_calls(text, memo):
        try:
            call()
        except DOCUMENTED[name] as exc:
            raised.add(type(exc))
    return raised


def test_every_library_call_is_total_on_hostile_input(tmp_path):
    memo: dict = {}
    raised = set()
    for name, data in {**HOSTILE, **RECORDS}.items():
        path = _path(tmp_path, name, data)
        try:
            ingest(path)
        except DOCUMENTED["ingest"] as exc:
            raised.add(type(exc))
        if data is not None and name in HOSTILE:
            text = data.decode("utf-8", errors="surrogateescape")
            raised |= _errors_raised(text, memo)
            raised |= _errors_raised(data.decode("utf-8", errors="replace"), memo)
    expected = {ReferenceParseError, ReferenceTooDeepError, MutationError, PrintError}
    assert expected | {CorpusFormatError} <= raised


PIECES = (
    "module", "m", "(", ")", ";", "endmodule", "assign", "y", "=", "a", "+",
    "input", "output", ",", "wire", "reg", "[7:0]", "always", "@(*)", "begin",
    "end", "if", "else", "?", ":", "8'hff", "'d3", '"s"', "`define W 8", "`W",
    "\\esc ", "$display", "// c\n", "/*", "*/", "\n", "{", "}", "case",
    "endcase", "default", "\x00", "\ufeff", "\r",
)
DRAWN = st.one_of(
    st.text(max_size=80),
    st.lists(st.sampled_from(PIECES), max_size=40).map(" ".join),
    st.tuples(st.integers(0, len(GOOD)), st.text(max_size=8)).map(
        lambda cut: GOOD[: cut[0]] + cut[1] + GOOD[cut[0]:]
    ),
)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(DRAWN)
def test_every_library_call_is_total_on_drawn_text(text):
    _errors_raised(text, {})
