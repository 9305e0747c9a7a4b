"""The scoring front end is exact: the bulk lexer gives the per-match
lexer's tokens, and the interning parse gives the very nodes `clean` gives."""

import importlib.util
import time
from pathlib import Path

import pytest

from helpers import wide_module
from vsr.deadline import DeadlineExceeded
from vsr.lexer import _RUN, LexError, _lex_slow, lex, scan
from vsr.parser import classify, classify_into
from vsr.reward import reward
from vsr.similarity import sim_ast, sim_ast_seq
from vsr.trees import clean

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "front_end_diff.py"
SMALL = "module m(input a, output y);\n  assign y = ~a;\nendmodule\n"


def load_script():
    spec = importlib.util.spec_from_file_location("front_end_diff", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def script_inputs():
    """(name, text, reference) for golden files, fixtures, their damaged and
    blank-redrawn copies, generated texts, wide pairs and long texts."""
    return list(load_script().inputs(1, 1, 60, None, 4))


INPUTS = script_inputs() + [("wide_module/600", wide_module(600), SMALL)]
FAMILIES = sorted({name.split("/")[0] for name, _, _ in INPUTS})


# ---- Lexing ----


def per_match(text: str):
    """The tokens of the per-match path alone, or its error."""
    texts, kinds, spans = [], [], []
    try:
        _lex_slow(text, 0, len(text), texts, kinds, spans, None)
    except LexError as exc:
        return ("error", str(exc), exc.span)
    return texts, kinds, spans


def bulk(text: str, spans: bool):
    try:
        texts, kinds, found_spans = scan(text, spans=spans)
    except LexError as exc:
        return ("error", str(exc), exc.span)
    return texts, kinds, found_spans


def assert_lexes_alike(text: str) -> None:
    want = per_match(text)
    assert bulk(text, True) == want
    without = bulk(text, False)
    if want[0] == "error":
        assert without == want
    else:
        assert without == (want[0], want[1], None)
        tokens = lex(text)
        assert [t.text for t in tokens] == want[0]
        assert [t.kind for t in tokens] == want[1]
        assert [t.span for t in tokens] == want[2]
        assert all(text[a:b] == t for (a, b), t in zip(want[2], want[0]))


# Every lexeme class: keywords, identifiers, numbers of each form, operators
# short and long, punctuation, whole-line and mid-line directives, system
# and escaped identifiers, strings with escapes and with an escaped line
# end, line comments and block comments on one line and on two.
PIECE = (
    "`define W 8\nmodule m /* block\n comment */ (input a, output y);"
    ' // line\n  initial $display("s\\"q", `W);\n  assign \\esc$id = '
    "8'hF_F + 3.5e2 <<< 2'b1z - 7 ** 1e3;\n x $y /* one */ b >>> c !== d;\n"
    ' `M x\n x = "s"; y = "a\\\nb";\n{a, b} <= ~& c ^~ d ? e : f[3 +: 2];\nendmodule\n'
)


@pytest.mark.parametrize("shift", range(len(PIECE)))
def test_run_ends_fall_anywhere_in_a_piece(shift):
    # Past two runs, shifted so each run ends at another place in a piece.
    text = PIECE[shift:] + PIECE * (2 * _RUN // len(PIECE) + 1)
    assert_lexes_alike(text)


@pytest.mark.parametrize(
    "text",
    [
        pytest.param("module m; assign y = " + "a+" * 20000 + "a;\nendmodule\n", id="long"),
        pytest.param("module m; assign y = " + "a+" * 6000 + "a;\nendmodule\n", id="over-a-run"),
        pytest.param("x $y\n" * 20000, id="system-ids"),
        pytest.param("/* c */ x\n" * 20000, id="block-comments"),
        pytest.param("`M x\n" * 20000, id="macro-uses"),
        pytest.param('x = "s";\n' * 20000, id="strings"),
        pytest.param("a\n" * 9000 + '"' + "x" * 3 * _RUN, id="unterminated-string"),
        pytest.param("a\n" * 9000 + "/* c\n" * 5000, id="unterminated-comment"),
        pytest.param("a b\n" * 5000 + "\\ x", id="empty-escape"),
        pytest.param("a b" * 5000 + " é", id="illegal-character"),
        pytest.param("x\n" + " " * 40000, id="trailing-blanks"),
        pytest.param("x // c", id="comment-at-the-end"),
        pytest.param("", id="empty"),
    ],
)
def test_bulk_and_per_match_lexing_agree(text):
    assert_lexes_alike(text)


@pytest.mark.parametrize("blanks", ["", "  "])
def test_a_directive_line_where_a_run_starts(blanks):
    # The first run ends at the newline after its first _RUN characters.
    text = "a" * _RUN + "\n" + blanks + "`timescale 1ns/1ps\n" + "a\n" * 10
    assert_lexes_alike(text)
    # The per-match path hands back at a line start a little past a rare
    # lexeme; put a directive line at each line start after it.
    for k in range(40):
        assert_lexes_alike("`M x\n" + "a\n" * k + blanks + "`timescale 1ns\n" + "b\n" * 40)


@pytest.mark.parametrize("family", FAMILIES)
def test_script_inputs_lex_alike(family):
    for name, text, _ in INPUTS:
        if name.split("/")[0] == family:
            assert_lexes_alike(text)


# ---- Interning ----


@pytest.mark.parametrize("family", FAMILIES)
def test_interning_gives_the_cleaned_tree(family):
    for name, text, ref in INPUTS:
        if name.split("/")[0] != family:
            continue
        validity = classify(text)
        ref_table: dict = {}
        ref_status, ref_tree = classify_into(ref, ref_table)
        # into a fresh table, and into a copy of the reference's, as
        # `reward` interns a sample
        for table in ({}, dict(ref_table)):
            status, tree = classify_into(text, table)
            assert status is validity.status, name
            if validity.ast is None:
                assert tree is None, name
            else:
                assert clean(validity.ast, table) is tree, name
        if ref_tree is not None and validity.ast is not None:
            table: dict = {}
            want_ref = clean(classify(ref).ast, table)
            want_gen = clean(validity.ast, table)
            for mode, fn in (("ast", sim_ast), ("seq", sim_ast_seq)):
                out = reward(text, ref, mode=mode, depth_limit=10**6)
                assert out.sim == fn(want_gen, want_ref, depth_limit=10**6), name


# ---- Deadlines ----

FOUR_MB = "a+" * (2 * 1024 * 1024)


@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda d: lex(FOUR_MB, deadline=d), id="lex"),
        pytest.param(lambda d: reward(FOUR_MB, SMALL, deadline=d), id="reward-sample"),
        pytest.param(lambda d: reward(SMALL, FOUR_MB, deadline=d), id="reward-reference"),
    ],
)
def test_a_long_line_stops_soon_after_its_deadline(call):
    deadline = time.monotonic() + 0.05
    with pytest.raises(DeadlineExceeded):
        call(deadline)
    assert time.monotonic() - deadline < 0.1
