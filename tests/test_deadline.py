"""Cooperative deadlines: every long loop stops once its deadline passes,
and a deadline that does not pass changes no result."""

import re
import time

import pytest

from helpers import wide_module
import vsr.lexer
from vsr.deadline import CHECK_EVERY, DeadlineExceeded
from vsr.lexer import LexError, TokenKind, kinds_of, lex
from vsr.parser import classify, parse, shape
from vsr.reward import reward
from vsr.similarity import _INDEX_WIDTH, sim_ast, sim_ast_seq
from vsr.trees import CleanNode, NodeKind, clean

FAT = wide_module(600)  # passes every loop's first deadline check
# The operands of every assign swapped: kinds agree, order does not.
FAT_SWAPPED = re.sub(r"= (\w+) \^ (8'd\d+);", r"= \2 ^ \1;", FAT)
SMALL = "module m(input a, output y);\n  assign y = ~a;\nendmodule"


def case_module(arms: int, op: str) -> str:
    body = "".join(f"      10'd{i}: y = (a {op} b) + 8'd{i % 256};\n" for i in range(arms))
    return (
        "module big(input [9:0] sel, input [7:0] a, input [7:0] b,"
        " output reg [7:0] y);\n  always @(*) begin\n    case (sel)\n"
        + body
        + "      default: y = 8'd0;\n    endcase\n  end\nendmodule\n"
    )


def passed() -> float:
    return time.monotonic()


def far() -> float:
    return time.monotonic() + 3600.0


def cleaned_pair(gen: str, ref: str):
    table: dict = {}
    return clean(classify(gen).ast, table), clean(classify(ref).ast, table)


class TestEachLoopStops:
    def test_lex(self):
        with pytest.raises(DeadlineExceeded):
            lex(FAT, deadline=passed())

    def test_kinds(self):
        with pytest.raises(DeadlineExceeded):
            kinds_of(["a"] * (CHECK_EVERY + 1), deadline=passed())

    def test_shape(self):
        with pytest.raises(DeadlineExceeded):
            shape(["a"] * (CHECK_EVERY + 1), deadline=passed())

    def test_parse(self):
        tokens = lex(FAT)
        with pytest.raises(DeadlineExceeded):
            parse(tokens, deadline=passed())

    def test_parse_directive_filter(self):
        # Fewer tokens than one check interval reach the parser proper.
        tokens = lex("`timescale 1ns/1ps\n" * (3 * 4096 + 1)) + lex(SMALL)
        assert tokens[0].kind is TokenKind.DIRECTIVE
        with pytest.raises(DeadlineExceeded):
            parse(tokens, deadline=passed())

    def test_classify_lets_it_through(self):
        # classify is total, but a passed deadline is no verdict on the text
        with pytest.raises(DeadlineExceeded):
            classify(FAT, deadline=passed())

    def test_clean(self):
        ast = classify(FAT).ast
        with pytest.raises(DeadlineExceeded):
            clean(ast, {}, deadline=passed())

    def test_greedy_similarity(self):
        gen, ref = cleaned_pair(case_module(800, "-"), case_module(800, "+"))
        with pytest.raises(DeadlineExceeded):
            sim_ast(gen, ref, deadline=passed())

    def test_greedy_similarity_narrow_rows(self):
        # Built without interning, and every row is narrower than the path
        # index's cut-off, so only the plain scan runs.  Each row charges
        # its width plus one, so each of the 400 Always pairs the module's
        # rows need charges 20 x 21 steps, far past one check interval.
        def tree(leaf_kind):
            assign = NodeKind.CONTINUOUS_ASSIGN
            return CleanNode(
                NodeKind.MODULE_DEF,
                tuple(
                    CleanNode(
                        NodeKind.ALWAYS,
                        tuple(
                            CleanNode(assign, (CleanNode(NodeKind.ID), CleanNode(leaf_kind)))
                            for _ in range(20)
                        ),
                    )
                    for _ in range(20)
                ),
            )

        gen, ref = tree(NodeKind.CONST), tree(NodeKind.ID)
        assert len(ref.children) < _INDEX_WIDTH and len(ref.children[0].children) < _INDEX_WIDTH
        with pytest.raises(DeadlineExceeded):
            sim_ast(gen, ref, deadline=passed())

    def test_positional_similarity(self):
        # Built without interning, so no pair of nodes is shared or repeats.
        def wide(leaf_kind):
            assign = NodeKind.CONTINUOUS_ASSIGN
            return CleanNode(
                NodeKind.MODULE_DEF,
                tuple(
                    CleanNode(assign, (CleanNode(NodeKind.ID), CleanNode(leaf_kind)))
                    for _ in range(6000)
                ),
            )

        gen, ref = wide(NodeKind.CONST), wide(NodeKind.ID)
        with pytest.raises(DeadlineExceeded):
            sim_ast_seq(gen, ref, deadline=passed())


def test_a_deadline_that_does_not_pass_changes_nothing(golden_sources):
    sources = [golden_sources[name] for name in sorted(golden_sources)]
    sources += [FAT, FAT_SWAPPED, SMALL, "not code", "module m(input a endmodule"]
    for i, gen in enumerate(sources):
        ref = sources[(i * 7 + 3) % len(sources)]
        if not classify(ref).is_parsed:
            ref = SMALL
        for mode in ("ast", "seq"):
            assert reward(gen, ref, mode=mode, deadline=far()) == reward(
                gen, ref, mode=mode
            )
    assert lex(FAT, deadline=far()) == lex(FAT)


def test_lexing_across_slices_matches_lexing_a_piece():
    # Every lexeme class, repeated far past the lexer's slice length, so
    # slice ends fall on all of them.
    piece = (
        "`define W 8\nmodule m /* block\n comment */ (input a, output y);"
        ' // line\n  initial $display("s\\"q", `W);\n  assign \\esc$id = '
        "8'hF_F + 3.5e2 <<< 2'b1z;\nendmodule\n"
    )
    unit = lex(piece)
    repeats = 3 * 4096 // len(unit) + 7
    tokens = lex(piece * repeats, deadline=far())
    assert len(tokens) == repeats * len(unit)
    for r in range(repeats):
        shift = r * len(piece)
        got = tokens[r * len(unit) : (r + 1) * len(unit)]
        assert [(t.kind, t.text, (t.span[0] - shift, t.span[1] - shift)) for t in got] == [
            tuple(t) for t in unit
        ]


def test_stopped_reference_leaves_no_memo_entry():
    memo: dict = {}
    with pytest.raises(DeadlineExceeded):
        reward(SMALL, FAT, memo=memo, deadline=passed())
    assert memo == {}
    assert reward(FAT_SWAPPED, FAT, memo=memo) == reward(FAT_SWAPPED, FAT)
    assert list(memo) == [FAT]



@pytest.mark.parametrize(
    "line,tokens",
    [
        # Each line comment is a match of its own, so a body of comments is
        # checked as often as a body of code.
        ("// c\n", 0),
        # Each of these lexemes ends its slice early.
        ("x $y\n", 2),
        ("/* c */ x\n", 1),
        ('x = "s";\n', 4),
    ],
)
def test_lines_are_checked_at_least_once_per_interval(monkeypatch, line, tokens):
    calls = []
    real = vsr.lexer.check
    monkeypatch.setattr(vsr.lexer, "check", lambda d: calls.append(d) or real(d))
    lines = 100_000
    assert len(lex(line * lines)) == tokens * lines
    assert len(calls) >= lines // CHECK_EVERY


BIG = 8 * 1024 * 1024


@pytest.mark.parametrize(
    "source",
    [
        pytest.param('"' + "x" * BIG + '"', id="string"),
        pytest.param('"' + "x" * BIG, id="unterminated-string"),
        pytest.param("\\" + "x" * BIG + " ", id="escaped-identifier"),
        pytest.param('"' + "\\q" * (BIG // 2) + '"', id="escape-dense-string"),
    ],
)
def test_a_long_lexeme_answers_soon_after_its_deadline(source):
    start = time.monotonic()
    try:
        lex(source, deadline=start + 0.05)
    except (DeadlineExceeded, LexError):
        pass
    assert time.monotonic() - start < 0.5


def test_a_string_of_escapes_stops_at_a_passed_deadline():
    with pytest.raises(DeadlineExceeded):
        lex('"' + "\\q" * (3 * CHECK_EVERY) + '"', deadline=passed())


def test_a_copy_checks_the_deadline():
    memo: dict = {}
    reward(SMALL, SMALL, memo=memo)
    with pytest.raises(DeadlineExceeded):
        reward(SMALL, SMALL, memo=memo, deadline=passed())
