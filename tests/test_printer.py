import pytest

from vsr import parser
from vsr.parser import classify, parse_source
from vsr.printer import PrintError, pretty_print
from vsr.trees import NodeKind, RawNode, clean, iter_tree


def test_round_trip_preserves_cleaned_tree(golden_source):
    first = classify(golden_source)
    assert first.is_parsed
    printed = pretty_print(first.ast)
    second = classify(printed)
    assert second.is_parsed, printed
    assert clean(first.ast) == clean(second.ast)


def test_print_is_a_fixpoint(golden_source):
    # printing its own reparse must reproduce the text exactly
    once = pretty_print(classify(golden_source).ast)
    twice = pretty_print(classify(once).ast)
    assert once == twice


def test_small_module_exact_text():
    src = "module m(input a, output y); assign y = ~a; endmodule"
    printed = pretty_print(parse_source(src))
    assert printed == (
        "module m (input a, output y);\n"
        "    assign y = (~a);\n"
        "endmodule\n"
    )


def test_header_params_and_ansi_ports_exact_text():
    # A regrouped, signed, ranged `#(...)` header and ANSI ports with
    # wire/reg/signed/width: every header item prints as its own group.
    src = (
        "module m #(parameter W = 4, D = 2, parameter signed [3:0] S = -1)"
        " (input wire clk, input signed [W-1:0] a, b, output reg [W:0] q,"
        " output reg signed r, inout wire [1:0] io);"
        " always @(posedge clk) q <= a + b; endmodule"
    )
    printed = pretty_print(parse_source(src))
    assert printed == (
        "module m #(parameter W = 4, parameter D = 2, parameter signed [3:0] S = (-1))"
        " (input clk, input signed [(W - 1):0] a, input signed [(W - 1):0] b,"
        " output reg [W:0] q, output reg signed r, inout [1:0] io);\n"
        "    always @(posedge clk)\n"
        "        q <= (a + b);\n"
        "endmodule\n"
    )


def test_body_port_of_an_ansi_module_stays_in_the_body():
    # only the ports declared in the header print in the header
    src = "module m(input a); wire w; input b; endmodule"
    printed = pretty_print(parse_source(src))
    assert printed == "module m (input a);\n    wire w;\n    input b;\nendmodule\n"
    assert clean(parse_source(printed)) == clean(parse_source(src))
    assert pretty_print(parse_source(printed)) == printed


def test_compound_expressions_fully_parenthesized():
    src = "module m(output y); assign y = 1 + 2 * 3 ? 4 : 5; endmodule"
    printed = pretty_print(parse_source(src))
    assert "((1 + (2 * 3)) ? 4 : 5)" in printed


def test_non_ansi_ports_stay_non_ansi():
    src = "module m(a, y);\n input a;\n output y;\n assign y = a;\nendmodule"
    printed = pretty_print(parse_source(src))
    assert "module m (a, y);" in printed
    assert "input a;" in printed


def test_escaped_identifier_keeps_separator_space():
    src = "module m(input \\a+b , output y); assign y = \\a+b ; endmodule"
    printed = pretty_print(parse_source(src))
    assert "\\a+b " in printed
    assert classify(printed).is_parsed


def test_strings_survive():
    src = 'module m; initial $display("hi %d", 1); endmodule'
    printed = pretty_print(parse_source(src))
    assert '"hi %d"' in printed


def test_depth_guard():
    expr = RawNode(kind=NodeKind.CONST, value="1")
    for _ in range(500):
        expr = RawNode(kind=NodeKind.NOT, children=[expr])
    assign = RawNode(
        kind=NodeKind.CONTINUOUS_ASSIGN,
        children=[RawNode(kind=NodeKind.ID, name="y"), expr],
    )
    mod = RawNode(kind=NodeKind.MODULE_DEF, children=[assign], name="m", mods=("ansi",))
    unit = RawNode(kind=NodeKind.SOURCE_UNIT, children=[mod])
    with pytest.raises(PrintError):
        pretty_print(unit)


def _id(name):
    return RawNode(NodeKind.ID, name=name)


def _const(text):
    return RawNode(NodeKind.CONST, value=text)


def _assign_y(expr):
    return RawNode(NodeKind.CONTINUOUS_ASSIGN, [_id("y"), expr])


_NULL = RawNode(NodeKind.NULL_STMT)

# Binary operator kind -> the text it prints as; XNOR has two spellings in
# the parser and prints as the first.
BINARY_SPELLING = {
    NodeKind.LOGICAL_OR: "||", NodeKind.LOGICAL_AND: "&&", NodeKind.OR: "|",
    NodeKind.XOR: "^", NodeKind.XNOR: "^~", NodeKind.AND: "&",
    NodeKind.EQ: "==", NodeKind.NEQ: "!=", NodeKind.CASE_EQ: "===",
    NodeKind.CASE_NEQ: "!==", NodeKind.LT: "<", NodeKind.LTE: "<=",
    NodeKind.GT: ">", NodeKind.GTE: ">=", NodeKind.SHL: "<<",
    NodeKind.SHR: ">>", NodeKind.ASHL: "<<<", NodeKind.ASHR: ">>>",
    NodeKind.PLUS: "+", NodeKind.MINUS: "-", NodeKind.MUL: "*",
    NodeKind.DIV: "/", NodeKind.MOD: "%", NodeKind.POW: "**",
}
# Reduction XNOR has two spellings too, and prints as `~^`.
UNARY_SPELLING = {
    NodeKind.NOT: "!", NodeKind.BIT_NOT: "~", NodeKind.UNARY_MINUS: "-",
    NodeKind.UNARY_PLUS: "+", NodeKind.REDUCE_AND: "&", NodeKind.REDUCE_OR: "|",
    NodeKind.REDUCE_XOR: "^", NodeKind.REDUCE_NAND: "~&",
    NodeKind.REDUCE_NOR: "~|", NodeKind.REDUCE_XNOR: "~^",
}
DECL_SPELLING = {
    NodeKind.PARAM_DECL: "parameter", NodeKind.LOCAL_PARAM_DECL: "localparam",
    NodeKind.INPUT_PORT: "input", NodeKind.OUTPUT_PORT: "output",
    NodeKind.INOUT_PORT: "inout", NodeKind.WIRE_DECL: "wire",
    NodeKind.REG_DECL: "reg", NodeKind.INTEGER_DECL: "integer",
    NodeKind.REAL_DECL: "real", NodeKind.TIME_DECL: "time",
}
_PARAMS = (NodeKind.PARAM_DECL, NodeKind.LOCAL_PARAM_DECL)


def _table_spellings():
    """(kind, module item of that kind, the item's exact printed lines)."""
    for kind, op in BINARY_SPELLING.items():
        yield kind, _assign_y(RawNode(kind, [_id("a"), _id("b")])), [f"assign y = (a {op} b);"]
    for kind, op in UNARY_SPELLING.items():
        yield kind, _assign_y(RawNode(kind, [_id("a")])), [f"assign y = ({op}a);"]
    for kind, word in DECL_SPELLING.items():
        init = [_const("1")] if kind in _PARAMS else []
        tail = " = 1" if kind in _PARAMS else ""
        yield kind, RawNode(kind, init, name="x"), [f"{word} x{tail};"]
    for kind, text in (
        (NodeKind.PART_SELECT, "v[a:b]"),
        (NodeKind.PART_SELECT_PLUS, "v[a +: b]"),
        (NodeKind.PART_SELECT_MINUS, "v[a -: b]"),
    ):
        select = RawNode(kind, [_id("v"), _id("a"), _id("b")])
        yield kind, _assign_y(select), [f"assign y = {text};"]
    for kind, op in ((NodeKind.BLOCKING_ASSIGN, "="), (NodeKind.NONBLOCKING_ASSIGN, "<=")):
        stmt = RawNode(kind, [_id("a"), _id("b")])
        yield kind, RawNode(NodeKind.INITIAL, [stmt]), ["initial", f"    a {op} b;"]
    for kind, word in ((NodeKind.EDGE_POSEDGE, "posedge"), (NodeKind.EDGE_NEGEDGE, "negedge")):
        sens = RawNode(NodeKind.SENS_LIST, [RawNode(kind, [_id("c")])])
        yield kind, RawNode(NodeKind.ALWAYS, [sens, _NULL]), [f"always @({word} c)", "    ;"]
    for kind, word in (
        (NodeKind.CASE_STMT, "case"),
        (NodeKind.CASEZ_STMT, "casez"),
        (NodeKind.CASEX_STMT, "casex"),
    ):
        stmt = RawNode(kind, [_id("a"), RawNode(NodeKind.CASE_ITEM, [_NULL])])
        lines = ["initial", f"    {word} (a)", "        default:", "            ;", "    endcase"]
        yield kind, RawNode(NodeKind.INITIAL, [stmt]), lines


SPELLINGS = list(_table_spellings())


def test_every_parser_table_kind_has_a_pinned_spelling():
    tables = (
        parser._UNARY_KIND, parser._DECL_KIND, parser._CASE_KIND,
        parser._ASSIGN_KIND, parser._EDGE_KIND, parser._SELECT_KIND, parser._VAR_KIND,
    )
    kinds = {kind for _, kind in parser._BINARY.values()}
    kinds.update(kind for table in tables for kind in table.values())
    assert kinds == {kind for kind, _, _ in SPELLINGS}


@pytest.mark.parametrize(
    ("kind", "item", "lines"), SPELLINGS, ids=[kind.value for kind, _, _ in SPELLINGS]
)
def test_table_spelling_exact_text_and_reparse(kind, item, lines):
    module = RawNode(NodeKind.MODULE_DEF, [item], name="m")
    printed = pretty_print(module)
    assert printed == "module m;\n" + "".join(f"    {line}\n" for line in lines) + "endmodule\n"
    validity = classify(printed)
    assert validity.is_parsed, printed
    assert kind in {node.kind for node in iter_tree(validity.ast)}
    assert clean(validity.ast.children[0]) == clean(module)


@pytest.mark.parametrize("word", ["integer", "real", "time"])
def test_function_return_type_spelling(word):
    body = RawNode(NodeKind.BLOCKING_ASSIGN, [_id("f"), _const("1")])
    func = RawNode(NodeKind.FUNC_DECL, [body], name="f", mods=(word,))
    printed = pretty_print(RawNode(NodeKind.MODULE_DEF, [func], name="m"))
    assert printed == (
        f"module m;\n    function {word} f;\n        f = 1;\n    endfunction\nendmodule\n"
    )
    assert classify(printed).ast.children[0].children[0].mods == (word,)
