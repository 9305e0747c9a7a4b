import pytest

from vsr.parser import classify, parse_source
from vsr.printer import PrintError, pretty_print
from vsr.trees import NodeKind, RawNode, clean


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
