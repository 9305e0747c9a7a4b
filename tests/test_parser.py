import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vsr.lexer import lex
from vsr.parser import ParseError, ValidityStatus, classify, parse, parse_source
from vsr.trees import NodeKind, iter_tree


def module_ast(src):
    unit = parse_source(src)
    assert unit.kind is NodeKind.SOURCE_UNIT
    return unit.children[0]


def first_expr_of_assign(src):
    mod = module_ast(f"module t(output y); assign y = {src}; endmodule")
    assigns = [c for c in mod.children if c.kind is NodeKind.CONTINUOUS_ASSIGN]
    return assigns[0].children[1]


class TestStructure:
    def test_module_header(self):
        mod = module_ast(
            "module counter #(parameter W = 4) (input clk, output [W-1:0] q);\n"
            "    assign q = {W{1'b0}};\nendmodule"
        )
        assert mod.kind is NodeKind.MODULE_DEF
        assert mod.name == "counter"
        kinds = [c.kind for c in mod.children]
        assert kinds[0] is NodeKind.PARAM_DECL
        assert NodeKind.INPUT_PORT in kinds
        assert NodeKind.OUTPUT_PORT in kinds

    def test_non_ansi_ports(self):
        mod = module_ast(
            "module old(a, y);\n input a;\n output y;\n assign y = ~a;\nendmodule"
        )
        kinds = [c.kind for c in mod.children]
        assert kinds.count(NodeKind.PORT_REF) == 2
        assert NodeKind.INPUT_PORT in kinds
        assert NodeKind.OUTPUT_PORT in kinds

    def test_multi_name_decl_splits(self):
        mod = module_ast("module m; wire [3:0] a, b, c; endmodule")
        wires = [c for c in mod.children if c.kind is NodeKind.WIRE_DECL]
        assert [w.name for w in wires] == ["a", "b", "c"]
        for w in wires:
            assert w.children[0].kind is NodeKind.WIDTH

    def test_instance_connections(self):
        mod = module_ast(
            "module top(input d, output q);\n"
            "    leaf #(.W(2)) u0 (.din(d), .dout(q));\n"
            "endmodule"
        )
        inst = next(c for c in mod.children if c.kind is NodeKind.INSTANCE)
        assert inst.name == "u0"
        assert inst.value == "leaf"
        conns = [c for c in inst.children if c.kind is NodeKind.PORT_CONN]
        assert {c.name for c in conns} == {"W", "din", "dout"}

    def test_comma_instances_share_params(self):
        mod = module_ast(
            "module top(input [1:0] d, output [1:0] q);\n"
            "    dff_cell #(.N(3)) u0 (.i(d[0]), .o(q[0])), u1 (.i(d[1]), .o(q[1]));\n"
            "endmodule"
        )
        insts = [c for c in mod.children if c.kind is NodeKind.INSTANCE]
        assert [i.name for i in insts] == ["u0", "u1"]
        for inst in insts:
            param_conns = [
                c for c in inst.children if c.kind is NodeKind.PORT_CONN and "param" in c.mods
            ]
            assert len(param_conns) == 1

    def test_case_shape(self):
        mod = module_ast(
            "module m(input [1:0] s, output reg y);\n"
            "    always @* case (s)\n"
            "        2'd0, 2'd1: y = 1'b0;\n"
            "        default: y = 1'b1;\n"
            "    endcase\n"
            "endmodule"
        )
        always = next(c for c in mod.children if c.kind is NodeKind.ALWAYS)
        case = always.children[1]
        assert case.kind is NodeKind.CASE_STMT
        items = case.children[1:]
        assert all(i.kind is NodeKind.CASE_ITEM for i in items)
        assert len(items[0].children) == 3  # two labels + one statement
        assert len(items[1].children) == 1  # default: statement only

    def test_spans_nest_and_order(self, golden_source):
        unit = classify(golden_source).ast
        assert unit is not None
        for parent in iter_tree(unit):
            positioned = [c for c in parent.children if c.span is not None]
            for a, b in zip(positioned, positioned[1:]):
                assert (a.span[0], a.span[1]) < (b.span[0], b.span[1])
            if parent.span is None:
                continue
            for child in positioned:
                assert parent.span[0] <= child.span[0]
                assert child.span[1] <= parent.span[1]


class TestExpressions:
    def test_precedence_mul_over_add(self):
        e = first_expr_of_assign("a + b * c")
        assert e.kind is NodeKind.PLUS
        assert e.children[1].kind is NodeKind.MUL

    def test_precedence_shift_vs_relational(self):
        e = first_expr_of_assign("a << 1 < b")
        assert e.kind is NodeKind.LT
        assert e.children[0].kind is NodeKind.SHL

    def test_ternary_right_associative(self):
        e = first_expr_of_assign("a ? b : c ? d : e")
        assert e.kind is NodeKind.TERNARY
        assert e.children[2].kind is NodeKind.TERNARY

    def test_unary_chain(self):
        e = first_expr_of_assign("~^a")
        assert e.kind is NodeKind.REDUCE_XNOR
        e = first_expr_of_assign("!!a")
        assert e.kind is NodeKind.NOT
        assert e.children[0].kind is NodeKind.NOT

    def test_repeat_vs_concat(self):
        rep = first_expr_of_assign("{4{a}}")
        assert rep.kind is NodeKind.REPEAT
        cat = first_expr_of_assign("{a, b}")
        assert cat.kind is NodeKind.CONCAT

    def test_selects(self):
        assert first_expr_of_assign("v[3]").kind is NodeKind.BIT_SELECT
        assert first_expr_of_assign("v[3:0]").kind is NodeKind.PART_SELECT
        assert first_expr_of_assign("v[i +: 2]").kind is NodeKind.PART_SELECT_PLUS
        assert first_expr_of_assign("v[i -: 2]").kind is NodeKind.PART_SELECT_MINUS

    def test_function_call(self):
        e = first_expr_of_assign("f(a, 2)")
        assert e.kind is NodeKind.FUNC_CALL
        assert e.name == "f"
        assert len(e.children) == 2


class TestErrors:
    @pytest.mark.parametrize(
        "src",
        [
            "module m(input a output y); endmodule",  # missing comma
            "module m; assign = 1; endmodule",  # missing lvalue
            "module m; wire w endmodule",  # missing semicolon
            "module m; always @(posedge) x <= 1; endmodule",
            "module m; case endcase endmodule",
            "module",
        ],
    )
    def test_parse_error(self, src):
        with pytest.raises(ParseError):
            parse(lex(src))

    def test_error_carries_span(self):
        src = "module m;\n  assign ; \nendmodule"
        with pytest.raises(ParseError) as err:
            parse(lex(src))
        assert err.value.span is not None
        start, _ = err.value.span
        assert 0 <= start <= len(src)

    def test_nesting_cap_is_parse_error_not_crash(self):
        deep = "(" * 400 + "1" + ")" * 400
        with pytest.raises(ParseError) as err:
            parse_source(f"module m(output y); assign y = {deep}; endmodule")
        assert "nest" in str(err.value).lower()

    def test_deep_statement_nesting_capped(self):
        body = "begin " * 400 + "x = 1;" + " end" * 400
        with pytest.raises(ParseError):
            parse_source(f"module m; reg x; initial {body} endmodule")


class TestClassify:
    def test_parsed(self, golden_source):
        v = classify(golden_source)
        assert v.status is ValidityStatus.PARSED
        assert v.is_parsed
        assert v.ast is not None
        assert not v.diagnostics

    def test_parse_fail_keeps_diagnostics(self):
        v = classify("module broken(input a; output b); endmodule")
        assert v.status is ValidityStatus.PARSE_FAIL
        assert v.ast is None
        assert v.diagnostics
        assert v.diagnostics[0].severity == "error"

    @pytest.mark.parametrize(
        "text",
        [
            "",
            "Please write a counter for me.",
            "endmodule module",  # wrong order
            "module only_open",
            "x € y",  # does not even lex
            "{\"json\": true}",
        ],
    )
    def test_not_code(self, text):
        v = classify(text)
        assert v.status is ValidityStatus.NOT_CODE
        assert v.ast is None

    def test_module_keyword_inside_string_is_not_code(self):
        v = classify('"module fake endmodule"')
        assert v.status is ValidityStatus.NOT_CODE

    @settings(max_examples=300)
    @given(st.text(max_size=120))
    def test_total_on_arbitrary_text(self, text):
        v = classify(text)
        assert v.status in (
            ValidityStatus.PARSED,
            ValidityStatus.PARSE_FAIL,
            ValidityStatus.NOT_CODE,
        )


# ---- Declaration grammar ----
#
# Every declaration keyword in every position that takes declarations: a
# module item, a function or task body, a `#(...)` header and an ANSI port
# list.  `{}` in a template marks where the declaration text goes, and
# spans below are relative to it.  Each position picks the nodes the
# declaration produced out of the parsed module.
DECL_POSITIONS = {
    "module": ("module m; {} endmodule", lambda mod: mod.children),
    "function": (
        "module m; function f; {} ; endfunction endmodule",
        lambda mod: mod.children[0].children[:-1],
    ),
    "task": ("module m; task t; {} endtask endmodule", lambda mod: mod.children[0].children),
    "header": ("module m #({}); endmodule", lambda mod: mod.children),
    "ports": ("module m ({}); endmodule", lambda mod: mod.children),
}

DECL_KIND = {
    "parameter": NodeKind.PARAM_DECL,
    "localparam": NodeKind.LOCAL_PARAM_DECL,
    "input": NodeKind.INPUT_PORT,
    "output": NodeKind.OUTPUT_PORT,
    "inout": NodeKind.INOUT_PORT,
    "wire": NodeKind.WIRE_DECL,
    "reg": NodeKind.REG_DECL,
    "integer": NodeKind.INTEGER_DECL,
    "real": NodeKind.REAL_DECL,
    "time": NodeKind.TIME_DECL,
}

DIRECTIONS = ("input", "output", "inout")

# Which keywords each position accepts, and the first diagnostic for the
# others (the offending keyword is appended as ", found '<kw>'").
DECL_ACCEPTS = {
    "module": (set(DECL_KIND), None),
    "function": (set(DECL_KIND) - {"wire"}, "unsupported construct in statement position"),
    "task": (set(DECL_KIND) - {"wire"}, "unsupported construct in statement position"),
    "header": ({"parameter"}, "expected 'parameter'"),
    "ports": (set(DIRECTIONS), "expected port direction"),
}


def decl_classify(position, text):
    template, _ = DECL_POSITIONS[position]
    return classify(template.replace("{}", text)), template.index("{}")


def decl_nodes(position, text):
    """(kind name, name, mods, relative span, child kind names) per node."""
    validity, offset = decl_classify(position, text)
    assert validity.is_parsed, validity.diagnostics
    _, pick = DECL_POSITIONS[position]
    return [
        (
            node.kind.name,
            node.name,
            node.mods,
            (node.span[0] - offset, node.span[1] - offset),
            [child.kind.name for child in node.children],
        )
        for node in pick(validity.ast.children[0])
    ]


def decl_error(position, text):
    """(message, relative span) of the first diagnostic."""
    validity, offset = decl_classify(position, text)
    assert validity.status is ValidityStatus.PARSE_FAIL
    diag = validity.diagnostics[0]
    return diag.message, (diag.span[0] - offset, diag.span[1] - offset)


class TestDeclarationGrammar:
    @pytest.mark.parametrize("position", list(DECL_POSITIONS))
    @pytest.mark.parametrize("keyword", list(DECL_KIND))
    def test_every_keyword_in_every_position(self, keyword, position):
        text = f"{keyword} x = 1" if keyword in ("parameter", "localparam") else f"{keyword} x"
        if position not in ("header", "ports"):
            text += ";"
        accepted, message = DECL_ACCEPTS[position]
        if keyword in accepted:
            mods = ("header",) if position in ("header", "ports") else ()
            kids = ["CONST"] if " = " in text else []
            span = (0, len(text.rstrip(";")))
            assert decl_nodes(position, text) == [
                (DECL_KIND[keyword].name, "x", mods, span, kids)
            ]
        else:
            assert decl_error(position, text) == (
                f"{message}, found '{keyword}'",
                (0, len(keyword)),
            )

    @pytest.mark.parametrize(
        "position, text, nodes",
        [
            (
                "module",
                "localparam signed [3:0] a = 1, b = 2;",
                [
                    ("LOCAL_PARAM_DECL", "a", ("signed",), (0, 29), ["WIDTH", "CONST"]),
                    ("LOCAL_PARAM_DECL", "b", ("signed",), (0, 36), ["WIDTH", "CONST"]),
                ],
            ),
            (
                "module",
                "input wire signed [7:0] a, b;",
                [
                    ("INPUT_PORT", "a", ("signed",), (0, 25), ["WIDTH"]),
                    ("INPUT_PORT", "b", ("signed",), (0, 28), ["WIDTH"]),
                ],
            ),
            ("module", "output reg [3:0] q;", [("OUTPUT_PORT", "q", ("reg",), (0, 18), ["WIDTH"])]),
            (
                "module",
                "wire signed [3:0] w = 1, v;",
                [
                    ("WIRE_DECL", "w", ("signed",), (0, 23), ["WIDTH", "CONST"]),
                    ("WIRE_DECL", "v", ("signed",), (0, 26), ["WIDTH"]),
                ],
            ),
            (
                "module",
                "reg [7:0] m [0:3] = 0;",
                [("REG_DECL", "m", (), (0, 21), ["WIDTH", "WIDTH", "CONST"])],
            ),
            (
                "module",
                "reg signed r, s = 1;",
                [
                    ("REG_DECL", "r", ("signed",), (0, 12), []),
                    ("REG_DECL", "s", ("signed",), (0, 19), ["CONST"]),
                ],
            ),
            (
                "module",
                "integer i = 0, j;",
                [
                    ("INTEGER_DECL", "i", (), (0, 13), ["CONST"]),
                    ("INTEGER_DECL", "j", (), (0, 16), []),
                ],
            ),
            (
                "function",
                "input [3:0] a, b;",
                [
                    ("INPUT_PORT", "a", (), (0, 13), ["WIDTH"]),
                    ("INPUT_PORT", "b", (), (0, 16), ["WIDTH"]),
                ],
            ),
            (
                "function",
                "reg [7:0] m [0:3] = 0;",
                [("REG_DECL", "m", (), (0, 21), ["WIDTH", "WIDTH", "CONST"])],
            ),
            ("function", "real r = 1.5;", [("REAL_DECL", "r", (), (0, 12), ["CONST"])]),
            (
                "function",
                "localparam L = 2;",
                [("LOCAL_PARAM_DECL", "L", (), (0, 16), ["CONST"])],
            ),
            (
                "task",
                "output reg signed o;",
                [("OUTPUT_PORT", "o", ("reg", "signed"), (0, 19), [])],
            ),
            (
                "header",
                "parameter P = 1, Q = 2, parameter signed [1:0] R = 0",
                [
                    ("PARAM_DECL", "P", ("header",), (0, 15), ["CONST"]),
                    ("PARAM_DECL", "Q", ("header",), (0, 22), ["CONST"]),
                    ("PARAM_DECL", "R", ("header", "signed"), (24, 52), ["WIDTH", "CONST"]),
                ],
            ),
            (
                "ports",
                "input wire signed [7:0] a, b, output reg c, inout d",
                [
                    ("INPUT_PORT", "a", ("header", "signed"), (0, 25), ["WIDTH"]),
                    ("INPUT_PORT", "b", ("header", "signed"), (0, 28), ["WIDTH"]),
                    ("OUTPUT_PORT", "c", ("header", "reg"), (30, 42), []),
                    ("INOUT_PORT", "d", ("header",), (44, 51), []),
                ],
            ),
        ],
    )
    def test_accepted(self, position, text, nodes):
        assert decl_nodes(position, text) == nodes

    @pytest.mark.parametrize(
        "position, text, message, span",
        [
            ("module", "integer signed x;", "expected identifier, found 'signed'", (8, 14)),
            ("module", "real [3:0] x;", "expected identifier, found '['", (5, 6)),
            ("module", "wire x [3:0];", "expected ';', found '['", (7, 8)),
            ("module", "time t [1:0];", "expected ';', found '['", (7, 8)),
            ("module", "parameter p;", "expected '=', found ';'", (11, 12)),
            ("module", "localparam signed l;", "expected '=', found ';'", (19, 20)),
            ("module", "input x = 1;", "expected ';', found '='", (8, 9)),
            ("module", "output wire reg y;", "expected identifier, found 'reg'", (12, 15)),
            ("module", "wire reg x;", "expected identifier, found 'reg'", (5, 8)),
            ("module", "reg a, reg b;", "expected identifier, found 'reg'", (7, 10)),
            (
                "function",
                "wire x;",
                "unsupported construct in statement position, found 'wire'",
                (0, 4),
            ),
            ("function", "input x = 1;", "expected ';', found '='", (8, 9)),
            ("function", "integer signed x;", "expected identifier, found 'signed'", (8, 14)),
            (
                "task",
                "wire x;",
                "unsupported construct in statement position, found 'wire'",
                (0, 4),
            ),
            ("header", "", "expected 'parameter', found ')'", (0, 1)),
            ("header", "parameter P", "expected '=', found ')'", (11, 12)),
            (
                "header",
                "parameter P = 1, localparam L = 2",
                "expected identifier, found 'localparam'",
                (17, 27),
            ),
            (
                "header",
                "parameter P = 1 parameter Q = 2",
                "expected ')', found 'parameter'",
                (16, 25),
            ),
            ("ports", "input a = 1", "expected ')', found '='", (8, 9)),
            ("ports", "input a [3:0]", "expected ')', found '['", (8, 9)),
            ("ports", "input integer a", "expected identifier, found 'integer'", (6, 13)),
            ("ports", "input a, wire b", "expected identifier, found 'wire'", (9, 13)),
        ],
    )
    def test_rejected(self, position, text, message, span):
        assert decl_error(position, text) == (message, span)
