from bisect import bisect_left

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
        # The brackets of the source, as (start, text), in order.
        brackets = [(tok.span[0], tok.text) for tok in lex(golden_source)
                    if tok.text in ("(", ")", "[", "]", "{", "}")]
        starts = [start for start, _ in brackets]
        for parent in iter_tree(unit):
            positioned = [c for c in parent.children if c.span is not None]
            for a, b in zip(positioned, positioned[1:]):
                assert (a.span[0], a.span[1]) < (b.span[0], b.span[1])
            if parent.span is None:
                continue
            for child in positioned:
                assert parent.span[0] <= child.span[0]
                assert child.span[1] <= parent.span[1]
            # A span cuts no bracket pair: the brackets inside it balance.
            lo, hi = parent.span
            stack = []
            for _, text in brackets[bisect_left(starts, lo):bisect_left(starts, hi)]:
                if text in "([{":
                    stack.append(")]}"["([{".index(text)])
                else:
                    assert stack and stack.pop() == text, (parent.kind, golden_source[lo:hi])
            assert not stack, (parent.kind, golden_source[lo:hi])


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


# ---- Expression grammar ----
#
# Binary operators by precedence level, lowest first; every one is
# left-associative, `**` included.
BINARY_LEVELS = (
    {"||": "LOGICAL_OR"},
    {"&&": "LOGICAL_AND"},
    {"|": "OR"},
    {"^": "XOR", "^~": "XNOR", "~^": "XNOR"},
    {"&": "AND"},
    {"==": "EQ", "!=": "NEQ", "===": "CASE_EQ", "!==": "CASE_NEQ"},
    {"<": "LT", "<=": "LTE", ">": "GT", ">=": "GTE"},
    {"<<": "SHL", ">>": "SHR", "<<<": "ASHL", ">>>": "ASHR"},
    {"+": "PLUS", "-": "MINUS"},
    {"*": "MUL", "/": "DIV", "%": "MOD"},
    {"**": "POW"},
)
BINARY = {op: (level, kind) for level, ops in enumerate(BINARY_LEVELS) for op, kind in ops.items()}

UNARY = {
    "!": "NOT",
    "~": "BIT_NOT",
    "-": "UNARY_MINUS",
    "+": "UNARY_PLUS",
    "&": "REDUCE_AND",
    "|": "REDUCE_OR",
    "^": "REDUCE_XOR",
    "~&": "REDUCE_NAND",
    "~|": "REDUCE_NOR",
    "~^": "REDUCE_XNOR",
    "^~": "REDUCE_XNOR",
}

ASSIGN_PREFIX = "module m; assign y = "


def shape(node, offset=0):
    """(kind name, name or value, span relative to `offset`, child shapes)."""
    return (
        node.kind.name,
        node.name if node.value is None else node.value,
        (node.span[0] - offset, node.span[1] - offset),
        [shape(child, offset) for child in node.children],
    )


def expr_shape(text):
    """The shape of `text` parsed as a continuous assign's right-hand side."""
    mod = module_ast(f"{ASSIGN_PREFIX}{text}; endmodule")
    return shape(mod.children[0].children[1], len(ASSIGN_PREFIX))


def leaf(kind, payload, start):
    return (kind, payload, (start, start + len(payload)), [])


class TestExpressionGrammar:
    def test_tables_cover_every_operator(self):
        assert len(BINARY) == 25
        assert len(UNARY) == 11

    @pytest.mark.parametrize("op1", list(BINARY))
    def test_every_operator_pair(self, op1):
        for op2 in BINARY:
            text = f"a {op1} b {op2} c"
            b_at = 3 + len(op1)
            c_at = b_at + 3 + len(op2)
            a, b, c = leaf("ID", "a", 0), leaf("ID", "b", b_at), leaf("ID", "c", c_at)
            (level1, kind1), (level2, kind2) = BINARY[op1], BINARY[op2]
            if level1 >= level2:  # left-associative within a level
                want = (kind2, None, (0, c_at + 1), [(kind1, None, (0, b_at + 1), [a, b]), c])
            else:
                inner = (kind2, None, (b_at, c_at + 1), [b, c])
                want = (kind1, None, (0, c_at + 1), [a, inner])
            assert expr_shape(text) == want, text

    @pytest.mark.parametrize("op", list(UNARY))
    def test_unary_before_an_identifier_and_a_parenthesis(self, op):
        n = len(op)
        assert expr_shape(f"{op}a") == (UNARY[op], None, (0, n + 1), [leaf("ID", "a", n)])
        # the unary node ends at the ')' it consumed last; the node inside
        # the parentheses leaves them out
        plus = ("PLUS", None, (n + 1, n + 6), [leaf("ID", "a", n + 1), leaf("ID", "b", n + 5)])
        assert expr_shape(f"{op}(a + b)") == (UNARY[op], None, (0, n + 7), [plus])

    @pytest.mark.parametrize("op1", list(UNARY))
    def test_unary_before_another_unary(self, op1):
        for op2 in UNARY:
            at = len(op1) + 1
            inner = (UNARY[op2], None, (at, at + len(op2) + 1), [leaf("ID", "b", at + len(op2))])
            want = (UNARY[op1], None, (0, at + len(op2) + 1), [inner])
            assert expr_shape(f"{op1} {op2}b") == want

    def test_unary_binds_tighter_than_every_binary_operator(self):
        for op in BINARY:
            at = 4 + len(op)
            neg = ("UNARY_MINUS", None, (0, 2), [leaf("ID", "a", 1)])
            want = (BINARY[op][1], None, (0, at + 1), [neg, leaf("ID", "b", at)])
            assert expr_shape(f"-a {op} b") == want

    @pytest.mark.parametrize(
        "text, want",
        [
            (
                "a ? b : c ? d : e",
                ("TERNARY", None, (0, 17), [
                    leaf("ID", "a", 0),
                    leaf("ID", "b", 4),
                    ("TERNARY", None, (8, 17), [
                        leaf("ID", "c", 8), leaf("ID", "d", 12), leaf("ID", "e", 16),
                    ]),
                ]),
            ),
            (
                "a ? b ? c : d : e",
                ("TERNARY", None, (0, 17), [
                    leaf("ID", "a", 0),
                    ("TERNARY", None, (4, 13), [
                        leaf("ID", "b", 4), leaf("ID", "c", 8), leaf("ID", "d", 12),
                    ]),
                    leaf("ID", "e", 16),
                ]),
            ),
            (
                "a || b ? c + d : e - f",
                ("TERNARY", None, (0, 22), [
                    ("LOGICAL_OR", None, (0, 6), [leaf("ID", "a", 0), leaf("ID", "b", 5)]),
                    ("PLUS", None, (9, 14), [leaf("ID", "c", 9), leaf("ID", "d", 13)]),
                    ("MINUS", None, (17, 22), [leaf("ID", "e", 17), leaf("ID", "f", 21)]),
                ]),
            ),
            (
                # a ternary starts at its condition's first token, the '('
                # of a parenthesized condition, whose own node leaves it out
                "(a ? b : c) ? d : e",
                ("TERNARY", None, (0, 19), [
                    ("TERNARY", None, (1, 10), [
                        leaf("ID", "a", 1), leaf("ID", "b", 5), leaf("ID", "c", 9),
                    ]),
                    leaf("ID", "d", 14),
                    leaf("ID", "e", 18),
                ]),
            ),
            (
                "a ? 1 : 2'b10 ? f(b) : {c, d}",
                ("TERNARY", None, (0, 29), [
                    leaf("ID", "a", 0),
                    leaf("CONST", "1", 4),
                    ("TERNARY", None, (8, 29), [
                        leaf("CONST", "2'b10", 8),
                        ("FUNC_CALL", "f", (16, 20), [leaf("ID", "b", 18)]),
                        ("CONCAT", None, (23, 29), [leaf("ID", "c", 24), leaf("ID", "d", 27)]),
                    ]),
                ]),
            ),
        ],
    )
    def test_ternary_chains(self, text, want):
        assert expr_shape(text) == want

    def test_an_operator_spans_its_parenthesized_operands(self):
        plus = ("PLUS", None, (1, 6), [leaf("ID", "a", 1), leaf("ID", "b", 5)])
        want = ("MUL", None, (0, 11), [plus, leaf("ID", "c", 10)])
        assert expr_shape("(a + b) * c") == want
        plus = ("PLUS", None, (5, 10), [leaf("ID", "b", 5), leaf("ID", "c", 9)])
        want = ("MUL", None, (0, 11), [leaf("ID", "a", 0), plus])
        assert expr_shape("a * (b + c)") == want


# A lone operand in every expression position.  `<>` marks the operand;
# each row gives the parent node kind and child index the operand lands at,
# and the first diagnostic with the operand left out, as the text of the
# token it reports and that token's start relative to `<>` (None when the
# text still parses).
LONE_OPERAND_POSITIONS = [
    ("module m; wire [<>:0] w; endmodule", "WIDTH", 0, (":", 0)),
    ("module m; wire [7:<>] w; endmodule", "WIDTH", 1, ("]", 0)),
    ("module m; reg r [<>:3]; endmodule", "WIDTH", 0, (":", 0)),
    ("module m; assign y = v[<>]; endmodule", "BIT_SELECT", 1, ("]", 0)),
    ("module m; assign y = v[<>:0]; endmodule", "PART_SELECT", 1, (":", 0)),
    ("module m; assign y = v[7:<>]; endmodule", "PART_SELECT", 2, ("]", 0)),
    ("module m; assign y = v[<> +: 2]; endmodule", "PART_SELECT_PLUS", 1, ("+:", 1)),
    ("module m; assign y = v[i -: <>]; endmodule", "PART_SELECT_MINUS", 2, ("]", 0)),
    ("module m; assign v[<>] = 1; endmodule", "BIT_SELECT", 1, ("]", 0)),
    ("module m; always @* case (<>) 1: ; endcase endmodule", "CASE_STMT", 0, (")", 0)),
    ("module m; always @* case (s) <>: ; endcase endmodule", "CASE_ITEM", 0, (":", 0)),
    ("module m; always @* case (s) 1, <>: ; endcase endmodule", "CASE_ITEM", 1, (":", 0)),
    ("module m; sub u0 (.p(<>)); endmodule", "PORT_CONN", 0, None),
    ("module m; sub u0 (<>, b); endmodule", "PORT_CONN", 0, (",", 0)),
    ("module m; sub u0 (a, <>); endmodule", "PORT_CONN", 0, (")", 0)),
    ("module m; sub #(<>) u0 (); endmodule", "PORT_CONN", 0, None),
    ("module m; sub #(.N(<>)) u0 (); endmodule", "PORT_CONN", 0, None),
    ("module m; assign y = f(<>, 1); endmodule", "FUNC_CALL", 0, (",", 0)),
    ("module m; assign y = f(1, <>); endmodule", "FUNC_CALL", 1, (")", 0)),
    ("module m; initial t(<>); endmodule", "TASK_CALL", 0, None),
    ("module m; assign y = {<>, b}; endmodule", "CONCAT", 0, (",", 0)),
    ("module m; assign y = {a, <>}; endmodule", "CONCAT", 1, ("}", 0)),
    ("module m; assign y = {<>{a}}; endmodule", "REPEAT", 0, None),
    ("module m; assign y = {2{<>}}; endmodule", "REPEAT", 1, ("}", 0)),
    ("module m; assign y = {2{a, <>}}; endmodule", "REPEAT", 2, ("}", 0)),
    ("module m; parameter P = <>; endmodule", "PARAM_DECL", 0, (";", 0)),
    ("module m; localparam L = <>, M = 1; endmodule", "LOCAL_PARAM_DECL", 0, (",", 0)),
    ("module m #(parameter P = <>) (); endmodule", "PARAM_DECL", 0, (")", 0)),
    ("module m; wire w = <>; endmodule", "WIRE_DECL", 0, (";", 0)),
    ("module m; reg r = <>, s; endmodule", "REG_DECL", 0, (",", 0)),
    ("module m; integer i = <>; endmodule", "INTEGER_DECL", 0, (";", 0)),
    ("module m; assign y = <>; endmodule", "CONTINUOUS_ASSIGN", 1, (";", 0)),
    ("module m; initial y = <>; endmodule", "BLOCKING_ASSIGN", 1, (";", 0)),
    ("module m; always @(posedge c) q <= <>; endmodule", "NONBLOCKING_ASSIGN", 1, (";", 0)),
    ("module m; initial if (<>) ; endmodule", "IF_STMT", 0, (")", 0)),
    ("module m; always @(posedge <>) ; endmodule", "EDGE_POSEDGE", 0, (")", 0)),
    ("module m; always @(<>, b) ; endmodule", "LEVEL_SENSE", 0, (",", 0)),
    ("module m; always @(a or <>) ; endmodule", "LEVEL_SENSE", 0, (")", 0)),
    ("module m; assign y = a ? <> : c; endmodule", "TERNARY", 1, (":", 1)),
    ("module m; assign y = a ? b : <>; endmodule", "TERNARY", 2, (";", 0)),
    ("module m; assign y = <> ? b : c; endmodule", "TERNARY", 0, ("?", 1)),
    ("module m; assign y = (<>) + 1; endmodule", "PLUS", 0, (")", 0)),
    ("module m; assign y = <> + b; endmodule", "PLUS", 0, None),  # `+ b` is unary
    ("module m; assign y = a + <>; endmodule", "PLUS", 1, (";", 0)),
]


class TestLoneOperands:
    @pytest.mark.parametrize("template, parent, index, _", LONE_OPERAND_POSITIONS)
    @pytest.mark.parametrize(
        "operand, kind", [("x", "ID"), ("8'hff", "CONST"), ('"s"', "CONST"), ("\\e ", "ID")]
    )
    def test_lands_as_a_leaf(self, template, parent, index, _, operand, kind):
        at = template.index("<>")
        validity = classify(template.replace("<>", operand))
        assert validity.is_parsed, validity.diagnostics
        span = (at, at + len(operand.rstrip()))
        hits = [
            (node.kind.name, i, child.kind.name, child.name, child.value)
            for node in iter_tree(validity.ast)
            for i, child in enumerate(node.children)
            if child.span == span and not child.children
        ]
        name, value = (operand.rstrip(), None) if kind == "ID" else (None, operand)
        assert hits == [(parent, index, kind, name, value)]

    @pytest.mark.parametrize("template, _p, _i, diagnostic", LONE_OPERAND_POSITIONS)
    def test_missing_operand_diagnostic(self, template, _p, _i, diagnostic):
        at = template.index("<>")
        validity = classify(template.replace("<>", ""))
        if diagnostic is None:
            assert validity.is_parsed
            return
        found, start = diagnostic
        assert validity.status is ValidityStatus.PARSE_FAIL
        diag = validity.diagnostics[0]
        assert diag.message == f"expected expression, found {found!r}"
        assert diag.span == (at + start, at + start + len(found))

    @pytest.mark.parametrize(
        "text, message",
        [
            ("module m; assign y = x", "expected ';'"),
            ("module m; assign y = (x", "expected ')'"),
            ("module m; assign y = v[x", "expected ']'"),
            ("module m; assign y = {x", "expected '}'"),
            ("module m; assign y = f(x", "expected ')'"),
            ("module m; assign y = a ? x", "expected ':'"),
        ],
    )
    def test_lone_operand_at_end_of_input(self, text, message):
        with pytest.raises(ParseError) as err:
            parse(lex(text))
        assert str(err.value) == f"{message}, found end of input"
        assert err.value.span == (len(text), len(text))


# Nesting just under, at and over the cap: the right-hand side of an assign
# is one level, and so is each parenthesis, unary operator and ternary
# branch.  Errors give (offset of the reported token from the start of the
# right-hand side, its text).
def _parens(k):
    return "(" * k + "a" + ")" * k


def _unaries(k):
    return "- " * k + "a"


def _else_chain(k):
    return "c ? b : " * k + "e"


def _then_chain(k):
    return "c ? " * k + "b" + " : e" * k


class TestNestingCap:
    @pytest.mark.parametrize(
        "build, k, error",
        [
            (_parens, 127, None),
            (_parens, 128, (128, "a")),  # the lone operand is level 129
            (_parens, 129, (128, "(")),
            (_unaries, 127, None),
            (_unaries, 128, (254, "-")),  # the 128th operator
            (_unaries, 129, (254, "-")),
            (_else_chain, 127, None),
            (_else_chain, 128, (1020, "b")),  # the then-branch of the 128th
            (_else_chain, 129, (1020, "b")),
            (_then_chain, 127, None),
            (_then_chain, 128, (512, "b")),
            (_then_chain, 129, (512, "c")),
        ],
    )
    def test_boundary(self, build, k, error):
        validity = classify(f"{ASSIGN_PREFIX}{build(k)}; endmodule")
        if error is None:
            assert validity.is_parsed
            return
        offset, text = error
        start = len(ASSIGN_PREFIX) + offset
        assert validity.diagnostics == (
            validity.diagnostics[0].__class__("error", "nesting too deep", (start, start + 1)),
        )
        source = f"{ASSIGN_PREFIX}{build(k)}; endmodule"
        assert source[start:].startswith(text)


def _ids_are_unique(root):
    seen = [id(node) for node in iter_tree(root)]
    return len(seen) == len(set(seen))


class TestNoSharedRawNodes:
    @pytest.mark.parametrize(
        "src",
        [
            "module m; wire [3:0] a, b, c; endmodule",
            "module m; reg signed [7:0] r [0:3], s [0:1], t; endmodule",
            "module m; localparam [1:0] A = 1, B = 2; endmodule",
            "module m(input [3:0] a, b, output [1:0] c, d); endmodule",
            "module m #(parameter [3:0] P = 1, Q = 2) (); endmodule",
            "module m; function f; input [3:0] a, b; f = a; endfunction endmodule",
            "module m; sub #(.W(8), 2) u0 (a), u1 (b), u2 (.p(c)); endmodule",
        ],
    )
    def test_multi_name_declarations_and_instances(self, src):
        validity = classify(src)
        assert validity.is_parsed, validity.diagnostics
        assert _ids_are_unique(validity.ast)

    def test_golden(self, golden_source):
        assert _ids_are_unique(classify(golden_source).ast)
