"""Recursive-descent parser for a synthesizable Verilog-2005 subset.

Supported constructs: module definitions with ANSI or non-ANSI port lists,
parameter/localparam declarations, input/output/inout and wire/reg/integer/
real/time declarations with ranges and memories, continuous assigns, always
blocks with edge/level/star sensitivity lists, initial blocks, begin/end
blocks (optionally named), blocking and nonblocking assignments, if/else,
case/casez/casex with default, the full unary/binary/ternary operator set,
concatenation and replication, bit/part/indexed-part selects, module
instantiation with named or positional connections, and function/task
declarations and calls.

Generate blocks, specify blocks, UDPs, delays, and SystemVerilog constructs
are outside the subset and produce a ParseError.  There is no error
recovery: the first error wins.

One routine, `Parser._decl`, parses every declaration keyword in every
position: module items, function and task bodies, the `#(...)` parameter
header and the ANSI port list.  One keyword table gives the node kind, and
the per-keyword rules are spelled out in its docstring.

Expressions are parsed by `_expr` in three steps.  A leading identifier or
constant is built on the spot, and when a closing token (`)`, `;`, `,`,
`:`, `]` or `}`) follows it, that is the whole expression: 72% of the
expressions in the golden corpus are such lone operands.  Otherwise
`_operand` parses what binds tighter than any binary operator (unary
prefixes, names with their selects or call, constants, parentheses,
concatenations), and `_binary` folds the binary operator chain in one
precedence loop with an operator stack, in the manner of Pratt's "Top
Down Operator Precedence" (POPL 1973); every binary operator is
left-associative, `**` included.  An optional `? :` ends the expression.
The nesting cap counts one level per `_expr` and per unary operator, and
`_expr` checks it before anything else, so the cap and its error are the
same with and without the fast path.

The parser reads parallel lists, not Token objects: the texts and kinds of
the tokens, and their start and end offsets when it builds spans.  Tokens
are tested by their text alone, never by text and kind.  That is exact
because the lexer never gives one text two kinds: keywords, operators and
punctuation are disjoint sets; a word lexes as a keyword exactly when it is
in the keyword set; and escaped identifiers start with `\\`, system
identifiers with `$`, strings with `"`, numbers with a digit or `'`, and
directives (which the parser drops first) with a backtick, none of which
starts a keyword, operator or punctuation text.  Kind tests remain only
where any token of a kind will do: identifiers, constants and the
unsupported-keyword errors.  The hot routines test `self._texts[self._pos]`
inline rather than through `_at`; two end tokens with empty text close the
lists, so that look-up never runs off their end.  Every token is still
consumed through `_advance` or `_expect`, which check the deadline by
position; a routine whose caller has already looked at its first token
consumes that token with `_advance`.

Every node is built through one builder: five methods on the parser
(`_node`, `_leaf`, `_pair`, `_prefix`, `_joined`) and `_copy` for a node put
in the tree twice.  `Parser` builds RawNodes with spans for `parse` and
`classify`.  A span runs from the start of a given token, passed as its
index, to the end of the last token consumed when the node is built; only
operator, ternary and select nodes differ: binary, ternary and select
nodes start where their first child starts, and binary and unary nodes end
where their last child ends.  A parenthesized operand is the node of what
is inside, so such a start or end leaves its parentheses out, as it always
has.  `_Interner` builds for the scoring path instead: each node is interned
into the caller's table under the key `vsr.trees.clean` gives it, so
`classify_into` returns the very tree `clean(classify(text).ast, table)`
would, with no Token, span, RawNode or diagnostic made on the way.
"""

from __future__ import annotations

from collections.abc import Collection
from dataclasses import dataclass
from enum import Enum
from itertools import compress, repeat
from operator import is_not, itemgetter
from typing import NoReturn

from vsr.deadline import CHECK_EVERY, check
from vsr.lexer import LexError, Token, TokenKind, scan
# `lex` is unused here, but the benchmark tracer rebinds vsr.parser.lex.
from vsr.lexer import lex  # noqa: F401
from vsr.trees import CleanNode, NodeKind, RawNode, clone_raw

# Combined statement/expression nesting cap.  Keeps pathological inputs from
# exhausting the interpreter stack; realistic RTL nests far shallower.
_MAX_NESTING = 128


class ParseError(ValueError):
    """Syntax failure; `span` points at the offending source range."""

    def __init__(self, message: str, span: tuple[int, int]):
        super().__init__(message)
        self.span = span


@dataclass(frozen=True)
class Diagnostic:
    severity: str
    message: str
    span: tuple[int, int]


class ValidityStatus(Enum):
    NOT_CODE = "not_code"
    PARSE_FAIL = "parse_fail"
    PARSED = "parsed"


@dataclass(frozen=True)
class Validity:
    """Outcome of `classify`: a status, the AST when parsed, diagnostics."""

    status: ValidityStatus
    ast: RawNode | None
    diagnostics: tuple[Diagnostic, ...]

    @property
    def is_parsed(self) -> bool:
        return self.status is ValidityStatus.PARSED


# Binary operator text -> (precedence, node kind); a higher precedence binds
# tighter, and every binary operator is left-associative.
_BINARY = {
    "||": (1, NodeKind.LOGICAL_OR),
    "&&": (2, NodeKind.LOGICAL_AND),
    "|": (3, NodeKind.OR),
    "^": (4, NodeKind.XOR),
    "^~": (4, NodeKind.XNOR),
    "~^": (4, NodeKind.XNOR),
    "&": (5, NodeKind.AND),
    "==": (6, NodeKind.EQ),
    "!=": (6, NodeKind.NEQ),
    "===": (6, NodeKind.CASE_EQ),
    "!==": (6, NodeKind.CASE_NEQ),
    "<": (7, NodeKind.LT),
    "<=": (7, NodeKind.LTE),
    ">": (7, NodeKind.GT),
    ">=": (7, NodeKind.GTE),
    "<<": (8, NodeKind.SHL),
    ">>": (8, NodeKind.SHR),
    "<<<": (8, NodeKind.ASHL),
    ">>>": (8, NodeKind.ASHR),
    "+": (9, NodeKind.PLUS),
    "-": (9, NodeKind.MINUS),
    "*": (10, NodeKind.MUL),
    "/": (10, NodeKind.DIV),
    "%": (10, NodeKind.MOD),
    "**": (11, NodeKind.POW),
}

_UNARY_KIND = {
    "!": NodeKind.NOT,
    "~": NodeKind.BIT_NOT,
    "-": NodeKind.UNARY_MINUS,
    "+": NodeKind.UNARY_PLUS,
    "&": NodeKind.REDUCE_AND,
    "|": NodeKind.REDUCE_OR,
    "^": NodeKind.REDUCE_XOR,
    "~&": NodeKind.REDUCE_NAND,
    "~|": NodeKind.REDUCE_NOR,
    "~^": NodeKind.REDUCE_XNOR,
    "^~": NodeKind.REDUCE_XNOR,
}

_DIRECTION_KIND = {
    "input": NodeKind.INPUT_PORT,
    "output": NodeKind.OUTPUT_PORT,
    "inout": NodeKind.INOUT_PORT,
}

_VAR_KIND = {
    "integer": NodeKind.INTEGER_DECL,
    "real": NodeKind.REAL_DECL,
    "time": NodeKind.TIME_DECL,
}

_PARAM_KIND = {
    "parameter": NodeKind.PARAM_DECL,
    "localparam": NodeKind.LOCAL_PARAM_DECL,
}

# Every declaration keyword and the node kind it declares.
_DECL_KIND = {
    **_PARAM_KIND,
    **_DIRECTION_KIND,
    "wire": NodeKind.WIRE_DECL,
    "reg": NodeKind.REG_DECL,
    **_VAR_KIND,
}

_CASE_KIND = {
    "case": NodeKind.CASE_STMT,
    "casez": NodeKind.CASEZ_STMT,
    "casex": NodeKind.CASEX_STMT,
}


_SELECT_KIND = {
    ":": NodeKind.PART_SELECT,
    "+:": NodeKind.PART_SELECT_PLUS,
    "-:": NodeKind.PART_SELECT_MINUS,
}

_ASSIGN_KIND = {
    "=": NodeKind.BLOCKING_ASSIGN,
    "<=": NodeKind.NONBLOCKING_ASSIGN,
}

_EDGE_KIND = {
    "posedge": NodeKind.EDGE_POSEDGE,
    "negedge": NodeKind.EDGE_NEGEDGE,
}

# Texts that end an expression after a lone identifier or constant.
_LONE_END = frozenset((")", ";", ",", ":", "]", "}"))

# The token kinds the parser tests and the node kinds it builds, bound to
# module names.  On Python 3.11, reading a member off an Enum class, as in
# `NodeKind.ID`, takes over 100 ns, several times the cost of building an
# empty child list; reading a module global takes a few ns.
_IDENTIFIER = TokenKind.IDENTIFIER
_DIRECTIVE = TokenKind.DIRECTIVE
_PUNCTUATION = TokenKind.PUNCTUATION
_NUMBER = TokenKind.NUMBER
_STRING = TokenKind.STRING
_KEYWORD = TokenKind.KEYWORD
_ALWAYS = NodeKind.ALWAYS
_BIT_SELECT = NodeKind.BIT_SELECT
_BLOCK = NodeKind.BLOCK
_CASE_ITEM = NodeKind.CASE_ITEM
_CONCAT = NodeKind.CONCAT
_CONST = NodeKind.CONST
_CONTINUOUS_ASSIGN = NodeKind.CONTINUOUS_ASSIGN
_FUNC_CALL = NodeKind.FUNC_CALL
_FUNC_DECL = NodeKind.FUNC_DECL
_ID = NodeKind.ID
_IF_STMT = NodeKind.IF_STMT
_INITIAL = NodeKind.INITIAL
_INSTANCE = NodeKind.INSTANCE
_LEVEL_SENSE = NodeKind.LEVEL_SENSE
_MODULE_DEF = NodeKind.MODULE_DEF
_NULL_STMT = NodeKind.NULL_STMT
_PORT_CONN = NodeKind.PORT_CONN
_PORT_REF = NodeKind.PORT_REF
_REPEAT = NodeKind.REPEAT
_SENS_LIST = NodeKind.SENS_LIST
_SOURCE_UNIT = NodeKind.SOURCE_UNIT
_STAR_SENSE = NodeKind.STAR_SENSE
_TASK_CALL = NodeKind.TASK_CALL
_TASK_DECL = NodeKind.TASK_DECL
_TERNARY = NodeKind.TERNARY
_WIDTH = NodeKind.WIDTH

# Field readers for tokens.
_KIND, _TEXT, _SPAN = itemgetter(0), itemgetter(1), itemgetter(2)


class Parser:
    """The grammar, over parallel token lists, building through one builder.

    The lists are the texts, kinds and spans of the tokens, directives
    already dropped.  This class builds RawNodes with spans; `_Interner`
    runs the same grammar and builds interned CleanNodes.
    """

    def __init__(
        self,
        texts: list[str],
        kinds: list[TokenKind],
        spans: list[tuple[int, int]] | None,
        deadline: float | None = None,
    ):
        # Two end tokens with empty text close the lists, so looking at the
        # current or the next token needs no bounds check (the position
        # never passes the first).  Their span is empty and sits at the end
        # of the last token, which is where an error at the end of input
        # points.  The lists are the caller's, made for this parse.
        texts += ("", "")
        kinds += (_PUNCTUATION, _PUNCTUATION)
        if spans is not None:
            end = spans[-1][1] if spans else 0
            spans += ((end, end), (end, end))
        self._texts = texts
        self._kinds = kinds
        self._spans = spans
        self._pos = 0
        self._depth = 0
        self._deadline = deadline

    # ---- The builder ----
    #
    # Every node is built by one of these methods, and `_Interner` replaces
    # them all.  A node's span runs from the start of a given token to the
    # end of the last token consumed, with two exceptions: binary, ternary
    # and select nodes start where their first child starts, and binary and
    # unary nodes end where their last child ends.  A parenthesized operand
    # is the node of what is inside, so those starts and ends leave its
    # parentheses out.

    def _node(self, kind, kids, name, value, mods, start: int):
        """A node whose span runs from token `start` to the last consumed."""
        spans = self._spans
        return RawNode(kind, kids, name, value, mods, (spans[start][0], spans[self._pos - 1][1]))

    def _leaf(self, kind, name, value):
        """An identifier or constant: the last consumed token alone."""
        return RawNode(kind, [], name, value, (), self._spans[self._pos - 1])

    def _pair(self, kind, left, right):
        """A binary operator node."""
        return RawNode(kind, [left, right], None, None, (), (left.span[0], right.span[1]))

    def _prefix(self, kind, at: int, operand):
        """A unary operator node; its operator is token `at`."""
        return RawNode(kind, [operand], None, None, (), (self._spans[at][0], operand.span[1]))

    def _joined(self, kind, kids):
        """A ternary or select node: from its first child to the last consumed."""
        return RawNode(kind, kids, None, None, (), (kids[0].span[0], self._spans[self._pos - 1][1]))

    def _copy(self, node):
        """A node to put in the tree a second time (see `_decl`)."""
        return clone_raw(node)

    # ---- Token plumbing ----

    def _span(self, at: int) -> tuple[int, int] | None:
        spans = self._spans
        return None if spans is None else spans[at]

    def _error(self, message: str) -> NoReturn:
        pos = self._pos
        text = self._texts[pos]
        if not text:
            raise ParseError(f"{message}, found end of input", self._span(pos))
        raise ParseError(f"{message}, found {text!r}", self._span(pos))

    def _advance(self) -> int:
        # Every token is consumed here and the position never moves back,
        # so this is where the deadline is checked.  Returns the index of
        # the token consumed.
        pos = self._pos
        if not self._texts[pos]:
            self._error("unexpected end of input")
        self._pos = nxt = pos + 1
        if not nxt % CHECK_EVERY:
            check(self._deadline)
        return pos

    def _at(self, text: str) -> bool:
        # The text alone is enough: a keyword, operator or punctuation text
        # always lexes as that one kind (see the module docstring).
        return self._texts[self._pos] == text

    def _expect(self, text: str) -> int:
        # `_advance` inlined: `text` is never empty, so it is not the end.
        pos = self._pos
        if self._texts[pos] != text:
            self._error(f"expected '{text}'")
        self._pos = nxt = pos + 1
        if not nxt % CHECK_EVERY:
            check(self._deadline)
        return pos

    def _expect_ident(self) -> int:
        if self._kinds[self._pos] is not _IDENTIFIER:
            self._error("expected identifier")
        return self._advance()

    def _enter(self) -> None:
        self._depth += 1
        if self._depth > _MAX_NESTING:
            span = self._span(self._pos)
            raise ParseError("nesting too deep", span and (span[0], span[0] + 1))

    # ---- Source structure ----

    def parse_source_unit(self):
        modules = []
        texts = self._texts
        while texts[self._pos]:
            modules.append(self._module())
        if not modules:
            raise ParseError("expected at least one module", (0, 0))
        # The first module starts at the first token.
        return self._node(_SOURCE_UNIT, modules, None, None, (), 0)

    def _module(self):
        start = self._expect("module")
        texts = self._texts
        name = texts[self._expect_ident()]
        children: list = []
        mods: tuple[str, ...] = ()
        if self._at("#"):
            self._advance()
            children.extend(self._header_params())
        if self._at("("):
            self._advance()
            ports, ansi = self._port_header()
            children.extend(ports)
            if ansi:
                mods += ("ansi",)
        self._expect(";")
        while texts[self._pos] != "endmodule":
            if not texts[self._pos]:
                self._error("expected 'endmodule'")
            children.extend(self._module_item())
        self._advance()
        return self._node(_MODULE_DEF, children, name, None, mods, start)

    def _header_params(self) -> list:
        self._expect("(")
        if not self._at("parameter"):
            self._error("expected 'parameter'")
        return self._decl(("parameter",))

    def _port_header(self) -> tuple[list, bool]:
        """Parse the parenthesized port list; returns (ports, is_ansi)."""
        if self._at(")"):
            self._advance()
            return [], True
        if self._kinds[self._pos] is _IDENTIFIER:
            refs = []
            while True:
                at = self._expect_ident()
                refs.append(self._node(_PORT_REF, [], self._texts[at], None, ("header",), at))
                if self._at(","):
                    self._advance()
                    continue
                break
            self._expect(")")
            return refs, False
        if self._texts[self._pos] not in _DIRECTION_KIND:
            self._error("expected port direction")
        return self._decl(_DIRECTION_KIND), True

    # ---- Module items ----

    def _module_item(self) -> list:
        pos = self._pos
        word = self._texts[pos]
        if word in _DECL_KIND:
            return self._decl()
        kind = self._kinds[pos]
        if kind is _KEYWORD:
            if word == "assign":
                return self._continuous_assign()
            if word == "always":
                return [self._always()]
            if word == "initial":
                self._advance()
                stmt = self._statement()
                return [self._node(_INITIAL, [stmt], None, None, (), pos)]
            if word == "function":
                return [self._func_decl()]
            if word == "task":
                return [self._task_decl()]
            self._error("unsupported construct at module level")
        if kind is _IDENTIFIER:
            return self._instances()
        self._error("expected module item")

    def _decl(self, group_words: Collection[str] = ()) -> list:
        """Parse declarations, one node per declared name.

        A declaration is a keyword from `_DECL_KIND`, its qualifiers, and
        comma-separated names, each spanning from the keyword to its own
        end.  Only a port direction takes `wire` or `reg`; `integer`,
        `real` and `time` take no `signed` and no width; only `reg` names
        take a memory range; a parameter name requires `= expr`, and a port
        name takes no initializer.  The first name gets the parsed width
        and each later name a copy (`_copy`), so no RawNode is in the tree
        twice.

        With no `group_words` this is one module or routine item and ends
        at its ';'.  Otherwise it is a `#(...)` or ANSI port list that ends
        at its ')': a comma followed by one of `group_words` starts a new
        declaration, and every node carries the 'header' mod.
        """
        header = ("header",) if group_words else ()
        texts = self._texts
        kinds = self._kinds
        nodes: list = []
        while True:
            start = self._advance()
            word = texts[start]
            kind = _DECL_KIND[word]
            mods = header
            port = word in _DIRECTION_KIND
            if port:
                text = texts[self._pos]
                if text == "wire":
                    self._advance()
                elif text == "reg":
                    self._advance()
                    mods += ("reg",)
            width = None
            if word not in _VAR_KIND:
                if texts[self._pos] == "signed":
                    self._advance()
                    mods += ("signed",)
                if texts[self._pos] == "[":
                    width = self._width()
            unused_width = width  # the first name takes it, later names a copy
            while True:
                if kinds[self._pos] is not _IDENTIFIER:
                    self._error("expected identifier")
                name = texts[self._advance()]
                if unused_width is not None:
                    kids = [unused_width]
                    unused_width = None
                elif width is not None:
                    kids = [self._copy(width)]
                else:
                    kids = []
                text = texts[self._pos]
                if text == "[" and word == "reg":
                    kids.append(self._width())  # memory address range
                    text = texts[self._pos]
                if word in _PARAM_KIND:
                    self._expect("=")
                    kids.append(self._expr())
                elif text == "=" and not port:
                    self._advance()
                    kids.append(self._expr())
                nodes.append(self._node(kind, kids, name, None, mods, start))
                pos = self._pos
                if texts[pos] != ",":
                    self._expect(")" if group_words else ";")
                    return nodes
                self._advance()
                if texts[pos + 1] in group_words:
                    break

    def _continuous_assign(self) -> list:
        start = self._advance()  # `assign`
        texts = self._texts
        nodes = []
        while True:
            lhs = self._lvalue()
            self._expect("=")
            rhs = self._expr()
            nodes.append(self._node(_CONTINUOUS_ASSIGN, [lhs, rhs], None, None, (), start))
            if texts[self._pos] != ",":
                break
            self._advance()
        self._expect(";")
        return nodes

    def _always(self):
        start = self._advance()  # `always`
        sens = self._sens_list()
        stmt = self._statement()
        return self._node(_ALWAYS, [sens, stmt], None, None, (), start)

    def _sens_list(self):
        start = self._expect("@")
        items: list = []
        if self._at("*"):
            at = self._advance()
            items.append(self._node(_STAR_SENSE, [], None, None, (), at))
        else:
            self._expect("(")
            if self._at("*"):
                at = self._advance()
                items.append(self._node(_STAR_SENSE, [], None, None, (), at))
            else:
                texts = self._texts
                while True:
                    items.append(self._sens_item())
                    text = texts[self._pos]
                    if text != "or" and text != ",":
                        break
                    self._advance()
            self._expect(")")
        return self._node(_SENS_LIST, items, None, None, (), start)

    def _sens_item(self):
        start = self._pos
        kind = _EDGE_KIND.get(self._texts[start])
        if kind is None:
            kind = _LEVEL_SENSE
        else:
            self._advance()
        expr = self._expr()
        return self._node(kind, [expr], None, None, (), start)

    def _instances(self) -> list:
        start = self._advance()  # the module name
        texts = self._texts
        modname = texts[start]
        params: list = []
        if self._at("#"):
            self._advance()
            self._expect("(")
            params = self._conn_list(param=True)
            self._expect(")")
        nodes: list = []
        while True:
            inst = texts[self._expect_ident()]
            self._expect("(")
            conns = self._conn_list(param=False)
            self._expect(")")
            kids = [self._copy(p) for p in params] if nodes else params
            nodes.append(self._node(_INSTANCE, kids + conns, inst, modname, (), start))
            if not self._at(","):
                break
            self._advance()
        self._expect(";")
        return nodes

    def _conn_list(self, param: bool) -> list:
        mods = ("param",) if param else ()
        texts = self._texts
        conns: list = []
        if texts[self._pos] == ")":
            return conns
        while True:
            start = self._pos
            if texts[start] == ".":
                self._advance()
                pname = texts[self._expect_ident()]
                self._expect("(")
                kids = [] if texts[self._pos] == ")" else [self._expr()]
                self._expect(")")
                conns.append(self._node(_PORT_CONN, kids, pname, None, mods, start))
            else:
                expr = self._expr()
                conns.append(self._node(_PORT_CONN, [expr], None, None, mods, start))
            if texts[self._pos] != ",":
                return conns
            self._advance()

    def _func_decl(self):
        start = self._advance()  # `function`
        mods: tuple[str, ...] = ()
        if self._at("automatic"):
            self._advance()
            mods += ("automatic",)
        if self._at("signed"):
            self._advance()
            mods += ("signed",)
        kids: list = []
        for word in ("integer", "real", "time"):
            if self._at(word):
                self._advance()
                mods += (word,)
                break
        else:
            if self._at("["):
                kids.append(self._width())
        name = self._texts[self._expect_ident()]
        self._expect(";")
        kids.extend(self._routine_decls())
        kids.append(self._statement())
        self._expect("endfunction")
        return self._node(_FUNC_DECL, kids, name, None, mods, start)

    def _task_decl(self):
        start = self._advance()  # `task`
        mods: tuple[str, ...] = ()
        if self._at("automatic"):
            self._advance()
            mods += ("automatic",)
        name = self._texts[self._expect_ident()]
        self._expect(";")
        kids = self._routine_decls()
        if not self._at("endtask"):
            kids.append(self._statement())
        self._expect("endtask")
        return self._node(_TASK_DECL, kids, name, None, mods, start)

    def _routine_decls(self) -> list:
        decls: list = []
        while True:
            # `wire` is no declaration inside a function or task
            word = self._texts[self._pos]
            if word == "wire" or word not in _DECL_KIND:
                return decls
            decls.extend(self._decl())

    # ---- Statements ----

    def _statement(self):
        # A parse is abandoned at its first error, so the nesting count
        # needs no restoring when one is raised.
        depth = self._depth
        if depth >= _MAX_NESTING:
            self._enter()  # raises
        self._depth = depth + 1
        pos = self._pos
        texts = self._texts
        text = texts[pos]
        kind = self._kinds[pos]
        if kind is _IDENTIFIER:
            nxt = texts[pos + 1]
            if nxt == "(" or nxt == ";":
                node = self._task_call()
            else:
                node = self._assignment(pos)
        elif kind is _KEYWORD:
            if text == "begin":
                node = self._block()
            elif text == "if":
                node = self._if_stmt()
            elif text in _CASE_KIND:
                node = self._case_stmt()
            else:
                self._error("unsupported construct in statement position")
        elif text == ";":
            self._advance()
            node = self._node(_NULL_STMT, [], None, None, (), pos)
        elif text == "{":
            node = self._assignment(pos)
        else:
            self._error("expected statement")
        self._depth = depth
        return node

    def _assignment(self, start: int):
        lhs = self._lvalue()
        kind = _ASSIGN_KIND.get(self._texts[self._pos])
        if kind is None:
            self._error("expected '=' or '<='")
        self._advance()
        rhs = self._expr()
        self._expect(";")
        return self._node(kind, [lhs, rhs], None, None, (), start)

    def _task_call(self):
        start = self._advance()  # the name
        args: list = []
        if self._at("("):
            self._advance()
            if not self._at(")"):
                args = self._expr_list()
            self._expect(")")
        self._expect(";")
        return self._node(_TASK_CALL, args, self._texts[start], None, (), start)

    def _block(self):
        start = self._advance()  # `begin`
        name = None
        if self._at(":"):
            self._advance()
            name = self._texts[self._expect_ident()]
        texts = self._texts
        stmts = []
        while texts[self._pos] != "end":
            if not texts[self._pos]:
                self._error("expected 'end'")
            stmts.append(self._statement())
        self._advance()
        return self._node(_BLOCK, stmts, name, None, (), start)

    def _if_stmt(self):
        start = self._advance()  # `if`
        self._expect("(")
        cond = self._expr()
        self._expect(")")
        then = self._statement()
        kids = [cond, then]
        if self._at("else"):
            self._advance()
            kids.append(self._statement())
        return self._node(_IF_STMT, kids, None, None, (), start)

    def _case_stmt(self):
        start = self._advance()
        texts = self._texts
        kind = _CASE_KIND[texts[start]]
        self._expect("(")
        subject = self._expr()
        self._expect(")")
        items = [subject]
        while texts[self._pos] != "endcase":
            if not texts[self._pos]:
                self._error("expected 'endcase'")
            items.append(self._case_item())
        self._advance()
        return self._node(kind, items, None, None, (), start)

    def _case_item(self):
        texts = self._texts
        start = self._pos
        if texts[start] == "default":
            self._advance()
            if texts[self._pos] == ":":
                self._advance()
            kids = []
        else:
            kids = self._expr_list()
            self._expect(":")
        kids.append(self._statement())
        return self._node(_CASE_ITEM, kids, None, None, (), start)

    # ---- Expressions ----
    #
    # `_expr` parses one expression: a lone identifier or constant on a fast
    # path, otherwise an operand, a binary operator chain folded by one
    # precedence loop (`_binary`), and an optional ternary.  `_operand`
    # parses everything that binds tighter than a binary operator: unary
    # prefixes, names with their selects or call, constants, parentheses
    # and concatenations.  The nesting count goes up once per `_expr` and
    # once per unary operator.

    def _expr_list(self) -> list:
        """One or more comma-separated expressions."""
        texts = self._texts
        items = [self._expr()]
        while texts[self._pos] == ",":
            self._advance()
            items.append(self._expr())
        return items

    def _lvalue(self):
        texts = self._texts
        start = self._pos
        if texts[start] == "{":
            self._advance()
            parts = [self._lvalue()]
            while texts[self._pos] == ",":
                self._advance()
                parts.append(self._lvalue())
            self._expect("}")
            return self._node(_CONCAT, parts, None, None, (), start)
        if self._kinds[start] is not _IDENTIFIER:
            self._error("expected identifier")
        self._advance()
        node = self._leaf(_ID, texts[start], None)
        if texts[self._pos] == "[":
            return self._select_suffix(node)
        return node

    def _expr(self):
        depth = self._depth
        if depth >= _MAX_NESTING:
            self._enter()  # raises: one more level is one too many
        texts = self._texts
        pos = self._pos
        kind = self._kinds[pos]
        nxt = texts[pos + 1]
        # A leading identifier or constant is built here; alone before a
        # closing token it is the whole expression.
        if kind is _IDENTIFIER and nxt != "(" and nxt != "[":
            self._advance()
            node = self._leaf(_ID, texts[pos], None)
            if nxt in _LONE_END:
                return node
        elif kind is _NUMBER or kind is _STRING:
            self._advance()
            node = self._leaf(_CONST, None, texts[pos])
            if nxt in _LONE_END:
                return node
        else:
            node = None
        self._depth = depth + 1
        if node is None:
            node = self._operand()
        text = texts[self._pos]
        if text in _BINARY:
            node = self._binary(node)
            text = texts[self._pos]
        if text == "?":
            self._advance()
            then = self._expr()
            self._expect(":")
            other = self._expr()
            node = self._joined(_TERNARY, [node, then, other])
        self._depth = depth
        return node

    def _binary(self, left):
        """Fold the binary operator chain that starts at the current token.

        One loop with an operator stack: before an operator is pushed,
        every stacked operator of the same or a higher precedence is
        applied, which makes every operator left-associative, `**`
        included.
        """
        texts = self._texts
        pair = self._pair
        operands = [left]
        pending: list[tuple[int, NodeKind]] = []  # (precedence, kind)
        op: tuple[int, NodeKind] | None = _BINARY[texts[self._pos]]
        while True:
            # the end of the chain applies everything still pending
            prec = op[0] if op is not None else 0
            while pending and pending[-1][0] >= prec:
                right = operands.pop()
                operands[-1] = pair(pending.pop()[1], operands[-1], right)
            if op is None:
                return operands[0]
            pending.append(op)
            self._advance()
            operands.append(self._operand())
            op = _BINARY.get(texts[self._pos])

    def _operand(self):
        texts = self._texts
        pos = self._pos
        kind = self._kinds[pos]
        if kind is _IDENTIFIER:
            if texts[pos + 1] == "(":
                return self._func_call()
            self._advance()
            node = self._leaf(_ID, texts[pos], None)
            if texts[self._pos] == "[":
                return self._select_suffix(node)
            return node
        if kind is _NUMBER or kind is _STRING:
            self._advance()
            return self._leaf(_CONST, None, texts[pos])
        text = texts[pos]
        if text == "(":
            self._advance()
            node = self._expr()
            self._expect(")")
            return node
        if text == "{":
            return self._concat_or_repeat()
        if text not in _UNARY_KIND:
            self._error("expected expression")
        # Unary operators nest rightwards: enter one level per operator,
        # parse the operand after the last, then wrap it inside out.
        prefix = []
        while text in _UNARY_KIND:
            self._enter()
            prefix.append(self._advance())
            text = texts[self._pos]
        node = self._operand()
        self._depth -= len(prefix)
        for at in reversed(prefix):
            node = self._prefix(_UNARY_KIND[texts[at]], at, node)
        return node

    def _func_call(self):
        start = self._advance()  # the name
        self._expect("(")
        args = [] if self._at(")") else self._expr_list()
        self._expect(")")
        return self._node(_FUNC_CALL, args, self._texts[start], None, (), start)

    def _select_suffix(self, target):
        texts = self._texts
        while texts[self._pos] == "[":
            self._advance()
            first = self._expr()
            kind = _SELECT_KIND.get(texts[self._pos])
            if kind is None:
                kind = _BIT_SELECT
                kids = [target, first]
            else:
                self._advance()
                kids = [target, first, self._expr()]
            self._expect("]")
            target = self._joined(kind, kids)
        return target

    def _concat_or_repeat(self):
        start = self._advance()  # `{`
        first = self._expr()
        if self._at("{"):
            self._advance()
            items = self._expr_list()
            self._expect("}")
            self._expect("}")
            return self._node(_REPEAT, [first, *items], None, None, (), start)
        items = [first]
        texts = self._texts
        while texts[self._pos] == ",":
            self._advance()
            items.append(self._expr())
        self._expect("}")
        return self._node(_CONCAT, items, None, None, (), start)

    def _width(self):
        start = self._advance()  # `[`
        msb = self._expr()
        self._expect(":")
        lsb = self._expr()
        self._expect("]")
        return self._node(_WIDTH, [msb, lsb], None, None, (), start)


class _Interner(Parser):
    """The grammar of `Parser`, building hash-consed CleanNodes into a table.

    Each node is looked up by the key `clean` gives it, the id of its kind
    and the ids of its children, so the tree is the very object that
    `clean(parse(...), table)` returns on the same table.  Names, values,
    modifiers and spans are never kept; a copy is the node itself; and a
    ParseError carries no span.
    """

    def __init__(self, texts, kinds, table: dict, deadline: float | None = None):
        super().__init__(texts, kinds, None, deadline)
        self._table = table
        self._id_leaf = self._node(_ID, [], None, None, (), 0)
        self._const_leaf = self._node(_CONST, [], None, None, (), 0)

    def _node(self, kind, kids, name, value, mods, start):
        key = (id(kind), *map(id, kids))
        node = self._table.get(key)
        if node is None:
            node = self._table[key] = CleanNode(kind, tuple(kids))
        return node

    def _leaf(self, kind, name, value):
        return self._id_leaf if kind is _ID else self._const_leaf

    def _pair(self, kind, left, right):
        return self._node(kind, (left, right), None, None, (), 0)

    def _prefix(self, kind, at, operand):
        return self._node(kind, (operand,), None, None, (), 0)

    def _joined(self, kind, kids):
        return self._node(kind, kids, None, None, (), 0)

    def _copy(self, node):
        return node


# ---- Entry points ----


def _drop_directives(kinds: list[TokenKind], lists: list[list], deadline) -> list[list]:
    """`lists`, each parallel to `kinds`, without their directive tokens.

    Directives are lexed for span bookkeeping but never parsed.  They are
    dropped in slices, and the deadline is checked after each slice, with
    or without a directive in it, at no cost per token.
    """
    if _DIRECTIVE not in kinds:
        for _ in range(0, len(kinds), CHECK_EVERY):
            check(deadline)
        return lists
    kept: list[list] = [[] for _ in lists]
    for lo in range(0, len(kinds), CHECK_EVERY):
        part = slice(lo, lo + CHECK_EVERY)
        keep = list(map(is_not, kinds[part], repeat(_DIRECTIVE)))
        for out, values in zip(kept, lists):
            out += compress(values[part], keep)
        check(deadline)
    return kept


def _parse_lists(texts, kinds, spans, deadline) -> RawNode:
    """Parse the token lists of `scan(..., spans=True)`; raises ParseError."""
    texts, kinds, spans = _drop_directives(kinds, [texts, kinds, spans], deadline)
    return Parser(texts, kinds, spans, deadline).parse_source_unit()


def parse(tokens: list[Token], *, deadline: float | None = None) -> RawNode:
    """Parse a token stream into a SourceUnit tree; raises ParseError.

    Raises DeadlineExceeded once `deadline` has passed (see `vsr.deadline`).
    """
    spans = list(map(_SPAN, tokens))
    return _parse_lists(list(map(_TEXT, tokens)), list(map(_KIND, tokens)), spans, deadline)


def parse_source(text: str) -> RawNode:
    """Lex and parse `text`; raises LexError or ParseError."""
    return _parse_lists(*scan(text, spans=True), None)


def _looks_like_code(texts: list[str]) -> bool:
    """True when a `module` keyword comes before an `endmodule` keyword.

    That holds exactly when the first `module` comes before the last
    `endmodule`, so the scan runs in from both ends: on code it stops after
    a token or two instead of reading the whole stream, which at the body
    cap would take hundreds of ms without a deadline check.
    """
    try:
        first = texts.index("module")
    except ValueError:
        return False
    for i in range(len(texts) - 1, first, -1):
        if texts[i] == "endmodule":
            return True
    return False


def classify(source: str, *, deadline: float | None = None) -> Validity:
    """Total three-way triage of arbitrary text.

    NotCode: does not lex, or lexes without a module/endmodule keyword pair.
    ParseFail: code-shaped but rejected by the grammar.
    Parsed: carries the raw AST.  Never raises, except DeadlineExceeded
    once `deadline` (see `vsr.deadline`) has passed: that stops the work
    and is no verdict on the text.
    """
    try:
        texts, kinds, spans = scan(source, deadline, spans=True)
    except LexError as exc:
        diag = Diagnostic("error", str(exc), exc.span)
        return Validity(ValidityStatus.NOT_CODE, None, (diag,))
    if not _looks_like_code(texts):
        diag = Diagnostic(
            "error", "no module/endmodule pair in token stream", (0, len(source))
        )
        return Validity(ValidityStatus.NOT_CODE, None, (diag,))
    try:
        ast = _parse_lists(texts, kinds, spans, deadline)
    except ParseError as exc:
        diag = Diagnostic("error", str(exc), exc.span)
        return Validity(ValidityStatus.PARSE_FAIL, None, (diag,))
    except RecursionError:
        diag = Diagnostic("error", "parser recursion limit exceeded", (0, len(source)))
        return Validity(ValidityStatus.PARSE_FAIL, None, (diag,))
    return Validity(ValidityStatus.PARSED, ast, ())


def classify_into(
    source: str, table: dict, *, deadline: float | None = None
) -> tuple[ValidityStatus, CleanNode | None]:
    """`classify` for scoring: the status, and the cleaned tree when parsed.

    The tree is built straight into `table` as `clean(classify(source).ast,
    table)` would intern it, and is that very object; no token, span,
    RawNode or diagnostic is made.  A failed parse may leave nodes in the
    table.  Raises DeadlineExceeded as `classify` does.
    """
    try:
        texts, kinds, _ = scan(source, deadline)
    except LexError:
        return ValidityStatus.NOT_CODE, None
    if not _looks_like_code(texts):
        return ValidityStatus.NOT_CODE, None
    try:
        texts, kinds = _drop_directives(kinds, [texts, kinds], deadline)
        tree = _Interner(texts, kinds, table, deadline).parse_source_unit()
    except (ParseError, RecursionError):
        return ValidityStatus.PARSE_FAIL, None
    return ValidityStatus.PARSED, tree
