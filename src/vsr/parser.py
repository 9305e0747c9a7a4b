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

Tokens are tested by their text alone, never by text and kind.  That is
exact because the lexer never gives one text two kinds: keywords,
operators and punctuation are disjoint sets; a word lexes as a keyword
exactly when it is in the keyword set; and escaped identifiers start with
`\\`, system identifiers with `$`, strings with `"`, numbers with a digit or
`'`, and directives (which the parser drops first) with a backtick, none of
which starts a keyword, operator or punctuation text.  Kind tests remain
only where any token of a kind will do: identifiers, constants and the
unsupported-keyword errors.  The hot routines test `self._toks[self._pos]`
inline rather than through `_at`; two end tokens with empty text close the
token list, so that look-up never runs off its end.  Every token is still
consumed through `_advance`, which checks the deadline by position; a
routine whose caller has already looked at its first token consumes that
token with `_advance` rather than `_expect`.
"""

from __future__ import annotations

from collections.abc import Collection
from dataclasses import dataclass
from enum import Enum
from itertools import islice
from typing import NoReturn

from vsr.deadline import CHECK_EVERY, check
from vsr.lexer import LexError, Token, TokenKind, lex
from vsr.trees import NodeKind, RawNode, clone_raw

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


class Parser:
    def __init__(self, tokens: list[Token], deadline: float | None = None):
        # Directives are lexed for span bookkeeping but never parsed.  They
        # are filtered out in slices, so the deadline is checked between
        # slices at no cost per token.  Two end tokens with empty text close
        # the list, so looking at the current or the next token needs no
        # bounds check (the position never passes the first) and no test
        # for None.  Their span is empty and sits at the end of the last
        # token, which is where an error at the end of input points.
        directive = TokenKind.DIRECTIVE
        rest = iter(tokens)
        toks: list[Token] = []
        for _ in range(0, len(tokens), CHECK_EVERY):
            toks += [t for t in islice(rest, CHECK_EVERY) if t.kind is not directive]
            check(deadline)
        end = toks[-1].span[1] if toks else 0
        toks += [Token(TokenKind.PUNCTUATION, "", (end, end))] * 2
        self._toks = toks
        self._pos = 0
        self._depth = 0
        self._deadline = deadline

    # ---- Token plumbing ----

    def _end(self) -> int:
        if self._pos == 0:
            return 0
        return self._toks[self._pos - 1].span[1]

    def _error(self, message: str) -> NoReturn:
        tok = self._toks[self._pos]
        if not tok.text:
            raise ParseError(f"{message}, found end of input", tok.span)
        raise ParseError(f"{message}, found {tok.text!r}", tok.span)

    def _advance(self) -> Token:
        # Every token is consumed here and the position never moves back,
        # so this is where the deadline is checked.
        pos = self._pos
        tok = self._toks[pos]
        if not tok.text:
            self._error("unexpected end of input")
        self._pos = pos = pos + 1
        if not pos % CHECK_EVERY:
            check(self._deadline)
        return tok

    def _at(self, text: str) -> bool:
        # The text alone is enough: a keyword, operator or punctuation text
        # always lexes as that one kind (see the module docstring).
        return self._toks[self._pos].text == text

    def _expect(self, text: str) -> Token:
        if self._toks[self._pos].text != text:
            self._error(f"expected '{text}'")
        return self._advance()

    def _expect_ident(self) -> Token:
        if self._toks[self._pos].kind is not _IDENTIFIER:
            self._error("expected identifier")
        return self._advance()

    def _enter(self) -> None:
        self._depth += 1
        if self._depth > _MAX_NESTING:
            start = self._toks[self._pos].span[0]
            raise ParseError("nesting too deep", (start, start + 1))

    # ---- Source structure ----

    def parse_source_unit(self) -> RawNode:
        modules = []
        while self._toks[self._pos].text:
            modules.append(self._module())
        if not modules:
            raise ParseError("expected at least one module", (0, 0))
        span = (modules[0].span[0], modules[-1].span[1])
        return RawNode(_SOURCE_UNIT, modules, None, None, (), span)

    def _module(self) -> RawNode:
        start = self._expect("module").span[0]
        name = self._expect_ident().text
        children: list[RawNode] = []
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
        toks = self._toks
        while toks[self._pos].text != "endmodule":
            if not toks[self._pos].text:
                self._error("expected 'endmodule'")
            children.extend(self._module_item())
        end = self._advance().span[1]
        return RawNode(_MODULE_DEF, children, name, None, mods, (start, end))

    def _header_params(self) -> list[RawNode]:
        self._expect("(")
        if not self._at("parameter"):
            self._error("expected 'parameter'")
        return self._decl(("parameter",))

    def _port_header(self) -> tuple[list[RawNode], bool]:
        """Parse the parenthesized port list; returns (ports, is_ansi)."""
        if self._at(")"):
            self._advance()
            return [], True
        if self._toks[self._pos].kind is _IDENTIFIER:
            refs = []
            while True:
                tok = self._expect_ident()
                refs.append(
                    RawNode(_PORT_REF, [], tok.text, None, ("header",), tok.span)
                )
                if self._at(","):
                    self._advance()
                    continue
                break
            self._expect(")")
            return refs, False
        if self._toks[self._pos].text not in _DIRECTION_KIND:
            self._error("expected port direction")
        return self._decl(_DIRECTION_KIND), True

    # ---- Module items ----

    def _module_item(self) -> list[RawNode]:
        tok = self._toks[self._pos]
        word = tok.text
        if word in _DECL_KIND:
            return self._decl()
        if tok.kind is _KEYWORD:
            if word == "assign":
                return self._continuous_assign()
            if word == "always":
                return [self._always()]
            if word == "initial":
                self._advance()
                stmt = self._statement()
                return [RawNode(_INITIAL, [stmt], None, None, (), (tok.span[0], self._end()))]
            if word == "function":
                return [self._func_decl()]
            if word == "task":
                return [self._task_decl()]
            self._error("unsupported construct at module level")
        if tok.kind is _IDENTIFIER:
            return self._instances()
        self._error("expected module item")

    def _decl(self, group_words: Collection[str] = ()) -> list[RawNode]:
        """Parse declarations, one node per declared name.

        A declaration is a keyword from `_DECL_KIND`, its qualifiers, and
        comma-separated names, each spanning from the keyword to its own
        end.  Only a port direction takes `wire` or `reg`; `integer`,
        `real` and `time` take no `signed` and no width; only `reg` names
        take a memory range; a parameter name requires `= expr`, and a port
        name takes no initializer.  The first name gets the parsed width
        and each later name a copy, so no node is in the tree twice.

        With no `group_words` this is one module or routine item and ends
        at its ';'.  Otherwise it is a `#(...)` or ANSI port list that ends
        at its ')': a comma followed by one of `group_words` starts a new
        declaration, and every node carries the 'header' mod.
        """
        header = ("header",) if group_words else ()
        toks = self._toks
        nodes: list[RawNode] = []
        while True:
            keyword = self._advance()
            start = keyword.span[0]
            word = keyword.text
            kind = _DECL_KIND[word]
            mods = header
            port = word in _DIRECTION_KIND
            if port:
                text = toks[self._pos].text
                if text == "wire":
                    self._advance()
                elif text == "reg":
                    self._advance()
                    mods += ("reg",)
            width = None
            if word not in _VAR_KIND:
                if toks[self._pos].text == "signed":
                    self._advance()
                    mods += ("signed",)
                if toks[self._pos].text == "[":
                    width = self._width()
            unused_width = width  # the first name takes it, later names a copy
            while True:
                if toks[self._pos].kind is not _IDENTIFIER:
                    self._error("expected identifier")
                name = self._advance().text
                if unused_width is not None:
                    kids = [unused_width]
                    unused_width = None
                elif width is not None:
                    kids = [clone_raw(width)]
                else:
                    kids = []
                text = toks[self._pos].text
                if text == "[" and word == "reg":
                    kids.append(self._width())  # memory address range
                    text = toks[self._pos].text
                if word in _PARAM_KIND:
                    self._expect("=")
                    kids.append(self._expr())
                elif text == "=" and not port:
                    self._advance()
                    kids.append(self._expr())
                pos = self._pos
                nodes.append(RawNode(kind, kids, name, None, mods, (start, toks[pos - 1].span[1])))
                if toks[pos].text != ",":
                    self._expect(")" if group_words else ";")
                    return nodes
                self._advance()
                if toks[pos + 1].text in group_words:
                    break

    def _continuous_assign(self) -> list[RawNode]:
        start = self._advance().span[0]  # `assign`
        toks = self._toks
        nodes = []
        while True:
            lhs = self._lvalue()
            self._expect("=")
            rhs = self._expr()
            end = toks[self._pos - 1].span[1]
            nodes.append(RawNode(_CONTINUOUS_ASSIGN, [lhs, rhs], None, None, (), (start, end)))
            if toks[self._pos].text != ",":
                break
            self._advance()
        self._expect(";")
        return nodes

    def _always(self) -> RawNode:
        start = self._advance().span[0]  # `always`
        sens = self._sens_list()
        stmt = self._statement()
        return RawNode(_ALWAYS, [sens, stmt], None, None, (), (start, self._end()))

    def _sens_list(self) -> RawNode:
        start = self._expect("@").span[0]
        items: list[RawNode] = []
        if self._at("*"):
            tok = self._advance()
            items.append(RawNode(_STAR_SENSE, [], None, None, (), tok.span))
        else:
            self._expect("(")
            if self._at("*"):
                tok = self._advance()
                items.append(RawNode(_STAR_SENSE, [], None, None, (), tok.span))
            else:
                toks = self._toks
                while True:
                    items.append(self._sens_item())
                    text = toks[self._pos].text
                    if text != "or" and text != ",":
                        break
                    self._advance()
            self._expect(")")
        return RawNode(_SENS_LIST, items, None, None, (), (start, self._end()))

    def _sens_item(self) -> RawNode:
        tok = self._toks[self._pos]
        kind = _EDGE_KIND.get(tok.text)
        if kind is None:
            kind = _LEVEL_SENSE
        else:
            self._advance()
        expr = self._expr()
        return RawNode(kind, [expr], None, None, (), (tok.span[0], self._end()))

    def _instances(self) -> list[RawNode]:
        first = self._advance()  # the module name
        start = first.span[0]
        modname = first.text
        params: list[RawNode] = []
        if self._at("#"):
            self._advance()
            self._expect("(")
            params = self._conn_list(param=True)
            self._expect(")")
        nodes = []
        while True:
            inst = self._expect_ident().text
            self._expect("(")
            conns = self._conn_list(param=False)
            end = self._expect(")").span[1]
            kids = [clone_raw(p) for p in params] if nodes else params
            nodes.append(RawNode(_INSTANCE, kids + conns, inst, modname, (), (start, end)))
            if not self._at(","):
                break
            self._advance()
        self._expect(";")
        return nodes

    def _conn_list(self, param: bool) -> list[RawNode]:
        mods = ("param",) if param else ()
        toks = self._toks
        conns: list[RawNode] = []
        if toks[self._pos].text == ")":
            return conns
        while True:
            tok = toks[self._pos]
            if tok.text == ".":
                self._advance()
                pname = self._expect_ident().text
                self._expect("(")
                kids = [] if toks[self._pos].text == ")" else [self._expr()]
                end = self._expect(")").span[1]
                conns.append(RawNode(_PORT_CONN, kids, pname, None, mods, (tok.span[0], end)))
            else:
                expr = self._expr()
                end = toks[self._pos - 1].span[1]
                conns.append(RawNode(_PORT_CONN, [expr], None, None, mods, (tok.span[0], end)))
            if toks[self._pos].text != ",":
                return conns
            self._advance()

    def _func_decl(self) -> RawNode:
        start = self._advance().span[0]  # `function`
        mods: tuple[str, ...] = ()
        if self._at("automatic"):
            self._advance()
            mods += ("automatic",)
        if self._at("signed"):
            self._advance()
            mods += ("signed",)
        kids: list[RawNode] = []
        for word in ("integer", "real", "time"):
            if self._at(word):
                self._advance()
                mods += (word,)
                break
        else:
            if self._at("["):
                kids.append(self._width())
        name = self._expect_ident().text
        self._expect(";")
        kids.extend(self._routine_decls())
        kids.append(self._statement())
        end = self._expect("endfunction").span[1]
        return RawNode(_FUNC_DECL, kids, name, None, mods, (start, end))

    def _task_decl(self) -> RawNode:
        start = self._advance().span[0]  # `task`
        mods: tuple[str, ...] = ()
        if self._at("automatic"):
            self._advance()
            mods += ("automatic",)
        name = self._expect_ident().text
        self._expect(";")
        kids = self._routine_decls()
        if not self._at("endtask"):
            kids.append(self._statement())
        end = self._expect("endtask").span[1]
        return RawNode(_TASK_DECL, kids, name, None, mods, (start, end))

    def _routine_decls(self) -> list[RawNode]:
        decls: list[RawNode] = []
        while True:
            # `wire` is no declaration inside a function or task
            word = self._toks[self._pos].text
            if word == "wire" or word not in _DECL_KIND:
                return decls
            decls.extend(self._decl())

    # ---- Statements ----

    def _statement(self) -> RawNode:
        # A parse is abandoned at its first error, so the nesting count
        # needs no restoring when one is raised.
        depth = self._depth
        if depth >= _MAX_NESTING:
            self._enter()  # raises
        self._depth = depth + 1
        toks = self._toks
        pos = self._pos
        tok = toks[pos]
        text = tok.text
        kind = tok.kind
        if kind is _IDENTIFIER:
            nxt = toks[pos + 1].text
            if nxt == "(" or nxt == ";":
                node = self._task_call()
            else:
                node = self._assignment(tok)
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
            node = RawNode(_NULL_STMT, [], None, None, (), self._advance().span)
        elif text == "{":
            node = self._assignment(tok)
        else:
            self._error("expected statement")
        self._depth = depth
        return node

    def _assignment(self, first: Token) -> RawNode:
        lhs = self._lvalue()
        kind = _ASSIGN_KIND.get(self._toks[self._pos].text)
        if kind is None:
            self._error("expected '=' or '<='")
        self._advance()
        rhs = self._expr()
        end = self._expect(";").span[1]
        return RawNode(kind, [lhs, rhs], None, None, (), (first.span[0], end))

    def _task_call(self) -> RawNode:
        first = self._advance()  # the name
        args: list[RawNode] = []
        if self._at("("):
            self._advance()
            if not self._at(")"):
                args = self._expr_list()
            self._expect(")")
        end = self._expect(";").span[1]
        return RawNode(_TASK_CALL, args, first.text, None, (), (first.span[0], end))

    def _block(self) -> RawNode:
        start = self._advance().span[0]  # `begin`
        name = None
        if self._at(":"):
            self._advance()
            name = self._expect_ident().text
        toks = self._toks
        stmts = []
        while toks[self._pos].text != "end":
            if not toks[self._pos].text:
                self._error("expected 'end'")
            stmts.append(self._statement())
        end = self._advance().span[1]
        return RawNode(_BLOCK, stmts, name, None, (), (start, end))

    def _if_stmt(self) -> RawNode:
        start = self._advance().span[0]  # `if`
        self._expect("(")
        cond = self._expr()
        self._expect(")")
        then = self._statement()
        kids = [cond, then]
        if self._at("else"):
            self._advance()
            kids.append(self._statement())
        return RawNode(_IF_STMT, kids, None, None, (), (start, self._end()))

    def _case_stmt(self) -> RawNode:
        first = self._advance()
        kind = _CASE_KIND[first.text]
        self._expect("(")
        subject = self._expr()
        self._expect(")")
        toks = self._toks
        items = [subject]
        while toks[self._pos].text != "endcase":
            if not toks[self._pos].text:
                self._error("expected 'endcase'")
            items.append(self._case_item())
        end = self._advance().span[1]
        return RawNode(kind, items, None, None, (), (first.span[0], end))

    def _case_item(self) -> RawNode:
        toks = self._toks
        start = toks[self._pos].span[0]
        if toks[self._pos].text == "default":
            self._advance()
            if toks[self._pos].text == ":":
                self._advance()
            kids = []
        else:
            kids = self._expr_list()
            self._expect(":")
        kids.append(self._statement())
        return RawNode(_CASE_ITEM, kids, None, None, (), (start, self._end()))

    # ---- Expressions ----
    #
    # `_expr` parses one expression: a lone identifier or constant on a fast
    # path, otherwise an operand, a binary operator chain folded by one
    # precedence loop (`_binary`), and an optional ternary.  `_operand`
    # parses everything that binds tighter than a binary operator: unary
    # prefixes, names with their selects or call, constants, parentheses
    # and concatenations.  The nesting count goes up once per `_expr` and
    # once per unary operator.

    def _expr_list(self) -> list[RawNode]:
        """One or more comma-separated expressions."""
        toks = self._toks
        items = [self._expr()]
        while toks[self._pos].text == ",":
            self._advance()
            items.append(self._expr())
        return items

    def _lvalue(self) -> RawNode:
        toks = self._toks
        tok = toks[self._pos]
        if tok.text == "{":
            self._advance()
            parts = [self._lvalue()]
            while toks[self._pos].text == ",":
                self._advance()
                parts.append(self._lvalue())
            end = self._expect("}").span[1]
            return RawNode(_CONCAT, parts, None, None, (), (tok.span[0], end))
        if tok.kind is not _IDENTIFIER:
            self._error("expected identifier")
        self._advance()
        node = RawNode(_ID, [], tok.text, None, (), tok.span)
        if toks[self._pos].text == "[":
            return self._select_suffix(node)
        return node

    def _expr(self) -> RawNode:
        depth = self._depth
        if depth >= _MAX_NESTING:
            self._enter()  # raises: one more level is one too many
        toks = self._toks
        pos = self._pos
        tok = toks[pos]
        kind = tok.kind
        nxt = toks[pos + 1].text
        # A leading identifier or constant is built here; alone before a
        # closing token it is the whole expression.
        if kind is _IDENTIFIER and nxt != "(" and nxt != "[":
            self._advance()
            node = RawNode(_ID, [], tok.text, None, (), tok.span)
            if nxt in _LONE_END:
                return node
        elif kind is _NUMBER or kind is _STRING:
            self._advance()
            node = RawNode(_CONST, [], None, tok.text, (), tok.span)
            if nxt in _LONE_END:
                return node
        else:
            node = None
        self._depth = depth + 1
        if node is None:
            node = self._operand()
        text = toks[self._pos].text
        if text in _BINARY:
            node = self._binary(node)
            text = toks[self._pos].text
        if text == "?":
            self._advance()
            then = self._expr()
            self._expect(":")
            other = self._expr()
            span = (node.span[0], self._end())
            node = RawNode(_TERNARY, [node, then, other], None, None, (), span)
        self._depth = depth
        return node

    def _binary(self, left: RawNode) -> RawNode:
        """Fold the binary operator chain that starts at the current token.

        One loop with an operator stack: before an operator is pushed,
        every stacked operator of the same or a higher precedence is
        applied, which makes every operator left-associative, `**`
        included.  A binary node spans from its left operand's start to
        its right operand's end.
        """
        toks = self._toks
        operands = [left]
        pending: list[tuple[int, NodeKind]] = []  # (precedence, kind)
        op: tuple[int, NodeKind] | None = _BINARY[toks[self._pos].text]
        while True:
            # the end of the chain applies everything still pending
            prec = op[0] if op is not None else 0
            while pending and pending[-1][0] >= prec:
                right = operands.pop()
                left = operands[-1]
                span = (left.span[0], right.span[1])
                operands[-1] = RawNode(pending.pop()[1], [left, right], None, None, (), span)
            if op is None:
                return operands[0]
            pending.append(op)
            self._advance()
            operands.append(self._operand())
            op = _BINARY.get(toks[self._pos].text)

    def _operand(self) -> RawNode:
        toks = self._toks
        tok = toks[self._pos]
        kind = tok.kind
        if kind is _IDENTIFIER:
            if toks[self._pos + 1].text == "(":
                return self._func_call()
            self._advance()
            node = RawNode(_ID, [], tok.text, None, (), tok.span)
            if toks[self._pos].text == "[":
                return self._select_suffix(node)
            return node
        if kind is _NUMBER or kind is _STRING:
            self._advance()
            return RawNode(_CONST, [], None, tok.text, (), tok.span)
        text = tok.text
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
            text = toks[self._pos].text
        node = self._operand()
        self._depth -= len(prefix)
        for tok in reversed(prefix):
            node = RawNode(
                _UNARY_KIND[tok.text], [node], None, None, (), (tok.span[0], node.span[1])
            )
        return node

    def _func_call(self) -> RawNode:
        first = self._advance()  # the name
        self._expect("(")
        args = [] if self._at(")") else self._expr_list()
        end = self._expect(")").span[1]
        return RawNode(_FUNC_CALL, args, first.text, None, (), (first.span[0], end))

    def _select_suffix(self, target: RawNode) -> RawNode:
        toks = self._toks
        while toks[self._pos].text == "[":
            self._advance()
            first = self._expr()
            kind = _SELECT_KIND.get(toks[self._pos].text)
            if kind is None:
                kind = _BIT_SELECT
                kids = [target, first]
            else:
                self._advance()
                kids = [target, first, self._expr()]
            end = self._expect("]").span[1]
            target = RawNode(kind, kids, None, None, (), (target.span[0], end))
        return target

    def _concat_or_repeat(self) -> RawNode:
        start = self._advance().span[0]  # `{`
        first = self._expr()
        if self._at("{"):
            self._advance()
            items = self._expr_list()
            self._expect("}")
            end = self._expect("}").span[1]
            return RawNode(_REPEAT, [first, *items], None, None, (), (start, end))
        items = [first]
        toks = self._toks
        while toks[self._pos].text == ",":
            self._advance()
            items.append(self._expr())
        end = self._expect("}").span[1]
        return RawNode(_CONCAT, items, None, None, (), (start, end))

    def _width(self) -> RawNode:
        start = self._advance().span[0]  # `[`
        msb = self._expr()
        self._expect(":")
        lsb = self._expr()
        end = self._expect("]").span[1]
        return RawNode(_WIDTH, [msb, lsb], None, None, (), (start, end))


# ---- Entry points ----


def parse(tokens: list[Token], *, deadline: float | None = None) -> RawNode:
    """Parse a token stream into a SourceUnit tree; raises ParseError.

    Raises DeadlineExceeded once `deadline` has passed (see `vsr.deadline`).
    """
    return Parser(tokens, deadline).parse_source_unit()


def parse_source(text: str) -> RawNode:
    """Lex and parse `text`; raises LexError or ParseError."""
    return parse(lex(text))


def _looks_like_code(tokens: list[Token]) -> bool:
    """True when a `module` keyword comes before an `endmodule` keyword.

    That holds exactly when the first `module` comes before the last
    `endmodule`, so the scan runs in from both ends: on code it stops after
    a token or two instead of reading the whole stream, which at the body
    cap would take hundreds of ms without a deadline check.
    """
    for first, tok in enumerate(tokens):
        if tok.text == "module":
            break
    else:
        return False
    for i in range(len(tokens) - 1, first, -1):
        if tokens[i].text == "endmodule":
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
        tokens = lex(source, deadline=deadline)
    except LexError as exc:
        diag = Diagnostic("error", str(exc), exc.span)
        return Validity(ValidityStatus.NOT_CODE, None, (diag,))
    if not _looks_like_code(tokens):
        diag = Diagnostic(
            "error", "no module/endmodule pair in token stream", (0, len(source))
        )
        return Validity(ValidityStatus.NOT_CODE, None, (diag,))
    try:
        ast = parse(tokens, deadline=deadline)
    except ParseError as exc:
        diag = Diagnostic("error", str(exc), exc.span)
        return Validity(ValidityStatus.PARSE_FAIL, None, (diag,))
    except RecursionError:
        diag = Diagnostic("error", "parser recursion limit exceeded", (0, len(source)))
        return Validity(ValidityStatus.PARSE_FAIL, None, (diag,))
    return Validity(ValidityStatus.PARSED, ast, ())
