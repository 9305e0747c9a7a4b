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

Tokens are tested by their text alone (`_at`, `_expect`), never by text
and kind.  That is exact because the lexer never gives one text two kinds:
keywords, operators and punctuation are disjoint sets; a word lexes as a
keyword exactly when it is in the keyword set; and escaped identifiers
start with `\\`, system identifiers with `$`, strings with `"`, numbers
with a digit or `'`, and directives (which the parser drops first) with a
backtick, none of which starts a keyword, operator or punctuation text.
Kind tests remain only where any token of a kind will do: `_at_ident`
and the unsupported-keyword errors.
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


_BINARY_PREC = {
    "||": 1,
    "&&": 2,
    "|": 3,
    "^": 4, "^~": 4, "~^": 4,
    "&": 5,
    "==": 6, "!=": 6, "===": 6, "!==": 6,
    "<": 7, "<=": 7, ">": 7, ">=": 7,
    "<<": 8, ">>": 8, "<<<": 8, ">>>": 8,
    "+": 9, "-": 9,
    "*": 10, "/": 10, "%": 10,
    "**": 11,
}

_BINARY_KIND = {
    "||": NodeKind.LOGICAL_OR,
    "&&": NodeKind.LOGICAL_AND,
    "|": NodeKind.OR,
    "^": NodeKind.XOR,
    "^~": NodeKind.XNOR,
    "~^": NodeKind.XNOR,
    "&": NodeKind.AND,
    "==": NodeKind.EQ,
    "!=": NodeKind.NEQ,
    "===": NodeKind.CASE_EQ,
    "!==": NodeKind.CASE_NEQ,
    "<": NodeKind.LT,
    "<=": NodeKind.LTE,
    ">": NodeKind.GT,
    ">=": NodeKind.GTE,
    "<<": NodeKind.SHL,
    ">>": NodeKind.SHR,
    "<<<": NodeKind.ASHL,
    ">>>": NodeKind.ASHR,
    "+": NodeKind.PLUS,
    "-": NodeKind.MINUS,
    "*": NodeKind.MUL,
    "/": NodeKind.DIV,
    "%": NodeKind.MOD,
    "**": NodeKind.POW,
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


class Parser:
    def __init__(self, tokens: list[Token], deadline: float | None = None):
        # Directives are lexed for span bookkeeping but never parsed.  They
        # are filtered out in slices, so the deadline is checked between
        # slices at no cost per token.  Two None sentinels end the list, so
        # looking at the current or the next token needs no bounds check:
        # the position never passes the first.
        directive = TokenKind.DIRECTIVE
        rest = iter(tokens)
        toks: list[Token | None] = []
        for _ in range(0, len(tokens), CHECK_EVERY):
            toks += [t for t in islice(rest, CHECK_EVERY) if t.kind is not directive]
            check(deadline)
        toks += (None, None)
        self._toks = toks
        self._pos = 0
        self._depth = 0
        self._deadline = deadline

    # ---- Token plumbing ----

    def _peek(self, offset: int = 0) -> Token | None:
        return self._toks[self._pos + offset]

    def _at_end(self) -> bool:
        return self._toks[self._pos] is None

    def _mark(self) -> int:
        tok = self._toks[self._pos]
        return tok.span[0] if tok else self._end()

    def _end(self) -> int:
        if self._pos == 0:
            return 0
        return self._toks[self._pos - 1].span[1]  # type: ignore[union-attr]

    def _error(self, message: str) -> NoReturn:
        tok = self._peek()
        if tok is None:
            raise ParseError(f"{message}, found end of input", (self._end(), self._end()))
        raise ParseError(f"{message}, found {tok.text!r}", tok.span)

    def _advance(self) -> Token:
        # Every token is consumed here and the position never moves back,
        # so this is where the deadline is checked.
        pos = self._pos
        tok = self._toks[pos]
        if tok is None:
            self._error("unexpected end of input")
        self._pos = pos = pos + 1
        if not pos % CHECK_EVERY:
            check(self._deadline)
        return tok

    def _at(self, text: str) -> bool:
        # The text alone is enough: a keyword, operator or punctuation text
        # always lexes as that one kind (see the module docstring).
        tok = self._toks[self._pos]
        return tok is not None and tok.text == text

    def _at_ident(self) -> bool:
        tok = self._toks[self._pos]
        return tok is not None and tok.kind is TokenKind.IDENTIFIER

    def _expect(self, text: str) -> Token:
        if not self._at(text):
            self._error(f"expected '{text}'")
        return self._advance()

    def _expect_ident(self) -> Token:
        if not self._at_ident():
            self._error("expected identifier")
        return self._advance()

    def _enter(self) -> None:
        self._depth += 1
        if self._depth > _MAX_NESTING:
            raise ParseError("nesting too deep", (self._mark(), self._mark() + 1))

    # ---- Source structure ----

    def parse_source_unit(self) -> RawNode:
        modules = []
        while not self._at_end():
            modules.append(self._module())
        if not modules:
            raise ParseError("expected at least one module", (0, 0))
        span = (modules[0].span[0], modules[-1].span[1])
        return RawNode(NodeKind.SOURCE_UNIT, modules, span=span)

    def _module(self) -> RawNode:
        start = self._mark()
        self._expect("module")
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
        while not self._at("endmodule"):
            if self._at_end():
                self._error("expected 'endmodule'")
            children.extend(self._module_item())
        end = self._advance().span[1]
        return RawNode(
            NodeKind.MODULE_DEF, children, name=name, mods=mods, span=(start, end)
        )

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
        if self._at_ident():
            refs = []
            while True:
                tok = self._expect_ident()
                refs.append(
                    RawNode(
                        NodeKind.PORT_REF,
                        name=tok.text,
                        mods=("header",),
                        span=tok.span,
                    )
                )
                if self._at(","):
                    self._advance()
                    continue
                break
            self._expect(")")
            return refs, False
        tok = self._peek()
        if tok is None or tok.text not in _DIRECTION_KIND:
            self._error("expected port direction")
        return self._decl(_DIRECTION_KIND), True

    # ---- Module items ----

    def _module_item(self) -> list[RawNode]:
        tok = self._peek()
        if tok is None:
            self._error("expected module item")
        word = tok.text
        if word in _DECL_KIND:
            return self._decl()
        if tok.kind is TokenKind.KEYWORD:
            if word == "assign":
                return self._continuous_assign()
            if word == "always":
                return [self._always()]
            if word == "initial":
                start = tok.span[0]
                self._advance()
                stmt = self._statement()
                return [RawNode(NodeKind.INITIAL, [stmt], span=(start, self._end()))]
            if word == "function":
                return [self._func_decl()]
            if word == "task":
                return [self._task_decl()]
            self._error("unsupported construct at module level")
        if tok.kind is TokenKind.IDENTIFIER:
            return self._instances()
        self._error("expected module item")

    def _decl(self, group_words: Collection[str] = ()) -> list[RawNode]:
        """Parse declarations, one node per declared name.

        A declaration is a keyword from `_DECL_KIND`, its qualifiers, and
        comma-separated names, each spanning from the keyword to its own
        end.  Only a port direction takes `wire` or `reg`; `integer`,
        `real` and `time` take no `signed` and no width; only `reg` names
        take a memory range; a parameter name requires `= expr`, and a port
        name takes no initializer.

        With no `group_words` this is one module or routine item and ends
        at its ';'.  Otherwise it is a `#(...)` or ANSI port list that ends
        at its ')': a comma followed by one of `group_words` starts a new
        declaration, and every node carries the 'header' mod.
        """
        header = ("header",) if group_words else ()
        nodes: list[RawNode] = []
        while True:
            start = self._mark()
            word = self._advance().text
            kind = _DECL_KIND[word]
            mods = header
            if word in _DIRECTION_KIND:
                if self._at("wire"):
                    self._advance()
                elif self._at("reg"):
                    self._advance()
                    mods += ("reg",)
            width = None
            if word not in _VAR_KIND:
                if self._at("signed"):
                    self._advance()
                    mods += ("signed",)
                if self._at("["):
                    width = self._width()
            while True:
                name = self._expect_ident().text
                kids = [clone_raw(width)] if width else []
                if word == "reg" and self._at("["):
                    kids.append(self._width())  # memory address range
                if word in _PARAM_KIND:
                    self._expect("=")
                    kids.append(self._expr())
                elif word not in _DIRECTION_KIND and self._at("="):
                    self._advance()
                    kids.append(self._expr())
                nodes.append(
                    RawNode(kind, kids, name=name, mods=mods, span=(start, self._end()))
                )
                if not self._at(","):
                    self._expect(")" if group_words else ";")
                    return nodes
                self._advance()
                tok = self._peek()
                if tok is not None and tok.text in group_words:
                    break

    def _continuous_assign(self) -> list[RawNode]:
        start = self._mark()
        self._expect("assign")
        nodes = []
        while True:
            lhs = self._lvalue()
            self._expect("=")
            rhs = self._expr()
            nodes.append(
                RawNode(
                    NodeKind.CONTINUOUS_ASSIGN,
                    [lhs, rhs],
                    span=(start, self._end()),
                )
            )
            if self._at(","):
                self._advance()
                continue
            break
        self._expect(";")
        return nodes

    def _always(self) -> RawNode:
        start = self._mark()
        self._expect("always")
        sens = self._sens_list()
        stmt = self._statement()
        return RawNode(NodeKind.ALWAYS, [sens, stmt], span=(start, self._end()))

    def _sens_list(self) -> RawNode:
        start = self._mark()
        self._expect("@")
        items: list[RawNode] = []
        if self._at("*"):
            tok = self._advance()
            items.append(RawNode(NodeKind.STAR_SENSE, span=tok.span))
        else:
            self._expect("(")
            if self._at("*"):
                tok = self._advance()
                items.append(RawNode(NodeKind.STAR_SENSE, span=tok.span))
            else:
                while True:
                    items.append(self._sens_item())
                    if self._at("or") or self._at(","):
                        self._advance()
                        continue
                    break
            self._expect(")")
        return RawNode(NodeKind.SENS_LIST, items, span=(start, self._end()))

    def _sens_item(self) -> RawNode:
        start = self._mark()
        if self._at("posedge"):
            self._advance()
            expr = self._expr()
            return RawNode(NodeKind.EDGE_POSEDGE, [expr], span=(start, self._end()))
        if self._at("negedge"):
            self._advance()
            expr = self._expr()
            return RawNode(NodeKind.EDGE_NEGEDGE, [expr], span=(start, self._end()))
        expr = self._expr()
        return RawNode(NodeKind.LEVEL_SENSE, [expr], span=(start, self._end()))

    def _instances(self) -> list[RawNode]:
        start = self._mark()
        modname = self._expect_ident().text
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
            self._expect(")")
            kids = [clone_raw(p) for p in params] if nodes else params
            nodes.append(
                RawNode(
                    NodeKind.INSTANCE,
                    kids + conns,
                    name=inst,
                    value=modname,
                    span=(start, self._end()),
                )
            )
            if self._at(","):
                self._advance()
                continue
            break
        self._expect(";")
        return nodes

    def _conn_list(self, param: bool) -> list[RawNode]:
        mods = ("param",) if param else ()
        conns: list[RawNode] = []
        if self._at(")"):
            return conns
        while True:
            start = self._mark()
            if self._at("."):
                self._advance()
                pname = self._expect_ident().text
                self._expect("(")
                kids = [] if self._at(")") else [self._expr()]
                self._expect(")")
                conns.append(
                    RawNode(
                        NodeKind.PORT_CONN,
                        kids,
                        name=pname,
                        mods=mods,
                        span=(start, self._end()),
                    )
                )
            else:
                expr = self._expr()
                conns.append(
                    RawNode(
                        NodeKind.PORT_CONN,
                        [expr],
                        mods=mods,
                        span=(start, self._end()),
                    )
                )
            if self._at(","):
                self._advance()
                continue
            break
        return conns

    def _func_decl(self) -> RawNode:
        start = self._mark()
        self._expect("function")
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
        return RawNode(NodeKind.FUNC_DECL, kids, name=name, mods=mods, span=(start, end))

    def _task_decl(self) -> RawNode:
        start = self._mark()
        self._expect("task")
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
        return RawNode(NodeKind.TASK_DECL, kids, name=name, mods=mods, span=(start, end))

    def _routine_decls(self) -> list[RawNode]:
        decls: list[RawNode] = []
        while True:
            # `wire` is no declaration inside a function or task
            tok = self._peek()
            if tok is None or tok.text == "wire" or tok.text not in _DECL_KIND:
                return decls
            decls.extend(self._decl())

    # ---- Statements ----

    def _statement(self) -> RawNode:
        # A parse is abandoned at its first error, so the nesting count
        # needs no restoring when one is raised.
        self._enter()
        tok = self._peek()
        if tok is None:
            self._error("expected statement")
        nxt = self._peek(1)
        if tok.kind is TokenKind.KEYWORD:
            if tok.text == "begin":
                node = self._block()
            elif tok.text == "if":
                node = self._if_stmt()
            elif tok.text in _CASE_KIND:
                node = self._case_stmt()
            else:
                self._error("unsupported construct in statement position")
        elif tok.text == ";":
            node = RawNode(NodeKind.NULL_STMT, span=self._advance().span)
        elif tok.kind is TokenKind.IDENTIFIER and nxt is not None and nxt.text in "(;":
            node = self._task_call()
        elif tok.kind is TokenKind.IDENTIFIER or tok.text == "{":
            lhs = self._lvalue()
            if self._at("="):
                kind = NodeKind.BLOCKING_ASSIGN
            elif self._at("<="):
                kind = NodeKind.NONBLOCKING_ASSIGN
            else:
                self._error("expected '=' or '<='")
            self._advance()
            rhs = self._expr()
            self._expect(";")
            node = RawNode(kind, [lhs, rhs], span=(tok.span[0], self._end()))
        else:
            self._error("expected statement")
        self._depth -= 1
        return node

    def _task_call(self) -> RawNode:
        start = self._mark()
        name = self._expect_ident().text
        args: list[RawNode] = []
        if self._at("("):
            self._advance()
            if not self._at(")"):
                while True:
                    args.append(self._expr())
                    if self._at(","):
                        self._advance()
                        continue
                    break
            self._expect(")")
        self._expect(";")
        return RawNode(NodeKind.TASK_CALL, args, name=name, span=(start, self._end()))

    def _block(self) -> RawNode:
        start = self._mark()
        self._expect("begin")
        name = None
        if self._at(":"):
            self._advance()
            name = self._expect_ident().text
        stmts = []
        while not self._at("end"):
            if self._at_end():
                self._error("expected 'end'")
            stmts.append(self._statement())
        end = self._advance().span[1]
        return RawNode(NodeKind.BLOCK, stmts, name=name, span=(start, end))

    def _if_stmt(self) -> RawNode:
        start = self._mark()
        self._expect("if")
        self._expect("(")
        cond = self._expr()
        self._expect(")")
        then = self._statement()
        kids = [cond, then]
        if self._at("else"):
            self._advance()
            kids.append(self._statement())
        return RawNode(NodeKind.IF_STMT, kids, span=(start, self._end()))

    def _case_stmt(self) -> RawNode:
        start = self._mark()
        kind = _CASE_KIND[self._advance().text]
        self._expect("(")
        subject = self._expr()
        self._expect(")")
        items = [subject]
        while not self._at("endcase"):
            if self._at_end():
                self._error("expected 'endcase'")
            items.append(self._case_item())
        end = self._advance().span[1]
        return RawNode(kind, items, span=(start, end))

    def _case_item(self) -> RawNode:
        start = self._mark()
        if self._at("default"):
            self._advance()
            if self._at(":"):
                self._advance()
            stmt = self._statement()
            return RawNode(NodeKind.CASE_ITEM, [stmt], span=(start, self._end()))
        labels = [self._expr()]
        while self._at(","):
            self._advance()
            labels.append(self._expr())
        self._expect(":")
        stmt = self._statement()
        return RawNode(NodeKind.CASE_ITEM, labels + [stmt], span=(start, self._end()))

    # ---- Expressions ----

    def _lvalue(self) -> RawNode:
        if self._at("{"):
            start = self._mark()
            self._advance()
            parts = [self._lvalue()]
            while self._at(","):
                self._advance()
                parts.append(self._lvalue())
            self._expect("}")
            return RawNode(NodeKind.CONCAT, parts, span=(start, self._end()))
        tok = self._expect_ident()
        node = RawNode(NodeKind.ID, name=tok.text, span=tok.span)
        return self._select_suffix(node)

    def _expr(self) -> RawNode:
        self._enter()
        node = self._binary(1)
        if self._at("?"):
            self._advance()
            then = self._expr()
            self._expect(":")
            other = self._expr()
            node = RawNode(
                NodeKind.TERNARY,
                [node, then, other],
                span=(node.span[0], self._end()),
            )
        self._depth -= 1
        return node

    def _binary(self, min_prec: int) -> RawNode:
        left = self._unary()
        while True:
            tok = self._peek()
            if tok is None:
                break
            prec = _BINARY_PREC.get(tok.text)
            if prec is None or prec < min_prec:
                break
            self._advance()
            right = self._binary(prec + 1)
            left = RawNode(
                _BINARY_KIND[tok.text],
                [left, right],
                span=(left.span[0], right.span[1]),
            )
        return left

    def _unary(self) -> RawNode:
        tok = self._peek()
        if tok is None or tok.text not in _UNARY_KIND:
            return self._primary()
        self._enter()
        self._advance()
        operand = self._unary()
        self._depth -= 1
        return RawNode(_UNARY_KIND[tok.text], [operand], span=(tok.span[0], operand.span[1]))

    def _primary(self) -> RawNode:
        tok = self._peek()
        if tok is None:
            self._error("expected expression")
        if tok.kind is TokenKind.NUMBER or tok.kind is TokenKind.STRING:
            self._advance()
            return RawNode(NodeKind.CONST, value=tok.text, span=tok.span)
        if tok.kind is TokenKind.IDENTIFIER:
            nxt = self._peek(1)
            if nxt is not None and nxt.text == "(":
                return self._func_call()
            self._advance()
            node = RawNode(NodeKind.ID, name=tok.text, span=tok.span)
            return self._select_suffix(node)
        if self._at("("):
            self._advance()
            expr = self._expr()
            self._expect(")")
            return expr
        if self._at("{"):
            return self._concat_or_repeat()
        self._error("expected expression")

    def _func_call(self) -> RawNode:
        start = self._mark()
        name = self._expect_ident().text
        self._expect("(")
        args: list[RawNode] = []
        if not self._at(")"):
            while True:
                args.append(self._expr())
                if self._at(","):
                    self._advance()
                    continue
                break
        self._expect(")")
        return RawNode(NodeKind.FUNC_CALL, args, name=name, span=(start, self._end()))

    def _select_suffix(self, target: RawNode) -> RawNode:
        while self._at("["):
            start = target.span[0]
            self._advance()
            first = self._expr()
            if self._at(":"):
                self._advance()
                second = self._expr()
                kind = NodeKind.PART_SELECT
                kids = [target, first, second]
            elif self._at("+:"):
                self._advance()
                second = self._expr()
                kind = NodeKind.PART_SELECT_PLUS
                kids = [target, first, second]
            elif self._at("-:"):
                self._advance()
                second = self._expr()
                kind = NodeKind.PART_SELECT_MINUS
                kids = [target, first, second]
            else:
                kind = NodeKind.BIT_SELECT
                kids = [target, first]
            self._expect("]")
            target = RawNode(kind, kids, span=(start, self._end()))
        return target

    def _concat_or_repeat(self) -> RawNode:
        start = self._mark()
        self._expect("{")
        first = self._expr()
        if self._at("{"):
            self._advance()
            items = [self._expr()]
            while self._at(","):
                self._advance()
                items.append(self._expr())
            self._expect("}")
            self._expect("}")
            return RawNode(
                NodeKind.REPEAT, [first] + items, span=(start, self._end())
            )
        items = [first]
        while self._at(","):
            self._advance()
            items.append(self._expr())
        self._expect("}")
        return RawNode(NodeKind.CONCAT, items, span=(start, self._end()))

    def _width(self) -> RawNode:
        start = self._mark()
        self._expect("[")
        msb = self._expr()
        self._expect(":")
        lsb = self._expr()
        end = self._expect("]").span[1]
        return RawNode(NodeKind.WIDTH, [msb, lsb], span=(start, end))


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
