"""Fixed-format Verilog emission from raw parse trees.

The printer exists so tree rewrites (reordering, renaming, constant
rewriting) can be turned back into source text deterministically.  Output is
normalized: four-space indentation, one item per line, explicit parentheses
around every compound expression.  Re-parsing printed output yields a tree
whose cleaned form is identical to the input's cleaned form.

A word or operator that tells node kinds apart (operators, declaration
keywords, case keywords, assignments, edges, part selects and function
return types) is spelled by inverting the parser's text -> kind tables
(`_BINARY`, `_UNARY_KIND`, `_DECL_KIND` and the rest), so it is written
down in `vsr.parser` alone.  A kind with two spellings prints as the first
one the parser lists: binary XNOR as `^~` and reduction XNOR as `~^`.
"""

from __future__ import annotations

from vsr.parser import (
    _ASSIGN_KIND,
    _BINARY,
    _CASE_KIND,
    _DECL_KIND,
    _DIRECTION_KIND,
    _EDGE_KIND,
    _SELECT_KIND,
    _UNARY_KIND,
    _VAR_KIND,
)
from vsr.trees import NodeKind, RawNode, tree_stats

# Defensive bound; printing recurses over expressions and real trees sit far
# below this.
_MAX_PRINT_DEPTH = 400


class PrintError(ValueError):
    pass


def _spellings(pairs) -> dict:
    """Kind -> text from a parser table's (text, kind) pairs; a kind with
    two spellings prints as the first one listed."""
    texts: dict = {}
    for text, kind in pairs:
        texts.setdefault(kind, text)
    return texts


_BINARY_TEXT = _spellings((text, kind) for text, (_, kind) in _BINARY.items())
_UNARY_TEXT = _spellings(_UNARY_KIND.items())
_PORT_TEXT = _spellings(_DIRECTION_KIND.items())
_DECL_TEXT = _spellings(_DECL_KIND.items())  # ports included
_CASE_TEXT = _spellings(_CASE_KIND.items())
_ASSIGN_TEXT = _spellings(_ASSIGN_KIND.items())
_EDGE_TEXT = _spellings(_EDGE_KIND.items())
_SELECT_TEXT = _spellings(_SELECT_KIND.items())


# The node kinds the printer tests, bound to module names as in the parser:
# reading a member off an Enum class, as in `NodeKind.ID`, takes over 100 ns
# on Python 3.11, and reading a module global a few.
_ALWAYS = NodeKind.ALWAYS
_BIT_SELECT = NodeKind.BIT_SELECT
_BLOCK = NodeKind.BLOCK
_CONCAT = NodeKind.CONCAT
_CONST = NodeKind.CONST
_CONTINUOUS_ASSIGN = NodeKind.CONTINUOUS_ASSIGN
_FUNC_CALL = NodeKind.FUNC_CALL
_FUNC_DECL = NodeKind.FUNC_DECL
_ID = NodeKind.ID
_IF_STMT = NodeKind.IF_STMT
_INITIAL = NodeKind.INITIAL
_INSTANCE = NodeKind.INSTANCE
_MODULE_DEF = NodeKind.MODULE_DEF
_NULL_STMT = NodeKind.NULL_STMT
_PARAM_DECL = NodeKind.PARAM_DECL
_PORT_REF = NodeKind.PORT_REF
_REPEAT = NodeKind.REPEAT
_SOURCE_UNIT = NodeKind.SOURCE_UNIT
_STAR_SENSE = NodeKind.STAR_SENSE
_TASK_CALL = NodeKind.TASK_CALL
_TASK_DECL = NodeKind.TASK_DECL
_TERNARY = NodeKind.TERNARY
_WIDTH = NodeKind.WIDTH


def _ident(name: str) -> str:
    # escaped identifiers must keep their trailing whitespace
    return name + " " if name.startswith("\\") else name


def _expr(node: RawNode) -> str:
    kind = node.kind
    if kind is _ID:
        return _ident(node.name or "")
    if kind is _CONST:
        return node.value or ""
    op = _BINARY_TEXT.get(kind)
    if op is not None:
        a, b = node.children
        return f"({_expr(a)} {op} {_expr(b)})"
    op = _UNARY_TEXT.get(kind)
    if op is not None:
        return f"({op}{_expr(node.children[0])})"
    if kind is _TERNARY:
        c, t, e = node.children
        return f"({_expr(c)} ? {_expr(t)} : {_expr(e)})"
    if kind is _CONCAT:
        return "{" + ", ".join(_expr(c) for c in node.children) + "}"
    if kind is _REPEAT:
        count = _expr(node.children[0])
        items = ", ".join(_expr(c) for c in node.children[1:])
        return "{" + count + "{" + items + "}}"
    if kind is _BIT_SELECT:
        target, index = node.children
        return f"{_expr(target)}[{_expr(index)}]"
    op = _SELECT_TEXT.get(kind)
    if op is not None:
        target, first, second = node.children
        if op != ":":  # an indexed part select
            op = f" {op} "
        return f"{_expr(target)}[{_expr(first)}{op}{_expr(second)}]"
    if kind is _FUNC_CALL:
        args = ", ".join(_expr(c) for c in node.children)
        return f"{_ident(node.name or '')}({args})"
    raise PrintError(f"not an expression node: {kind.value}")


def _width(node: RawNode) -> str:
    msb, lsb = node.children
    return f"[{_expr(msb)}:{_expr(lsb)}]"


def _decl(node: RawNode) -> str:
    """Declaration text without the closing ';'.

    A module item adds the ';'; a `#(...)` header or an ANSI port list
    joins its declarations with ', '.
    """
    words = [_DECL_TEXT[node.kind]]
    if "reg" in node.mods and node.kind in _PORT_TEXT:
        words.append("reg")
    if "signed" in node.mods:
        words.append("signed")
    kids = list(node.children)
    if kids and kids[0].kind is _WIDTH:
        words.append(_width(kids.pop(0)))
    words.append(_ident(node.name or ""))
    line = " ".join(words)
    if kids and kids[0].kind is _WIDTH:  # memory address range
        line += " " + _width(kids.pop(0))
    if kids:  # initializer
        line += " = " + _expr(kids.pop(0))
    return line


def _sens(node: RawNode) -> str:
    parts = []
    for item in node.children:
        if item.kind is _STAR_SENSE:
            parts.append("*")
        elif item.kind in _EDGE_TEXT:
            parts.append(_EDGE_TEXT[item.kind] + " " + _expr(item.children[0]))
        else:
            parts.append(_expr(item.children[0]))
    return "@(" + " or ".join(parts) + ")"


class _Emitter:
    def __init__(self) -> None:
        self.lines: list[str] = []

    def line(self, indent: int, text: str) -> None:
        self.lines.append("    " * indent + text)

    # ---- Statements ----

    def stmt(self, node: RawNode, indent: int) -> None:
        kind = node.kind
        if kind is _BLOCK:
            head = "begin" if node.name is None else f"begin : {_ident(node.name)}"
            self.line(indent, head)
            for child in node.children:
                self.stmt(child, indent + 1)
            self.line(indent, "end")
        elif kind in _ASSIGN_TEXT:
            lhs, rhs = node.children
            self.line(indent, f"{_expr(lhs)} {_ASSIGN_TEXT[kind]} {_expr(rhs)};")
        elif kind is _IF_STMT:
            cond = node.children[0]
            self.line(indent, f"if ({_expr(cond)})")
            self.stmt(node.children[1], indent + 1)
            if len(node.children) == 3:
                self.line(indent, "else")
                self.stmt(node.children[2], indent + 1)
        elif kind in _CASE_TEXT:
            word = _CASE_TEXT[kind]
            self.line(indent, f"{word} ({_expr(node.children[0])})")
            for item in node.children[1:]:
                labels = item.children[:-1]
                if labels:
                    self.line(indent + 1, ", ".join(_expr(l) for l in labels) + ":")
                else:
                    self.line(indent + 1, "default:")
                self.stmt(item.children[-1], indent + 2)
            self.line(indent, "endcase")
        elif kind is _NULL_STMT:
            self.line(indent, ";")
        elif kind is _TASK_CALL:
            if node.children:
                args = ", ".join(_expr(c) for c in node.children)
                self.line(indent, f"{_ident(node.name or '')}({args});")
            else:
                self.line(indent, f"{_ident(node.name or '')};")
        else:
            raise PrintError(f"not a statement node: {kind.value}")

    # ---- Module items ----

    def item(self, node: RawNode, indent: int) -> None:
        kind = node.kind
        if kind in _DECL_TEXT:
            self.line(indent, _decl(node) + ";")
        elif kind is _CONTINUOUS_ASSIGN:
            lhs, rhs = node.children
            self.line(indent, f"assign {_expr(lhs)} = {_expr(rhs)};")
        elif kind is _ALWAYS:
            sens, stmt = node.children
            self.line(indent, f"always {_sens(sens)}")
            self.stmt(stmt, indent + 1)
        elif kind is _INITIAL:
            self.line(indent, "initial")
            self.stmt(node.children[0], indent + 1)
        elif kind is _INSTANCE:
            params = [c for c in node.children if "param" in c.mods]
            conns = [c for c in node.children if "param" not in c.mods]
            text = _ident(node.value or "")
            if params:
                text += " #(" + ", ".join(self._conn(p) for p in params) + ")"
            text += f" {_ident(node.name or '')} ("
            text += ", ".join(self._conn(c) for c in conns) + ");"
            self.line(indent, text)
        elif kind is _FUNC_DECL:
            head = "function"
            if "automatic" in node.mods:
                head += " automatic"
            if "signed" in node.mods:
                head += " signed"
            for word in _VAR_KIND:
                if word in node.mods:
                    head += " " + word
            kids = list(node.children)
            if kids and kids[0].kind is _WIDTH:
                head += " " + _width(kids.pop(0))
            self.line(indent, f"{head} {_ident(node.name or '')};")
            for decl in kids[:-1]:
                self.item(decl, indent + 1)
            self.stmt(kids[-1], indent + 1)
            self.line(indent, "endfunction")
        elif kind is _TASK_DECL:
            head = "task"
            if "automatic" in node.mods:
                head += " automatic"
            self.line(indent, f"{head} {_ident(node.name or '')};")
            kids = list(node.children)
            body = None
            if kids and kids[-1].kind not in _DECL_TEXT:
                body = kids.pop()
            for decl in kids:
                self.item(decl, indent + 1)
            if body is not None:
                self.stmt(body, indent + 1)
            self.line(indent, "endtask")
        else:
            raise PrintError(f"not a module item node: {kind.value}")

    def _conn(self, node: RawNode) -> str:
        if node.name is not None:
            inner = _expr(node.children[0]) if node.children else ""
            return f".{_ident(node.name)}({inner})"
        return _expr(node.children[0])

    # ---- Modules ----

    def module(self, node: RawNode) -> None:
        params = [c for c in node.children if "header" in c.mods and c.kind is _PARAM_DECL]
        if "ansi" in node.mods:
            # a port declared in the body of an ANSI module stays there
            ports = [c for c in node.children if "header" in c.mods and c.kind in _PORT_TEXT]
        else:
            ports = [c for c in node.children if c.kind is _PORT_REF]
        header_ids = {id(c) for c in params + ports}
        body = [c for c in node.children if id(c) not in header_ids]

        head = f"module {_ident(node.name or '')}"
        if params:
            head += " #(" + ", ".join(_decl(p) for p in params) + ")"
        if "ansi" in node.mods:
            # ANSI modules always print a port list, even an empty one
            head += " (" + ", ".join(_decl(p) for p in ports) + ")"
        elif ports:
            head += " (" + ", ".join(_ident(p.name or "") for p in ports) + ")"
        self.lines.append(head + ";")
        for item in body:
            self.item(item, 1)
        self.lines.append("endmodule")


def pretty_print(node: RawNode) -> str:
    """Render a SourceUnit or ModuleDef tree as Verilog source text."""
    if tree_stats(node).depth > _MAX_PRINT_DEPTH:
        raise PrintError("tree too deep to print")
    emitter = _Emitter()
    if node.kind is _SOURCE_UNIT:
        for index, module in enumerate(node.children):
            if index:
                emitter.lines.append("")
            emitter.module(module)
    elif node.kind is _MODULE_DEF:
        emitter.module(node)
    else:
        raise PrintError(f"expected SourceUnit or ModuleDef, got {node.kind.value}")
    return "\n".join(emitter.lines) + "\n"
