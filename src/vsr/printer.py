"""Fixed-format Verilog emission from raw parse trees.

The printer exists so tree rewrites (reordering, renaming, constant
rewriting) can be turned back into source text deterministically.  Output is
normalized: four-space indentation, one item per line, explicit parentheses
around every compound expression.  Re-parsing printed output yields a tree
whose cleaned form is identical to the input's cleaned form.
"""

from __future__ import annotations

from vsr.trees import NodeKind, RawNode, tree_stats

# Defensive bound; printing recurses over expressions and real trees sit far
# below this.
_MAX_PRINT_DEPTH = 400


class PrintError(ValueError):
    pass


_BINARY_TEXT = {
    NodeKind.LOGICAL_OR: "||",
    NodeKind.LOGICAL_AND: "&&",
    NodeKind.OR: "|",
    NodeKind.XOR: "^",
    NodeKind.XNOR: "^~",
    NodeKind.AND: "&",
    NodeKind.EQ: "==",
    NodeKind.NEQ: "!=",
    NodeKind.CASE_EQ: "===",
    NodeKind.CASE_NEQ: "!==",
    NodeKind.LT: "<",
    NodeKind.LTE: "<=",
    NodeKind.GT: ">",
    NodeKind.GTE: ">=",
    NodeKind.SHL: "<<",
    NodeKind.SHR: ">>",
    NodeKind.ASHL: "<<<",
    NodeKind.ASHR: ">>>",
    NodeKind.PLUS: "+",
    NodeKind.MINUS: "-",
    NodeKind.MUL: "*",
    NodeKind.DIV: "/",
    NodeKind.MOD: "%",
    NodeKind.POW: "**",
}

_UNARY_TEXT = {
    NodeKind.NOT: "!",
    NodeKind.BIT_NOT: "~",
    NodeKind.UNARY_MINUS: "-",
    NodeKind.UNARY_PLUS: "+",
    NodeKind.REDUCE_AND: "&",
    NodeKind.REDUCE_OR: "|",
    NodeKind.REDUCE_XOR: "^",
    NodeKind.REDUCE_NAND: "~&",
    NodeKind.REDUCE_NOR: "~|",
    NodeKind.REDUCE_XNOR: "~^",
}

_PORT_TEXT = {
    NodeKind.INPUT_PORT: "input",
    NodeKind.OUTPUT_PORT: "output",
    NodeKind.INOUT_PORT: "inout",
}

_DECL_TEXT = {
    NodeKind.WIRE_DECL: "wire",
    NodeKind.REG_DECL: "reg",
    NodeKind.INTEGER_DECL: "integer",
    NodeKind.REAL_DECL: "real",
    NodeKind.TIME_DECL: "time",
    NodeKind.PARAM_DECL: "parameter",
    NodeKind.LOCAL_PARAM_DECL: "localparam",
}

_CASE_TEXT = {
    NodeKind.CASE_STMT: "case",
    NodeKind.CASEZ_STMT: "casez",
    NodeKind.CASEX_STMT: "casex",
}

# The node kinds the printer tests, bound to module names as in the parser:
# reading a member off an Enum class, as in `NodeKind.ID`, takes over 100 ns
# on Python 3.11, and reading a module global a few.
_ALWAYS = NodeKind.ALWAYS
_BIT_SELECT = NodeKind.BIT_SELECT
_BLOCK = NodeKind.BLOCK
_BLOCKING_ASSIGN = NodeKind.BLOCKING_ASSIGN
_CONCAT = NodeKind.CONCAT
_CONST = NodeKind.CONST
_CONTINUOUS_ASSIGN = NodeKind.CONTINUOUS_ASSIGN
_EDGE_NEGEDGE = NodeKind.EDGE_NEGEDGE
_EDGE_POSEDGE = NodeKind.EDGE_POSEDGE
_FUNC_CALL = NodeKind.FUNC_CALL
_FUNC_DECL = NodeKind.FUNC_DECL
_ID = NodeKind.ID
_IF_STMT = NodeKind.IF_STMT
_INITIAL = NodeKind.INITIAL
_INSTANCE = NodeKind.INSTANCE
_MODULE_DEF = NodeKind.MODULE_DEF
_NONBLOCKING_ASSIGN = NodeKind.NONBLOCKING_ASSIGN
_NULL_STMT = NodeKind.NULL_STMT
_PARAM_DECL = NodeKind.PARAM_DECL
_PART_SELECT = NodeKind.PART_SELECT
_PART_SELECT_MINUS = NodeKind.PART_SELECT_MINUS
_PART_SELECT_PLUS = NodeKind.PART_SELECT_PLUS
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
    if kind is _PART_SELECT:
        target, msb, lsb = node.children
        return f"{_expr(target)}[{_expr(msb)}:{_expr(lsb)}]"
    if kind is _PART_SELECT_PLUS:
        target, base, width = node.children
        return f"{_expr(target)}[{_expr(base)} +: {_expr(width)}]"
    if kind is _PART_SELECT_MINUS:
        target, base, width = node.children
        return f"{_expr(target)}[{_expr(base)} -: {_expr(width)}]"
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
    kind = node.kind
    direction = _PORT_TEXT.get(kind)
    if direction is not None:
        words = [direction]
        if "reg" in node.mods:
            words.append("reg")
    else:
        words = [_DECL_TEXT[kind]]
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
        elif item.kind is _EDGE_POSEDGE:
            parts.append("posedge " + _expr(item.children[0]))
        elif item.kind is _EDGE_NEGEDGE:
            parts.append("negedge " + _expr(item.children[0]))
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
        elif kind is _BLOCKING_ASSIGN:
            lhs, rhs = node.children
            self.line(indent, f"{_expr(lhs)} = {_expr(rhs)};")
        elif kind is _NONBLOCKING_ASSIGN:
            lhs, rhs = node.children
            self.line(indent, f"{_expr(lhs)} <= {_expr(rhs)};")
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
        if kind in _PORT_TEXT or kind in _DECL_TEXT:
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
            for word in ("integer", "real", "time"):
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
            if kids and kids[-1].kind not in _PORT_TEXT and kids[-1].kind not in _DECL_TEXT:
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
