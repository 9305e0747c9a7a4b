"""Node kinds, raw and cleaned syntax trees, canonical text form, statistics.

Raw trees come out of the parser with identifiers, literal text, and source
spans still attached.  Cleaning keeps only the node kind and the child order
and drops everything else, so two pieces of code that differ in naming or in
constant values collapse to the same cleaned tree.  The cleaned tree is what
every similarity and statistics routine operates on.

Each cleaned node carries its depth, set once when the node is built, so the
depth checks of `vsr.similarity` and `vsr.reward` read `.depth` and never
walk a tree.
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError, dataclass, field
from enum import Enum, unique
from itertools import islice

from vsr.deadline import CHECK_EVERY, check


@unique
class NodeKind(Enum):
    """Closed enumeration of structural node kinds.

    The string values are the names used by the canonical text form, so they
    are stable: adding a kind is a format extension, renaming one is a
    breaking change.  Operators get one kind each; port direction and case
    flavor are part of the kind rather than node payload.  A new keyword or
    operator kind is its member here plus one entry in a `vsr.parser`
    text -> kind table; the printer inverts those tables for its spellings.
    """

    # source structure
    SOURCE_UNIT = "SourceUnit"
    MODULE_DEF = "ModuleDef"
    PORT_REF = "PortRef"
    INPUT_PORT = "InputPort"
    OUTPUT_PORT = "OutputPort"
    INOUT_PORT = "InoutPort"
    PARAM_DECL = "ParamDecl"
    LOCAL_PARAM_DECL = "LocalParamDecl"
    WIRE_DECL = "WireDecl"
    REG_DECL = "RegDecl"
    INTEGER_DECL = "IntegerDecl"
    REAL_DECL = "RealDecl"
    TIME_DECL = "TimeDecl"
    WIDTH = "Width"

    # module items and statements
    CONTINUOUS_ASSIGN = "ContinuousAssign"
    ALWAYS = "Always"
    INITIAL = "Initial"
    SENS_LIST = "SensList"
    EDGE_POSEDGE = "EdgePosedge"
    EDGE_NEGEDGE = "EdgeNegedge"
    LEVEL_SENSE = "LevelSense"
    STAR_SENSE = "StarSense"
    BLOCK = "Block"
    BLOCKING_ASSIGN = "BlockingAssign"
    NONBLOCKING_ASSIGN = "NonblockingAssign"
    IF_STMT = "IfStmt"
    CASE_STMT = "CaseStmt"
    CASEZ_STMT = "CasezStmt"
    CASEX_STMT = "CasexStmt"
    CASE_ITEM = "CaseItem"
    NULL_STMT = "NullStmt"
    INSTANCE = "Instance"
    PORT_CONN = "PortConn"
    FUNC_DECL = "FuncDecl"
    TASK_DECL = "TaskDecl"
    TASK_CALL = "TaskCall"

    # expressions
    TERNARY = "Ternary"
    CONCAT = "Concat"
    REPEAT = "Repeat"
    BIT_SELECT = "BitSelect"
    PART_SELECT = "PartSelect"
    PART_SELECT_PLUS = "PartSelectPlus"
    PART_SELECT_MINUS = "PartSelectMinus"
    FUNC_CALL = "FuncCall"
    ID = "Id"
    CONST = "Const"

    # binary operators
    PLUS = "Plus"
    MINUS = "Minus"
    MUL = "Mul"
    DIV = "Div"
    MOD = "Mod"
    POW = "Pow"
    AND = "And"
    OR = "Or"
    XOR = "Xor"
    XNOR = "Xnor"
    SHL = "Shl"
    SHR = "Shr"
    ASHL = "AShl"
    ASHR = "AShr"
    EQ = "Eq"
    NEQ = "Neq"
    CASE_EQ = "CaseEq"
    CASE_NEQ = "CaseNeq"
    LT = "Lt"
    LTE = "Lte"
    GT = "Gt"
    GTE = "Gte"
    LOGICAL_AND = "LogicalAnd"
    LOGICAL_OR = "LogicalOr"

    # unary operators
    NOT = "Not"
    BIT_NOT = "BitNot"
    UNARY_MINUS = "UnaryMinus"
    UNARY_PLUS = "UnaryPlus"
    REDUCE_AND = "ReduceAnd"
    REDUCE_OR = "ReduceOr"
    REDUCE_XOR = "ReduceXor"
    REDUCE_NAND = "ReduceNand"
    REDUCE_NOR = "ReduceNor"
    REDUCE_XNOR = "ReduceXnor"


_KIND_BY_NAME = {kind.value: kind for kind in NodeKind}


@dataclass(slots=True)
class RawNode:
    """One node of the raw parse tree.

    `name` holds the identifier for named nodes (declarations, Id, named
    blocks, Instance).  `value` holds the literal text for Const nodes and
    the referenced module name for Instance nodes.  `mods` carries modifiers
    that matter for re-printing but have no structural meaning ('header',
    'ansi', 'reg', 'signed', 'param', 'automatic', 'integer', 'real',
    'time').  Spans are (start, end) offsets into the source string.

    The class is slotted, so a node carries no per-instance dict; the
    parser builds nodes positionally, in field order.  A parsed tree holds
    every node once: no node has two parents.
    """

    kind: NodeKind
    children: list["RawNode"] = field(default_factory=list)
    name: str | None = None
    value: str | None = None
    mods: tuple[str, ...] = ()
    span: tuple[int, int] = (0, 0)


# Sets a slot of an immutable CleanNode past its own __setattr__.
_set = object.__setattr__


class CleanNode:
    """Structure-only tree node: a kind, an ordered child tuple and a depth.

    `depth` counts levels with the root at 1, so a leaf has depth 1 and it
    is the same number as `tree_stats(node).depth`.  The constructor sets
    it to one plus the largest child depth; children are built first, so a
    node knows its depth once it exists and nothing walks a tree for it.
    Nodes are immutable: assigning or deleting an attribute raises
    AttributeError (FrozenInstanceError, as for a frozen dataclass).
    """

    __slots__ = ("kind", "children", "depth")

    kind: NodeKind
    children: tuple["CleanNode", ...]
    depth: int

    def __init__(self, kind: NodeKind, children: tuple["CleanNode", ...] = ()) -> None:
        depth = 0
        for child in children:
            if child.depth > depth:
                depth = child.depth
        _set(self, "kind", kind)
        _set(self, "children", children)
        _set(self, "depth", depth + 1)

    def __setattr__(self, name: str, value: object) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        return f"CleanNode(kind={self.kind!r}, children={self.children!r})"

    # Copies and pickles go through the constructor, which sets the slots
    # that __setattr__ refuses and works out the depth again.
    def __reduce__(self):
        return CleanNode, (self.kind, self.children)

    # Equality is structural but must not recurse: trees can be deeper than
    # the interpreter stack, and every other routine here is iterative too.
    def __eq__(self, other: object) -> bool:
        if other is self:
            return True
        if not isinstance(other, CleanNode):
            return NotImplemented
        stack = [(self, other)]
        while stack:
            a, b = stack.pop()
            if a is b:
                continue
            if a.kind is not b.kind or len(a.children) != len(b.children):
                return False
            stack.extend(zip(a.children, b.children))
        return True

    # Shallow on purpose: hashing the whole subtree would recurse.  Equal
    # trees agree on (kind, arity), which is all a hash has to promise.
    def __hash__(self) -> int:
        return hash((self.kind, len(self.children)))


@dataclass(frozen=True)
class TreeStats:
    """Shape summary of one tree.

    depth counts levels with the root at 1; mean_branching is the average
    child count over internal nodes, reported as 0.0 for a bare leaf.
    """

    depth: int
    node_count: int
    mean_branching: float


class TreeFormatError(ValueError):
    """Raised when canonical tree text cannot be decoded."""


def iter_tree(root):
    """Yield every node under `root` in preorder, without recursion.

    Works for both RawNode and CleanNode trees.
    """
    stack = [root]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(reversed(node.children))


def clone_raw(root: RawNode) -> RawNode:
    """Copy a raw tree node by node, without recursion.

    Every node is new, so editing the copy never touches the original;
    the immutable fields (strings, spans, modifier tuples) are shared.
    """
    top = RawNode(root.kind, [], root.name, root.value, root.mods, root.span)
    stack = [(root, top)]
    while stack:
        src, dst = stack.pop()
        for child in src.children:
            copy = RawNode(child.kind, [], child.name, child.value, child.mods, child.span)
            dst.children.append(copy)
            if child.children:
                stack.append((child, copy))
    return top


def clean(
    root: RawNode, table: dict | None = None, *, deadline: float | None = None
) -> CleanNode:
    """Erase names, values, modifiers, and spans; keep kinds and child order.

    The result has exactly the same shape as the input, children in the same
    order.  It is hash-consed: each node is looked up in `table` by its kind
    and the identities of its already-interned children, so structurally
    equal subtrees come back as one shared CleanNode object.  Similarity uses
    that identity to score equal subtrees without walking them and to reuse
    its memo across repeated structure.

    Pass one table when cleaning both sides of a pair, so sharing also spans
    the two trees (`vsr.reward` interns a reference and every sample scored
    against it into one table).  The table keeps its nodes alive, which
    keeps the ids in its keys valid; drop it with the pair.  Without a
    table, sharing stays within the one tree.

    Two flat passes, with no recursion and no stack: a breadth-first pass
    lists every node after its parent, so the children of each node sit
    side by side later in the list; a backward pass then interns every
    node after its children.  The parents that come later in the list own
    the later runs of children, so going backwards one cursor, moved down
    by each node's child count, gives the index of its first child.  Keys
    are built from the ids of the interned children, kept in a list of
    their own, so a key that is already in the table costs no child tuple.
    Both passes check the deadline once per CHECK_EVERY nodes.

    Raises DeadlineExceeded once `deadline` has passed (see `vsr.deadline`).
    """
    if table is None:
        table = {}
    order = [root]
    pending = iter(order)  # a list iterator also yields what is appended later
    done = 0
    while done < len(order):
        for node in islice(pending, CHECK_EVERY):
            order += node.children
        done += CHECK_EVERY
        check(deadline)
    count = len(order)
    out: list[CleanNode] = [None] * count  # type: ignore[list-item]
    ids = [0] * count  # id(out[i]), the key material
    first = count  # index of the first child of the node at `at`
    for stop in range(count, 0, -CHECK_EVERY):
        check(deadline)
        for at in reversed(range(max(stop - CHECK_EVERY, 0), stop)):
            node = order[at]
            children = node.children
            # The kind enters the key by id: hashing an Enum member runs
            # Python code.
            if children:
                end = first
                first -= len(children)
                key = (id(node.kind), *ids[first:end])
                shared = table.get(key)
                if shared is None:
                    shared = table[key] = CleanNode(node.kind, tuple(out[first:end]))
            else:
                key = (id(node.kind),)
                shared = table.get(key)
                if shared is None:
                    shared = table[key] = CleanNode(node.kind, ())
            out[at] = shared
            ids[at] = id(shared)
    return out[0]


def serialize(tree: CleanNode) -> str:
    """Render a cleaned tree in the canonical text form.

    The form is `(Kind child child ...)` with single spaces and no trailing
    whitespace, e.g. `(ContinuousAssign (Id) (And (Id) (Id)))`.  Output is
    bit-exact for equal trees; `deserialize` is its inverse.
    """
    out: list[str] = []
    work: list[object] = [tree]
    while work:
        item = work.pop()
        if isinstance(item, str):
            out.append(item)
            continue
        out.append("(" + item.kind.value)  # type: ignore[union-attr]
        work.append(")")
        for child in reversed(item.children):  # type: ignore[union-attr]
            work.append(child)
            work.append(" ")
    return "".join(out)


def deserialize(text: str) -> CleanNode:
    """Decode canonical tree text back into a CleanNode.

    Raises TreeFormatError on unknown kinds, unbalanced parentheses, or
    trailing garbage.  Whitespace between elements is accepted liberally.
    """
    pos = 0
    end = len(text)
    stack: list[tuple[NodeKind, list[CleanNode]]] = []
    result: CleanNode | None = None
    while pos < end:
        ch = text[pos]
        if ch in " \t\r\n":
            pos += 1
            continue
        if result is not None:
            raise TreeFormatError(f"trailing content at offset {pos}")
        if ch == "(":
            start = pos + 1
            cursor = start
            while cursor < end and (text[cursor].isalnum()):
                cursor += 1
            name = text[start:cursor]
            if not name:
                raise TreeFormatError(f"expected a node kind at offset {start}")
            kind = _KIND_BY_NAME.get(name)
            if kind is None:
                raise TreeFormatError(f"unknown node kind {name!r}")
            stack.append((kind, []))
            pos = cursor
        elif ch == ")":
            if not stack:
                raise TreeFormatError("unbalanced ')'")
            kind, kids = stack.pop()
            node = CleanNode(kind, tuple(kids))
            if stack:
                stack[-1][1].append(node)
            else:
                result = node
            pos += 1
        else:
            raise TreeFormatError(f"expected '(' at offset {pos}, found {ch!r}")
    if stack:
        raise TreeFormatError("unbalanced '('")
    if result is None:
        raise TreeFormatError("empty input")
    return result


def tree_stats(tree) -> TreeStats:
    """Compute depth, node count, and mean branching factor of a tree.

    Accepts cleaned or raw trees; only `children` is inspected.
    """
    depth = 0
    count = 0
    internal = 0
    stack = [(tree, 1)]
    while stack:
        node, level = stack.pop()
        count += 1
        if level > depth:
            depth = level
        if node.children:
            internal += 1
            for child in node.children:
                stack.append((child, level + 1))
    branching = (count - 1) / internal if internal else 0.0
    return TreeStats(depth=depth, node_count=count, mean_branching=branching)
