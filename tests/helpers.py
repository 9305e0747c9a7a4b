"""Shared generators for randomized tests."""

from __future__ import annotations

import copy
import random

from vsr.lexer import LexError, scan
from vsr.parser import ValidityStatus, classify_lists_into
from vsr.trees import CleanNode, NodeKind

# A small pool keeps kind collisions frequent so greedy matching has real
# work to do; fully distinct kinds would make every score trivially 0.
SMALL_POOL = (
    NodeKind.MODULE_DEF,
    NodeKind.ALWAYS,
    NodeKind.ID,
    NodeKind.CONST,
    NodeKind.PLUS,
)

ALL_KINDS = tuple(NodeKind)


def random_clean_tree(
    rng: random.Random,
    max_depth: int = 6,
    max_children: int = 4,
    pool: tuple[NodeKind, ...] = SMALL_POOL,
) -> CleanNode:
    kind = pool[rng.randrange(len(pool))]
    if max_depth <= 1:
        return CleanNode(kind, ())
    count = rng.randrange(max_children + 1)
    return CleanNode(
        kind,
        tuple(
            random_clean_tree(rng, max_depth - 1, max_children, pool)
            for _ in range(count)
        ),
    )


def permute_tree(node: CleanNode, rng: random.Random) -> CleanNode:
    """Recursively shuffle child order everywhere; nothing else changes."""
    kids = [permute_tree(c, rng) for c in node.children]
    for i in range(len(kids) - 1, 0, -1):
        j = rng.randrange(i + 1)
        kids[i], kids[j] = kids[j], kids[i]
    return CleanNode(node.kind, tuple(kids))


def perturb_tree(node: CleanNode, rng: random.Random) -> CleanNode:
    """One random local edit: retag, drop a child, or graft a leaf."""
    choice = rng.randrange(3)
    kids = list(node.children)
    if choice == 0:
        return CleanNode(SMALL_POOL[rng.randrange(len(SMALL_POOL))], node.children)
    if choice == 1 and kids:
        del kids[rng.randrange(len(kids))]
        return CleanNode(node.kind, tuple(kids))
    kids.insert(
        rng.randrange(len(kids) + 1),
        CleanNode(SMALL_POOL[rng.randrange(len(SMALL_POOL))], ()),
    )
    return CleanNode(node.kind, tuple(kids))


def perturb_somewhere(node: CleanNode, rng: random.Random) -> CleanNode:
    """Apply perturb_tree at a random position in the tree."""
    if not node.children or rng.random() < 0.3:
        return perturb_tree(node, rng)
    kids = list(node.children)
    idx = rng.randrange(len(kids))
    kids[idx] = perturb_somewhere(kids[idx], rng)
    return CleanNode(node.kind, tuple(kids))


def classify_text(text: str, table: dict):
    """The scoring front end on `text`: `classify_lists_into` over `scan`'s
    lists, and `not_code` for a text that does not lex, as `vsr.reward`
    runs it."""
    try:
        texts, _ = scan(text)
    except LexError:
        return ValidityStatus.NOT_CODE, None
    return classify_lists_into(texts, table)


def wide_module(assign_count: int, name: str = "gen_block") -> str:
    """Synthesize a parsable module of roughly assign_count + 4 lines."""
    lines = [f"module {name}("]
    lines.append("    input [7:0] seed,")
    lines.append(f"    output [7:0] out_{assign_count - 1}")
    lines.append(");")
    for i in range(assign_count - 1):
        lines.append(f"    wire [7:0] out_{i};")
    prev = "seed"
    for i in range(assign_count):
        lines.append(f"    assign out_{i} = {prev} ^ 8'd{i % 251};")
        prev = f"out_{i}"
    lines.append("endmodule")
    return "\n".join(lines) + "\n"


def chain_module(terms: int) -> str:
    """A module whose one assign is a `terms`-term left-associative sum.

    The parser nests one level per operator, so 600 terms clean to a tree
    of depth 603, over the default depth limit of 512.
    """
    chain = " + ".join(["a"] * terms)
    return f"module m(input a, output y);\n  assign y = {chain};\nendmodule\n"


_SWAP_OPS = {"+": "-", "-": "+", "&": "|", "|": "&", "^": "|"}
_SIGNALS = ("a", "b", "s0", "s1", "s2", "s3")


def _random_expr(rng: random.Random, depth: int):
    if depth == 0 or rng.random() < 0.2:
        return rng.choice(_SIGNALS)
    op = rng.choice(tuple(_SWAP_OPS))
    return [op, _random_expr(rng, depth - 1), _random_expr(rng, depth - 1)]


def _render_expr(e) -> str:
    if isinstance(e, str):
        return e
    return f"({_render_expr(e[1])} {e[0]} {_render_expr(e[2])})"


def _operators(e, acc: list) -> list:
    if not isinstance(e, str):
        acc.append(e)
        _operators(e[1], acc)
        _operators(e[2], acc)
    return acc


def swapped_item_pair(rng: random.Random, items: int) -> tuple[str, str]:
    """A wide module and a reordered copy with one operator swapped per item.

    Items are clocked if/else blocks and continuous assigns of random
    expressions.  No item of the copy matches its original exactly, so a
    greedy row never stops early on a perfect match.  Returns (reference,
    generation) source texts.
    """
    body = []
    for i in range(items):
        target = _SIGNALS[2 + i % 4]
        if i % 8 == 0:
            body.append(["assign", target, _random_expr(rng, 3)])
        else:
            body.append(["ff", target, _random_expr(rng, 2), _random_expr(rng, 2)])

    def text(rows) -> str:
        lines = ["module w(input clk, input rst, input [7:0] a, input [7:0] b);"]
        lines += [f"    reg [7:0] {s};" for s in _SIGNALS[2:]]
        for row in rows:
            if row[0] == "assign":
                lines.append(f"    assign {row[1]} = {_render_expr(row[2])};")
            else:
                lines.append(
                    f"    always @(posedge clk) if (rst) {row[1]} <= "
                    f"{_render_expr(row[2])}; else {row[1]} <= {_render_expr(row[3])};"
                )
        return "\n".join(lines + ["endmodule"]) + "\n"

    swapped = copy.deepcopy(body)
    for row in swapped:
        ops = [op for e in row[2:] for op in _operators(e, [])]
        if ops:
            op = rng.choice(ops)
            op[0] = _SWAP_OPS[op[0]]
    rng.shuffle(swapped)
    return text(body), text(swapped)
