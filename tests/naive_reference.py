"""Direct recursive transcriptions of the two similarity definitions.

These are deliberately naive: no memoization, no iteration, no sharing
with the library implementation.  The production code must agree with
them bit for bit, which is what the equivalence tests check.
"""

from __future__ import annotations

from vsr.trees import CleanNode


def naive_sim_ast(t1: CleanNode, t2: CleanNode) -> float:
    if t1.kind is not t2.kind:
        return 0.0
    if not t1.children and not t2.children:
        return 1.0
    m = max(len(t1.children), len(t2.children))
    taken = [False] * len(t2.children)
    total = 0.0
    for c1 in t1.children:
        best_score = 0.0
        best_j = -1
        for j, c2 in enumerate(t2.children):
            if taken[j] or c2.kind is not c1.kind:
                continue
            score = naive_sim_ast(c1, c2)
            if score > best_score:
                best_score = score
                best_j = j
        if best_j >= 0:
            taken[best_j] = True
            total += best_score
    return total / m


def naive_greedy_trace(t1: CleanNode, t2: CleanNode) -> list:
    """(left path, right path, score) of every greedy match, in the order
    `sim_ast_with_trace` lists them: visiting a matched pair lists its child
    matches leftmost first, then visits each of them in turn."""
    steps = []

    def visit(a, b, path1, path2):
        taken = [False] * len(b.children)
        matched = []
        for i, c1 in enumerate(a.children):
            best_score = 0.0
            best_j = -1
            for j, c2 in enumerate(b.children):
                if taken[j] or c2.kind is not c1.kind:
                    continue
                score = naive_sim_ast(c1, c2)
                if score > best_score:
                    best_score = score
                    best_j = j
            if best_j >= 0:
                taken[best_j] = True
                matched.append((i, best_j, best_score))
        for i, j, score in matched:
            steps.append((path1 + (i,), path2 + (j,), score))
        for i, j, _ in matched:
            visit(a.children[i], b.children[j], path1 + (i,), path2 + (j,))

    if t1.kind is t2.kind:
        visit(t1, t2, (), ())
    return steps


def naive_sim_ast_seq(t1: CleanNode, t2: CleanNode) -> float:
    if t1.kind is not t2.kind:
        return 0.0
    if not t1.children and not t2.children:
        return 1.0
    m = max(len(t1.children), len(t2.children))
    total = 0.0
    for c1, c2 in zip(t1.children, t2.children):
        total += naive_sim_ast_seq(c1, c2)
    return total / m


def structural_equal(a: CleanNode, b: CleanNode) -> bool:
    if a.kind is not b.kind or len(a.children) != len(b.children):
        return False
    return all(structural_equal(x, y) for x, y in zip(a.children, b.children))


def permutation_equal(a: CleanNode, b: CleanNode) -> bool:
    """Equality up to recursively reordering children (backtracking search)."""
    if a.kind is not b.kind or len(a.children) != len(b.children):
        return False
    used = [False] * len(b.children)

    def place(i: int) -> bool:
        if i == len(a.children):
            return True
        for j in range(len(b.children)):
            if not used[j] and permutation_equal(a.children[i], b.children[j]):
                used[j] = True
                if place(i + 1):
                    return True
                used[j] = False
        return False

    return place(0)
