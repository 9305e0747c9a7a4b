"""Order-insensitive and sequential tree similarity over cleaned ASTs.

`sim_ast` scores two trees in [0, 1].  Nodes of different kinds score 0.
Nodes of the same kind greedily match children one-to-one: each left child
takes the highest-scoring unmatched right child of the same kind (first one
wins on ties, both sides visited in document order), and the matched scores
are summed and divided by max(len(left children), len(right children)).
Two leaves of the same kind score 1.  The greedy pairing makes the measure
insensitive to child order but still linear in how much structure agrees;
it is not symmetric in general.

`sim_ast_seq` is the sequential variant: children are paired strictly by
position instead of greedily, everything else is identical.  Reordering
semantically equivalent items lowers this score, which is exactly what it
exists to show.

Every pair is scored by a row generator, which runs the pair's rows (one
per left child) and yields each child pair whose score it needs, on one
iterative driver (see `_scores`).  The two measures differ only in the
generator they use: the greedy rows of `_greedy_scores` or the positional
row.  Neither recurses, and both reject inputs deeper than a configured
limit.  The depth check reads each root's `depth` (see
`vsr.trees.CleanNode`) and does not walk.  Both take an optional
`deadline` (see `vsr.deadline`) and stop with DeadlineExceeded once it has
passed.

Cleaned trees are hash-consed (see `vsr.trees.clean`), so equal subtrees are
often one shared object, within a tree and across the two sides of a pair.
Both measures score a pair `a is b` as exactly 1.0 without walking it, and
their memos, keyed on node identity, hit wherever structure repeats.  The
shortcut is exact, not an approximation: on identical children the greedy
scan matches child i to child i (each scores 1.0, and the scan takes the
first candidate that does), and a sum of m ones divided by m is 1.0.  Trees
built without sharing get the same scores, only without the shortcut.

Rows of wide parents also skip, exactly, candidates that provably cannot
win their row.  For a node x, the leaf-path profile P_x maps each kind path
from x down to a leaf to a weight: the sum, over the leaves at the end of
that path, of the product of 1/len(children) over the leaf's ancestors
within x (a leaf's own profile is its empty path with weight 1).  Then

    s(a, b) <= B(a, b) = sum over paths p of min(P_a[p], P_b[p]).

Proof by induction on depth.  Different kinds score 0 and B >= 0.  Two
leaves of one kind score 1 and have equal profiles, so B = 1; a leaf
against an inner node scores 0.  For inner nodes with n and n' children,
s(a, b) is a sum over the matched child pairs (c, c') of s(c, c') / m with
m = max(n, n') >= n, n'.  By induction each term is at most
sum_p min(P_c[p] / n, P_c'[p] / n').  For a fixed p, the matching uses
every child at most once on each side, so the sum of those minima over the
matched pairs of kind k is at most min(sum_c P_c[p] / n, sum_c' P_c'[p] / n')
over the children of kind k, which is min(P_a[k.p], P_b[k.p]).  Summing
over k and p gives B.

A row's choice is the first column with the highest score, so a candidate
whose bound is below the row's final best can neither beat nor tie it and
is left unscored.  The test is B < best - 1e-9, and the margin covers
rounding: the computed score and the computed bound are float sums of
non-negative terms at most 1, built from products of at most `depth`
reciprocals, so each is within about (node count + 2 x depth) x 2^-52 of
its exact value.  At the default depth limit of 512 that is below 1e-9 for
trees of up to about four million nodes, far more than the quadratic scan
gets through, so a skipped candidate's computed score is below the best
too.

A pair whose right node has fewer than `_INDEX_WIDTH` children runs the
plain scan above and stops a row early only at a score of 1.0, which no
later column can beat: below that width, profiles and bounds cost more
than the scores they save.  A wide row (see `_greedy_scores`) scores one
probe column, then defers, with its bound, each unscored candidate whose
bound is not below best - 1e-9, and scores the deferred ones highest bound
first until the next bound is.  Scoring the likeliest winner first lifts
the best early, so fewer candidates are scored.  Candidates are then no
longer compared in column order, so ties are settled by column: a score
equal to the best takes the row only at a lower column.  The choices, the
scores and the trace are those of the plain greedy scan; only the pair
memo shrinks.

Nor does a wide row bound every column (prefix filtering, as in Bayardo,
Ma and Srikant, "Scaling Up All Pairs Similarity Search", 2007).
Since min(P_a[p], P_b[p]) <= P_a[p],

    B(a, b) <= sum of P_a[p] over the paths p that both profiles hold.

So if the row first scores one probe column, and D is a set of its paths
whose total P_a mass is below the probe's score minus the margin, a column
that holds no path of the row outside D has a bound, hence a score, below
the probe's, and the row need not look at it.  A wide row therefore drops
its most common paths into D and bounds only the columns on the paths that
are left, found through an index from path to columns.  The margin covers
rounding as above: the mass of D is a float sum of at most node count
profile weights, so it is within the same distance of its exact value as
a score or a bound.

On a 158-item module against a reordered copy with one operator swapped in
each item (the 158 item rows hold 24,964 candidate pairs), the matcher
scores 2,228 node pairs and computes 3,225 bounds.  The plain scan on every
row scores 25,882 pairs; bounding the narrow rows too, with the lowest
untaken column on the rarest path as the probe, took 2,411 pairs and 5,096
bounds.  Over the six seed-1 templates of the `wide_items` benchmark (150
to 200 items) it scores 16,048 pairs and computes 20,505 bounds, against
320,933 pairs for the plain scan, 17,168 pairs and 32,007 bounds with
narrow rows bounded, and 17,391 and 72,715 when every row bounded every
column.
"""

from __future__ import annotations

from dataclasses import dataclass

from vsr.deadline import CHECK_EVERY, check
from vsr.trees import CleanNode

DEFAULT_DEPTH_LIMIT = 512


# A pair is skipped only when its bound is below the row's best by more
# than this; see the module docstring for why it covers rounding.
_BOUND_MARGIN = 1e-9

# A row whose parent has at least this many right children takes its
# candidates from a path index over those children (see `_greedy_scores`);
# narrower rows run the plain scan.  Chosen by measurement: on generated
# modules of 8 to 70 items against reordered, operator-swapped copies, a
# whole call with the module row on the index took 0.97, 0.81, 0.63 and
# 0.50 of its time with that row scanned at widths 16, 20, 24 and 32
# (`tests/helpers.py` pairs), and 1.43, 1.10, 0.87 and 0.58 at widths 24,
# 26, 27 and 36 (the `wide_items` generator, whose twelve declarations match
# exactly and scan cheaply).  The index pays from about 16 and 27 columns
# respectively; 24 splits the difference.
_INDEX_WIDTH = 24


class DepthLimitError(RuntimeError):
    """Input tree is deeper than the configured limit."""


@dataclass(frozen=True)
class MatchStep:
    """One greedy child match: paths are child-index tuples from the root."""

    left: tuple[int, ...]
    right: tuple[int, ...]
    score: float


def _check_depth(t1: CleanNode, t2: CleanNode, limit: int) -> None:
    if limit < 1:
        raise ValueError(f"depth limit must be >= 1, got {limit}")
    if t1.depth > limit:
        raise DepthLimitError(f"tree depth {t1.depth} exceeds limit {limit}")
    if t2.depth > limit:
        raise DepthLimitError(f"tree depth {t2.depth} exceeds limit {limit}")


def _profile(
    x: CleanNode,
    profiles: dict[int, dict[int, float]],
    trie: list[dict[int, int]],
    countdown: int,
    deadline: float | None,
) -> int:
    """Walk `x` and cache its leaf-path profile (module docstring) in
    `profiles[id(x)]`.  A path is an int: 0 for `x` itself and, for a child
    of the node at path p, trie[p][id(child kind)], added on first use.
    Profiles compared by `_bound` must come from one trie.  The walk charges
    one step per node to `countdown` (a node's children when it expands
    them), checks `deadline` whenever that runs out, and returns what is
    left of it."""
    prof = profiles[id(x)] = {}
    work = [(x, 0, 1.0)]
    countdown -= 1
    while work:
        node, path, weight = work.pop()
        kids = node.children
        if not kids:
            prof[path] = prof.get(path, 0.0) + weight
            continue
        n = len(kids)
        countdown -= n
        if countdown <= 0:
            countdown = CHECK_EVERY
            check(deadline)
        weight /= n
        branch = trie[path]
        for kid in kids:
            kid_path = branch.get(id(kid.kind))
            if kid_path is None:
                kid_path = branch[id(kid.kind)] = len(trie)
                trie.append({})
            work.append((kid, kid_path, weight))
    return countdown


def _bound(left: dict[int, float], right: dict[int, float]) -> float:
    """B(a, b) of the module docstring, from the two leaf-path profiles."""
    total = 0.0
    for path, weight in left.items():
        other = right.get(path)
        if other is not None:
            total += weight if weight < other else other
    return total


def _column_index(
    columns: tuple[CleanNode, ...],
    profiles: dict[int, dict[int, float]],
    trie: list[dict[int, int]],
    countdown: int,
    deadline: float | None,
) -> tuple[dict[int, dict[int, list[int]]], int]:
    """For each kind id, each leaf path's columns: the ascending positions
    in `columns` of the nodes of that kind whose profile holds the path.
    Profiles are walked as in `_profile`; returns the index and what is left
    of `countdown`."""
    index: dict[int, dict[int, list[int]]] = {}
    for col, cb in enumerate(columns):
        prof = profiles.get(id(cb))
        if prof is None:
            countdown = _profile(cb, profiles, trie, countdown, deadline)
            prof = profiles[id(cb)]
        by_path = index.get(id(cb.kind))
        if by_path is None:
            by_path = index[id(cb.kind)] = {}
        for path in prof:
            cols = by_path.get(path)
            if cols is None:
                by_path[path] = [col]
            else:
                cols.append(col)
    return index, countdown


def _scores(
    t1: CleanNode,
    t2: CleanNode,
    ordered: bool,
    choices: dict[tuple[int, int], list[int]] | None,
    deadline: float | None,
) -> dict[tuple[int, int], float]:
    """Score the root pair, memoizing every node pair its rows need.

    A pair's row generator keeps its state in locals.  When a row needs a
    child pair's score that is not in `scores`, it yields that pair as
    (left, right, key) and reads `scores[key]` once resumed.  The driver at
    the end starts a generator for each pair yielded and pops one when it
    has stored its pair's score.  Pairs run `positional` when `ordered`
    (`sim_ast_seq`), else `narrow` or `wide` by the width of the right node
    (`_greedy_scores`, which also says what `choices` receives).  Only pairs
    of one kind that are not one node and not yet scored get a generator.
    """
    root = (id(t1), id(t2))
    if t1 is t2 or t1.kind is not t2.kind:
        return {root: 1.0 if t1 is t2 else 0.0}
    scores: dict[tuple[int, int], float] = {}
    # Leaf-path profiles and their path trie, for this call only.
    profiles: dict[int, dict[int, float]] = {}
    trie: list[dict[int, int]] = [{}]
    # A row's scan costs at most the right node's width, and each pair it
    # yields costs its own rows and a constant more, so charging each row
    # one plus that width (a positional pair one plus its left width), and
    # every profile walk one per node, bounds the work between checks.
    countdown = CHECK_EVERY

    def narrow(a, b, key):
        """The plain scan: each row scores its untaken same-kind columns in
        order and stops early only at a score of 1.0."""
        nonlocal countdown
        c2s = b.children
        n2 = len(c2s)
        taken = [False] * n2
        chosen = []
        total = 0.0
        for ca in a.children:
            countdown -= n2 + 1
            if countdown <= 0:
                countdown = CHECK_EVERY
                check(deadline)
            kind = ca.kind
            best_s = 0.0
            best_j = -1
            for j, cb in enumerate(c2s):
                if taken[j] or cb.kind is not kind:
                    continue
                if ca is cb:
                    s = 1.0
                else:
                    pair = (id(ca), id(cb))
                    s = scores.get(pair)
                    if s is None:
                        yield ca, cb, pair
                        s = scores[pair]
                if s > best_s:
                    best_s = s
                    best_j = j
                    if s == 1.0:
                        break
            chosen.append(best_j)
            if best_j >= 0:
                total += best_s
                taken[best_j] = True
        m = max(len(a.children), n2)
        scores[key] = total / m if m > 0 else 1.0
        if choices is not None:
            choices[key] = chosen

    def wide(a, b, key):
        """The probe, the prefix filter and the deferred pass of each row
        (see `_greedy_scores`), over a path index built on the first row."""
        nonlocal countdown
        c2s = b.children
        n2 = len(c2s)
        taken = [False] * n2
        chosen = []
        total = 0.0
        index = None
        for ca in a.children:
            countdown -= n2 + 1
            if countdown <= 0:
                countdown = CHECK_EVERY
                check(deadline)
            if index is None:
                index, countdown = _column_index(c2s, profiles, trie, countdown, deadline)
            best_s = 0.0
            best_j = -1
            by_path = index.get(id(ca.kind))
            if by_path is not None:
                left = profiles.get(id(ca))
                if left is None:
                    countdown = _profile(ca, profiles, trie, countdown, deadline)
                    left = profiles[id(ca)]
                # The row's paths that some column holds, rarest first.
                ranked = sorted([(len(cols), p, cols) for p in left if (cols := by_path.get(p))])
                bounds = {}
                probe = -1
                for _, _, cols in ranked:
                    top = -1.0
                    for col in cols:
                        if taken[col]:
                            continue
                        cb = c2s[col]
                        if cb is ca:
                            probe = col
                            break
                        bound = bounds[col] = _bound(left, profiles[id(cb)])
                        if bound > top:
                            top = bound
                            probe = col
                    if probe >= 0:
                        break
                if probe >= 0:
                    cb = c2s[probe]
                    if ca is cb:
                        s = 1.0
                    else:
                        pair = (id(ca), id(cb))
                        s = scores.get(pair)
                        if s is None:
                            yield ca, cb, pair
                            s = scores[pair]
                    # As in the scan, only a score above 0 takes the row.
                    if s > 0.0:
                        best_s = s
                        best_j = probe
                    # Drop the most common paths while their mass stays
                    # below the best minus the margin; a column holding
                    # only dropped paths scores below the probe.
                    keep = len(ranked)
                    dropped = 0.0
                    while keep:
                        weight = left[ranked[keep - 1][1]]
                        if dropped + weight >= best_s - _BOUND_MARGIN:
                            break
                        dropped += weight
                        keep -= 1
                    cands = {col for _, _, cols in ranked[:keep] for col in cols}
                    deferred = []
                    for col in cands:
                        if taken[col]:
                            continue
                        cb = c2s[col]
                        if ca is cb:
                            s = 1.0
                        else:
                            s = scores.get((id(ca), id(cb)))
                            if s is None:
                                bound = bounds.get(col)
                                if bound is None:
                                    bound = _bound(left, profiles[id(cb)])
                                if bound >= best_s - _BOUND_MARGIN:
                                    deferred.append((-bound, col))
                                continue
                        if s > best_s or (s == best_s and col < best_j):
                            best_s = s
                            best_j = col
                    deferred.sort()
                    for neg_bound, col in deferred:
                        if -neg_bound < best_s - _BOUND_MARGIN:
                            break
                        cb = c2s[col]
                        pair = (id(ca), id(cb))
                        s = scores.get(pair)
                        if s is None:
                            yield ca, cb, pair
                            s = scores[pair]
                        if s > best_s or (s == best_s and col < best_j):
                            best_s = s
                            best_j = col
            chosen.append(best_j)
            if best_j >= 0:
                total += best_s
                taken[best_j] = True
        m = max(len(a.children), n2)
        scores[key] = total / m if m > 0 else 1.0
        if choices is not None:
            choices[key] = chosen

    def positional(a, b, key):
        """Children paired by index, one row for them all."""
        nonlocal countdown
        c1s, c2s = a.children, b.children
        countdown -= len(c1s) + 1
        if countdown <= 0:
            countdown = CHECK_EVERY
            check(deadline)
        total = 0.0
        for ca, cb in zip(c1s, c2s):
            if ca is cb:
                s = 1.0
            elif ca.kind is not cb.kind:
                s = 0.0
            else:
                pair = (id(ca), id(cb))
                s = scores.get(pair)
                if s is None:
                    yield ca, cb, pair
                    s = scores[pair]
            total += s
        m = max(len(c1s), len(c2s))
        scores[key] = total / m if m > 0 else 1.0

    def greedy(a, b, key):
        return narrow(a, b, key) if len(b.children) < _INDEX_WIDTH else wide(a, b, key)

    row = positional if ordered else greedy
    stack = [row(t1, t2, root)]
    while stack:
        need = next(stack[-1], None)
        if need is None:
            stack.pop()
        else:
            stack.append(row(*need))
    return scores


def _greedy_scores(
    t1: CleanNode,
    t2: CleanNode,
    choices: dict[tuple[int, int], list[int]] | None = None,
    deadline: float | None = None,
) -> dict[tuple[int, int], float]:
    """Score the root pair, memoizing every node pair the matching visits.

    Pair scores are computed on demand: a row that needs a child pair's
    score yields the pair, the driver of `_scores` scores it with a row
    generator of its own, and the row resumes.  Only pairs the greedy
    matching actually inspects are ever scored, which keeps near-identical
    trees close to linear instead of quadratic.  A pair of one shared node
    scores 1.0 without a walk (see the module docstring).

    Each left child takes the first highest-scoring unmatched right child of
    its kind; accumulation order is fixed so results are bit-identical
    across runs.  A pair whose right node has fewer than `_INDEX_WIDTH`
    children runs the plain scan (`narrow`): each row scores its untaken
    same-kind columns in order and stops early only at a score of 1.0,
    which no later column can beat.

    A wider pair (`wide`) builds a path index on its first row: for each
    kind and leaf path, the columns whose profile holds that path.  Each row
    then makes two passes:

    1. The row bounds the untaken columns on its rarest path that has one
       and scores a probe, the one with the highest bound (lowest column on
       ties; the row's own node, which scores 1.0, when it is among them).
       It then drops its most common paths while their mass on the left
       stays below the probe's score minus the margin, and looks only at
       the untaken columns on the paths that are left.  A known score above
       the best, or equal to it at a lower column, takes the row; an
       unscored column whose bound is at least the best minus the margin is
       deferred with its bound, and one below it is skipped.  A column on
       dropped paths alone has a bound of at most the dropped mass (the
       prefix lemma), so its score is below the probe's.
    2. Over the deferred candidates, highest bound first and lower column
       first among equal bounds.  Each is scored, and a score above the
       best, or equal to it at a lower column, takes the row.  The pass
       stops at the first candidate whose bound is below the best minus the
       margin, since every one after it has a bound no higher.

    Every candidate a wide row leaves unscored has a bound, hence a score,
    below the row's final best, so it could neither beat nor tie it; every
    other candidate was compared under the first-column tie rule.  The
    choice is therefore the plain scan's.  When `choices` is given it
    receives, per scored pair, the chosen right index of every left child
    (-1 for none).  Raises DeadlineExceeded once `deadline` has passed.
    """
    return _scores(t1, t2, False, choices, deadline)


def _pair_score(scores: dict[tuple[int, int], float], a: CleanNode, b: CleanNode) -> float:
    return 1.0 if a is b else scores[(id(a), id(b))]


def sim_ast(
    t1: CleanNode,
    t2: CleanNode,
    *,
    depth_limit: int = DEFAULT_DEPTH_LIMIT,
    deadline: float | None = None,
) -> float:
    """Greedy order-insensitive similarity of two cleaned trees, in [0, 1].

    Deterministic: equal inputs give bit-identical results.  Raises
    DepthLimitError when either tree is deeper than `depth_limit`, and
    DeadlineExceeded once `deadline` has passed.
    """
    _check_depth(t1, t2, depth_limit)
    return _pair_score(_greedy_scores(t1, t2, None, deadline), t1, t2)


def sim_ast_with_trace(
    t1: CleanNode, t2: CleanNode, *, depth_limit: int = DEFAULT_DEPTH_LIMIT
) -> tuple[float, tuple[MatchStep, ...]]:
    """Like sim_ast, also returning the greedy matches chosen at every node.

    Steps come from a preorder walk of the matched pairs, where visiting a
    pair lists its child matches leftmost first.  Within any one parent the
    matched right children are pairwise distinct.  Unmatched children
    produce no step.  The matches are the ones the scoring pass chose; a
    pair of one shared node matches every child to itself.
    """
    _check_depth(t1, t2, depth_limit)
    choices: dict[tuple[int, int], list[int]] = {}
    scores = _greedy_scores(t1, t2, choices)
    steps: list[MatchStep] = []
    if t1.kind is t2.kind:
        work: list[tuple[CleanNode, CleanNode, tuple[int, ...], tuple[int, ...]]] = [
            (t1, t2, (), ())
        ]
        while work:
            a, b, path1, path2 = work.pop()
            if a is b:
                chosen: list[int] | range = range(len(a.children))
            else:
                chosen = choices[(id(a), id(b))]
            matched = []
            for i, j in enumerate(chosen):
                if j < 0:
                    continue
                ca, cb = a.children[i], b.children[j]
                left, right = path1 + (i,), path2 + (j,)
                steps.append(MatchStep(left, right, _pair_score(scores, ca, cb)))
                matched.append((ca, cb, left, right))
            work.extend(reversed(matched))  # preorder, leftmost first
    return _pair_score(scores, t1, t2), tuple(steps)


def sim_ast_seq(
    t1: CleanNode,
    t2: CleanNode,
    *,
    depth_limit: int = DEFAULT_DEPTH_LIMIT,
    deadline: float | None = None,
) -> float:
    """Positional variant of sim_ast: children pair by index, no matching.

    Shares the kind gate, the max-size normalization, the leaf rule, and the
    shared-node shortcut with sim_ast, so it differs only when child order
    differs.
    """
    _check_depth(t1, t2, depth_limit)
    return _pair_score(_scores(t1, t2, True, None, deadline), t1, t2)
