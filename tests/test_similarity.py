import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    SMALL_POOL,
    permute_tree,
    perturb_somewhere,
    random_clean_tree,
    swapped_item_pair,
)
from naive_reference import (
    naive_greedy_trace,
    naive_sim_ast,
    naive_sim_ast_seq,
    permutation_equal,
    structural_equal,
)
from vsr.corpus import MutationKind, MutationSpec, mutate
from vsr.parser import classify
from vsr import similarity
from vsr.deadline import CHECK_EVERY
from vsr.similarity import (
    _BOUND_MARGIN,
    _INDEX_WIDTH,
    DepthLimitError,
    _bound,
    _greedy_scores,
    _profile,
    sim_ast,
    sim_ast_seq,
    sim_ast_with_trace,
)
from vsr.trees import CleanNode, NodeKind, RawNode, clean

P, Q, R, S = NodeKind.MODULE_DEF, NodeKind.ALWAYS, NodeKind.ID, NodeKind.CONST


def leaf(kind):
    return CleanNode(kind, ())


def node(kind, *children):
    return CleanNode(kind, tuple(children))


small_trees = st.builds(
    lambda seed, depth: random_clean_tree(random.Random(seed), max_depth=depth),
    st.integers(0, 2**32 - 1),
    st.integers(1, 5),
)


class TestHandWorked:
    def test_kind_mismatch_is_zero(self):
        assert sim_ast(leaf(P), leaf(Q)) == 0.0
        assert sim_ast_seq(leaf(P), leaf(Q)) == 0.0

    def test_matching_leaves_are_one(self):
        assert sim_ast(leaf(R), leaf(R)) == 1.0
        assert sim_ast_seq(leaf(R), leaf(R)) == 1.0

    def test_permuted_children_score_one(self):
        a = node(P, leaf(Q), leaf(S))
        b = node(P, leaf(S), leaf(Q))
        assert sim_ast(a, b) == 1.0
        assert sim_ast_seq(a, b) == 0.0  # nothing lines up positionally

    def test_unmatched_child_costs_half(self):
        a = node(P, leaf(Q), leaf(Q))
        b = node(P, leaf(Q))
        assert sim_ast(a, b) == 0.5
        assert sim_ast(b, a) == 0.5

    def test_zero_score_candidates_stay_unconsumed(self):
        # (P (Q) (Q (R))) vs (P (Q (R))): the leaf Q scores 0 against
        # Q(R) and must not claim it, so the real match still happens.
        a = node(P, leaf(Q), node(Q, leaf(R)))
        b = node(P, node(Q, leaf(R)))
        assert sim_ast(a, b) == 0.5

    def test_known_asymmetric_pair(self):
        a = node(P, node(Q, leaf(R)), node(Q, leaf(R), leaf(S)))
        b = node(P, node(Q, leaf(R), leaf(S)))
        assert sim_ast(a, b) == 0.25
        assert sim_ast(b, a) == 0.5

    def test_seq_partial_overlap(self):
        a = node(P, leaf(Q), leaf(Q), leaf(S))
        b = node(P, leaf(Q), leaf(S))
        assert sim_ast_seq(a, b) == pytest.approx(1 / 3)


class TestOracleAgreement:
    @settings(max_examples=300)
    @given(small_trees, small_trees)
    def test_sim_ast_random_pairs(self, a, b):
        assert sim_ast(a, b) == naive_sim_ast(a, b)

    @settings(max_examples=300)
    @given(small_trees, small_trees)
    def test_sim_ast_seq_random_pairs(self, a, b):
        assert sim_ast_seq(a, b) == naive_sim_ast_seq(a, b)

    @settings(max_examples=150)
    @given(small_trees, st.integers(0, 2**32 - 1))
    def test_correlated_pairs(self, a, seed):
        rng = random.Random(seed)
        b = perturb_somewhere(a, rng)
        assert sim_ast(a, b) == naive_sim_ast(a, b)
        assert sim_ast(b, a) == naive_sim_ast(b, a)

    def test_golden_modules_against_oracle(self, golden_sources):
        names = sorted(golden_sources)[:12]
        trees = [clean(classify(golden_sources[n]).ast) for n in names]
        for left in trees[:4]:
            for right in trees:
                assert sim_ast(left, right) == naive_sim_ast(left, right)
                assert sim_ast_seq(left, right) == naive_sim_ast_seq(left, right)


class TestProperties:
    @settings(max_examples=200)
    @given(small_trees)
    def test_reflexive(self, t):
        assert sim_ast(t, t) == 1.0
        assert sim_ast_seq(t, t) == 1.0

    @settings(max_examples=200)
    @given(small_trees, small_trees)
    def test_bounded(self, a, b):
        assert 0.0 <= sim_ast(a, b) <= 1.0
        assert 0.0 <= sim_ast_seq(a, b) <= 1.0

    @settings(max_examples=150)
    @given(small_trees, st.integers(0, 2**32 - 1))
    def test_permutation_invariance(self, t, seed):
        shuffled = permute_tree(t, random.Random(seed))
        assert sim_ast(t, shuffled) == 1.0
        assert sim_ast(shuffled, t) == 1.0

    @settings(max_examples=150)
    @given(small_trees, small_trees)
    def test_one_iff_permutation_equal(self, a, b):
        assert (sim_ast(a, b) == 1.0) == permutation_equal(a, b)

    @settings(max_examples=150)
    @given(small_trees, small_trees)
    def test_seq_one_iff_structural_equal(self, a, b):
        assert (sim_ast_seq(a, b) == 1.0) == structural_equal(a, b)

    @settings(max_examples=100)
    @given(small_trees, small_trees)
    def test_seq_drops_on_adjacent_swap(self, t, extra):
        kids = (t, extra)
        if structural_equal(t, extra):
            return
        parent = node(P, *kids)
        swapped = node(P, kids[1], kids[0])
        assert sim_ast_seq(parent, swapped) < 1.0


def _subtree(t, path):
    for i in path:
        t = t.children[i]
    return t


class TestTrace:
    def test_trace_matches_score_and_is_one_to_one(self):
        rng = random.Random(11)
        a = random_clean_tree(rng, max_depth=5)
        b = perturb_somewhere(a, rng)
        score, steps = sim_ast_with_trace(a, b)
        assert score == sim_ast(a, b)
        lefts = [s.left for s in steps]
        rights = [s.right for s in steps]
        assert len(lefts) == len(set(lefts))
        assert len(rights) == len(set(rights))
        for step in steps:
            sub_a = _subtree(a, step.left)
            sub_b = _subtree(b, step.right)
            assert step.score == sim_ast(sub_a, sub_b)
            assert sub_a.kind is sub_b.kind

    def test_trace_pairs_share_parent_structure(self):
        a = node(P, node(Q, leaf(R)), leaf(S))
        b = node(P, leaf(S), node(Q, leaf(R)))
        score, steps = sim_ast_with_trace(a, b)
        assert score == 1.0
        pairs = {(s.left, s.right) for s in steps}
        assert ((0,), (1,)) in pairs  # Q subtree crossed over
        assert ((1,), (0,)) in pairs


def unshared(tree):
    """Rebuild `tree` with a fresh CleanNode per node, sharing nothing."""
    return CleanNode(tree.kind, tuple(unshared(c) for c in tree.children))


def as_raw(tree, rng):
    """A raw-shaped copy of `tree` with random names, as the parser makes."""
    return RawNode(
        tree.kind,
        [as_raw(c, rng) for c in tree.children],
        name=f"n{rng.randrange(4)}",
        value=str(rng.randrange(4)),
    )


def preorder(lefts):
    """The trace's step order: a preorder walk of the matched pairs from the
    root, where visiting a pair lists its child matches leftmost first."""
    kids = {}
    for left in lefts:
        kids.setdefault(left[:-1], []).append(left)
    out = []
    work = [()]
    while work:
        mine = sorted(kids.get(work.pop(), []))
        out.extend(mine)
        work.extend(reversed(mine))
    return out


class TestSharedStructure:
    """Both sides cleaned through one table share their equal subtrees; the
    scores, the trace, and their agreement with the naive transcription must
    not notice."""

    def check(self, a, b):
        want = naive_sim_ast(a, b)
        assert sim_ast(a, b) == want
        assert sim_ast_seq(a, b) == naive_sim_ast_seq(a, b)
        score, steps = sim_ast_with_trace(a, b)
        assert score == want
        assert (score, steps) == sim_ast_with_trace(unshared(a), unshared(b))
        lefts = [step.left for step in steps]
        assert lefts == preorder(lefts)
        rights_by_parent = {}
        for step in steps:
            rights = rights_by_parent.setdefault((step.left[:-1], step.right[:-1]), set())
            assert step.right[-1] not in rights
            rights.add(step.right[-1])
            sub_a, sub_b = _subtree(a, step.left), _subtree(b, step.right)
            assert step.score == naive_sim_ast(sub_a, sub_b)

    @settings(max_examples=200)
    @given(small_trees, st.integers(0, 2**32 - 1))
    def test_random_raw_pairs_through_one_table(self, t, seed):
        rng = random.Random(seed)
        other = perturb_somewhere(permute_tree(t, rng), rng)
        table = {}
        a = clean(as_raw(t, rng), table)
        b = clean(as_raw(other, rng), table)
        self.check(a, b)
        self.check(b, a)
        self.check(a, a)

    def test_golden_pairs_and_mutants_through_one_table(self, golden_sources):
        names = sorted(golden_sources)
        asts = {n: classify(golden_sources[n]).ast for n in names}
        for i, name in enumerate(names):
            source = golden_sources[name]
            reordered = mutate(source, MutationSpec(MutationKind.REORDER_TOP_ITEMS, i))
            table = {}
            base = clean(asts[name], table)
            self.check(clean(classify(reordered).ast, table), base)
        for left in names[:4]:
            for right in names[:12]:
                table = {}
                self.check(clean(asts[left], table), clean(asts[right], table))

    def test_identical_subtrees_are_shared_and_scored_without_a_walk(self):
        table = {}
        arm = as_raw(node(Q, leaf(R), node(P, leaf(R), leaf(S))), random.Random(1))
        a = clean(RawNode(P, [arm, arm, as_raw(leaf(S), random.Random(2))]), table)
        b = clean(RawNode(P, [as_raw(leaf(S), random.Random(3)), arm]), table)
        assert a.children[0] is a.children[1] is b.children[1]
        assert sim_ast(a, b) == naive_sim_ast(a, b) == 2 / 3
        score, steps = sim_ast_with_trace(a, b)
        assert score == 2 / 3
        assert [(s.left, s.right) for s in steps] == [
            ((0,), (1,)),
            ((2,), (0,)),
            ((0, 0), (1, 0)),
            ((0, 1), (1, 1)),
            ((0, 1, 0), (1, 1, 0)),
            ((0, 1, 1), (1, 1, 1)),
        ]


def leaf_path_bound(a, b):
    profiles, trie = {}, [{}]
    _profile(a, profiles, trie, CHECK_EVERY, None)
    _profile(b, profiles, trie, CHECK_EVERY, None)
    return _bound(profiles[id(a)], profiles[id(b)])


def assert_naive_choices_near(t, seed):
    """The trace of `t` against a permuted, perturbed copy, both ways round,
    lists the naive greedy choices."""
    rng = random.Random(seed)
    near = perturb_somewhere(permute_tree(t, rng), rng)
    for x, y in ((t, near), (near, t)):
        _, steps = sim_ast_with_trace(x, y)
        assert [(s.left, s.right, s.score) for s in steps] == naive_greedy_trace(x, y)


def count_bounds(monkeypatch):
    """Count `_bound` calls from here on; returns the one-element counter."""
    calls = [0]

    def counting(left, right):
        calls[0] += 1
        return _bound(left, right)

    monkeypatch.setattr(similarity, "_bound", counting)
    return calls


class TestLeafPathBound:
    """The pruning bound must never fall below the score it stands in for,
    and pruning must leave the greedy choices exactly as they were."""

    @settings(max_examples=300)
    @given(small_trees, small_trees, st.integers(0, 2**32 - 1))
    def test_bound_is_at_least_the_score(self, a, b, seed):
        b = CleanNode(a.kind, b.children)  # the bound is only used within a kind
        rng = random.Random(seed)
        near = perturb_somewhere(permute_tree(a, rng), rng)
        for x, y in ((a, b), (a, near), (near, a)):
            want = naive_sim_ast(x, y)
            assert leaf_path_bound(x, y) >= want - _BOUND_MARGIN
            table = {}
            shared = clean(as_raw(x, rng), table), clean(as_raw(y, rng), table)
            assert leaf_path_bound(*shared) >= want - _BOUND_MARGIN

    @pytest.fixture(scope="class")
    def wide_pair(self):
        # 150 items against a reordered copy with one operator swapped in
        # each: no row ends on a perfect match, so only the bound prunes.
        ref, gen = swapped_item_pair(random.Random(5), 150)
        table = {}
        return clean(classify(gen).ast, table), clean(classify(ref).ast, table)

    def test_wide_pair_scores_and_trace_are_unchanged(self, wide_pair):
        g, r = wide_pair
        want = naive_sim_ast(g, r)
        assert want < 1.0
        assert sim_ast(g, r) == want
        score, steps = sim_ast_with_trace(g, r)
        assert score == want
        assert [(s.left, s.right, s.score) for s in steps] == naive_greedy_trace(g, r)
        assert (score, steps) == sim_ast_with_trace(unshared(g), unshared(r))

    @settings(max_examples=150)
    @given(small_trees, st.integers(0, 2**32 - 1))
    def test_trace_matches_the_naive_choices(self, t, seed):
        assert_naive_choices_near(t, seed)

    def test_wide_pair_scores_under_an_eighth_of_the_candidates(self, wide_pair):
        g, r = wide_pair
        rows, cols = len(g.children[0].children), len(r.children[0].children)
        assert rows >= 150 and cols >= 150
        assert len(_greedy_scores(g, r)) < rows * cols / 8

    # The 158 item rows hold 24,964 candidate pairs.  Bounding every
    # unscored same-kind candidate of a row took 8,538 bounds; the path index
    # bounds only the columns that share a rare path with the row.  At the
    # default width, where narrow rows run the plain scan and bound nothing,
    # that is 3,225 bounds and 2,228 scored pairs, against 5,096 and 2,411
    # when narrow rows were bounded too.  With every row on the index it is
    # 5,004 bounds.
    max_bounds = 5_096

    def test_wide_pair_bounds_few_of_the_candidates(self, wide_pair, monkeypatch):
        g, r = wide_pair
        calls = count_bounds(monkeypatch)
        scored = len(_greedy_scores(g, r))
        assert calls[0] < self.max_bounds
        assert scored < 2_411


def tie_row_pair(seed, width=(1, 25)):
    """Two rows of `width` (inclusive bounds) same-kind items that tie often.

    Items come from a few variants (a base item, or the base with one local
    edit).  Each draw is the variant object itself (a shared duplicate), a
    recursively reordered copy of it (equal up to order, so it scores like
    the variant without being the same object), or a fresh random item.
    """
    rng = random.Random(seed)

    def item():
        return node(Q, *(random_clean_tree(rng, max_depth=3) for _ in range(rng.randint(1, 3))))

    bases = [item() for _ in range(rng.randint(1, 3))]
    variants = bases + [perturb_somewhere(rng.choice(bases), rng) for _ in range(3)]

    def row():
        kids = []
        for _ in range(rng.randint(*width)):
            pick = rng.random()
            if pick < 0.4:
                kids.append(rng.choice(variants))
            elif pick < 0.8:
                kids.append(permute_tree(rng.choice(variants), rng))
            else:
                kids.append(item())
        return node(P, *kids)

    return row(), row(), rng


class TestBestBoundFirstRows:
    """A wide row scores its deferred candidates highest bound first, but
    must still choose the first column with the highest score, as the plain
    scan of a narrow row does, on shared, interned and unshared trees
    alike."""

    def check(self, a, b):
        want = naive_sim_ast(a, b)
        assert sim_ast(a, b) == want
        score, steps = sim_ast_with_trace(a, b)
        assert score == want
        assert [(s.left, s.right, s.score) for s in steps] == naive_greedy_trace(a, b)

    @pytest.mark.parametrize("block", range(8))
    def test_tied_rows_match_the_naive_greedy_choice(self, block):
        for seed in range(block * 50, block * 50 + 50):
            a, b, rng = tie_row_pair(seed)
            table = {}
            interned = clean(as_raw(a, rng), table), clean(as_raw(b, rng), table)
            for x, y in ((a, b), interned, (unshared(a), unshared(b))):
                self.check(x, y)
                self.check(y, x)


@pytest.fixture(scope="class")
def index_every_row():
    """Lower the path-index cut-off so that every row with two or more
    columns takes its candidates from the index."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(similarity, "_INDEX_WIDTH", 2)
        yield


@pytest.mark.usefixtures("index_every_row")
class TestLeafPathBoundIndexed(TestLeafPathBound):
    """The bound tests again, with every row on the path index.  Hypothesis
    runs a property test under one class only, so the one that runs the
    matcher is declared again; the bound itself does not depend on rows."""

    test_bound_is_at_least_the_score = None
    max_bounds = 6_000

    @settings(max_examples=150)
    @given(small_trees, st.integers(0, 2**32 - 1))
    def test_trace_matches_the_naive_choices(self, t, seed):
        assert_naive_choices_near(t, seed)


@pytest.mark.usefixtures("index_every_row")
class TestBestBoundFirstRowsIndexed(TestBestBoundFirstRows):
    """The tie tests again, with every row on the path index."""


class TestPlainScanRows:
    def test_pair_without_a_wide_row_makes_no_bound_call(self, monkeypatch):
        # Ten items against a reordered, operator-swapped copy: every row is
        # narrower than the cut-off, so every row runs the plain scan.
        ref, gen = swapped_item_pair(random.Random(5), 10)
        table = {}
        g, r = clean(classify(gen).ast, table), clean(classify(ref).ast, table)
        work = [g, r]
        while work:
            x = work.pop()
            assert len(x.children) < _INDEX_WIDTH
            work.extend(x.children)
        calls = count_bounds(monkeypatch)
        want = naive_sim_ast(g, r)
        assert want < 1.0
        assert sim_ast(g, r) == want
        score, steps = sim_ast_with_trace(g, r)
        assert score == want
        assert [(s.left, s.right, s.score) for s in steps] == naive_greedy_trace(g, r)
        assert calls[0] == 0


class TestIndexedRows:
    """Rows at least `_INDEX_WIDTH` columns wide bound only the columns that
    share a kept path with the row; the choices must still be the plain
    scan's."""

    check = TestBestBoundFirstRows.check

    @pytest.mark.parametrize("block", range(4))
    def test_wide_tied_rows_match_the_naive_greedy_choice(self, block):
        # Shared duplicates, reordered copies and fresh items past the cut-off.
        for seed in range(block * 10, block * 10 + 10):
            a, b, rng = tie_row_pair(seed, (_INDEX_WIDTH, 2 * _INDEX_WIDTH + 8))
            assert len(b.children) >= _INDEX_WIDTH
            table = {}
            interned = clean(as_raw(a, rng), table), clean(as_raw(b, rng), table)
            for x, y in ((a, b), interned, (unshared(a), unshared(b))):
                self.check(x, y)
                self.check(y, x)

    def test_leaf_against_inner_rows_score_zero(self):
        # A leaf and an inner node of one kind share no leaf path, so the
        # leaf rows find no candidate and take nothing.
        inner = [node(Q, leaf(R), node(S, leaf(R))) for _ in range(_INDEX_WIDTH)]
        a = node(P, *(leaf(Q) for _ in range(_INDEX_WIDTH)))
        b = node(P, *inner)
        assert sim_ast(a, b) == sim_ast(b, a) == 0.0
        assert sim_ast_with_trace(a, b) == (0.0, ())
        mixed = node(P, *inner[:-2], leaf(Q), inner[-1])
        lone = node(P, leaf(Q), *(leaf(Q) for _ in range(_INDEX_WIDTH)))
        for x, y in ((lone, mixed), (mixed, lone), (a, mixed), (mixed, b)):
            self.check(x, y)

    def test_row_whose_rarest_path_is_taken_still_finds_a_column(self):
        # Only column 0 holds the path Q.S.R.  Row 0 takes it, so row 1's
        # rarest path has no untaken column; its probe must come from the
        # next rarest path, and its best column (1) shares only common ones.
        rare = node(Q, node(S, leaf(R)), leaf(R))
        a = node(P, rare, node(Q, node(S, leaf(R)), leaf(R), leaf(R)))
        filler = [node(Q, leaf(R), leaf(S)) for _ in range(_INDEX_WIDTH)]
        b = node(P, rare, node(Q, leaf(R), leaf(R)), *filler)
        self.check(a, b)
        _, steps = sim_ast_with_trace(a, b)
        assert [(s.left, s.right) for s in steps][:2] == [((0,), (0,)), ((1,), (1,))]

    @pytest.mark.parametrize("seed", range(6))
    def test_rows_that_outnumber_their_variant_match_the_naive_greedy_choice(self, seed):
        # The left row repeats variants that the right row holds fewer times,
        # so later rows find every column on their rarest paths taken.
        rng = random.Random(seed)
        variants = [random_clean_tree(rng, max_depth=3) for _ in range(4)]
        variants = [node(Q, v, leaf(R)) for v in variants]
        left = [rng.choice(variants[:2]) for _ in range(_INDEX_WIDTH)]
        right = variants + [perturb_somewhere(rng.choice(variants), rng)
                            for _ in range(_INDEX_WIDTH)]
        rng.shuffle(right)
        a, b = node(P, *left), node(P, *right)
        for x, y in ((a, b), (unshared(a), unshared(b))):
            self.check(x, y)
            self.check(y, x)

    def test_profile_and_index_walks_check_the_deadline(self, monkeypatch):
        # One leaf row against a few thousand distinct items: the row is
        # charged its width once, and the rest is the walk that builds the
        # path index, which must check the deadline as it goes.
        calls = [0]

        def counting_check(deadline):
            calls[0] += 1

        monkeypatch.setattr(similarity, "check", counting_check)
        items = 3000

        def item():
            return node(Q, node(S, leaf(R), leaf(R)), node(S, leaf(R), node(P, leaf(R))))

        b = node(P, *(item() for _ in range(items)))
        walked = items * 8
        sim_ast(node(P, leaf(Q)), b)
        assert calls[0] >= walked // CHECK_EVERY >= 5


class TestDepthLimit:
    def test_deep_tree_raises(self):
        t = leaf(S)
        for _ in range(600):
            t = node(Q, t)
        with pytest.raises(DepthLimitError):
            sim_ast(t, t)
        with pytest.raises(DepthLimitError):
            sim_ast_seq(t, t)

    def test_custom_limit(self):
        t = node(Q, node(Q, leaf(S)))
        assert sim_ast(t, t, depth_limit=3) == 1.0
        with pytest.raises(DepthLimitError):
            sim_ast(t, t, depth_limit=2)

    def test_deep_but_within_limit_is_iterative(self):
        # Two separate chains, so no pair is one node and every level is
        # walked, deeper than the interpreter's recursion limit: a recursive
        # walk would raise RecursionError.
        depth = 3000
        assert depth > sys.getrecursionlimit()
        a, b = self.chain(depth), self.chain(depth)
        assert sim_ast(a, b, depth_limit=4000) == 1.0
        assert sim_ast_seq(a, b, depth_limit=4000) == 1.0
        score, steps = sim_ast_with_trace(a, b, depth_limit=4000)
        assert score == 1.0 and len(steps) == depth - 1
        assert len(_greedy_scores(a, b)) == depth  # one scored pair per level

    def test_bad_limit_rejected(self):
        with pytest.raises(ValueError):
            sim_ast(leaf(S), leaf(S), depth_limit=0)

    @staticmethod
    def chain(depth):
        t = leaf(S)
        for _ in range(depth - 1):
            t = node(Q, t)
        return t

    @pytest.mark.parametrize("measure", [sim_ast, sim_ast_seq, sim_ast_with_trace])
    def test_both_too_deep_names_the_left_tree(self, measure):
        for left, right in ((7, 9), (9, 7)):
            with pytest.raises(DepthLimitError, match=f"^tree depth {left} exceeds limit 5$"):
                measure(self.chain(left), self.chain(right), depth_limit=5)

    @pytest.mark.parametrize("measure", [sim_ast, sim_ast_seq, sim_ast_with_trace])
    def test_only_right_too_deep_names_the_right_tree(self, measure):
        with pytest.raises(DepthLimitError, match="^tree depth 8 exceeds limit 5$"):
            measure(self.chain(3), self.chain(8), depth_limit=5)
