import copy
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import vsr.trees
from helpers import ALL_KINDS, SMALL_POOL, random_clean_tree
from vsr.deadline import CHECK_EVERY, DeadlineExceeded
from vsr.parser import classify
from vsr.trees import (
    CleanNode,
    NodeKind,
    RawNode,
    TreeFormatError,
    clean,
    deserialize,
    iter_tree,
    serialize,
    tree_stats,
)


def leaf(kind=NodeKind.ID):
    return CleanNode(kind, ())


def node(kind, *children):
    return CleanNode(kind, tuple(children))


clean_trees = st.recursive(
    st.sampled_from(ALL_KINDS).map(lambda k: CleanNode(k, ())),
    lambda kids: st.tuples(st.sampled_from(ALL_KINDS), st.lists(kids, max_size=4)).map(
        lambda kv: CleanNode(kv[0], tuple(kv[1]))
    ),
    max_leaves=40,
)


class TestClean:
    def test_erases_payload_keeps_shape(self):
        raw = RawNode(
            kind=NodeKind.MODULE_DEF,
            children=[
                RawNode(kind=NodeKind.ID, name="clk", span=(3, 6)),
                RawNode(kind=NodeKind.CONST, value="8'hFF", mods=("signed",)),
            ],
            name="top",
            span=(0, 40),
        )
        got = clean(raw)
        assert got == node(NodeKind.MODULE_DEF, leaf(NodeKind.ID), leaf(NodeKind.CONST))

    def test_preserves_child_order(self):
        raw = RawNode(
            kind=NodeKind.BLOCK,
            children=[
                RawNode(kind=NodeKind.ID, name="a"),
                RawNode(kind=NodeKind.CONST, value="1"),
                RawNode(kind=NodeKind.ID, name="b"),
            ],
        )
        kinds = [c.kind for c in clean(raw).children]
        assert kinds == [NodeKind.ID, NodeKind.CONST, NodeKind.ID]

    def test_accepts_clean_input_unchanged(self):
        tree = node(NodeKind.ALWAYS, leaf(), leaf(NodeKind.CONST))
        assert clean(tree) == tree

    def test_golden_clean_is_deterministic(self, golden_source):
        ast = classify(golden_source).ast
        assert ast is not None
        assert clean(ast) == clean(ast)


def unshared_clean(raw):
    """One fresh CleanNode per raw node, as cleaning did before hash-consing."""
    return CleanNode(raw.kind, tuple(unshared_clean(c) for c in raw.children))


class TestHashConsing:
    def test_equal_subtrees_are_one_object(self):
        src = (
            "module m(input a, input b, output y, output z);\n"
            "  assign y = a & b;\n  assign z = b & a;\nendmodule\n"
        )
        other = "module n(input c, output w);\n  assign w = c & c;\nendmodule\n"
        table = {}
        t1 = clean(classify(src).ast, table)
        t2 = clean(classify(other).ast, table)
        mod1, mod2 = t1.children[0], t2.children[0]
        assign_y, assign_z = mod1.children[-2], mod1.children[-1]
        assert assign_y.kind is NodeKind.CONTINUOUS_ASSIGN
        assert assign_y is assign_z
        assert mod2.children[-1] is assign_y  # shared across the two trees
        and_node = assign_y.children[1]
        assert and_node.children[0] is and_node.children[1]
        # a separate table shares nothing with the first one
        t3 = clean(classify(other).ast)
        assert t3 == t2 and t3 is not t2
        assert t3.children[0].children[-1] is not assign_y

    def test_serialize_and_stats_unchanged(self, golden_source):
        ast = classify(golden_source).ast
        plain = unshared_clean(ast)
        shared = clean(ast, {})
        assert serialize(shared) == serialize(plain)
        assert tree_stats(shared) == tree_stats(plain) == tree_stats(ast)

    @settings(max_examples=100)
    @given(clean_trees, clean_trees)
    def test_one_table_keeps_every_tree_intact(self, a, b):
        table = {}
        ca, cb = clean(a, table), clean(b, table)
        assert serialize(ca) == serialize(a) and serialize(cb) == serialize(b)
        assert tree_stats(ca) == tree_stats(a) and tree_stats(cb) == tree_stats(b)
        assert (ca is cb) == (ca == cb)


def naive_clean(raw):
    """`clean` as a plain recursive transcription, without a table."""
    return CleanNode(raw.kind, tuple(naive_clean(c) for c in raw.children))


def assert_maximally_shared(*roots):
    """Equal subtrees anywhere under `roots` are one object."""
    first_seen = {}
    for root in roots:
        for sub in iter_tree(root):
            assert first_seen.setdefault(serialize(sub), sub) is sub


def assert_keys_match_nodes(table):
    for key, shared in table.items():
        assert key == (id(shared.kind), *map(id, shared.children))


# Raw trees with payloads that `clean` must drop, over a small kind pool so
# equal subtrees are common.
raw_trees = st.recursive(
    st.tuples(st.sampled_from(SMALL_POOL), st.sampled_from([None, "a", "b"])).map(
        lambda kn: RawNode(kn[0], [], kn[1], None, (), (0, 1))
    ),
    lambda kids: st.tuples(
        st.sampled_from(SMALL_POOL), st.lists(kids, max_size=4), st.integers(0, 9)
    ).map(lambda kks: RawNode(kks[0], kks[1], None, str(kks[2]), ("m",), (kks[2], 9))),
    max_leaves=40,
)


def raw_chain(length):
    """A chain of `length` raw nodes; each level has a key of its own."""
    tip = RawNode(NodeKind.CONST, [], None, "1")
    for _ in range(length - 1):
        tip = RawNode(NodeKind.BLOCK, [tip])
    return tip


class TestCleanLoops:
    @settings(max_examples=200)
    @given(raw_trees)
    def test_equals_naive_transcription_without_table(self, raw):
        tree = clean(raw)
        assert tree == naive_clean(raw)
        assert serialize(tree) == serialize(naive_clean(raw))
        assert_maximally_shared(tree)

    @settings(max_examples=200)
    @given(raw_trees, raw_trees)
    def test_equals_naive_transcription_with_shared_table(self, a, b):
        table = {}
        ta, tb = clean(a, table), clean(b, table)
        assert ta == naive_clean(a) and tb == naive_clean(b)
        assert_maximally_shared(ta, tb)
        assert_keys_match_nodes(table)
        # a second pass over either tree adds nothing and returns the same object
        size = len(table)
        assert clean(a, table) is ta and clean(b, table) is tb
        assert len(table) == size

    def test_deep_chain_is_stack_safe(self):
        tree = clean(raw_chain(10_000))
        assert tree.depth == 10_000
        assert serialize(tree) == "(Block " * 9_999 + "(Const)" + ")" * 9_999


class TestCleanDeadlineChecks:
    """Each of `clean`'s two passes checks the deadline on its own.

    `check` is replaced by a recorder that notes the table size at each
    call: the breadth-first pass runs while the table is still empty, and
    on a chain the backward pass adds one entry per node.
    """

    LENGTH = 3 * CHECK_EVERY + 5

    def run(self, monkeypatch, stop=lambda calls, size: False):
        table = {}
        sizes = []

        def recorder(deadline):
            sizes.append(len(table))
            if stop(len(sizes), len(table)):
                raise DeadlineExceeded("deadline passed")

        monkeypatch.setattr(vsr.trees, "check", recorder)
        raised = False
        try:
            clean(raw_chain(self.LENGTH), table)
        except DeadlineExceeded:
            raised = True
        return raised, sizes, table

    def test_breadth_first_pass_checks_every_interval(self, monkeypatch):
        _, sizes, table = self.run(monkeypatch)
        assert len(table) == self.LENGTH
        assert sizes.count(0) >= self.LENGTH // CHECK_EVERY + 1

    def test_breadth_first_pass_stops(self, monkeypatch):
        calls = self.LENGTH // CHECK_EVERY
        raised, sizes, table = self.run(monkeypatch, lambda n, _: n == calls)
        assert raised and len(sizes) == calls
        assert len(table) == 0  # stopped before anything was interned

    def test_backward_pass_checks_every_interval(self, monkeypatch):
        _, sizes, table = self.run(monkeypatch)
        interned = [s for s in sizes if s] + [len(table)]
        assert len(interned) >= self.LENGTH // CHECK_EVERY + 1
        gaps = [b - a for a, b in zip([0, *interned], interned)]
        assert max(gaps) <= CHECK_EVERY

    def test_backward_pass_stops(self, monkeypatch):
        raised, _, table = self.run(monkeypatch, lambda _, size: size > 0)
        assert raised
        assert 0 < len(table) <= CHECK_EVERY


class TestSerialize:
    def test_exact_text(self):
        tree = node(
            NodeKind.SOURCE_UNIT,
            node(NodeKind.MODULE_DEF, leaf(NodeKind.INPUT_PORT), leaf(NodeKind.ID)),
        )
        assert serialize(tree) == "(SourceUnit (ModuleDef (InputPort) (Id)))"

    def test_leaf(self):
        assert serialize(leaf(NodeKind.CONST)) == "(Const)"

    def test_round_trip_golden(self, golden_source):
        tree = clean(classify(golden_source).ast)
        assert deserialize(serialize(tree)) == tree

    @settings(max_examples=150)
    @given(clean_trees)
    def test_round_trip_random(self, tree):
        assert deserialize(serialize(tree)) == tree

    def test_deep_chain_is_stack_safe(self):
        tree = leaf(NodeKind.CONST)
        for _ in range(10_000):
            tree = node(NodeKind.BLOCK, tree)
        text = serialize(tree)
        assert deserialize(text) == tree
        stats = tree_stats(tree)
        assert stats.depth == 10_001
        assert stats.node_count == 10_001
        assert tree.depth == 10_001


class TestDeserialize:
    @pytest.mark.parametrize(
        "text,fragment",
        [
            ("", "empty"),
            ("(Bogus)", "unknown node kind"),
            ("(Id) trailing", "trailing"),
            ("(Id", "unbalanced"),
            ("(Id))", "trailing"),
            ("Id)", "expected '('"),
            ("((Id))", "expected a node kind"),
        ],
    )
    def test_errors(self, text, fragment):
        with pytest.raises(TreeFormatError) as err:
            deserialize(text)
        assert fragment in str(err.value)

    def test_every_kind_survives(self):
        for kind in NodeKind:
            assert deserialize(f"({kind.value})") == leaf(kind)


class TestTreeStats:
    # hand-computed shapes
    def test_single_leaf(self):
        s = tree_stats(leaf())
        assert (s.depth, s.node_count, s.mean_branching) == (1, 1, 0.0)

    def test_star(self):
        s = tree_stats(node(NodeKind.BLOCK, leaf(), leaf(), leaf()))
        assert (s.depth, s.node_count, s.mean_branching) == (2, 4, 3.0)

    def test_chain_of_four(self):
        t = node(NodeKind.BLOCK, node(NodeKind.BLOCK, node(NodeKind.BLOCK, leaf())))
        s = tree_stats(t)
        assert (s.depth, s.node_count, s.mean_branching) == (4, 4, 1.0)

    def test_mixed(self):
        t = node(NodeKind.BLOCK, node(NodeKind.ALWAYS, leaf()), leaf())
        s = tree_stats(t)
        assert (s.depth, s.node_count) == (3, 4)
        assert s.mean_branching == pytest.approx(1.5)

    @settings(max_examples=100)
    @given(clean_trees)
    def test_consistency(self, tree):
        s = tree_stats(tree)
        nodes = list(iter_tree(tree))
        assert s.node_count == len(nodes)
        internal = [n for n in nodes if n.children]
        if internal:
            assert s.mean_branching == (s.node_count - 1) / len(internal)
        else:
            assert s.mean_branching == 0.0
        assert 1 <= s.depth <= s.node_count

    def test_works_on_raw_nodes(self):
        raw = RawNode(kind=NodeKind.BLOCK, children=[RawNode(kind=NodeKind.ID)])
        s = tree_stats(raw)
        assert (s.depth, s.node_count, s.mean_branching) == (2, 2, 1.0)


def every_depth_is_exact(tree):
    return all(n.depth == tree_stats(n).depth for n in iter_tree(tree))


class TestDepth:
    def test_hand_built(self):
        assert leaf().depth == 1
        assert node(NodeKind.BLOCK, leaf(), node(NodeKind.ALWAYS, leaf())).depth == 3

    @settings(max_examples=100)
    @given(clean_trees)
    def test_every_node_of_a_built_tree(self, tree):
        assert every_depth_is_exact(tree)

    @settings(max_examples=100)
    @given(clean_trees, clean_trees)
    def test_every_node_cleaned_into_one_table(self, a, b):
        table = {}
        assert every_depth_is_exact(clean(a, table))
        assert every_depth_is_exact(clean(b, table))

    @settings(max_examples=100)
    @given(clean_trees)
    def test_every_node_after_a_round_trip(self, tree):
        assert every_depth_is_exact(deserialize(serialize(tree)))

    def test_golden(self, golden_source):
        ast = classify(golden_source).ast
        tree = clean(ast)
        assert every_depth_is_exact(tree)
        assert tree.depth == tree_stats(ast).depth


class TestImmutable:
    @pytest.mark.parametrize("name", ["kind", "children", "depth", "extra"])
    def test_assigning_an_attribute_raises(self, name):
        t = node(NodeKind.BLOCK, leaf())
        with pytest.raises(AttributeError):
            setattr(t, name, None)
        with pytest.raises(AttributeError):
            delattr(t, name)
        assert (t.kind, t.children, t.depth) == (NodeKind.BLOCK, (leaf(),), 2)

    def test_copy_and_pickle_give_an_equal_node(self):
        t = node(NodeKind.BLOCK, leaf(), node(NodeKind.ALWAYS, leaf()))
        for twin in (copy.copy(t), copy.deepcopy(t), pickle.loads(pickle.dumps(t))):
            assert twin == t and twin.depth == 3

    def test_keyword_construction_and_repr(self):
        t = CleanNode(kind=NodeKind.BLOCK, children=(CleanNode(NodeKind.ID),))
        assert t == node(NodeKind.BLOCK, leaf())
        assert repr(t) == (
            "CleanNode(kind=<NodeKind.BLOCK: 'Block'>,"
            " children=(CleanNode(kind=<NodeKind.ID: 'Id'>, children=()),))"
        )


class TestIterTree:
    def test_preorder(self):
        t = node(
            NodeKind.SOURCE_UNIT,
            node(NodeKind.MODULE_DEF, leaf(NodeKind.ID)),
            leaf(NodeKind.CONST),
        )
        kinds = [n.kind for n in iter_tree(t)]
        assert kinds == [
            NodeKind.SOURCE_UNIT,
            NodeKind.MODULE_DEF,
            NodeKind.ID,
            NodeKind.CONST,
        ]

    def test_random_count_matches(self):
        rng = random.Random(4)
        t = random_clean_tree(rng, max_depth=7)
        assert len(list(iter_tree(t))) == tree_stats(t).node_count
