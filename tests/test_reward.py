import gc
import importlib
from enum import Enum
from types import FunctionType, ModuleType

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import FIXTURE_DIR, golden_paths
from helpers import chain_module
from vsr.corpus import MutationError, MutationKind, MutationSpec, mutate
from vsr.lexer import scan
from vsr.parser import ValidityStatus, classify, shape
from vsr.reward import (
    REWARD_NOT_CODE,
    REWARD_PARSE_FAIL,
    REWARD_SCALE,
    ReferenceParseError,
    ReferenceTooDeepError,
    RewardOutcome,
    reward,
)
from vsr.similarity import sim_ast, sim_ast_seq
from vsr.trees import RawNode, clean

REF = """
module blinker(input clk, output reg led);
    reg [23:0] cnt;
    always @(posedge clk) begin
        cnt <= cnt + 24'd1;
        if (cnt == 24'd0)
            led <= ~led;
    end
endmodule
"""

BROKEN = "module blinker(input clk output led); endmodule"
PROSE = "Sure! Here is a module that blinks an LED."


def test_identical_source_scores_full_marks():
    out = reward(REF, REF)
    assert out.status is ValidityStatus.PARSED
    assert out.sim == 1.0
    assert out.reward == 10.0


def test_parse_fail_tier():
    out = reward(BROKEN, REF)
    assert out.status is ValidityStatus.PARSE_FAIL
    assert out.sim is None
    assert out.reward == REWARD_PARSE_FAIL == -5.0


def test_not_code_tier():
    out = reward(PROSE, REF)
    assert out.status is ValidityStatus.NOT_CODE
    assert out.sim is None
    assert out.reward == REWARD_NOT_CODE == -10.0


def test_reward_is_scaled_similarity():
    gen = """
module blinker(input clk, output reg led);
    reg [23:0] cnt;
    always @(posedge clk) cnt <= cnt + 24'd1;
endmodule
"""
    out = reward(gen, REF)
    assert out.status is ValidityStatus.PARSED
    assert out.sim is not None and 0.0 < out.sim < 1.0
    assert out.reward == REWARD_SCALE * out.sim


def test_unparsable_reference_raises():
    with pytest.raises(ReferenceParseError) as err:
        reward(REF, BROKEN)
    assert "parse_fail" in str(err.value)
    assert err.value.diagnostics
    with pytest.raises(ReferenceParseError) as err:
        reward(REF, PROSE)
    assert "not_code" in str(err.value)


def test_mode_changes_score_for_reordered_body(reordered_pair):
    left, right = reordered_pair
    assert reward(right, left).reward == 10.0
    seq = reward(right, left, mode="seq")
    assert seq.reward < 10.0
    assert seq.reward == REWARD_SCALE * seq.sim


def test_invalid_mode_rejected():
    with pytest.raises(ValueError):
        reward(REF, REF, mode="fuzzy")


def test_invalid_mode_rejected_before_parsing():
    # The mode is checked first: an unparsable side must not turn a bad mode
    # into a score or a ReferenceParseError.
    for gen, ref in (("nonsense", REF), (BROKEN, REF), (REF, BROKEN)):
        with pytest.raises(ValueError):
            reward(gen, ref, mode="zip")


def test_scores_generated_against_reference():
    # The generated tree is the first similarity argument, the reference the
    # second; greedy similarity is not symmetric, so the order shows.
    gen = "module m(input a, output y);\n  assign y = a;\nendmodule"
    ref = "module m(input a, output y);\n  assign y = a | ~a;\n  assign y = a;\nendmodule"
    gen_tree, ref_tree = clean(classify(gen).ast), clean(classify(ref).ast)
    forward, backward = sim_ast(gen_tree, ref_tree), sim_ast(ref_tree, gen_tree)
    assert forward != backward
    assert reward(gen, ref).sim == forward


def test_unparsable_generation_gives_no_sim():
    for gen, status in (
        ("nonsense", ValidityStatus.NOT_CODE),
        (BROKEN, ValidityStatus.PARSE_FAIL),
    ):
        out = reward(gen, "module m; endmodule")
        assert out.status is status
        assert out.sim is None


DEEP = chain_module(600)  # cleans to depth 603, over the default limit 512


class TestDepthLimit:
    @pytest.mark.parametrize("mode", ["ast", "seq"])
    def test_too_deep_generation_is_the_parse_fail_tier(self, mode):
        out = reward(DEEP, REF, mode=mode)
        assert out == RewardOutcome(ValidityStatus.PARSE_FAIL, None, REWARD_PARSE_FAIL)

    @pytest.mark.parametrize("mode", ["ast", "seq"])
    def test_too_deep_reference_raises_whatever_the_generation(self, mode):
        for gen in (REF, DEEP, BROKEN, PROSE):
            with pytest.raises(
                ReferenceTooDeepError, match="^tree depth 603 exceeds limit 512$"
            ):
                reward(gen, DEEP, mode=mode)

    def test_memo_keeps_the_depth_and_each_call_judges_it(self):
        memo = {}
        assert reward(REF, DEEP, depth_limit=603, memo=memo).sim is not None
        assert memo[DEEP].tree.depth == 603
        with pytest.raises(ReferenceTooDeepError):
            reward(REF, DEEP, depth_limit=602, memo=memo)
        assert reward(DEEP, REF, depth_limit=603).status is ValidityStatus.PARSED

    def test_bad_limit_rejected_before_parsing(self):
        for gen in (REF, PROSE):
            with pytest.raises(ValueError, match="depth limit must be >= 1"):
                reward(gen, REF, depth_limit=0)


def _samples_for(name, sources):
    """The golden file's mutants plus four other golden files, in a fixed order."""
    src = sources[name]
    samples = [src]
    for kind in MutationKind:
        try:
            samples.append(mutate(src, MutationSpec(kind, seed=7)))
        except MutationError:
            pass
    names = sorted(sources)
    at = names.index(name)
    samples += [sources[names[(at + k) % len(names)]] for k in (1, 2, 17, 40)]
    return samples


class TestReferenceMemo:
    def test_memo_gives_bit_identical_outcomes(self, golden_sources):
        memo: dict = {}
        pairs = 0
        for name in sorted(golden_sources):
            ref = golden_sources[name]
            for gen in _samples_for(name, golden_sources) + ["prose", BROKEN]:
                for mode in ("ast", "seq"):
                    plain = reward(gen, ref, mode=mode)
                    cached = reward(gen, ref, mode=mode, memo=memo)
                    assert cached == plain, (name, mode)
                    assert repr(cached.sim) == repr(plain.sim)
                    pairs += 1
        assert pairs > 1000

    def test_one_entry_per_distinct_reference(self, golden_sources):
        refs = [golden_sources[name] for name in sorted(golden_sources)[:5]]
        memo: dict = {}
        for ref in refs * 3:
            reward(REF, ref, memo=memo)
        for _ in range(3):
            with pytest.raises(ReferenceParseError):
                reward(REF, BROKEN, memo=memo)
        assert list(memo) == refs + [BROKEN]
        assert memo[BROKEN].tree is None

    def test_scoring_leaves_the_entry_unchanged(self, golden_sources):
        # Samples intern into the entry's own table, so the table grows; the
        # reference's fields do not, and no key it holds is ever replaced.
        memo: dict = {}
        reward(REF, REF, memo=memo)
        entry = memo[REF]
        tree, status, diagnostics = entry.tree, entry.status, entry.diagnostics
        before = dict(entry.table)
        size = len(before)
        for name in sorted(golden_sources):
            reward(golden_sources[name], REF, memo=memo)
            reward(golden_sources[name], REF, mode="seq", memo=memo)
            assert all(entry.table[key] is node for key, node in before.items())
            before = dict(entry.table)
        assert memo[REF] is entry
        assert entry.tree is tree
        assert entry.status is status and entry.diagnostics == diagnostics == ()
        assert len(entry.table) > size

    def test_samples_of_two_shapes_with_one_tree_are_scored_once(self, monkeypatch):
        # The parentheses change the token shape, not the cleaned tree, and
        # both samples intern into the reference's one table.
        ref = "module m(input a, b, output y);\n  assign y = a & b;\nendmodule\n"
        gens = [ref.replace("a & b", "a | b"), ref.replace("a & b", "(a | b)")]
        assert shape(scan(gens[0])[0]) != shape(scan(gens[1])[0])
        alone = reward(gens[0], ref)
        reward_module = importlib.import_module("vsr.reward")
        scored = []
        real = reward_module.sim_ast
        monkeypatch.setattr(
            reward_module, "sim_ast", lambda *args, **kw: scored.append(args) or real(*args, **kw)
        )
        memo: dict = {}
        assert [reward(gen, ref, memo=memo) for gen in gens] == [alone, alone]
        assert len(scored) == 1
        assert len(memo[ref].sims) == 1

    def test_entry_holds_no_raw_tree(self):
        memo: dict = {}
        reward(REF, REF, memo=memo)
        # Everything the entry reaches, short of classes, modules, functions
        # and enum members, which are shared by the whole program.
        seen, todo = set(), [memo[REF]]
        while todo:
            obj = todo.pop()
            if id(obj) in seen or isinstance(obj, (type, ModuleType, FunctionType, Enum)):
                continue
            seen.add(id(obj))
            assert not isinstance(obj, RawNode)
            todo.extend(gc.get_referents(obj))
        assert len(seen) > len(memo[REF].table)

    def test_hit_does_not_classify_the_reference_again(self, monkeypatch):
        # With a memo, `reward` lexes through `scan` and parses through
        # `classify_lists_into`, both looked up on the module, not the
        # `reward` function the package re-exports; the parser derives the
        # kinds of each text it parses through `kinds_of`, looked up on
        # `vsr.parser`.
        reward_module = importlib.import_module("vsr.reward")
        parser_module = importlib.import_module("vsr.parser")
        lexed, parsed, derived = [], [], []
        real_kinds_of = parser_module.kinds_of
        monkeypatch.setattr(
            parser_module,
            "kinds_of",
            lambda texts, *args: derived.append(tuple(texts)) or real_kinds_of(texts, *args),
        )
        real_scan, real_parse = reward_module.scan, reward_module.classify_lists_into
        monkeypatch.setattr(
            reward_module,
            "scan",
            lambda text, *args: lexed.append(text) or real_scan(text, *args),
        )
        monkeypatch.setattr(
            reward_module,
            "classify_lists_into",
            lambda texts, *args, **kw: (
                parsed.append(tuple(texts)) or real_parse(texts, *args, **kw)
            ),
        )
        memo: dict = {}
        # differs from REF in whitespace only: no copy of REF, but its shape
        spaced = " " + REF
        for gen in (spaced, BROKEN, PROSE, spaced):
            reward(gen, REF, memo=memo)
        # Each text is lexed once per call, the reference only on its first
        # use.  A text is parsed only when its shape is new to the reference,
        # so `spaced`, which has the reference's shape, never is.
        assert lexed == [REF, spaced, BROKEN, PROSE, spaced]
        assert parsed == [tuple(scan(text)[0]) for text in (REF, BROKEN, PROSE)]
        # Kinds are derived once for each text that reaches the parser, and
        # never for a shape hit or for `PROSE`, which fails the module test.
        assert derived == [tuple(scan(text)[0]) for text in (REF, BROKEN)]


def _full_path(gen: str, ref: str, mode: str) -> RewardOutcome:
    """What scoring a parsed generation does: classify, clean both sides
    into one intern table, then the similarity."""
    gen_v, ref_v = classify(gen), classify(ref)
    table: dict = {}
    ref_tree = clean(ref_v.ast, table)
    gen_tree = clean(gen_v.ast, table)
    fn = sim_ast if mode == "ast" else sim_ast_seq
    sim = fn(gen_tree, ref_tree)
    return RewardOutcome(gen_v.status, sim, REWARD_SCALE * sim)


def _error(fn):
    try:
        fn()
    except Exception as exc:  # noqa: BLE001 - the error itself is compared
        return type(exc), str(exc)
    raise AssertionError("no error raised")


class TestCopies:
    """A generation equal to its reference returns without being scored."""

    SOURCES = [p.read_text(encoding="utf-8") for p in golden_paths()] + [
        p.read_text(encoding="utf-8") for p in sorted(FIXTURE_DIR.glob("*.v"))
    ]

    @pytest.mark.parametrize("mode", ["ast", "seq"])
    def test_copy_gives_the_full_path_outcome(self, mode):
        memo: dict = {}
        for text in self.SOURCES:
            expected = _full_path(text, text, mode)
            assert expected == RewardOutcome(ValidityStatus.PARSED, 1.0, 10.0)
            for got in (reward(text, text, mode=mode),
                        reward(text, text, mode=mode, memo=memo),
                        reward(text, text, mode=mode, memo=memo)):
                assert got == expected
                assert repr(got) == repr(expected)

    @pytest.mark.parametrize("mode", ["ast", "seq"])
    def test_a_reference_error_still_raises(self, mode):
        for ref in (BROKEN, PROSE, "", DEEP):
            other = _error(lambda: reward(REF, ref, mode=mode))
            assert issubclass(other[0], (ReferenceParseError, ReferenceTooDeepError))
            memo: dict = {}
            for _ in range(2):
                assert _error(lambda: reward(ref, ref, mode=mode)) == other
                assert _error(lambda: reward(ref, ref, mode=mode, memo=memo)) == other

    def test_bad_mode_or_limit_still_comes_first(self):
        for text in (REF, BROKEN, PROSE, DEEP):
            kind, message = _error(lambda: reward(text, text, mode="zip"))
            assert kind is ValueError and message.startswith("mode must be")
            kind, message = _error(lambda: reward(text, text, depth_limit=0))
            assert kind is ValueError and message.startswith("depth limit must be")

    def test_copy_never_reaches_the_pipeline(self, monkeypatch):
        reward_module = importlib.import_module("vsr.reward")
        memo: dict = {}
        reward(" " + REF, REF, memo=memo)

        def refuse(*args, **kwargs):
            raise AssertionError("a copy reached the pipeline")

        for name in ("scan", "classify", "classify_lists_into", "clean", "sim_ast",
                     "sim_ast_seq"):
            monkeypatch.setattr(reward_module, name, refuse)
        for mode in ("ast", "seq"):
            assert reward(REF, REF, mode=mode, memo=memo) == RewardOutcome(
                ValidityStatus.PARSED, 1.0, 10.0
            )

    def test_copy_classifies_the_reference_only(self, monkeypatch):
        # With a memo or without one, the reference goes through
        # `classify_lists_into`.
        reward_module = importlib.import_module("vsr.reward")
        seen = []
        real = reward_module.classify_lists_into

        def spy(*args, **kw):
            seen.append("classify_lists_into")
            return real(*args, **kw)

        monkeypatch.setattr(reward_module, "classify_lists_into", spy)
        memo: dict = {}
        for _ in range(3):
            reward(REF, REF, memo=memo)
            reward(REF, REF)
        # the reference, once for the memo and once per call without one
        assert seen == ["classify_lists_into"] * 4


@settings(max_examples=120, deadline=None)
@given(st.text(max_size=200))
def test_reward_range_over_arbitrary_generations(gen):
    out = reward(gen, REF)
    if out.status is ValidityStatus.PARSED:
        assert 0.0 <= out.sim <= 1.0
        assert out.reward == REWARD_SCALE * out.sim
    else:
        assert out.sim is None
        assert out.reward in (REWARD_PARSE_FAIL, REWARD_NOT_CODE)
