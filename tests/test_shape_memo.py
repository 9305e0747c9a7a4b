"""The batch's shape memo: samples that differ only in names and literals
share one parse and one similarity, and every answer is the full path's."""

import importlib
import itertools
import json
import random
import re
import time

import pytest

from conftest import FIXTURE_DIR, golden_paths
from helpers import chain_module, classify_text, wide_module
from vsr.deadline import DeadlineExceeded
from vsr.lexer import FIXED_TEXTS, LexError, TokenKind, kinds_of, lex, scan
from vsr.parser import ValidityStatus, shape
from vsr.reward import ReferenceTooDeepError, reward
from vsr.service import ServiceConfig, _evaluate_batch, evaluate

# Texts with the token kinds the golden and fixture files lack: directives
# (whole-line and macro uses), strings, system and escaped identifiers.  The
# second fails to parse once its macro uses are dropped.
EXTRA = [
    "`timescale 1ns/1ps\n`define W 8\n"
    "module m(input [7:0] a, output reg y, output [8:0] z);\n"
    '  initial $display("a=%d \\"q\\"", \\esc , a);\n'
    "  assign z = {a, 1'b0} + 9'sd3;\n"
    "  always @* y = $signed(a) > 2.5e1;\n"
    "endmodule\n",
    "module m(input [`W-1:0] a, output y);\n  assign y = `F;\nendmodule\n",
]
SOURCES = (
    [p.read_text(encoding="utf-8") for p in golden_paths()]
    + [p.read_text(encoding="utf-8") for p in sorted(FIXTURE_DIR.glob("*.v"))]
    + EXTRA
)
NUMBERS = ("0", "7", "8'hff", "4'b10x1", "'d3", "2.5", "1e3", "16'sd5", "3_000")
OPERATORS = ("+", "-", "&", "|", "^", "==", "<<", "&&")
PROSE = "Sure! Here is a module that does it."


def key(text: str) -> tuple:
    return shape(scan(text)[0])


def table_form(table: dict) -> list:
    """The table's entries in order, each node as its kind and the places
    of its children, so tables of two runs compare key for key."""
    place = {id(node): i for i, node in enumerate(table.values())}
    return [(node.kind, *(place[id(kid)] for kid in node.children)) for node in table.values()]


def _new_lexeme(kind: TokenKind, text: str, start: int, rng: random.Random) -> str | None:
    k = rng.randrange(1000)
    if kind is TokenKind.IDENTIFIER:
        return rng.choice((f"n{k}", f"\\e{k} ", f"$s{k}", f"_x{k}$"))
    if kind is TokenKind.NUMBER:
        return rng.choice(NUMBERS)
    if kind is TokenKind.STRING:
        return rng.choice((f'"t{k}"', '"a\\"b"'))
    if kind is TokenKind.DIRECTIVE:
        line_start = text.rfind("\n", 0, start) + 1
        whole_line = not text[line_start:start].strip()
        return f"`define R{k} {k}" if whole_line else f"`M{k}"
    return None  # keywords, operators and punctuation stay


def rewrite(text: str, rng: random.Random) -> str:
    """`text` with every name, number, string and directive token redrawn.

    The rewrite works on `lex`'s tokens, not through the printer, which
    would change the token shape.  Comments and blank runs are kept, and a
    space goes between two tokens that touched, so no token runs into the
    next.
    """
    out, at = [], 0
    for kind, lexeme, (start, end) in lex(text):
        gap = text[at:start]
        out.append(gap or " ")
        new = _new_lexeme(kind, text, start, rng)
        out.append(lexeme if new is None else new)
        at = end
    out.append(text[at:])
    return "".join(out)


def swap_operator(text: str, rng: random.Random) -> str | None:
    """`text` with one operator token replaced by another, or None."""
    ops = [tok for tok in lex(text) if tok.kind is TokenKind.OPERATOR]
    if not ops:
        return None
    _, old, (start, end) = rng.choice(ops)
    new = rng.choice([op for op in OPERATORS if op != old])
    return f"{text[:start]} {new} {text[end:]}"


class TestShapeLemma:
    def test_no_kind_value_is_a_fixed_text(self):
        assert not {kind.value for kind in TokenKind} & FIXED_TEXTS.keys()

    def test_every_operator_and_punctuation_text_is_fixed(self):
        # Operators are at most three characters long, so every text these
        # kinds can have shows up in some string of one to three characters.
        alphabet = "".join(text for text in FIXED_TEXTS if len(text) == 1)
        seen = set()
        for n in (1, 2, 3):
            for chars in itertools.product(alphabet, repeat=n):
                try:
                    texts, _ = scan("".join(chars))
                except LexError:
                    continue
                seen.update(t for t, k in zip(texts, kinds_of(texts))
                            if k in (TokenKind.OPERATOR, TokenKind.PUNCTUATION))
        assert seen <= FIXED_TEXTS.keys()
        fixed_kinds = (TokenKind.KEYWORD, TokenKind.OPERATOR, TokenKind.PUNCTUATION)
        for source in SOURCES:
            for tok in lex(source):
                assert (tok.text in FIXED_TEXTS) == (tok.kind in fixed_kinds), tok

    def test_shape_elements_are_shared(self):
        for source in SOURCES[:5] + EXTRA:
            texts, _ = scan(source)
            for element, text in zip(shape(texts), texts):
                assert element is FIXED_TEXTS.get(text, element)
                assert isinstance(element, str)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_rewrites_keep_the_key_and_find_the_reference_root(self, seed):
        rng = random.Random(seed)
        statuses = set()
        for source in SOURCES:
            table: dict = {}
            status, root = classify_text(source, table)
            statuses.add(status)
            kinds = [tok.kind for tok in lex(source)]
            for _ in range(3):
                copy = rewrite(source, rng)
                assert copy != source
                assert [tok.kind for tok in lex(copy)] == kinds
                assert key(copy) == key(source)
                # into a copy of the reference's table, and into that table
                # itself, which grows with each rewrite, as `reward` uses it
                for into in (dict(table), table):
                    got_status, got_root = classify_text(copy, into)
                    assert got_status is status
                    assert got_root is root
        assert statuses == {ValidityStatus.PARSED, ValidityStatus.PARSE_FAIL}

    def test_a_token_of_another_kind_changes_the_key(self):
        texts = [
            "module m; assign y = a; endmodule",
            "module m; assign y = 1; endmodule",
            'module m; assign y = "a"; endmodule',
            "module m; assign y = `a; endmodule",
            "module m; assign y = ~; endmodule",
            "module m; assign y = (; endmodule",
            "module m; assign y = if; endmodule",
        ]
        assert len({key(text) for text in texts}) == len(texts)

    def test_one_operator_swap_changes_the_key(self):
        rng = random.Random(4)
        swapped = 0
        for source in SOURCES:
            other = swap_operator(source, rng)
            if other is not None:
                assert key(other) != key(source)
                swapped += 1
        assert swapped > 50


def _renamed_module(text: str, n: int) -> str:
    return re.sub(r"\bmodule\s+\w+", f"module k{n}", text, count=1)


def _batch(rng: random.Random) -> list[dict]:
    """Items of one batch: three references, each with copies, module-name
    duplicates, rewrites, one sample in both modes, parse-fail and prose
    duplicates, and another file; shuffled, so references recur apart."""
    items = []
    parsed = [s for s in SOURCES if classify_text(s, {})[0] is ValidityStatus.PARSED]
    for ref in rng.sample(parsed, 3):
        broken = ref.replace(";", "", 1)
        samples = [ref, ref, _renamed_module(ref, 1), _renamed_module(ref, 2),
                   rewrite(ref, rng), broken, _renamed_module(broken, 3), PROSE, PROSE,
                   "no code here", "no code here", rng.choice(parsed)]
        for gen in samples:
            items.append({"ref": ref, "gen": gen, "mode": rng.choice(("ast", "seq"))})
        both = _renamed_module(ref, 4)
        items += [{"ref": ref, "gen": both, "mode": mode} for mode in ("ast", "seq")]
    rng.shuffle(items)
    for i, item in enumerate(items):
        item["id"] = i
    return items


class TestBatches:
    @pytest.mark.parametrize("seed", [1, 2, 3, 4])
    @pytest.mark.parametrize("depth_limit", [512, 8])
    def test_a_batch_answers_as_its_items_one_by_one(self, seed, depth_limit, monkeypatch):
        reward_module = importlib.import_module("vsr.reward")
        items = _batch(random.Random(seed))
        alone = [evaluate(item, depth_limit=depth_limit) for item in items]
        parsed = []
        real = reward_module.classify_lists_into

        def spy(texts, *args, **kwargs):
            parsed.append(shape(texts))
            return real(texts, *args, **kwargs)

        monkeypatch.setattr(reward_module, "classify_lists_into", spy)
        config = ServiceConfig(depth_limit=depth_limit)
        got = _evaluate_batch(items, config)
        assert json.dumps(got) == json.dumps(alone)
        statuses = {answer["status"] for answer in got}
        if depth_limit == 512:
            assert statuses == {"parsed", "parse_fail", "not_code"}
        # In the batch a shape is parsed once per reference: the reference's
        # own, then, if the reference is not too deep, each new shape among
        # its samples that lexes and is no copy.  (The items scored alone
        # ran before the spy was in place.)
        expected = []
        for ref in dict.fromkeys(item["ref"] for item in items):
            shapes = {key(ref)}
            if classify_text(ref, {})[1].depth <= depth_limit:
                for item in items:
                    if item["ref"] == ref and item["gen"] != ref:
                        try:
                            shapes.add(key(item["gen"]))
                        except LexError:
                            pass
            expected += shapes
        assert sorted(parsed) == sorted(expected)
        # The store now holds each reference with its samples' shapes, so
        # the same batch again parses nothing and answers byte for byte.
        parsed.clear()
        assert json.dumps(_evaluate_batch(items, config)) == json.dumps(alone)
        assert parsed == []

    def test_a_shape_too_deep_under_one_limit_is_scored_under_another(self):
        ref = "module m(input a, output y);\n  assign y = a;\nendmodule\n"
        deep = chain_module(12)
        renamed = deep.replace("module ", "module other_", 1)
        assert key(renamed) == key(deep)
        memo: dict = {}
        calls = [(deep, 8), (renamed, 512), (deep, 512), (renamed, 8), (ref, 8)]
        for gen, limit in calls:
            for mode in ("ast", "seq"):
                got = reward(gen, ref, mode=mode, depth_limit=limit, memo=memo)
                assert got == reward(gen, ref, mode=mode, depth_limit=limit)
                assert repr(got) == repr(reward(gen, ref, mode=mode, depth_limit=limit))
        assert reward(deep, ref, depth_limit=8).status is ValidityStatus.PARSE_FAIL
        assert reward(deep, ref).sim is not None
        with pytest.raises(ReferenceTooDeepError):
            reward(ref, deep, depth_limit=8, memo=memo)

    def test_a_tree_is_scored_once_per_mode(self, reordered_pair):
        left, right = reordered_pair
        renamed = right.replace("module ", "module other_", 1)
        memo: dict = {}
        sims = {}
        for gen in (right, renamed):
            for mode in ("ast", "seq"):
                got = reward(gen, left, mode=mode, memo=memo)
                assert got == reward(gen, left, mode=mode)
                sims[mode] = got.sim
        assert sims["ast"] != sims["seq"]
        assert len(memo[left].sims) == 2

    def test_a_deadline_passed_mid_parse_leaves_no_entry(self, monkeypatch):
        parser = importlib.import_module("vsr.parser")
        ref, gen = wide_module(200), wide_module(1500, name="other")
        memo: dict = {}
        reward(ref, ref, memo=memo)
        entry = memo[ref]
        ref_key = key(ref)  # before `check` is spied on, as `shape` calls it
        assert list(entry.shapes) == [ref_key] and not entry.sims
        # `shape`, then the parser, check the deadline once per slice of
        # tokens before it parses, then as it consumes them; stop it at the
        # first check after.
        slices = 2 * -(-len(scan(gen)[0]) // parser.CHECK_EVERY)
        calls = []

        def late(deadline):
            calls.append(deadline)
            if len(calls) > slices:
                raise DeadlineExceeded("deadline passed")

        monkeypatch.setattr(parser, "check", late)
        with pytest.raises(DeadlineExceeded) as stopped:
            reward(gen, ref, memo=memo, deadline=time.monotonic() + 60)
        assert stopped.traceback[-2].name in ("_advance", "_expect")
        assert list(entry.shapes) == [ref_key] and not entry.sims
        monkeypatch.undo()
        got = reward(gen, ref, memo=memo)
        assert got == reward(gen, ref) and got == reward(gen, ref, memo={})
        assert list(entry.shapes) == [key(ref), key(gen)] and len(entry.sims) == 1
        # a hit past its deadline stops too, and changes nothing
        with pytest.raises(DeadlineExceeded):
            reward(gen, ref, memo=memo, deadline=time.monotonic() - 1)
        assert list(entry.shapes) == [key(ref), key(gen)] and len(entry.sims) == 1
        # A new sample past its deadline stops, and so does one stopped two
        # slices into its parse, which leaves the table exactly as it was;
        # scored again, it answers as in a fresh memo.
        items = (" + ".join(["a"] * n) for n in range(1, 150))
        other = "module t(input a, output y);\n" + "".join(
            f"  assign y = {chain};\n" for chain in items
        ) + "endmodule\n"
        with pytest.raises(DeadlineExceeded):
            reward(other, ref, memo=memo, deadline=time.monotonic() - 1)
        slices = -(-len(scan(other)[0]) // parser.CHECK_EVERY) + 2
        calls.clear()
        keys = list(entry.table)
        monkeypatch.setattr(parser, "check", late)
        with pytest.raises(DeadlineExceeded):
            reward(other, ref, memo=memo, deadline=time.monotonic() + 60)
        monkeypatch.undo()
        assert list(entry.table) == keys
        assert list(entry.shapes) == [key(ref), key(gen)] and len(entry.sims) == 1
        # So does a sample whose parse fails late, at its last item.
        broken = other.replace(";\nendmodule", "\nendmodule")
        failed = reward(broken, ref, memo=memo)
        assert failed == reward(broken, ref) and failed.status is ValidityStatus.PARSE_FAIL
        assert list(entry.table) == keys
        got = reward(other, ref, memo=memo)
        assert got == reward(other, ref) and got == reward(other, ref, memo={})
        assert got.status is ValidityStatus.PARSED

    def test_a_batch_after_one_stopped_by_the_deadline_answers_as_fresh(
        self, monkeypatch
    ):
        # The memo deadline test above, through the reference store: a batch
        # whose one item is stopped two slices into its parse stores the
        # table the batch's other items build, and the same batch again,
        # with no deadline, answers as each item with no memo.
        parser = importlib.import_module("vsr.parser")
        service = importlib.import_module("vsr.service")
        ref = wide_module(200)
        chains = (" + ".join(["a"] * n) for n in range(1, 150))
        stopped = "module t(input a, output y);\n" + "".join(
            f"  assign y = {chain};\n" for chain in chains
        ) + "endmodule\n"
        gens = [ref, wide_module(1500, name="other"), stopped, PROSE, _renamed_module(ref, 1)]
        items = [{"id": i, "ref": ref, "gen": gen} for i, gen in enumerate(gens)]
        items.append({"id": "seq", "ref": ref, "gen": gens[1], "mode": "seq"})
        fresh = [evaluate(item) for item in items]
        slices = -(-len(scan(stopped)[0]) // parser.CHECK_EVERY) + 2
        real_evaluate = service.evaluate

        def stop_mid_parse(request, **kwargs):
            if request["gen"] != stopped:
                return real_evaluate(request, **kwargs)
            calls = []

            def late(deadline):
                calls.append(deadline)
                if len(calls) > slices:
                    raise DeadlineExceeded("deadline passed")

            with monkeypatch.context() as patch:
                patch.setattr(parser, "check", late)
                return real_evaluate(request, **kwargs)

        monkeypatch.setattr(service, "evaluate", stop_mid_parse)
        first = _evaluate_batch(items, ServiceConfig())
        assert first[2]["error"] == "evaluation exceeded 5000 ms"
        assert [a for i, a in enumerate(first) if i != 2] == fresh[:2] + fresh[3:]
        ((entry, _),) = service._REFERENCES._entries.values()
        memo: dict = {}
        for item in items[:2] + items[3:]:
            evaluate(item, memo=memo)
        # the stopped parse left no node
        assert table_form(entry.table) == table_form(memo[ref].table)
        assert key(stopped) not in entry.shapes
        monkeypatch.setattr(service, "evaluate", real_evaluate)
        again = _evaluate_batch(items, ServiceConfig(timeout_ms=0))
        assert json.dumps(again) == json.dumps(fresh)
        assert again[2]["status"] == "parsed"
        assert service._REFERENCES._entries[ref][0] is entry
