import json
import random

import pytest

from helpers import wide_module
from vsr import corpus
from vsr.lexer import lex
from vsr.corpus import (
    CorpusFormatError,
    CorpusRecord,
    DropReason,
    FilterConfig,
    MutationError,
    MutationKind,
    MutationSpec,
    corpus_stats,
    curate,
    ingest,
    mutate,
)
from vsr.parser import classify
from vsr.printer import PrintError, pretty_print
from vsr.similarity import sim_ast
from vsr.trees import NodeKind, clean, clone_raw, iter_tree

GOOD = "module m(input a, output y);\n  wire t;\n  assign t = a;\n  assign y = t ^ 1'b1;\nendmodule"


def write_jsonl(path, rows):
    path.write_text("".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")


class TestIngest:
    def test_reads_in_order(self, tmp_path):
        path = tmp_path / "c.jsonl"
        write_jsonl(
            path,
            [
                {"id": "b", "spec": "two", "code": GOOD},
                {"id": "a", "spec": "one", "code": GOOD},
            ],
        )
        records = ingest(path)
        assert [r.id for r in records] == ["b", "a"]
        assert records[0].spec_text == "two"
        assert records[0].ref_code == GOOD

    @pytest.mark.parametrize(
        "rows,fragment",
        [
            (["{broken"], "line 1: invalid JSON"),
            (['"just a string"'], "line 1: expected an object"),
            (['{"id": "x", "spec": "s"}'], "line 1: missing or non-string field 'code'"),
            (['{"id": 5, "spec": "s", "code": "c"}'], "line 1: missing or non-string field 'id'"),
            (['{"id": "", "spec": "s", "code": "c"}'], "line 1: empty id"),
        ],
    )
    def test_shape_errors(self, tmp_path, rows, fragment):
        path = tmp_path / "bad.jsonl"
        path.write_text("\n".join(rows) + "\n", encoding="utf-8")
        with pytest.raises(CorpusFormatError) as err:
            ingest(path)
        assert fragment in str(err.value)

    def test_duplicate_id(self, tmp_path):
        path = tmp_path / "dup.jsonl"
        write_jsonl(
            path,
            [
                {"id": "x", "spec": "a", "code": GOOD},
                {"id": "x", "spec": "b", "code": GOOD},
            ],
        )
        with pytest.raises(CorpusFormatError, match="line 2: duplicate id"):
            ingest(path)

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "gaps.jsonl"
        path.write_text(
            '\n{"id": "x", "spec": "s", "code": %s}\n\n' % json.dumps(GOOD)
        )
        assert len(ingest(path)) == 1


class TestCurate:
    def test_keeps_and_annotates(self):
        records = [CorpusRecord("r1", "make a wire", GOOD)]
        kept, dropped = curate(records)
        assert not dropped
        (rec,) = kept
        assert rec.derived is not None
        assert rec.derived.spec_token_count == 3
        # default tokenizer counts lexer tokens, not whitespace words
        assert rec.derived.code_token_count == len(lex(GOOD))
        assert rec.derived.code_token_count != len(GOOD.split())
        assert rec.derived.tree.node_count > 10

    def test_drop_reasons_and_order(self):
        long_spec = " ".join(["word"] * 50)
        records = [
            CorpusRecord("spec_long", long_spec, GOOD),
            CorpusRecord("code_long", "ok", wide_module(30)),
            CorpusRecord("no_lex", "ok", 'module m; initial $display("x); endmodule'),
            CorpusRecord("no_parse", "ok", "module m(input a; endmodule"),
            CorpusRecord("prose", "ok", "here is your module, enjoy"),
            CorpusRecord("fine", "ok", GOOD),
        ]
        # spec-length check must fire before anything is lexed
        records[0] = CorpusRecord("spec_long", long_spec, "also } not ` code")
        kept, dropped = curate(records, FilterConfig(max_tokens=40))
        assert [r.id for r in kept] == ["fine"]
        reasons = {d.record.id: d.reason for d in dropped}
        assert reasons == {
            "spec_long": DropReason.LENGTH,
            "code_long": DropReason.LENGTH,
            "no_lex": DropReason.UNPARSABLE,
            "no_parse": DropReason.UNPARSABLE,
            "prose": DropReason.UNPARSABLE,
        }
        details = {d.record.id: d.detail for d in dropped}
        assert "budget 40" in details["spec_long"]
        assert "does not lex" in details["no_lex"]
        assert "parse_fail" in details["no_parse"]
        assert "not_code" in details["prose"]

    def test_idempotent_on_kept(self):
        records = [CorpusRecord("r", "short spec", GOOD)]
        kept, _ = curate(records)
        again, dropped = curate(kept)
        assert not dropped
        assert again == kept

    def test_whitespace_tokenizer(self):
        code = "module m ( input a , output y ) ; assign y = a ; endmodule"
        cfg = FilterConfig(max_tokens=20, tokenizer="whitespace")
        kept, dropped = curate([CorpusRecord("w", "s", code)], cfg)
        assert kept and kept[0].derived.code_token_count == len(code.split())

    def test_config_validation(self):
        with pytest.raises(ValueError):
            FilterConfig(max_tokens=0)
        with pytest.raises(ValueError):
            FilterConfig(tokenizer="bytes")


class TestStats:
    def test_table_values(self):
        a = CorpusRecord("a", "one two", GOOD)
        b = CorpusRecord("b", "one two three four", GOOD)
        kept, _ = curate([a, b])
        table = corpus_stats(kept)
        assert table["spec_tokens"] == {"min": 2.0, "mean": 3.0, "max": 4.0}
        assert table["depth"]["min"] == table["depth"]["max"]  # same code
        assert set(table) == {
            "spec_tokens",
            "code_tokens",
            "depth",
            "node_count",
            "mean_branching",
        }

    def test_requires_curated_records(self):
        with pytest.raises(ValueError, match="not curated"):
            corpus_stats([CorpusRecord("x", "s", GOOD)])
        with pytest.raises(ValueError):
            corpus_stats([])


MUTATORS = {
    MutationKind.REORDER_TOP_ITEMS: corpus._reorder_top_items,
    MutationKind.RENAME_IDENTIFIERS: corpus._rename_identifiers,
    MutationKind.REWRITE_CONSTANTS: corpus._rewrite_constants,
}


def mutate_a_copy(code, spec):
    """`mutate` as it was when it edited a copy of the parsed tree."""
    unit = clone_raw(classify(code).ast)
    try:
        MUTATORS[spec.kind](unit, random.Random(spec.seed))
        return pretty_print(unit)
    except (MutationError, PrintError):
        return None


class TestMutations:
    @pytest.mark.parametrize("kind", list(MutationKind))
    def test_output_equals_mutating_a_copy(self, kind, golden_sources):
        # `mutate` edits the tree `classify` built for it, in place
        for src in golden_sources.values():
            for seed in (0, 1, 31, 2024):
                spec = MutationSpec(kind, seed)
                try:
                    got = mutate(src, spec)
                except MutationError:
                    got = None
                assert got == mutate_a_copy(src, spec)

    def test_deterministic(self, golden_sources):
        src = golden_sources["fifo_sync.v"]
        for kind in MutationKind:
            spec = MutationSpec(kind, seed=123)
            assert mutate(src, spec) == mutate(src, spec)

    def test_seed_changes_output(self, golden_sources):
        src = golden_sources["fifo_sync.v"]
        outputs = {
            mutate(src, MutationSpec(MutationKind.RENAME_IDENTIFIERS, seed=s))
            for s in range(4)
        }
        assert len(outputs) > 1

    def test_reorder_permutes_module_items(self, golden_sources):
        src = golden_sources["popcount.v"]
        base = classify(src).ast
        for seed in range(6):
            out = mutate(src, MutationSpec(MutationKind.REORDER_TOP_ITEMS, seed))
            got = classify(out)
            assert got.is_parsed
            assert sim_ast(clean(got.ast), clean(base)) == 1.0

    def test_rename_keeps_structure_and_foreign_names(self):
        src = (
            "module top(input d, output q);\n"
            "    wire mid;\n"
            "    stage #(.GAIN(2)) u0 (.din(d), .dout(mid));\n"
            "    assign q = mid;\n"
            "endmodule\n"
            "module stage #(parameter GAIN = 1) (input din, output dout);\n"
            "    assign dout = din;\n"
            "endmodule"
        )
        out = mutate(src, MutationSpec(MutationKind.RENAME_IDENTIFIERS, seed=9))
        got = classify(out)
        assert got.is_parsed
        assert clean(got.ast) == clean(classify(src).ast)
        inst = next(
            n for n in iter_tree(got.ast) if n.kind is NodeKind.INSTANCE
        )
        assert inst.value == "stage"  # module type name untouched
        conn_names = {
            n.name for n in iter_tree(got.ast) if n.kind is NodeKind.PORT_CONN
        }
        assert conn_names == {"GAIN", "din", "dout"}  # .port() names untouched
        assert "wire mid;" not in out  # the local net did get renamed

    def test_constants_preserve_literal_shape(self):
        src = (
            "module c(output [7:0] a, output [7:0] b, output [3:0] p);\n"
            "    assign a = 8'hA5;\n"
            "    assign b = 8'b1010_0101;\n"
            "    assign p = 4'bxx01;\n"
            "endmodule"
        )
        out = mutate(src, MutationSpec(MutationKind.REWRITE_CONSTANTS, seed=2))
        got = classify(out)
        assert got.is_parsed
        assert clean(got.ast) == clean(classify(src).ast)
        assert "8'h" in out
        assert "8'b" in out
        assert "4'bxx01" in out  # x/z literals are left alone

    def test_kind_multiset_is_invariant(self, golden_source):
        base = classify(golden_source).ast
        base_kinds = sorted(n.kind.value for n in iter_tree(base))
        for kind in MutationKind:
            out = mutate(golden_source, MutationSpec(kind, seed=31))
            got = classify(out).ast
            assert sorted(n.kind.value for n in iter_tree(got)) == base_kinds

    def test_infeasible_inputs_raise(self):
        with pytest.raises(MutationError, match="not_code"):
            mutate("hello", MutationSpec(MutationKind.REORDER_TOP_ITEMS, 0))
        single_item = "module m(input a, output y); assign y = a; endmodule"
        with pytest.raises(MutationError, match="reorderable"):
            mutate(single_item, MutationSpec(MutationKind.REORDER_TOP_ITEMS, 0))
        nameless = 'module m;\n    initial $display("x");\n    initial $display("y");\nendmodule'
        with pytest.raises(MutationError, match="identifiers"):
            mutate(nameless, MutationSpec(MutationKind.RENAME_IDENTIFIERS, 0))
        no_consts = "module m(input a, output y);\n    wire t;\n    assign t = a;\n    assign y = t;\nendmodule"
        with pytest.raises(MutationError, match="constants"):
            mutate(no_consts, MutationSpec(MutationKind.REWRITE_CONSTANTS, 0))

    @pytest.mark.parametrize("kind", list(MutationKind))
    def test_long_operator_chain_raises_mutation_error(self, kind):
        # The parser reads the chain in a loop, so the tree is 600 deep;
        # no mutation may fail with a bare RecursionError.
        chain = (
            "module m(input a, output y);\n  assign y = "
            + " + ".join(["a"] * 600)
            + ";\nendmodule\n"
        )
        with pytest.raises(MutationError) as err:
            mutate(chain, MutationSpec(kind, seed=1))
        if kind is MutationKind.RENAME_IDENTIFIERS:
            assert "too deep to print" in str(err.value)
