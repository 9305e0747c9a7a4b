"""Release gate: one test per shipped guarantee.

Each test here states a guarantee the package makes, checks it at its exact
tolerance, and enforces its time budget where one exists.  Run verbosely to
get one pass/fail line per guarantee:

    pytest -v tests/test_acceptance.py

These tests overlap the per-module suites on purpose; they are the single
place where every promise is checked end to end in one pass.
"""

from __future__ import annotations

import json
import random
import threading
import time
from fractions import Fraction
from http.client import HTTPConnection
from io import StringIO
from math import comb

import numpy as np
import pytest

from helpers import (
    SMALL_POOL,
    perturb_somewhere,
    permute_tree,
    random_clean_tree,
    wide_module,
)
from naive_reference import naive_sim_ast, naive_sim_ast_seq
from vsr.corpus import (
    CorpusRecord,
    DropReason,
    FilterConfig,
    MutationKind,
    MutationSpec,
    curate,
    mutate,
)
from vsr.metrics import pass_at_k
from vsr.parser import ValidityStatus, classify
from vsr.reward import ReferenceParseError, reward
from vsr.service import ServiceConfig, create_http_server, evaluate, serve_stdio
from vsr.similarity import sim_ast, sim_ast_seq
from vsr.trees import CleanNode, clean


def _clean_of(source: str):
    validity = classify(source)
    assert validity.status is ValidityStatus.PARSED, validity.diagnostics
    return clean(validity.ast)


def test_greedy_similarity_matches_naive_transcription():
    """Production sim_ast and sim_ast_seq agree bit for bit with direct
    recursive transcriptions on 240 random tree pairs (depth <= 8,
    branching <= 6) and 24 pairs with 30-60 child roots, in under 10
    seconds."""
    started = time.perf_counter()
    rng = random.Random(101)
    pairs = []
    # Depth varies per pair; 8 stays the cap because the naive oracle is
    # exponential-ish and two full-depth trees already cost real time.
    for _ in range(140):
        depth = rng.randint(3, 8)
        pairs.append(
            (
                random_clean_tree(rng, max_depth=depth, max_children=6),
                random_clean_tree(rng, max_depth=depth, max_children=6),
            )
        )
    for _ in range(50):
        base = random_clean_tree(rng, max_depth=rng.randint(3, 7), max_children=6)
        pairs.append((base, permute_tree(base, rng)))
        pairs.append((base, perturb_somewhere(base, rng)))
    # Wide roots whose children share one kind, so every row scans many
    # candidates and the matcher's pruning bound gets to fire; the narrow
    # roots above seldom have more than one candidate per row.
    for _ in range(12):
        base = CleanNode(
            SMALL_POOL[0],
            tuple(
                CleanNode(SMALL_POOL[1], random_clean_tree(rng, 4, 4).children)
                for _ in range(rng.randint(30, 60))
            ),
        )
        shuffled = permute_tree(base, rng)
        perturbed = tuple(
            perturb_somewhere(kid, rng) if rng.random() < 0.5 else kid
            for kid in shuffled.children
        )
        pairs.append((base, shuffled))
        pairs.append((base, CleanNode(base.kind, perturbed)))
    assert len(pairs) >= 200
    for a, b in pairs:
        assert sim_ast(a, b) == naive_sim_ast(a, b)
        assert sim_ast(b, a) == naive_sim_ast(b, a)
        assert sim_ast_seq(a, b) == naive_sim_ast_seq(a, b)
        assert sim_ast_seq(b, a) == naive_sim_ast_seq(b, a)
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0, f"oracle sweep took {elapsed:.2f}s, budget 10s"
    print(
        f"PASS: both similarities matched the naive transcription bitwise on "
        f"{len(pairs)} pairs in {elapsed:.2f}s"
    )


def test_reflexivity_is_exact(golden_sources):
    """sim(t, t) == 1.0 exactly, for both similarities, on every golden
    module and on 500 random trees."""
    assert len(golden_sources) >= 50
    for name, source in golden_sources.items():
        tree = _clean_of(source)
        assert sim_ast(tree, tree) == 1.0, name
        assert sim_ast_seq(tree, tree) == 1.0, name
    rng = random.Random(202)
    for _ in range(500):
        tree = random_clean_tree(rng, max_depth=8, max_children=6)
        assert sim_ast(tree, tree) == 1.0
        assert sim_ast_seq(tree, tree) == 1.0
    print(
        f"PASS: reflexivity exact on {len(golden_sources)} golden modules "
        f"and 500 random trees"
    )


def test_reordered_module_items_fixture(reordered_pair):
    """The fixture pair differing only in module-item order scores exactly
    1.0 under greedy matching and strictly below 1.0 positionally."""
    left, right = reordered_pair
    tl, tr = _clean_of(left), _clean_of(right)
    assert sim_ast(tl, tr) == 1.0
    assert sim_ast(tr, tl) == 1.0
    seq_lr = sim_ast_seq(tl, tr)
    seq_rl = sim_ast_seq(tr, tl)
    assert seq_lr < 1.0
    assert seq_rl < 1.0
    print(
        f"PASS: reordered fixture pair scored ast=1.0 both ways, "
        f"seq={seq_lr:.6f} (< 1.0)"
    )


def test_mutation_invariance_on_golden_corpus(golden_sources):
    """On every golden module: reordering items keeps sim_ast at exactly
    1.0, renaming identifiers keeps the reward at exactly 10.0, and
    rewriting constants keeps sim_ast at exactly 1.0."""
    for name, source in golden_sources.items():
        base = _clean_of(source)
        reordered = mutate(source, MutationSpec(MutationKind.REORDER_TOP_ITEMS, 11))
        assert sim_ast(_clean_of(reordered), base) == 1.0, name
        renamed = mutate(source, MutationSpec(MutationKind.RENAME_IDENTIFIERS, 12))
        outcome = reward(renamed, source)
        assert outcome.status is ValidityStatus.PARSED, name
        assert outcome.reward == 10.0, name
        rewritten = mutate(source, MutationSpec(MutationKind.REWRITE_CONSTANTS, 13))
        assert sim_ast(_clean_of(rewritten), base) == 1.0, name
    print(
        f"PASS: all three mutations metric-invariant on "
        f"{len(golden_sources)} golden modules"
    )


def test_reward_tiers_are_exact(golden_sources):
    """Prose scores exactly -10.0, code-shaped unparsable text exactly
    -5.0, parsable code exactly 10 x similarity; an unparsable reference
    raises instead of scoring."""
    ref = golden_sources["counter.v"]
    prose = "Please write a counter that wraps around at fifteen."
    outcome = reward(prose, ref)
    assert outcome.status is ValidityStatus.NOT_CODE
    assert outcome.sim is None and outcome.reward == -10.0
    broken = "module counter(input clk, output reg [3:0] q)\n  q <= 0;\nendmodule\n"
    outcome = reward(broken, ref)
    assert outcome.status is ValidityStatus.PARSE_FAIL
    assert outcome.sim is None and outcome.reward == -5.0
    outcome = reward(ref, ref)
    assert outcome.sim == 1.0 and outcome.reward == 10.0
    partial = reward(golden_sources["mux2.v"], ref)
    assert partial.sim is not None and 0.0 < partial.sim < 1.0
    assert partial.reward == 10.0 * partial.sim
    expected_sim = sim_ast(_clean_of(golden_sources["mux2.v"]), _clean_of(ref))
    assert partial.sim == expected_sim
    with pytest.raises(ReferenceParseError):
        reward(ref, prose)
    print(
        f"PASS: tiers exact (-10.0, -5.0, 10*sim with sim={partial.sim:.6f}), "
        f"unparsable reference raised"
    )


def test_pass_at_k_exact_and_monte_carlo():
    """The running-product estimator equals the exact binomial ratio to
    1e-12 for every (n <= 64, c <= n, k <= n), and a 10^6-draw sampling
    oracle agrees within 0.01 at n=20; all under 60 seconds."""
    started = time.perf_counter()
    checked = 0
    for n in range(1, 65):
        for c in range(0, n + 1):
            for k in range(1, n + 1):
                got = pass_at_k(n, c, k)
                want = 1 - Fraction(comb(n - c, k), comb(n, k))
                assert abs(got - float(want)) <= 1e-12, (n, c, k)
                checked += 1
    rng = np.random.default_rng(606)
    draws = 1_000_000
    n = 20
    worst = 0.0
    for c in (1, 5, 10):
        outcomes = np.zeros((draws, n), dtype=np.int8)
        outcomes[:, :c] = 1
        rng.permuted(outcomes, axis=1, out=outcomes)
        for k in (1, 5):
            estimate = float(outcomes[:, :k].any(axis=1).mean())
            gap = abs(estimate - pass_at_k(n, c, k))
            worst = max(worst, gap)
            assert gap < 0.01, (c, k, estimate)
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0, f"pass@k sweep took {elapsed:.2f}s, budget 60s"
    print(
        f"PASS: pass@k exact to 1e-12 on {checked} triples, Monte Carlo "
        f"within {worst:.4f} of exact, in {elapsed:.1f}s"
    )


def test_curation_counts_and_reasons(golden_sources):
    """A 20-record corpus holding 15 clean records, 3 over-length ones, and
    2 unparsable ones curates to exactly 15 kept and 5 dropped, each drop
    tagged with the right reason."""
    good_names = sorted(golden_sources)[:15]
    records = [
        CorpusRecord(name, f"implements the {name.removesuffix('.v')} block",
                     golden_sources[name])
        for name in good_names
    ]
    records.append(
        CorpusRecord("long_spec", " ".join(["requirement"] * 401),
                     golden_sources["mux2.v"])
    )
    records.append(CorpusRecord("long_code_a", "wide xor chain", wide_module(60)))
    records.append(
        CorpusRecord("long_code_b", "wider xor chain", wide_module(80, name="wider"))
    )
    records.append(
        CorpusRecord(
            "no_parse",
            "broken port list",
            "module broken(input a output y);\n  assign y = a;\nendmodule\n",
        )
    )
    records.append(
        CorpusRecord("prose", "not code at all",
                     "The design should compute parity of the input byte.")
    )
    assert len(records) == 20
    kept, dropped = curate(records, FilterConfig(max_tokens=400))
    assert len(kept) == 15 and len(dropped) == 5
    assert [r.id for r in kept] == good_names
    reasons = {d.record.id: d.reason for d in dropped}
    assert reasons == {
        "long_spec": DropReason.LENGTH,
        "long_code_a": DropReason.LENGTH,
        "long_code_b": DropReason.LENGTH,
        "no_parse": DropReason.UNPARSABLE,
        "prose": DropReason.UNPARSABLE,
    }
    details = {d.record.id: d.detail for d in dropped}
    assert "budget 400" in details["long_spec"]
    assert "budget 400" in details["long_code_a"]
    assert "parse_fail" in details["no_parse"]
    assert "not_code" in details["prose"]
    for record in kept:
        assert record.derived is not None
    print("PASS: 20-record corpus curated to 15 kept / 5 dropped with exact reasons")


def _random_requests(golden_sources, count: int) -> list[dict]:
    rng = random.Random(808)
    small = [
        source
        for _, source in sorted(golden_sources.items())
        if len(source) < 700
    ]
    assert len(small) >= 6
    mutants = [
        mutate(src, MutationSpec(MutationKind.REORDER_TOP_ITEMS, 21))
        for src in small[:4]
    ]
    broken = "module m(input a output y);\nendmodule\n"
    prose = "A natural language answer instead of code."
    requests: list[dict] = []
    for i in range(count):
        ref = rng.choice(small)
        shape = rng.randrange(10)
        if shape <= 2:
            req = {"id": i, "ref": ref, "gen": ref}
        elif shape == 3:
            idx = rng.randrange(len(mutants))
            req = {"id": i, "ref": small[idx], "gen": mutants[idx]}
        elif shape == 4:
            req = {"id": i, "ref": ref, "gen": rng.choice(small), "mode": "ast"}
        elif shape == 5:
            idx = rng.randrange(len(mutants))
            req = {"id": i, "ref": small[idx], "gen": mutants[idx], "mode": "seq"}
        elif shape == 6:
            req = {"id": str(i), "ref": ref, "gen": broken}
        elif shape == 7:
            req = {"id": i, "ref": ref, "gen": prose}
        elif shape == 8:
            req = {"id": i, "ref": prose, "gen": ref}
        else:
            req = rng.choice(
                [
                    {"id": i, "ref": ref},
                    {"id": i, "gen": ref},
                    {"id": i, "ref": 7, "gen": ref},
                    {"id": i, "ref": ref, "gen": ref, "mode": "fuzzy"},
                    {"ref": ref, "gen": ref, "mode": "seq"},
                ]
            )
        requests.append(req)
    return requests


def test_service_transports_agree_with_library(golden_sources):
    """1000 randomized requests produce byte-identical responses from the
    library, the stdio loop, and the HTTP endpoint; a 64-element batch of
    100-line modules finishes in under 2 seconds."""
    requests = _random_requests(golden_sources, 1000)
    library = [json.dumps(evaluate(req)) for req in requests]

    stdin = StringIO("".join(json.dumps(req) + "\n" for req in requests))
    stdout = StringIO()
    serve_stdio(stdin, stdout, config=ServiceConfig())
    stdio_lines = stdout.getvalue().splitlines()
    assert stdio_lines == library

    server = create_http_server("127.0.0.1", 0, ServiceConfig())
    port = server.server_address[1]
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        conn = HTTPConnection("127.0.0.1", port, timeout=30)
        http_bodies = []
        for req in requests:
            conn.request(
                "POST",
                "/v1/reward",
                body=json.dumps(req).encode("utf-8"),
                headers={"Content-Type": "application/json"},
            )
            resp = conn.getresponse()
            assert resp.status == 200
            http_bodies.append(resp.read().decode("utf-8"))
        assert http_bodies == library
        assert http_bodies == stdio_lines

        module = wide_module(48, name="batch_mod")
        shuffled = mutate(module, MutationSpec(MutationKind.REORDER_TOP_ITEMS, 5))
        batch = [
            {"id": i, "ref": module, "gen": shuffled if i % 2 else module}
            for i in range(64)
        ]
        assert module.count("\n") == 100
        payload = json.dumps(batch).encode("utf-8")
        started = time.perf_counter()
        conn.request(
            "POST",
            "/v1/reward/batch",
            body=payload,
            headers={"Content-Type": "application/json"},
        )
        resp = conn.getresponse()
        body = resp.read()
        elapsed = time.perf_counter() - started
        assert resp.status == 200
        results = json.loads(body)
        assert [r["reward"] for r in results] == [10.0] * 64
        assert elapsed < 2.0, f"batch took {elapsed:.2f}s, budget 2s"
        conn.close()
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)
    print(
        f"PASS: 1000 requests byte-identical across library/stdio/HTTP, "
        f"64-module batch in {elapsed:.2f}s"
    )


def test_classification_is_total_on_random_bytes():
    """classify never raises on 10,000 random byte strings and always
    returns one of the three statuses."""
    rng = random.Random(909)
    seen: set[ValidityStatus] = set()
    for i in range(10_000):
        blob = rng.randbytes(rng.randrange(0, 201))
        if i % 10 == 0:
            # Splice in the keywords so the parser path gets fuzzed too,
            # not only the is-this-code gate.
            blob = b"module " + blob + b" endmodule"
        text = blob.decode("latin-1") if i % 2 else blob.decode("utf-8", "replace")
        validity = classify(text)
        assert isinstance(validity.status, ValidityStatus)
        seen.add(validity.status)
    assert seen <= {
        ValidityStatus.PARSED,
        ValidityStatus.PARSE_FAIL,
        ValidityStatus.NOT_CODE,
    }
    names = ", ".join(sorted(s.value for s in seen))
    print(f"PASS: classify total on 10,000 random byte strings (saw: {names})")
