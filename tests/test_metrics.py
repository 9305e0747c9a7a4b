import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vsr.metrics import (
    TaskOutcome,
    aggregate_pass_at_k,
    hit_at_k,
    pass_at_k,
    read_outcomes,
)


def comb_oracle(n, c, k):
    # direct definition: 1 - C(n-c, k) / C(n, k)
    return 1.0 - math.comb(n - c, k) / math.comb(n, k)


class TestPassAtK:
    @pytest.mark.parametrize(
        "n,c,k,expected",
        [
            (10, 3, 1, 0.3),
            (10, 3, 5, float(1 - Fraction(math.comb(7, 5), math.comb(10, 5)))),
            (1, 0, 1, 0.0),
            (1, 1, 1, 1.0),
            (64, 64, 64, 1.0),
            (64, 0, 64, 0.0),
            (8, 1, 8, 1.0),  # n - c < k forces a hit
        ],
    )
    def test_known_values(self, n, c, k, expected):
        assert pass_at_k(n, c, k) == pytest.approx(expected, abs=1e-15)

    def test_early_exit_is_exact_one(self):
        assert pass_at_k(8, 1, 8) == 1.0
        assert pass_at_k(50, 30, 25) == 1.0

    @given(
        st.integers(1, 80).flatmap(
            lambda n: st.tuples(
                st.just(n), st.integers(0, n), st.integers(1, n)
            )
        )
    )
    def test_matches_comb_oracle(self, nck):
        n, c, k = nck
        assert pass_at_k(n, c, k) == pytest.approx(comb_oracle(n, c, k), abs=1e-12)

    @given(
        st.integers(2, 60).flatmap(
            lambda n: st.tuples(st.just(n), st.integers(0, n), st.integers(1, n - 1))
        )
    )
    def test_monotone_in_k(self, nck):
        n, c, k = nck
        assert pass_at_k(n, c, k) <= pass_at_k(n, c, k + 1) + 1e-15

    @given(
        st.integers(1, 60).flatmap(
            lambda n: st.tuples(st.just(n), st.integers(0, n - 1), st.integers(1, n))
        )
    )
    def test_monotone_in_c(self, nck):
        n, c, k = nck
        assert pass_at_k(n, c, k) <= pass_at_k(n, c + 1, k) + 1e-15

    @pytest.mark.parametrize("n,c,k", [(0, 0, 1), (5, 6, 1), (5, -1, 1), (5, 2, 0), (5, 2, 6)])
    def test_domain_errors(self, n, c, k):
        with pytest.raises(ValueError):
            pass_at_k(n, c, k)


class TestAggregate:
    def test_mean_over_tasks(self):
        outcomes = [
            TaskOutcome("a", (True, False)),
            TaskOutcome("b", (False, False)),
        ]
        assert aggregate_pass_at_k(outcomes, 1) == pytest.approx(0.25)
        assert aggregate_pass_at_k(outcomes, 2) == pytest.approx(0.5)

    def test_requires_enough_trials(self):
        with pytest.raises(ValueError, match="needs"):
            aggregate_pass_at_k([TaskOutcome("a", (True,))], 2)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            aggregate_pass_at_k([], 1)


class TestHitAtK:
    def test_prefix_rule(self):
        outcomes = [
            TaskOutcome("a", (False, True, False)),  # no hit in first 1
            TaskOutcome("b", (True, False, False)),
        ]
        assert hit_at_k(outcomes, 1) == 0.5
        assert hit_at_k(outcomes, 2) == 1.0

    def test_seeded_resample_is_reproducible(self):
        outcomes = [TaskOutcome("a", tuple(i == 7 for i in range(10)))]
        values = {hit_at_k(outcomes, 3, sample_seed=s) for s in range(40)}
        assert values == {0.0, 1.0}  # the lone pass is sometimes drawn
        for s in (0, 1, 17):
            assert hit_at_k(outcomes, 3, sample_seed=s) == hit_at_k(
                outcomes, 3, sample_seed=s
            )

    def test_validation(self):
        with pytest.raises(ValueError):
            hit_at_k([], 1)
        with pytest.raises(ValueError):
            hit_at_k([TaskOutcome("a", (True,))], 2)
        with pytest.raises(ValueError):
            hit_at_k([TaskOutcome("a", (True,))], 0)


class TestTaskOutcome:
    def test_counts(self):
        t = TaskOutcome("x", (True, False, True))
        assert (t.n, t.c) == (3, 2)

    def test_empty_trials_rejected(self):
        with pytest.raises(ValueError):
            TaskOutcome("x", ())


class TestReadOutcomes:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "runs.jsonl"
        path.write_text(
            '{"task": "t1", "trials": [true, false]}\n'
            "\n"
            '{"task": "t2", "trials": [false]}\n'
        )
        outcomes = read_outcomes(path)
        assert [o.task for o in outcomes] == ["t1", "t2"]
        assert outcomes[0].trials == (True, False)

    @pytest.mark.parametrize(
        "line,fragment",
        [
            ("not json", "line 1: invalid JSON"),
            ("[1, 2]", "line 1: expected an object"),
            ('{"task": "", "trials": [true]}', "non-empty string"),
            ('{"task": "t", "trials": []}', "non-empty list"),
            ('{"task": "t", "trials": [1]}', "booleans"),
            ('{"trials": [true]}', "'task'"),
        ],
    )
    def test_errors_name_the_line(self, tmp_path, line, fragment):
        path = tmp_path / "bad.jsonl"
        path.write_text(line + "\n")
        with pytest.raises(ValueError, match="line 1"):
            try:
                read_outcomes(path)
            except ValueError as exc:
                assert fragment in str(exc)
                raise

    def test_error_on_second_line(self, tmp_path):
        path = tmp_path / "bad2.jsonl"
        path.write_text('{"task": "ok", "trials": [true]}\n{"task": 3}\n')
        with pytest.raises(ValueError, match="line 2"):
            read_outcomes(path)

    def test_non_utf8_line_is_named(self, tmp_path):
        # Far enough in that the decoder reads it in a later buffer, whose
        # offsets say nothing about the file's lines.
        path = tmp_path / "bytes.jsonl"
        good = b'{"task": "ok", "trials": [true]}\n'
        path.write_bytes(good * 3000 + b'{"task": "\xff", "trials": [true]}\n')
        with pytest.raises(ValueError) as info:
            read_outcomes(path)
        assert str(info.value) == "line 3001: not UTF-8 text"
