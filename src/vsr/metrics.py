"""Unbiased pass@k and first-k hit rate over per-task trial outcomes."""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class TaskOutcome:
    """Boolean pass/fail results of every trial generated for one task."""

    task: str
    trials: tuple[bool, ...]

    def __post_init__(self) -> None:
        if not self.trials:
            raise ValueError(f"task {self.task!r} has no trials")

    @property
    def n(self) -> int:
        return len(self.trials)

    @property
    def c(self) -> int:
        return sum(self.trials)


def pass_at_k(n: int, c: int, k: int) -> float:
    """Unbiased estimator of P(at least one pass among k of n trials).

    Computed as 1 - C(n-c, k)/C(n, k), never through factorials: the ratio
    is the running product prod_{j<k} (n-c-j)/(n-j), or equally
    prod_{j<c} (n-k-j)/(n-j), and the shorter of the two is taken, so the
    cost is min(k, c) steps.  Requires 0 <= c <= n and 1 <= k <= n.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if not 0 <= c <= n:
        raise ValueError(f"c must be in [0, {n}], got {c}")
    if not 1 <= k <= n:
        raise ValueError(f"k must be in [1, {n}], got {k}")
    if n - c < k:
        return 1.0
    miss = 1.0
    if c < k:
        for j in range(c):
            miss *= (n - k - j) / (n - j)
    else:
        for j in range(k):
            miss *= (n - c - j) / (n - j)
    return 1.0 - miss


def aggregate_pass_at_k(outcomes: list[TaskOutcome], k: int) -> float:
    """Mean per-task pass@k; every task must have at least k trials."""
    if not outcomes:
        raise ValueError("no task outcomes given")
    for outcome in outcomes:
        if outcome.n < k:
            raise ValueError(
                f"task {outcome.task!r} has {outcome.n} trials, needs >= {k}"
            )
    return sum(pass_at_k(o.n, o.c, k) for o in outcomes) / len(outcomes)


def hit_at_k(
    outcomes: list[TaskOutcome], k: int, *, sample_seed: int | None = None
) -> float:
    """Fraction of tasks whose first k trials contain at least one pass.

    Trials are taken in stored order (the deterministic prefix rule).  Pass
    `sample_seed` to instead draw k trials per task without replacement,
    reproducibly for a given seed.
    """
    if not outcomes:
        raise ValueError("no task outcomes given")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    for outcome in outcomes:
        if outcome.n < k:
            raise ValueError(
                f"task {outcome.task!r} has {outcome.n} trials, needs >= {k}"
            )
    rng = random.Random(sample_seed) if sample_seed is not None else None
    hits = 0
    for outcome in outcomes:
        if rng is None:
            window = outcome.trials[:k]
        else:
            window = tuple(
                outcome.trials[i] for i in _draw_indices(rng, outcome.n, k)
            )
        if any(window):
            hits += 1
    return hits / len(outcomes)


def _draw_indices(rng: random.Random, n: int, k: int) -> list[int]:
    # Partial Fisher-Yates on rng.random() only, so results are stable
    # across interpreter versions.
    indices = list(range(n))
    for i in range(k):
        j = i + int(rng.random() * (n - i))
        indices[i], indices[j] = indices[j], indices[i]
    return indices[:k]


def read_outcomes(path: str | Path) -> list[TaskOutcome]:
    """Load task outcomes from JSON lines of {"task": ..., "trials": [...]}.

    Raises ValueError, with the line number, on a line that is not UTF-8,
    not JSON or not a well-formed outcome.
    """
    outcomes = []
    # As in `vsr.corpus.ingest`: undecodable bytes come through as lone
    # surrogates, so each line is checked on its own and the error names it.
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as handle:
        for lineno, line in enumerate(handle, start=1):
            try:
                line.encode("utf-8")
            except UnicodeEncodeError:
                raise ValueError(f"line {lineno}: not UTF-8 text") from None
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"line {lineno}: invalid JSON: {exc}") from exc
            if not isinstance(obj, dict):
                raise ValueError(f"line {lineno}: expected an object")
            task = obj.get("task")
            trials = obj.get("trials")
            if not isinstance(task, str) or not task:
                raise ValueError(f"line {lineno}: 'task' must be a non-empty string")
            if (
                not isinstance(trials, list)
                or not trials
                or not all(isinstance(t, bool) for t in trials)
            ):
                raise ValueError(
                    f"line {lineno}: 'trials' must be a non-empty list of booleans"
                )
            outcomes.append(TaskOutcome(task=task, trials=tuple(trials)))
    return outcomes
