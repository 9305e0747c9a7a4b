"""Tiered reward for generated Verilog against a parsable reference.

Generated code that parses earns 10 x its structural similarity to the
reference; code-shaped text that fails to parse earns -5; text that is not
code at all earns -10.  An unparsable *reference* is a data error on the
caller's side, never a scoring tier, so it raises instead of returning.
"""

from __future__ import annotations

from dataclasses import dataclass

from vsr.parser import Diagnostic, ValidityStatus, classify
from vsr.similarity import DEFAULT_DEPTH_LIMIT, sim_ast, sim_ast_seq
from vsr.trees import clean

REWARD_SCALE = 10.0
REWARD_PARSE_FAIL = -5.0
REWARD_NOT_CODE = -10.0


@dataclass(frozen=True)
class RewardOutcome:
    """Scoring result for one generated source.

    `status` classifies the generated code; `sim` is present only when it
    parsed, and then `reward` is exactly REWARD_SCALE * sim.
    """

    status: ValidityStatus
    sim: float | None
    reward: float


@dataclass(frozen=True)
class ReferenceFailure:
    """Per-element marker used by reward_batch for unusable references."""

    message: str


class ReferenceParseError(ValueError):
    """The reference source did not parse; carries its diagnostics."""

    def __init__(self, message: str, diagnostics: tuple[Diagnostic, ...]):
        super().__init__(message)
        self.diagnostics = diagnostics


def reward(
    gen: str,
    ref: str,
    *,
    mode: str = "ast",
    depth_limit: int = DEFAULT_DEPTH_LIMIT,
) -> RewardOutcome:
    """Score generated source `gen` against reference source `ref`.

    `mode` picks the similarity ('ast' greedy, 'seq' positional).  Raises
    ReferenceParseError when the reference itself is not parsable.
    """
    if mode not in ("ast", "seq"):
        raise ValueError(f"mode must be 'ast' or 'seq', got {mode!r}")
    ref_v = classify(ref)
    if not ref_v.is_parsed:
        detail = ref_v.diagnostics[0].message if ref_v.diagnostics else "unparsable"
        raise ReferenceParseError(
            f"reference is {ref_v.status.value}: {detail}", ref_v.diagnostics
        )
    gen_v = classify(gen)
    if gen_v.status is ValidityStatus.NOT_CODE:
        return RewardOutcome(gen_v.status, None, REWARD_NOT_CODE)
    if gen_v.status is ValidityStatus.PARSE_FAIL:
        return RewardOutcome(gen_v.status, None, REWARD_PARSE_FAIL)
    assert gen_v.ast is not None and ref_v.ast is not None
    fn = sim_ast if mode == "ast" else sim_ast_seq
    table: dict = {}  # one per pair: equal structure on both sides is shared
    sim = fn(clean(gen_v.ast, table), clean(ref_v.ast, table), depth_limit=depth_limit)
    return RewardOutcome(gen_v.status, sim, REWARD_SCALE * sim)


def reward_batch(
    pairs,
    *,
    mode: str = "ast",
    depth_limit: int = DEFAULT_DEPTH_LIMIT,
) -> list[RewardOutcome | ReferenceFailure]:
    """Score (gen, ref) pairs element-wise.

    Equivalent to mapping `reward` over the list, except that an unparsable
    reference yields a ReferenceFailure marker in its slot instead of
    poisoning the whole batch.  Output order matches input order.
    """
    results: list[RewardOutcome | ReferenceFailure] = []
    for gen, ref in pairs:
        try:
            results.append(reward(gen, ref, mode=mode, depth_limit=depth_limit))
        except ReferenceParseError as exc:
            results.append(ReferenceFailure(str(exc)))
    return results
