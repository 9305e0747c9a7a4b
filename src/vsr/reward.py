"""Tiered reward for generated Verilog against a parsable reference.

Generated code that parses earns 10 x its structural similarity to the
reference; code-shaped text that fails to parse earns -5; text that is not
code at all earns -10.  An unparsable *reference* is a data error on the
caller's side, never a scoring tier, so it raises instead of returning.

Depth is judged the same way.  A reference whose cleaned tree is deeper
than `depth_limit` raises ReferenceTooDeepError, before the generation is
looked at.  A generation that parses but whose cleaned tree is too deep
(a long `a + a + ...` chain nests one level per operator) cannot be
scored by similarity, so it earns the parse-fail tier: status
`parse_fail`, no sim, -5.  `reward` therefore never lets a
DepthLimitError escape.  Both checks read the cleaned root's `depth`
(see `vsr.trees.CleanNode`) and do not walk either tree.

Both sides go through the scoring front end, `vsr.parser.classify_into`:
the text is lexed into token lists and parsed straight into hash-consed
CleanNodes, with no Token, span, RawNode or diagnostic made.  Its status
is the one `classify` gives, and its tree is the very object that
`clean(classify(text).ast, table)` returns with the same table.  A
reference is interned into a table of its own, and each sample into a copy
of that table.  A sample's diagnostics are never reported, so none are
made.  A reference's are, in ReferenceParseError; when a reference fails,
`classify` runs on it once more to give them, which only that error path
pays for.

In RL one reference is scored against a group of samples, so a reference
can be prepared once per batch: the caller passes the same `memo` dict to
every `reward` call of the batch, and each reference text is classified
and cleaned on its first use only.  The memo belongs to the caller and
lives as long as the caller keeps it; nothing is cached globally.

A sample whose text equals its reference text is a copy.  Once the
reference's checks have passed, a copy returns status `parsed`, sim 1.0 and
reward 10.0 in either mode without being classified, cleaned or scored.
This is the full path's answer, exactly:

- `classify_into` is a pure function of the text and the table, so the
  copy classifies as the reference did: parsed.
- Interning the copy into a copy of the reference's table finds every node
  of the reference there and returns the reference's own root, so the copy
  is not too deep either.
- Both `sim_ast` and `sim_ast_seq` score a pair `a is b` as exactly 1.0.

A `deadline` (see `vsr.deadline`) reaches every long loop of the pipeline:
lex, parse, clean and similarity.  Once it has passed, the loop running
at the time raises DeadlineExceeded and `reward` stops.  The memo only
ever receives a finished PreparedReference, so a reference whose
preparation was stopped leaves no entry and is prepared anew on its next
use.  A copy runs no loop, but it checks the deadline once, as lexing it
would have.
"""

from __future__ import annotations

from dataclasses import dataclass

from vsr.deadline import check
from vsr.parser import Diagnostic, ValidityStatus, classify, classify_into
from vsr.similarity import DEFAULT_DEPTH_LIMIT, sim_ast, sim_ast_seq
# `clean` is unused here, but the benchmark tracer rebinds vsr.reward.clean.
from vsr.trees import CleanNode, clean  # noqa: F401

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
class PreparedReference:
    """A reference classified once and, when it parsed, cleaned once.

    Only what scoring reads is kept: the reference's `status` and
    `diagnostics`, its hash-consed cleaned `tree` and the intern `table`
    that holds it; no raw parse tree is ever made.  `tree` is None and
    `table` empty when the reference did not parse; the depth limit is
    judged on `tree.depth` at each call.  Scoring interns each sample into
    a copy of `table`, so a prepared reference is never changed and can
    serve any number of samples, whatever their depth limit.
    """

    status: ValidityStatus
    diagnostics: tuple[Diagnostic, ...]
    tree: CleanNode | None
    table: dict


class ReferenceParseError(ValueError):
    """The reference source did not parse; carries its diagnostics."""

    def __init__(self, message: str, diagnostics: tuple[Diagnostic, ...]):
        super().__init__(message)
        self.diagnostics = diagnostics


class ReferenceTooDeepError(ValueError):
    """The reference parsed, but its cleaned tree exceeds the depth limit."""


def _prepare_reference(ref: str, deadline: float | None) -> PreparedReference:
    table: dict = {}
    status, tree = classify_into(ref, table, deadline=deadline)
    if tree is None:
        # The error path: the public classify gives the diagnostics.
        validity = classify(ref, deadline=deadline)
        return PreparedReference(validity.status, validity.diagnostics, None, {})
    return PreparedReference(status, (), tree, table)


def reward(
    gen: str,
    ref: str,
    *,
    mode: str = "ast",
    depth_limit: int = DEFAULT_DEPTH_LIMIT,
    memo: dict[str, PreparedReference] | None = None,
    deadline: float | None = None,
) -> RewardOutcome:
    """Score generated source `gen` against reference source `ref`.

    `mode` picks the similarity ('ast' greedy, 'seq' positional).  `memo`,
    when given, maps reference text to its prepared form: a hit skips the
    reference's lex, parse and clean, a miss fills the entry.  Outcomes are
    identical with and without it.  Raises ReferenceParseError when the
    reference itself is not parsable and ReferenceTooDeepError when it is
    deeper than `depth_limit`; a too-deep generation scores as parse_fail.
    A generation equal to the reference gets sim 1.0 without being
    classified, cleaned or compared (see the module doc).

    `deadline` is a `time.monotonic()` value, or None for none; once it has
    passed, the work stops with DeadlineExceeded (see the module doc).
    """
    if mode not in ("ast", "seq"):
        raise ValueError(f"mode must be 'ast' or 'seq', got {mode!r}")
    if depth_limit < 1:
        raise ValueError(f"depth limit must be >= 1, got {depth_limit}")
    prepared = memo.get(ref) if memo is not None else None
    if prepared is None:
        prepared = _prepare_reference(ref, deadline)
        if memo is not None:
            memo[ref] = prepared
    ref_tree = prepared.tree
    if ref_tree is None:
        diagnostics = prepared.diagnostics
        detail = diagnostics[0].message if diagnostics else "unparsable"
        raise ReferenceParseError(
            f"reference is {prepared.status.value}: {detail}", diagnostics
        )
    if ref_tree.depth > depth_limit:
        raise ReferenceTooDeepError(
            f"tree depth {ref_tree.depth} exceeds limit {depth_limit}"
        )
    if gen == ref:
        # A copy: the full path's answer, see the module doc.
        check(deadline)
        return RewardOutcome(ValidityStatus.PARSED, 1.0, REWARD_SCALE)
    # The sample is interned into a copy of the reference's table, so it
    # shares the reference's structure without adding its own nodes to the
    # prepared table.
    status, gen_tree = classify_into(gen, dict(prepared.table), deadline=deadline)
    if status is ValidityStatus.NOT_CODE:
        return RewardOutcome(status, None, REWARD_NOT_CODE)
    if gen_tree is None:
        return RewardOutcome(status, None, REWARD_PARSE_FAIL)
    if gen_tree.depth > depth_limit:
        # Too deep to score: the parse-fail tier, see the module doc.
        return RewardOutcome(ValidityStatus.PARSE_FAIL, None, REWARD_PARSE_FAIL)
    # The similarities are looked up on each call, not bound at import:
    # tracing rebinds these module globals.
    fn = sim_ast if mode == "ast" else sim_ast_seq
    sim = fn(gen_tree, ref_tree, depth_limit=depth_limit, deadline=deadline)
    return RewardOutcome(status, sim, REWARD_SCALE * sim)
