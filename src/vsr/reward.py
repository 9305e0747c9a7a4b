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

Both sides go through the scoring front end, `vsr.lexer.scan` and then
`vsr.parser.classify_lists_into`: the text is lexed into token lists and
parsed straight into hash-consed CleanNodes, with no Token, span, RawNode
or diagnostic made.  Its status is the one `classify` gives, and its tree
is the very object that `clean(classify(text).ast, table)` returns with the
same table.  A reference is interned into a table of its own, T, and each
sample scored against it into T too.  A sample's diagnostics are never
reported, so none are made.  A reference's are, in ReferenceParseError;
when a reference fails, `classify` runs on it once more to give them, which
only that error path pays for.

In RL one reference is scored against a group of samples, so a reference
can be prepared once per batch: the caller passes the same `memo` dict to
every `reward` call of the batch, and each reference text is classified
and cleaned on its first use only.  The memo belongs to the caller and
lives as long as the caller keeps it; this module caches nothing.
`vsr.service` keeps the entries of its batch memos across batches.

Many samples of a group are the same code up to names and constants, which
`clean` drops.  So with a memo, each prepared reference also keeps two
memos of the samples scored against it: `shapes` maps a sample's token
shape (`vsr.parser.shape`: its tokens with each name, number, string and
directive text replaced by its kind) to its status and tree, and `sims`
maps a tree and a mode to its similarity.  The reference's own shape is
entered when it is prepared.  A sample whose shape is there is lexed but
not parsed: it runs only `scan` and `shape`, and no token kind is derived
for it.  One whose tree was already scored in its mode is not scored
again.  Without a memo no shape is computed.

A sample whose text equals its reference text is a copy.  Once the
reference's checks have passed, a copy returns status `parsed`, sim 1.0 and
reward 10.0 in either mode without being classified, cleaned or scored.

Copies and memo hits give the full path's answer, exactly.  The full path
prepares the reference with no memo, parses the sample into its table and
scores that tree.

1. Token lists of one shape get one status and, when parsed, equal trees,
   whatever table they are parsed into (see `vsr.parser.shape`).  So a
   shape hit's status and tree equal the full path's, and since depth is
   structural, so does the outcome of every depth check.
2. T never drops a key that a kept tree uses: only a parse that fails or
   is stopped drops keys, and only those it added itself.  So the
   reference's shape parsed into T finds the reference's root.  A copy
   has that shape, so it parses, and it is exactly as deep as the
   reference, which has passed its check.
3. `sim_ast` and `sim_ast_seq` are functions of the two trees' structure:
   sharing is only a shortcut (see `vsr.similarity`), and the depth limit
   only bounds what they accept.  So the sim of an equal tree, and the sim
   kept for this very tree in this mode, are the full path's.  By the
   shortcut, a pair `a is b` scores exactly 1.0, which is a copy's sim.

The depth checks read the tree's depth at every call, hit or not, so one
shape can be scored under one limit and too deep under another.  `sims` is
keyed on a tree's id: T holds every tree that parsed into it, so no id is
reused while the entry lives.

A `deadline` (see `vsr.deadline`) reaches every long loop of the pipeline:
lex, parse, clean and similarity.  Once it has passed, the loop running
at the time raises DeadlineExceeded and `reward` stops.  The memos only
ever receive finished results: a PreparedReference, a status and tree, a
sim.  So work that was stopped leaves no entry and is done anew on its next
use.  A parse that fails or is stopped leaves T exactly as it was (see
`vsr.parser.classify_lists_into`), so it keeps no node and changes no
later result.  A copy or a shape hit runs no parse loop, but checks the
deadline once, as the parse would have.
"""

from __future__ import annotations

from dataclasses import dataclass

from vsr.deadline import check
from vsr.lexer import LexError, scan
from vsr.parser import (
    Diagnostic,
    ValidityStatus,
    classify,
    classify_lists_into,
    shape,
)
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
    `table`, which grows; `status`, `diagnostics` and `tree` stay fixed, so
    it can serve any number of samples, whatever their depth limit.

    `shapes` and `sims` are the memos of the samples scored against it
    (see the module doc).  Only a reference kept in a caller's memo serves
    more than one sample, so only there are they read again; `shapes` is
    filled only there.
    """

    status: ValidityStatus
    diagnostics: tuple[Diagnostic, ...]
    tree: CleanNode | None
    table: dict
    shapes: dict
    sims: dict


class ReferenceParseError(ValueError):
    """The reference source did not parse; carries its diagnostics."""

    def __init__(self, message: str, diagnostics: tuple[Diagnostic, ...]):
        super().__init__(message)
        self.diagnostics = diagnostics


class ReferenceTooDeepError(ValueError):
    """The reference parsed, but its cleaned tree exceeds the depth limit."""


def _classify(text: str, table: dict, shapes: dict | None, deadline: float | None):
    """The status of `text` and, when parsed, its tree in `table`.

    A text that does not lex is not code.  When `shapes` is a dict, a text
    whose shape is there gets that entry after one deadline check, and any
    other is parsed and its result entered (see the module doc).
    """
    try:
        texts, _ = scan(text, deadline)
    except LexError:
        return ValidityStatus.NOT_CODE, None
    if shapes is None:
        return classify_lists_into(texts, table, deadline=deadline)
    key = shape(texts, deadline)
    found = shapes.get(key)
    if found is None:
        found = shapes[key] = classify_lists_into(texts, table, deadline=deadline)
    else:
        check(deadline)
    return found


def _prepare_reference(
    ref: str, deadline: float | None, batch: bool
) -> PreparedReference:
    table: dict = {}
    shapes: dict = {}
    status, tree = _classify(ref, table, shapes if batch else None, deadline)
    if tree is None:
        # The error path: the public classify gives the diagnostics.
        validity = classify(ref, deadline=deadline)
        return PreparedReference(validity.status, validity.diagnostics, None, {}, {}, {})
    return PreparedReference(status, (), tree, table, shapes, {})


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
    reference's lex, parse and clean, a miss fills the entry, and a sample
    of a shape or tree already scored against that reference skips its
    parse or its similarity.  Outcomes are identical with and without it.
    Raises ReferenceParseError when the reference itself is not parsable
    and ReferenceTooDeepError when it is deeper than `depth_limit`; a
    too-deep generation scores as parse_fail.
    A generation equal to the reference gets sim 1.0 without being
    classified, cleaned or compared (see the module doc).

    `deadline` is a `time.monotonic()` value, or None for none; once it has
    passed, the work stops with DeadlineExceeded (see the module doc).
    """
    if mode not in ("ast", "seq"):
        raise ValueError(f"mode must be 'ast' or 'seq', got {mode!r}")
    if depth_limit < 1:
        raise ValueError(f"depth limit must be >= 1, got {depth_limit}")
    batch = memo is not None
    prepared = memo.get(ref) if batch else None
    if prepared is None:
        prepared = _prepare_reference(ref, deadline, batch)
        if batch:
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
    status, gen_tree = _classify(
        gen, prepared.table, prepared.shapes if batch else None, deadline
    )
    if status is ValidityStatus.NOT_CODE:
        return RewardOutcome(status, None, REWARD_NOT_CODE)
    if gen_tree is None:
        return RewardOutcome(status, None, REWARD_PARSE_FAIL)
    if gen_tree.depth > depth_limit:
        # Too deep to score: the parse-fail tier, see the module doc.
        return RewardOutcome(ValidityStatus.PARSE_FAIL, None, REWARD_PARSE_FAIL)
    key = (id(gen_tree), mode)
    sim = prepared.sims.get(key)
    if sim is None:
        # The similarities are looked up on each call, not bound at import:
        # tracing rebinds these module globals.
        fn = sim_ast if mode == "ast" else sim_ast_seq
        sim = prepared.sims[key] = fn(
            gen_tree, ref_tree, depth_limit=depth_limit, deadline=deadline
        )
    return RewardOutcome(status, sim, REWARD_SCALE * sim)
