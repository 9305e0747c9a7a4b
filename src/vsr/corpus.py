"""Spec/code corpus handling: ingest, length+parse filtering, statistics,
and structure-preserving code mutations.

The on-disk form is UTF-8 JSON lines, one record per line:

    {"id": "...", "spec": "...", "code": "..."}

Curation drops records whose spec or code is longer than the token budget
and records whose code does not parse, and attaches derived statistics to
everything it keeps.  Mutations rewrite a parsed file's tree (reordering
module items, renaming declared identifiers, or rewriting constants) and
re-print it; they exist to probe metric invariance, so every mutation
preserves the cleaned tree's node-kind multiset.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, replace
from enum import Enum
from pathlib import Path

from vsr.lexer import KEYWORDS, LexError, scan
# `lex` is unused here, but the benchmark tracer rebinds vsr.corpus.lex.
from vsr.lexer import lex  # noqa: F401
from vsr.parser import ValidityStatus, classify
from vsr.printer import PrintError, pretty_print
from vsr.trees import (
    DECL_KINDS,
    PORT_KINDS,
    NodeKind,
    RawNode,
    TreeStats,
    clean,  # noqa: F401  importable here: the benchmark tracer rebinds vsr.corpus.clean
    iter_tree,
    tree_stats,
)


class CorpusFormatError(ValueError):
    """Malformed corpus file; message names the offending line."""


class MutationError(ValueError):
    """Mutation cannot apply to this input (unparsable or nothing to edit)."""


@dataclass(frozen=True)
class RecordStats:
    spec_token_count: int
    code_token_count: int
    tree: TreeStats


@dataclass(frozen=True)
class CorpusRecord:
    id: str
    spec_text: str
    ref_code: str
    derived: RecordStats | None = None


@dataclass(frozen=True)
class FilterConfig:
    """Curation knobs.

    `tokenizer` selects how code length is counted: 'lexical' counts lexer
    tokens, 'whitespace' counts blank-separated words.  Spec text is always
    counted by whitespace words, since prose does not lex.
    """

    max_tokens: int = 4096
    tokenizer: str = "lexical"

    def __post_init__(self) -> None:
        if self.max_tokens < 1:
            raise ValueError(f"max_tokens must be >= 1, got {self.max_tokens}")
        if self.tokenizer not in ("lexical", "whitespace"):
            raise ValueError(
                f"tokenizer must be 'lexical' or 'whitespace', got {self.tokenizer!r}"
            )


class DropReason(Enum):
    LENGTH = "length"
    UNPARSABLE = "unparsable"


@dataclass(frozen=True)
class DroppedRecord:
    record: CorpusRecord
    reason: DropReason
    detail: str


class MutationKind(Enum):
    REORDER_TOP_ITEMS = "reorder"
    RENAME_IDENTIFIERS = "rename"
    REWRITE_CONSTANTS = "constants"


@dataclass(frozen=True)
class MutationSpec:
    kind: MutationKind
    seed: int


# ---- Ingest and curation ----


def ingest(path: str | Path) -> list[CorpusRecord]:
    """Read a JSONL corpus in file order, validating shape and id uniqueness.

    Raises CorpusFormatError, with the line number, on a line that is not
    UTF-8, not JSON or not a well-formed record.
    """
    records: list[CorpusRecord] = []
    seen_ids: set[str] = set()
    # Undecodable bytes come through as lone surrogates, which UTF-8 cannot
    # encode, so each line is checked on its own and the error names it.
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as handle:
        for lineno, line in enumerate(handle, start=1):
            try:
                line.encode("utf-8")
            except UnicodeEncodeError:
                raise CorpusFormatError(f"line {lineno}: not UTF-8 text") from None
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise CorpusFormatError(f"line {lineno}: invalid JSON: {exc}") from exc
            if not isinstance(obj, dict):
                raise CorpusFormatError(f"line {lineno}: expected an object")
            for field in ("id", "spec", "code"):
                if not isinstance(obj.get(field), str):
                    raise CorpusFormatError(
                        f"line {lineno}: missing or non-string field {field!r}"
                    )
            if not obj["id"]:
                raise CorpusFormatError(f"line {lineno}: empty id")
            if obj["id"] in seen_ids:
                raise CorpusFormatError(f"line {lineno}: duplicate id {obj['id']!r}")
            seen_ids.add(obj["id"])
            records.append(
                CorpusRecord(id=obj["id"], spec_text=obj["spec"], ref_code=obj["code"])
            )
    return records


def _count_code_tokens(code: str, tokenizer: str) -> int:
    if tokenizer == "whitespace":
        return len(code.split())
    return len(scan(code)[0])


def curate(
    records: list[CorpusRecord], cfg: FilterConfig = FilterConfig()
) -> tuple[list[CorpusRecord], list[DroppedRecord]]:
    """Filter records and attach derived stats to the keepers.

    Checks run in a fixed order per record: spec length, code length, code
    parsability.  Curation is idempotent: re-curating the kept list with the
    same config keeps everything.
    """
    kept: list[CorpusRecord] = []
    dropped: list[DroppedRecord] = []
    for record in records:
        spec_tokens = len(record.spec_text.split())
        if spec_tokens > cfg.max_tokens:
            dropped.append(
                DroppedRecord(
                    record,
                    DropReason.LENGTH,
                    f"spec has {spec_tokens} tokens, budget {cfg.max_tokens}",
                )
            )
            continue
        try:
            code_tokens = _count_code_tokens(record.ref_code, cfg.tokenizer)
        except LexError as exc:
            dropped.append(
                DroppedRecord(
                    record, DropReason.UNPARSABLE, f"code does not lex: {exc}"
                )
            )
            continue
        if code_tokens > cfg.max_tokens:
            dropped.append(
                DroppedRecord(
                    record,
                    DropReason.LENGTH,
                    f"code has {code_tokens} tokens, budget {cfg.max_tokens}",
                )
            )
            continue
        validity = classify(record.ref_code)
        if validity.status is not ValidityStatus.PARSED:
            detail = (
                validity.diagnostics[0].message if validity.diagnostics else "rejected"
            )
            dropped.append(
                DroppedRecord(
                    record,
                    DropReason.UNPARSABLE,
                    f"code is {validity.status.value}: {detail}",
                )
            )
            continue
        assert validity.ast is not None
        stats = RecordStats(
            spec_token_count=spec_tokens,
            code_token_count=code_tokens,
            tree=tree_stats(validity.ast),  # clean keeps the shape exactly
        )
        kept.append(replace(record, derived=stats))
    return kept, dropped


def corpus_stats(records: list[CorpusRecord]) -> dict[str, dict[str, float]]:
    """Min/mean/max table over curated records, keyed by measure name."""
    if not records:
        raise ValueError("no records given")
    for record in records:
        if record.derived is None:
            raise ValueError(f"record {record.id!r} is not curated")
    columns: dict[str, list[float]] = {
        "spec_tokens": [float(r.derived.spec_token_count) for r in records],  # type: ignore[union-attr]
        "code_tokens": [float(r.derived.code_token_count) for r in records],  # type: ignore[union-attr]
        "depth": [float(r.derived.tree.depth) for r in records],  # type: ignore[union-attr]
        "node_count": [float(r.derived.tree.node_count) for r in records],  # type: ignore[union-attr]
        "mean_branching": [r.derived.tree.mean_branching for r in records],  # type: ignore[union-attr]
    }
    return {
        name: {"min": min(vals), "mean": sum(vals) / len(vals), "max": max(vals)}
        for name, vals in columns.items()
    }


# ---- Mutations ----


def _shuffled(items: list, rng: random.Random) -> list:
    # Fisher-Yates driven by rng.random() alone; random.shuffle's internals
    # are not guaranteed stable across interpreter versions.
    out = list(items)
    for i in range(len(out) - 1, 0, -1):
        j = int(rng.random() * (i + 1))
        out[i], out[j] = out[j], out[i]
    return out


def _reorderable(child: RawNode) -> bool:
    if child.kind is NodeKind.PORT_REF:
        return False
    return "header" not in child.mods


def _reorder_top_items(unit: RawNode, rng: random.Random) -> None:
    moved = 0
    for module in unit.children:
        slots = [i for i, c in enumerate(module.children) if _reorderable(c)]
        if len(slots) < 2:
            continue
        moved += len(slots)
        items = [module.children[i] for i in slots]
        for slot, item in zip(slots, _shuffled(items, rng)):
            module.children[slot] = item
    if moved == 0:
        raise MutationError("no module has two or more reorderable items")


_DECLARING = PORT_KINDS | DECL_KINDS | {NodeKind.PORT_REF}


def _rename_identifiers(unit: RawNode, rng: random.Random) -> None:
    renamed = 0
    for module in unit.children:
        declared: list[str] = []
        used: set[str] = set(KEYWORDS)
        for node in iter_tree(module):
            if node.name is not None:
                used.add(node.name)
            if node.value is not None:
                used.add(node.value)
            if node.kind in _DECLARING and node.name is not None:
                if node.name not in declared:
                    declared.append(node.name)
        if not declared:
            continue
        mapping: dict[str, str] = {}
        for old in declared:
            while True:
                fresh = "n" + "".join(
                    "abcdefghijklmnopqrstuvwxyz"[int(rng.random() * 26)]
                    for _ in range(8)
                )
                if fresh not in used:
                    used.add(fresh)
                    mapping[old] = fresh
                    break
        for node in iter_tree(module):
            if node.name is None or node.name not in mapping:
                continue
            # connection port names and call targets refer to other scopes
            if node.kind in (
                NodeKind.PORT_CONN,
                NodeKind.FUNC_CALL,
                NodeKind.TASK_CALL,
                NodeKind.INSTANCE,
                NodeKind.MODULE_DEF,
                NodeKind.FUNC_DECL,
                NodeKind.TASK_DECL,
                NodeKind.BLOCK,
            ):
                continue
            node.name = mapping[node.name]
            renamed += 1
    if renamed == 0:
        raise MutationError("no declared identifiers to rename")


_BASE_DIGITS = {
    "b": "01",
    "o": "01234567",
    "d": "0123456789",
    "h": "0123456789abcdef",
}


def _rewrite_digits(text: str, digits: str, rng: random.Random) -> str:
    out = []
    for ch in text:
        if ch == "_":
            out.append(ch)
        else:
            out.append(digits[int(rng.random() * len(digits))])
    return "".join(out)


def _rewrite_literal(value: str, rng: random.Random) -> str | None:
    """New literal with the same width/base syntax shape, or None to skip."""
    if value.startswith('"'):
        return None
    if any(ch in value for ch in "xXzZ?"):
        return None  # pattern literals keep their don't-care structure
    if "'" in value:
        size, _, rest = value.partition("'")
        signed = ""
        if rest and rest[0] in "sS":
            signed = rest[0]
            rest = rest[1:]
        base, body = rest[0], rest[1:]
        digits = _BASE_DIGITS[base.lower()]
        return size + "'" + signed + base + _rewrite_digits(body, digits, rng)
    if any(ch in value for ch in ".eE"):
        out = []
        for ch in value:
            out.append(
                "0123456789"[int(rng.random() * 10)] if ch.isdigit() else ch
            )
        return "".join(out)
    return _rewrite_digits(value, "0123456789", rng)


def _rewrite_constants(unit: RawNode, rng: random.Random) -> None:
    rewritten = 0
    for node in iter_tree(unit):
        if node.kind is not NodeKind.CONST or node.value is None:
            continue
        fresh = _rewrite_literal(node.value, rng)
        if fresh is not None:
            node.value = fresh
            rewritten += 1
    if rewritten == 0:
        raise MutationError("no rewritable numeric constants")


def mutate(code: str, spec: MutationSpec) -> str:
    """Apply one seeded mutation to parsable source and re-print it.

    Same (kind, seed, input) always produces identical output.  The output
    re-parses, and its cleaned tree has the same node-kind multiset as the
    input's; reordering additionally only permutes module children.  Raises
    MutationError when the input does not parse, has nothing to mutate, or
    gives a tree too deep to print.
    """
    validity = classify(code)
    if validity.status is not ValidityStatus.PARSED:
        detail = (
            validity.diagnostics[0].message if validity.diagnostics else "rejected"
        )
        raise MutationError(f"input is {validity.status.value}: {detail}")
    # The tree was built for this call alone, so it is edited in place.
    unit = validity.ast
    assert unit is not None
    rng = random.Random(spec.seed)
    if spec.kind is MutationKind.REORDER_TOP_ITEMS:
        _reorder_top_items(unit, rng)
    elif spec.kind is MutationKind.RENAME_IDENTIFIERS:
        _rename_identifiers(unit, rng)
    elif spec.kind is MutationKind.REWRITE_CONSTANTS:
        _rewrite_constants(unit, rng)
    else:  # pragma: no cover - enum is closed
        raise MutationError(f"unknown mutation kind {spec.kind!r}")
    try:
        return pretty_print(unit)
    except PrintError as exc:
        raise MutationError(f"cannot print the mutated tree: {exc}") from exc
