"""Command-line front end.

Exit codes: 0 success, 1 domain error (unparsable input, bad file, bad
values) or standard output closed early by its reader, 2 usage error.
Floats print with six decimals everywhere so output is stable to diff
against.  VSR_DEPTH_LIMIT overrides the tree depth limit for the
similarity commands.  `vsr serve` sets the process's garbage-collector
policy before it serves (see `_cmd_serve`); no other command or library
call touches the collector.  The corpus and metrics commands import their
modules when they run, so starting any other command never loads them.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
from pathlib import Path

from vsr.lexer import LexError, lex
from vsr.parser import ParseError, ValidityStatus, classify
from vsr.reward import ReferenceParseError, ReferenceTooDeepError, reward
from vsr.service import ServiceConfig, serve_http, serve_stdio
from vsr.similarity import (
    DEFAULT_DEPTH_LIMIT,
    DepthLimitError,
    sim_ast,
    sim_ast_seq,
    sim_ast_with_trace,
)
from vsr.trees import RawNode, clean, serialize, tree_stats


class _CliError(Exception):
    """Message for stderr plus exit code 1."""


def _read_text(path: str) -> str:
    try:
        # generated code can contain arbitrary bytes; replacement keeps the
        # tool total and lets the classifier reject the mess itself
        return Path(path).read_text(encoding="utf-8", errors="replace")
    except OSError as exc:
        raise _CliError(f"cannot read {path}: {exc}") from exc


def _f(value: float) -> str:
    return f"{value:.6f}"


def _depth_limit_from_env() -> int:
    raw = os.environ.get("VSR_DEPTH_LIMIT")
    if raw is None:
        return DEFAULT_DEPTH_LIMIT
    try:
        limit = int(raw)
    except ValueError:
        raise _CliError(f"VSR_DEPTH_LIMIT must be an integer, got {raw!r}")
    if limit < 1:
        raise _CliError(f"VSR_DEPTH_LIMIT must be >= 1, got {limit}")
    return limit


def _parsed_ast(path: str, text: str) -> RawNode:
    validity = classify(text)
    if validity.status is not ValidityStatus.PARSED:
        detail = validity.diagnostics[0].message
        raise _CliError(f"{path}: {validity.status.value}: {detail}")
    assert validity.ast is not None
    return validity.ast


def _dump_raw(root: RawNode) -> list[str]:
    """One line per node in preorder, indented two spaces per level.

    Iterative, because a long operator chain nests deeper than the
    interpreter stack allows.
    """
    out: list[str] = []
    stack = [(root, 0)]
    while stack:
        node, indent = stack.pop()
        parts = [node.kind.value]
        if node.name is not None:
            parts.append(f"name={node.name}")
        if node.value is not None:
            parts.append(f"value={node.value}")
        if node.mods:
            parts.append("mods=" + ",".join(node.mods))
        parts.append(f"span={node.span[0]}:{node.span[1]}")
        out.append("  " * indent + " ".join(parts))
        stack.extend((child, indent + 1) for child in reversed(node.children))
    return out


# ---- commands ----


def _cmd_parse(args: argparse.Namespace) -> int:
    text = _read_text(args.file)
    if args.emit == "tokens":
        try:
            tokens = lex(text)
        except LexError as exc:
            raise _CliError(f"{args.file}: {exc}") from exc
        for token in tokens:
            print(f"{token.kind.value}\t{token.text}")
        return 0
    print("\n".join(_dump_raw(_parsed_ast(args.file, text))))
    return 0


def _cmd_clean(args: argparse.Namespace) -> int:
    text = _read_text(args.file)
    tree = clean(_parsed_ast(args.file, text))
    if args.emit == "stats":
        stats = tree_stats(tree)
        print(f"depth\t{stats.depth}")
        print(f"node_count\t{stats.node_count}")
        print(f"mean_branching\t{_f(stats.mean_branching)}")
    else:
        print(serialize(tree))
    return 0


def _cmd_sim(args: argparse.Namespace) -> int:
    if args.trace and args.mode != "ast":
        # The trace is the greedy match's; positional mode has none.
        args.usage_error("--trace needs --mode ast")
    depth_limit = _depth_limit_from_env()
    table: dict = {}
    ref = clean(_parsed_ast(args.ref, _read_text(args.ref)), table)
    gen = clean(_parsed_ast(args.gen, _read_text(args.gen)), table)
    try:
        if args.trace:
            score, steps = sim_ast_with_trace(gen, ref, depth_limit=depth_limit)
        elif args.mode == "seq":
            score = sim_ast_seq(gen, ref, depth_limit=depth_limit)
        else:
            score = sim_ast(gen, ref, depth_limit=depth_limit)
    except DepthLimitError as exc:
        raise _CliError(str(exc)) from exc
    print(_f(score))
    if args.trace:
        for step in steps:
            left = "/" + "/".join(str(i) for i in step.left)
            right = "/" + "/".join(str(i) for i in step.right)
            print(f"{left}\t{right}\t{_f(step.score)}")
    return 0


def _cmd_reward(args: argparse.Namespace) -> int:
    depth_limit = _depth_limit_from_env()
    ref_text = _read_text(args.ref)
    gen_text = _read_text(args.gen)
    try:
        outcome = reward(gen_text, ref_text, mode=args.mode, depth_limit=depth_limit)
    except ReferenceParseError as exc:
        raise _CliError(f"{args.ref}: reference does not parse: {exc}") from exc
    except ReferenceTooDeepError as exc:
        raise _CliError(f"{args.ref}: reference is too deep: {exc}") from exc
    sim_text = "-" if outcome.sim is None else _f(outcome.sim)
    print(f"{outcome.status.value}\t{sim_text}\t{_f(outcome.reward)}")
    return 0


def _cmd_passk(args: argparse.Namespace) -> int:
    from vsr.metrics import pass_at_k

    try:
        value = pass_at_k(args.n, args.c, args.k)
    except ValueError as exc:
        raise _CliError(str(exc)) from exc
    print(_f(value))
    return 0


def _parse_k_list(raw: str) -> list[int]:
    try:
        ks = [int(part) for part in raw.split(",") if part.strip()]
    except ValueError:
        raise _CliError(f"--k must be a comma-separated list of integers, got {raw!r}")
    if not ks:
        raise _CliError("--k must name at least one k")
    return ks


def _cmd_report(args: argparse.Namespace) -> int:
    from vsr.metrics import aggregate_pass_at_k, hit_at_k, read_outcomes

    try:
        outcomes = read_outcomes(args.file)
    except (OSError, ValueError) as exc:
        raise _CliError(f"{args.file}: {exc}") from exc
    metrics = [part.strip() for part in args.metric.split(",") if part.strip()]
    for metric in metrics:
        if metric not in ("pass", "hit"):
            raise _CliError(f"unknown metric {metric!r}, expected pass or hit")
    for k in _parse_k_list(args.k):
        for metric in metrics:
            try:
                if metric == "pass":
                    value = aggregate_pass_at_k(outcomes, k)
                else:
                    value = hit_at_k(outcomes, k, sample_seed=args.sample_seed)
            except ValueError as exc:
                raise _CliError(str(exc)) from exc
            print(f"{metric}@{k}\t{_f(value)}")
    return 0


def _cmd_corpus(args: argparse.Namespace) -> int:
    if args.corpus_cmd == "mutate":
        return _cmd_corpus_mutate(args)
    from vsr.corpus import CorpusFormatError, FilterConfig, corpus_stats, curate, ingest

    try:
        cfg = FilterConfig(max_tokens=args.max_tokens, tokenizer=args.tokenizer)
    except ValueError as exc:
        raise _CliError(str(exc)) from exc
    try:
        records = ingest(args.file)
    except (OSError, CorpusFormatError) as exc:
        raise _CliError(f"{args.file}: {exc}") from exc
    kept, dropped = curate(records, cfg)
    if args.corpus_cmd == "filter":
        if args.out:
            with open(args.out, "w", encoding="utf-8") as handle:
                for record in kept:
                    handle.write(
                        json.dumps(
                            {
                                "id": record.id,
                                "spec": record.spec_text,
                                "code": record.ref_code,
                            }
                        )
                        + "\n"
                    )
        print(f"kept\t{len(kept)}")
        print(f"dropped\t{len(dropped)}")
        for drop in dropped:
            print(f"drop\t{drop.record.id}\t{drop.reason.value}\t{drop.detail}")
        return 0
    # stats
    if not kept:
        raise _CliError("no records survive curation")
    print(f"kept\t{len(kept)}")
    print(f"dropped\t{len(dropped)}")
    table = corpus_stats(kept)
    for name, row in table.items():
        print(f"{name}\t{_f(row['min'])}\t{_f(row['mean'])}\t{_f(row['max'])}")
    return 0


# flag -> `MutationKind` member name, looked up when the command runs
_MUTATION_BY_FLAG = {
    "reorder": "REORDER_TOP_ITEMS",
    "rename": "RENAME_IDENTIFIERS",
    "constants": "REWRITE_CONSTANTS",
}


def _cmd_corpus_mutate(args: argparse.Namespace) -> int:
    from vsr.corpus import MutationError, MutationKind, MutationSpec, mutate

    text = _read_text(args.file)
    spec = MutationSpec(kind=MutationKind[_MUTATION_BY_FLAG[args.kind]], seed=args.seed)
    try:
        mutated = mutate(text, spec)
    except MutationError as exc:
        raise _CliError(f"{args.file}: {exc}") from exc
    if args.out:
        Path(args.out).write_text(mutated, encoding="utf-8")
    else:
        sys.stdout.write(mutated)
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    config = ServiceConfig(
        timeout_ms=args.timeout_ms,
        max_body_bytes=args.max_body_bytes,
        depth_limit=_depth_limit_from_env(),
    )
    if args.http:
        host, _, port_text = args.http.rpartition(":")
        if not host:
            raise _CliError(f"--http expects HOST:PORT, got {args.http!r}")
        try:
            port = int(port_text)
        except ValueError:
            raise _CliError(f"--http expects a numeric port, got {port_text!r}")
        if not 0 <= port <= 65535:
            raise _CliError(f"--http expects a port in 0-65535, got {port}")
        import socketserver  # noqa: F401  (loaded now, so the freeze below keeps it)
    # Scoring allocates GC-tracked objects (tokens, tree nodes, memo keys)
    # much faster than it frees them and keeps them until the request ends,
    # so under the default threshold the collector runs often and each pass
    # rescans what the request has built so far.  The service therefore
    # collects rarely; acyclic garbage is still freed at once by reference
    # counting.  The policy is process-wide, so only `vsr serve` sets it:
    # library callers own their process.  Freezing keeps the modules loaded
    # so far out of every collection: the scoring path, which this module
    # imports through `vsr.service`, and `socketserver` for --http.
    gc.freeze()
    gc.set_threshold(100_000, 10, 10)
    if args.stdio:
        serve_stdio(config=config)
        return 0
    try:
        serve_http(host, port, config)
    except OSError as exc:
        raise _CliError(f"cannot bind {args.http}: {exc}") from exc
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vsr",
        description="Structural similarity, rewards, and metrics for Verilog",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("parse", help="lex or parse one source file")
    p.add_argument("file")
    p.add_argument("--emit", choices=("tokens", "ast"), default="ast")
    p.set_defaults(func=_cmd_parse)

    p = sub.add_parser("clean", help="canonical cleaned tree or its stats")
    p.add_argument("file")
    p.add_argument("--emit", choices=("text", "stats"), default="text")
    p.set_defaults(func=_cmd_clean)

    p = sub.add_parser("sim", help="similarity of GEN against REF")
    p.add_argument("ref")
    p.add_argument("gen")
    p.add_argument("--mode", choices=("ast", "seq"), default="ast")
    p.add_argument(
        "--trace", action="store_true", help="print matched node pairs (ast mode)"
    )
    p.set_defaults(func=_cmd_sim, usage_error=p.error)

    p = sub.add_parser("reward", help="tiered reward of GEN against REF")
    p.add_argument("ref")
    p.add_argument("gen")
    p.add_argument("--mode", choices=("ast", "seq"), default="ast")
    p.set_defaults(func=_cmd_reward)

    p = sub.add_parser("passk", help="unbiased pass@k from trial counts")
    p.add_argument("--n", type=int, required=True, help="trials per task")
    p.add_argument("--c", type=int, required=True, help="passing trials")
    p.add_argument("--k", type=int, required=True)
    p.set_defaults(func=_cmd_passk)

    p = sub.add_parser("report", help="aggregate metrics over an outcomes file")
    p.add_argument("file", help="JSONL of {task, trials} records")
    p.add_argument("--k", default="1", help="comma-separated k values")
    p.add_argument("--metric", default="pass", help="comma-separated: pass, hit")
    p.add_argument(
        "--sample-seed",
        type=int,
        default=None,
        help="resample trial order for hit@k instead of file order",
    )
    p.set_defaults(func=_cmd_report)

    p = sub.add_parser("corpus", help="corpus curation, stats, and mutations")
    corpus_sub = p.add_subparsers(dest="corpus_cmd", required=True)

    c = corpus_sub.add_parser("filter", help="drop overlong or unparsable records")
    c.add_argument("file", help="JSONL of {id, spec, code} records")
    c.add_argument("--out", help="write kept records here")
    c.add_argument("--max-tokens", type=int, default=4096)
    c.add_argument("--tokenizer", choices=("lexical", "whitespace"), default="lexical")
    c.set_defaults(func=_cmd_corpus)

    c = corpus_sub.add_parser("stats", help="size and shape table for kept records")
    c.add_argument("file")
    c.add_argument("--max-tokens", type=int, default=4096)
    c.add_argument("--tokenizer", choices=("lexical", "whitespace"), default="lexical")
    c.set_defaults(func=_cmd_corpus)

    c = corpus_sub.add_parser("mutate", help="seeded structure-preserving rewrite")
    c.add_argument("file", help="Verilog source file")
    c.add_argument("--kind", choices=sorted(_MUTATION_BY_FLAG), required=True)
    c.add_argument("--seed", type=int, required=True)
    c.add_argument("--out", help="write mutated source here instead of stdout")
    c.set_defaults(func=_cmd_corpus)

    p = sub.add_parser("serve", help="run the reward service")
    transport = p.add_mutually_exclusive_group(required=True)
    transport.add_argument("--stdio", action="store_true")
    transport.add_argument("--http", metavar="HOST:PORT")
    p.add_argument(
        "--timeout-ms",
        type=int,
        default=ServiceConfig.timeout_ms,
        help="per-request deadline; scoring stops when it passes (<= 0: none)",
    )
    p.add_argument("--max-body-bytes", type=int, default=ServiceConfig.max_body_bytes)
    p.set_defaults(func=_cmd_serve)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe shows here, not at exit
        return code
    except BrokenPipeError:
        # The reader went away (`vsr parse x.v | head -1`).  Point stdout at
        # the null device, so the flush at interpreter exit cannot fail too.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    except _CliError as exc:
        print(f"vsr: {exc}", file=sys.stderr)
        return 1
    except (LexError, ParseError) as exc:
        print(f"vsr: {exc}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        return 130
