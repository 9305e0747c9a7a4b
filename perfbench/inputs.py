"""Seeded inputs for the four workloads, each with its expected response.

Everything here is a pure function of the seed and the golden corpus in
`tests/golden`.  A *template* is one scored pair whose expected response is
worked out once, at preparation time, by the oracle.  A *call* instantiates
templates with fresh module names, so text that should not repeat does not
(renaming erases nothing the cleaned tree keeps, so the expectation holds).
"""

from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass, field
from pathlib import Path

from perfbench import oracle

PROSE_WORDS = (
    "the design should count rising edges and wrap at fifteen while a "
    "synchronous reset clears every register before the first valid output "
    "appears on the bus please write a small adder with carry out and keep "
    "the latency under two cycles so that downstream logic can sample it"
).split()

_NAME_RE = re.compile(r"(?<![A-Za-z0-9_$])module\s+([A-Za-z_][A-Za-z0-9_$]*)")


def code_spans(src: str) -> list[tuple[int, int]]:
    """Index ranges of `src` outside comments and string literals."""
    spans = []
    i = start = 0
    n = len(src)
    while i < n:
        if src.startswith("//", i):
            spans.append((start, i))
            nl = src.find("\n", i)
            i = start = n if nl < 0 else nl
        elif src.startswith("/*", i):
            spans.append((start, i))
            close = src.find("*/", i + 2)
            i = start = n if close < 0 else close + 2
        elif src[i] == '"':
            spans.append((start, i))
            j = i + 1
            while j < n and src[j] not in '"\n':
                j += 2 if src[j] == "\\" else 1
            i = start = min(n, j + 1)
        else:
            i += 1
    spans.append((start, n))
    return [(a, b) for a, b in spans if a < b]


def rename_module(src: str, suffix: str) -> str:
    """Append `suffix` to the name of the first module defined in `src`."""
    for a, b in code_spans(src):
        m = _NAME_RE.search(src, a, b)
        if m is not None:
            return src[: m.end(1)] + suffix + src[m.end(1) :]
    raise ValueError("no module header to rename")


def semicolons(src: str) -> list[int]:
    return [i for a, b in code_spans(src) for i in range(a, b) if src[i] == ";"]


def drop_semicolon(src: str, rng: random.Random) -> str:
    """Code-shaped but unparsable: one statement terminator removed."""
    i = rng.choice(semicolons(src))
    return src[:i] + src[i + 1 :]


def prose(rng: random.Random) -> str:
    words = [rng.choice(PROSE_WORDS) for _ in range(rng.randrange(8, 24))]
    return " ".join(words).capitalize() + "."


def load_golden(root: Path) -> list[tuple[str, str]]:
    paths = sorted((root / "tests" / "golden").glob("*.v"))
    if not paths:
        raise FileNotFoundError(f"no golden corpus under {root / 'tests' / 'golden'}")
    return [(p.stem, p.read_text(encoding="utf-8")) for p in paths]


@dataclass
class Template:
    """One scored pair and its expected response fields."""

    kind: str
    ref: str
    gen: str
    mode: str
    expect: dict
    tokens: int = 0  # lexer tokens, both sides
    nodes: int = 0  # cleaned-tree nodes, both sides
    rename_gen: bool = True


@dataclass
class Call:
    """One transport call: its request objects, expectations and shape."""

    requests: list
    expected: list[dict]
    ops: int
    tokens: int
    nodes: int
    refs: list[str] = field(default_factory=list)
    timed: bool = True

    @property
    def statuses(self) -> list[str]:
        return [e["status"] for e in self.expected]


class Front:
    """Lex/classify/clean the template texts with the package under test.

    Only cleaned trees feed the oracle; no score comes from here.
    """

    def __init__(self, vsr) -> None:
        self.vsr = vsr
        self._seen: dict[str, tuple[str, object, int]] = {}

    def analyse(self, text: str):
        hit = self._seen.get(text)
        if hit is None:
            v = self.vsr.classify(text)
            tree = self.vsr.clean(v.ast) if v.is_parsed else None
            try:
                tokens = len(self.vsr.lex(text))
            except self.vsr.LexError:
                tokens = 0
            hit = self._seen[text] = (v.status.value, tree, tokens)
        return hit

    def nodes(self, tree) -> int:
        return sum(1 for _ in self.vsr.iter_tree(tree)) if tree is not None else 0


def _fill(front: Front, naive: oracle.NaiveOracle, t: Template) -> Template:
    """Work out shape and, where not fixed by construction, the expectation."""
    ref_status, ref_tree, ref_tokens = front.analyse(t.ref)
    if ref_status != "parsed":
        raise ValueError(f"template reference does not parse ({t.kind})")
    gen_status, gen_tree, gen_tokens = front.analyse(t.gen)
    t.tokens = ref_tokens + gen_tokens
    t.nodes = front.nodes(ref_tree) + front.nodes(gen_tree)
    if t.expect is None:
        t.expect = oracle.scored("parsed", naive.sim(gen_tree, ref_tree, t.mode))
    return t


def golden_templates(vsr, naive, golden, rng: random.Random) -> dict[str, dict[str, list[Template]]]:
    """Per golden reference, its sample templates grouped by kind."""
    front = Front(vsr)
    one = oracle.scored("parsed", 1.0)
    kinds = [(k.value, k) for k in vsr.MutationKind]
    pool = {}
    names = [name for name, _ in golden]
    texts = dict(golden)
    for name, ref in golden:
        mut = {
            value: vsr.mutate(ref, vsr.MutationSpec(kind, rng.randrange(1 << 30)))
            for value, kind in kinds
        }
        others = rng.sample([n for n in names if n != name], 4)
        groups = {
            "copy": [Template("copy", ref, ref, "ast", one, rename_gen=False)],
            "reorder": [Template("reorder", ref, mut["reorder"], "ast", one)],
            "rename": [Template("rename", ref, mut["rename"], "ast", one)],
            "constants": [Template("constants", ref, mut["constants"], "ast", one)],
            "reorder_seq": [Template("reorder_seq", ref, mut["reorder"], "seq", None)],
            "cross": [
                Template("cross", ref, texts[o], mode, None)
                for o, mode in zip(others, ("ast", "ast", "seq", "seq"))
            ],
            "parse_fail": [
                Template("parse_fail", ref, drop_semicolon(ref, rng), "ast",
                         oracle.scored("parse_fail", None))
                for _ in range(2)
            ],
        }
        pool[name] = {
            k: [_fill(front, naive, t) for t in ts] for k, ts in groups.items()
        }
    return pool


# Per-call sample mixes.  Fixed counts keep every call, and so every seed,
# the same blend of work; only which modules fill the slots varies.
GROUP_MIX = (
    ("copy", 2), ("reorder", 2), ("rename", 2), ("constants", 2),
    ("cross", 4), ("reorder_seq", 1), ("parse_fail", 2), ("prose", 1),
)
SINGLE_MIX = (
    ("copy", 3), ("reorder", 3), ("rename", 2), ("constants", 2),
    ("cross", 4), ("reorder_seq", 2), ("parse_fail", 2), ("bad", 2),
)
BAD_KINDS = ("not_object", "missing_ref", "bad_gen", "bad_mode", "prose_ref", "prose_gen")


def _request(rid, ref, gen, mode):
    return {"id": rid, "ref": ref, "gen": gen, "mode": mode}


class GroupStream:
    """rl_groups: one golden reference plus 16 samples per call."""

    def __init__(self, vsr, naive, golden, seed: int) -> None:
        self.rng = random.Random(seed)
        self.pool = golden_templates(vsr, naive, golden, self.rng)
        self.names = sorted(self.pool)
        self.count = 0

    def next(self) -> Call:
        rng = self.rng
        n = self.count
        self.count += 1
        ref_name = rng.choice(self.names)
        groups = self.pool[ref_name]
        slots = [k for k, c in GROUP_MIX for _ in range(c)]
        rng.shuffle(slots)
        reqs, exp, tokens, nodes = [], [], 0, 0
        for j, kind in enumerate(slots):
            rid = f"g{n}-{j}"
            if kind == "prose":
                copy = groups["copy"][0]  # counts the reference twice
                req = _request(rid, copy.ref, prose(rng), "ast")
                fields = oracle.scored("not_code", None)
                tokens += copy.tokens // 2 + len(req["gen"].split()) + 1
                nodes += copy.nodes // 2
            else:
                t = rng.choice(groups[kind])
                gen = rename_module(t.gen, f"_g{n}x{j}") if t.rename_gen else t.gen
                req = _request(rid, t.ref, gen, t.mode)
                fields = t.expect
                tokens += t.tokens
                nodes += t.nodes
            reqs.append(req)
            exp.append(oracle.response(rid, fields))
        return Call(reqs, exp, len(reqs), tokens, nodes, [r["ref"] for r in reqs])


class SingleStream:
    """http_single: one small golden pair per call, reference renamed per call."""

    def __init__(self, vsr, naive, golden, seed: int) -> None:
        self.rng = random.Random(seed)
        self.pool = golden_templates(vsr, naive, golden, self.rng)
        self.names = sorted(self.pool)
        self.slots: list[str] = []
        self.count = 0

    def next(self) -> Call:
        rng = self.rng
        n = self.count
        self.count += 1
        if not self.slots:
            self.slots = [k for k, c in SINGLE_MIX for _ in range(c)]
            rng.shuffle(self.slots)
        kind = self.slots.pop()
        rid = f"s{n}"
        groups = self.pool[rng.choice(self.names)]
        if kind == "bad":
            return self._bad(rid, groups["copy"][0], rng)
        t = rng.choice(groups[kind])
        ref = rename_module(t.ref, f"_s{n}")
        gen = rename_module(t.gen, f"_s{n}g") if t.rename_gen else ref
        req = _request(rid, ref, gen, t.mode)
        return Call([req], [oracle.response(rid, t.expect)], 1, t.tokens, t.nodes, [ref])

    def _bad(self, rid, copy: Template, rng) -> Call:
        ref = rename_module(copy.ref, f"_{rid}")
        kind = rng.choice(BAD_KINDS)
        text = prose(rng)
        if kind == "not_object":
            req, want = [rid, ref], oracle.response(None, oracle.rejected(oracle.MSG_NOT_OBJECT))
        elif kind == "missing_ref":
            req = {"id": rid, "gen": ref}
            want = oracle.response(rid, oracle.rejected(oracle.MSG_MISSING_REF))
        elif kind == "bad_gen":
            req = {"id": rid, "ref": ref, "gen": len(ref)}
            want = oracle.response(rid, oracle.rejected(oracle.MSG_MISSING_GEN))
        elif kind == "bad_mode":
            req = _request(rid, ref, ref, "tree")
            want = oracle.response(rid, oracle.rejected(oracle.MSG_BAD_MODE))
        elif kind == "prose_ref":
            req = _request(rid, text, ref, "ast")
            want = oracle.response(rid, oracle.rejected(oracle.MSG_PROSE_REF))
        else:
            req = _request(rid, ref, text, "ast")
            want = oracle.response(rid, oracle.scored("not_code", None))
        scored = kind == "prose_gen"
        return Call([req], [want], int(scored), copy.tokens // 2 if scored else 0,
                    copy.nodes // 2 if scored else 0, [ref] if scored else [])


# ---- wide_items: generated modules where similarity does most of the work ----

_OPS = ("+", "-", "&", "|", "^")
_SWAP = {"+": "-", "-": "+", "&": "|", "|": "&", "^": "|"}
WIDE_SIZES = (150, 160, 170, 180, 190, 200)
WIDE_SIGNALS = 12
CASE_ARMS = 4
# Exact shares per module: 5% assigns, 85% clocked if/else, 10% case; every
# non-declaration item gets one operator swapped in the copy.  Items of one
# kind that do not match exactly make the greedy matcher scan all of their
# kind, which is what puts similarity ahead of the front end here.
WIDE_SHARES = (("assign", 0.05), ("ff", 0.85), ("case", 0.1))
SWAP_SHARE = 1.0
SEQ_EVERY = 12  # one call in twelve uses positional (`seq`) similarity


def _expr(rng, sigs, depth):
    if depth == 0 or rng.random() < 0.2:
        if rng.random() < 0.2:
            return ["const", f"8'd{rng.randrange(256)}"]
        return ["sig", rng.choice(sigs)]
    return ["bin", rng.choice(_OPS), _expr(rng, sigs, depth - 1), _expr(rng, sigs, depth - 1)]


def _render(e) -> str:
    if e[0] != "bin":
        return e[1]
    return f"({_render(e[2])} {e[1]} {_render(e[3])})"


def _binaries(e, acc):
    if e[0] == "bin":
        acc.append(e)
        _binaries(e[2], acc)
        _binaries(e[3], acc)
    return acc


def _item_text(item) -> str:
    kind = item[0]
    if kind == "decl":
        return f"    {item[1]}"
    target, exprs = item[1], item[2]
    if kind == "assign":
        return f"    assign {target} = {_render(exprs[0])};"
    if kind == "ff":
        return (
            "    always @(posedge clk) begin\n"
            f"        if (rst)\n            {target} <= {_render(exprs[0])};\n"
            f"        else\n            {target} <= {_render(exprs[1])};\n"
            "    end"
        )
    arms = "".join(
        f"            4'd{i}: {target} <= {_render(e)};\n" for i, e in enumerate(exprs[:-1])
    )
    return (
        "    always @(posedge clk) begin\n        case (a[3:0])\n" + arms
        + f"            default: {target} <= {_render(exprs[-1])};\n"
        "        endcase\n    end"
    )


def wide_module_text(name: str, items) -> str:
    head = (
        f"module {name}(input clk, input rst, input [7:0] a, input [7:0] b, "
        "output [7:0] y);"
    )
    body = [_item_text(item) for item in items]
    return "\n".join([head, *body, "    assign y = a ^ b;", "endmodule"]) + "\n"


def wide_items(rng: random.Random, n: int) -> list:
    sigs = ["a", "b"] + [f"s{i}" for i in range(WIDE_SIGNALS)]
    items = [
        ("decl", f"{'reg' if i % 2 else 'wire'} [7:0] s{i};", [])
        for i in range(WIDE_SIGNALS)
    ]
    rest = n - len(items)
    kinds = [k for k, share in WIDE_SHARES for _ in range(round(rest * share))]
    rng.shuffle(kinds)
    for kind in kinds:
        count = {"assign": 1, "ff": 2, "case": CASE_ARMS}[kind]
        depth = 3 if kind == "assign" else 2
        exprs = [_expr(rng, sigs, depth) for _ in range(count)]
        items.append((kind, rng.choice(sigs[2:]), exprs))
    return items


def perturbed_copy(rng: random.Random, items) -> list:
    """Reordered copy with one operator swapped in SWAP_SHARE of the items."""
    out = json.loads(json.dumps(items))
    candidates = [it for it in out if it[0] != "decl"]
    for item in rng.sample(candidates, round(len(candidates) * SWAP_SHARE)):
        binaries = [b for e in item[2] for b in _binaries(e, [])]
        if binaries:
            op = rng.choice(binaries)
            op[1] = _SWAP[op[1]]
    rng.shuffle(out)
    return out


class WideStream:
    """wide_items: one large generated pair per stdio line, never repeated."""

    def __init__(self, vsr, naive, seed: int) -> None:
        self.rng = random.Random(seed)
        front = Front(vsr)
        self.templates = []
        for size in WIDE_SIZES:
            items = wide_items(self.rng, size)
            ref = wide_module_text(f"wide{size}", items)
            gen = wide_module_text(f"wide{size}", perturbed_copy(self.rng, items))
            for mode in ("ast", "seq"):
                self.templates.append(_fill(front, naive, Template("wide", ref, gen, mode, None)))
        self.count = 0

    def next(self) -> Call:
        n = self.count
        self.count += 1
        # Sizes cycle in a fixed order, so every run of a given length sees
        # the same blend of sizes whatever the seed.
        size_index = n % len(WIDE_SIZES)
        mode_index = 1 if n % SEQ_EVERY == SEQ_EVERY - 1 else 0
        t = self.templates[2 * size_index + mode_index]
        rid = f"w{n}"
        req = _request(rid, rename_module(t.ref, f"_w{n}"), rename_module(t.gen, f"_w{n}g"), t.mode)
        return Call([req], [oracle.response(rid, t.expect)], 1, t.tokens, t.nodes, [req["ref"]])


# ---- corpus_build: the offline front end, with mutation and re-printing ----

CORPUS_BUDGET = 1024  # token budget for curation; every golden file is far below it


@dataclass
class CorpusPlan:
    """The corpus file's records and the curation outcome built into each."""

    records: list[dict]
    # id -> None when kept, else (drop reason, exact detail or detail prefix)
    outcome: dict[str, tuple[str, str] | None]
    exact_detail: set[str]


def corpus_plan(golden, seed: int) -> CorpusPlan:
    rng = random.Random(seed)
    records, outcome, exact = [], {}, set()

    def add(rid, spec, code, result, exact_detail=False):
        records.append({"id": rid, "spec": spec, "code": code})
        outcome[rid] = result
        if exact_detail:
            exact.add(rid)

    texts = [text for _, text in golden]
    for name, text in golden:
        add(f"{name}-{seed}", prose(rng), text, None)
    for k in range(2):
        words = CORPUS_BUDGET + 1 + rng.randrange(200)
        spec = " ".join(rng.choice(PROSE_WORDS) for _ in range(words))
        add(f"long_spec{k}", spec, rng.choice(texts), ("length",
            f"spec has {words} tokens, budget {CORPUS_BUDGET}"), exact_detail=True)
        # Seventy goldens are far more than 1024 tokens whatever the draw.
        code = "\n".join(rng.choice(texts) for _ in range(70))
        add(f"long_code{k}", prose(rng), code, ("length", "code has "))
        add(f"no_lex{k}", prose(rng), "§" + rng.choice(texts), ("unparsable",
            "code does not lex: illegal character '§'"), exact_detail=True)
        add(f"no_parse{k}", prose(rng), drop_semicolon(rng.choice(texts), rng),
            ("unparsable", "code is parse_fail: "))
        add(f"prose{k}", prose(rng), prose(rng), ("unparsable",
            "code is not_code: no module/endmodule pair in token stream"), exact_detail=True)
    rng.shuffle(records)
    return CorpusPlan(records, outcome, exact)


def write_corpus(plan: CorpusPlan, path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        for record in plan.records:
            handle.write(json.dumps(record) + "\n")
