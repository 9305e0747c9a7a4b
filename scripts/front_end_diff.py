#!/usr/bin/env python3
"""Fingerprint the front end's outputs: one `name<TAB>sha1` line per input.

    python3 scripts/front_end_diff.py --seed 1 > before.txt
    # ... change the code ...
    python3 scripts/front_end_diff.py --seed 1 > after.txt
    diff before.txt after.txt

The script checks the checkout it lives in (it puts that checkout's `src`
first on the path), so to compare two versions run each copy's own script
with the same arguments.  The inputs are a pure function of the seed and
the files under `tests/golden` and `tests/fixtures`, built with the
standard library alone, so both sides see the same texts:

  golden/F, fixtures/F   every file as it is
  tok/F/N, chr/F/N       copies with one token or one character damaged
  blank/F/N              copies whose every blank run between two tokens is
                         redrawn from spaces, tabs, CR LF, form and line
                         feeds and `// note` line comments, a newline where
                         the file had one; some end in a comment with no
                         newline after it
  expr/N, decl/N         generated expressions and declarations, valid and
                         invalid, including nesting around the 128-level cap
  wide/N                 a generated module of 16-200 items (assigns, clocked
                         if/else blocks, case blocks) against the module
                         itself, reordered, with one operator swapped in
                         each item, so wide greedy rows show in the trace
  long/N                 long texts for the lexer's bulk scan, which reads
                         runs of about 16 KiB cut at a line end, in four
                         shapes taken in turn: golden and fixture files
                         joined past three run lengths; files joined onto
                         one line longer than a run; joined files with
                         comments and whole-line directives put at the line
                         starts near each run length; and the same with
                         strings, system and escaped identifiers, macro
                         uses and stray characters among them
  group/N                batches scored in order through one reference
                         memo, as the service scores a batch body: three
                         files, each sent with itself, copies with their
                         names, numbers and strings rewritten (one with its
                         blank runs redrawn too), a token-damaged copy and
                         its rewrite, a prose answer twice and another file,
                         shuffled, each item in a mode and under a depth
                         limit drawn at random

Each hash covers the `lex` tokens, or its error and span; the `classify`
status and diagnostics; every raw node's kind, name, value, mods, span and
arity in preorder; `serialize(clean(ast))`;
the `pretty_print` text; the `mutate` output for three kinds x three seeds;
the `reward` outcome in both modes against a reference (the file itself, the
undamaged file, or the previous generated text); and, when both sides
parse, the `sim_ast_with_trace` score and match steps of that pair cleaned
through one intern table, so a changed match shows even when the score does
not.  A group's hash covers the `reward` outcome of each of its items in
order.  Errors are hashed by type and message, so a changed diagnostic shows
as a changed line.
"""

from __future__ import annotations

import argparse
import copy
import hashlib
import random
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from vsr.corpus import MutationError, MutationKind, MutationSpec, mutate  # noqa: E402
from vsr.lexer import KEYWORDS, LexError, lex  # noqa: E402
from vsr.parser import classify  # noqa: E402
from vsr.printer import PrintError, pretty_print  # noqa: E402
from vsr.reward import reward  # noqa: E402
from vsr.similarity import DepthLimitError, sim_ast_with_trace  # noqa: E402
from vsr.trees import clean, iter_tree, serialize  # noqa: E402

MUTATION_SEEDS = (1, 2, 3)

# A rough tokenizer for damaging texts: words, numbers and single characters.
_ROUGH_TOKEN = re.compile(r"[A-Za-z_][A-Za-z0-9_$]*|\d+|\S")
_NOISE = "();,:[]{}=+-*&|^~!?<>'\"`#@.a1 \n"
# Blank runs for the blank/F/N family: a run that stands for a newline
# holds at least one line end, and a run that does not holds none.
_BLANKS = (" ", "\t", "  ", "\f", "\v")
_LINE_ENDS = ("\n", "\r\n", "// note\n")

BINARY = (
    "||", "&&", "|", "^", "^~", "~^", "&", "==", "!=", "===", "!==",
    "<", "<=", ">", ">=", "<<", ">>", "<<<", ">>>", "+", "-", "*", "/", "%", "**",
)
UNARY = ("!", "~", "-", "+", "&", "|", "^", "~&", "~|", "~^", "^~")
LEAVES = ("a", "b", "c", "\\esc ", "4", "8'hff", "3'b1x0", "2.5", '"s"', "v[i]",
          "v[3:0]", "v[i +: 2]", "v[j -: 4]", "f(a, 1)", "g()")
DECL_WORDS = ("parameter", "localparam", "input", "output", "inout", "wire", "reg",
              "integer", "real", "time")
WIDE_ITEMS = (16, 200)
WIDE_SWAP = {"+": "-", "-": "+", "&": "|", "|": "&", "^": "~^", "~^": "^", "<<": ">>", ">>": "<<"}
WIDE_SIGNALS = ("a", "b", "c", "s0", "s1", "s2")
# The length of one bulk run of the lexer (`vsr.lexer`), the number of
# long/N texts (one of each shape), and the pieces that family puts near the
# ends of runs: lexemes that the bulk scan hands to the per-match path or
# reads next to them.  The first four leave a parse unchanged when put at a
# line start.
RUN = 16384
LONG = 4
LONG_RARE = (
    "/* c */ ",
    "/* a\n b */",
    "// c\n",
    "`timescale 1ns/1ps\n",
    "`W ",
    '$display("s\\"q", \\esc , x$y);\n',
    '"s" ',
    "$y ",
    "\\esc ",
    '"a\\\nb" ',
    "'",
    "\u00e9",
)


# The group/N family: how many batches, how many references each, the
# depth limits an item is scored under, and what a rewritten copy draws its
# numbers from.
GROUPS = 8
GROUP_REFS = 3
GROUP_LIMITS = (512, 512, 512, 8)
GROUP_PROSE = "Here is the module you asked for."
GROUP_LITERALS = ("0", "1", "7", "12", "8'hff", "4'b10x1", "'d3", "2.5", "1e3")
# A rough lexeme scanner for rewriting copies: comments, strings, escaped
# and system names, numbers and words, each in a group of its own, and any
# other character.
_REWRITE_TOKEN = re.compile(
    r"//[^\n]*|/\*.*?\*/"
    r'|(?P<string>"[^"\n]*")|(?P<escaped>\\\S+)|(?P<system>\$[A-Za-z0-9_$]+)'
    r"|(?P<number>(?:[0-9][0-9_]*)?'[sS]?[bBoOdDhH][0-9a-fA-FxXzZ?_]+"
    r"|[0-9][0-9_]*(?:\.[0-9][0-9_]*)?(?:[eE][+-]?[0-9][0-9_]*)?)"
    r"|(?P<word>[A-Za-z_][A-Za-z0-9_$]*)|\S",
    re.DOTALL,
)


def fingerprint(text: str, ref: str) -> str:
    parts: list[str] = [_tokens(text)]
    validity = classify(text)
    parts.append(validity.status.value)
    parts.extend(f"{d.severity}|{d.message}|{d.span}" for d in validity.diagnostics)
    if validity.ast is not None:
        for node in iter_tree(validity.ast):
            parts.append(
                f"{node.kind.value}|{node.name}|{node.value}|{node.mods}|{node.span}"
                f"|{len(node.children)}"
            )
        parts.append(serialize(clean(validity.ast)))
        parts.append(_attempt(pretty_print, validity.ast))
    for kind in MutationKind:
        for seed in MUTATION_SEEDS:
            parts.append(_attempt(mutate, text, MutationSpec(kind, seed)))
    for mode in ("ast", "seq"):
        parts.append(_attempt(lambda: repr(reward(text, ref, mode=mode))))
    ref_ast = validity.ast if ref == text else classify(ref).ast
    if validity.ast is not None and ref_ast is not None:
        table: dict = {}
        ref_tree = clean(ref_ast, table)
        gen_tree = clean(validity.ast, table)
        parts.append(_attempt(lambda: repr(sim_ast_with_trace(gen_tree, ref_tree))))
    return hashlib.sha1("\n".join(parts).encode("utf-8")).hexdigest()


def group_fingerprint(items) -> str:
    """Hash the outcomes of one batch's items, scored in order through one memo."""
    memo: dict = {}
    parts = [
        _attempt(lambda: repr(reward(gen, ref, mode=mode, depth_limit=limit, memo=memo)))
        for gen, ref, mode, limit in items
    ]
    return hashlib.sha1("\n".join(parts).encode("utf-8")).hexdigest()


def _tokens(text: str) -> str:
    try:
        return "|".join(map(repr, lex(text)))
    except LexError as exc:
        return f"LexError: {exc} {exc.span}"


def _attempt(fn, *args) -> str:
    try:
        return str(fn(*args))
    except (DepthLimitError, MutationError, PrintError, ValueError) as exc:
        return f"{type(exc).__name__}: {exc}"


def damage_token(text: str, rng: random.Random) -> str:
    spans = [m.span() for m in _ROUGH_TOKEN.finditer(text)]
    if not spans:
        return text
    i = rng.randrange(len(spans))
    start, end = spans[i]
    action = rng.randrange(4)
    if action == 0:  # drop
        return text[:start] + text[end:]
    if action == 1:  # duplicate
        return text[:end] + " " + text[start:end] + text[end:]
    if action == 2 and i + 1 < len(spans):  # swap with the next token
        s2, e2 = spans[i + 1]
        return text[:start] + text[s2:e2] + text[end:s2] + text[start:end] + text[e2:]
    o_start, o_end = spans[rng.randrange(len(spans))]  # replace with another
    return text[:start] + text[o_start:o_end] + text[end:]


def damage_char(text: str, rng: random.Random) -> str:
    if not text:
        return rng.choice(_NOISE)
    i = rng.randrange(len(text))
    action = rng.randrange(3)
    if action == 0:
        return text[:i] + text[i + 1:]
    if action == 1:
        return text[:i] + rng.choice(_NOISE) + text[i:]
    return text[:i] + rng.choice(_NOISE) + text[i + 1:]


def redraw_blanks(text: str, rng: random.Random) -> str:
    """`text` with each blank run between two tokens drawn anew.

    Tokens that touch stay touching, and a run gets a line end exactly when
    the file's run had one, so comments, directives and strings keep their
    extent.  A line end may come as a `// note` comment.
    """
    def run(line_end: bool) -> str:
        parts = [rng.choice(_BLANKS) for _ in range(rng.randrange(not line_end, 3))]
        for _ in range(rng.randint(1, 2) if line_end else 0):
            parts.insert(rng.randrange(len(parts) + 1), rng.choice(_LINE_ENDS))
        return "".join(parts)

    out = []
    at = 0
    for m in _ROUGH_TOKEN.finditer(text):
        gap = text[at:m.start()]
        out.append(run("\n" in gap) if gap else "")
        out.append(m.group())
        at = m.end()
    tail = rng.randrange(3)
    if tail == 1:
        out.append(run(True))
    elif tail == 2:  # a comment with no newline after it ends the text
        out.append(run(False) + " // note")
    return "".join(out)


def rewrite_names(text: str, rng: random.Random) -> str:
    """`text` with its names, numbers and strings rewritten, comments kept.

    Each word that is not a keyword gets a new name, the same one wherever
    it appears; system and escaped names, numbers and strings are each
    drawn anew.  Keywords, operators, punctuation and blanks stay.
    """
    names: dict[str, str] = {}
    base = rng.randrange(1000)

    def new(m: re.Match) -> str:
        group, lexeme = m.lastgroup, m.group()
        if group == "word" and lexeme not in KEYWORDS:
            return names.setdefault(lexeme, f"n{base + len(names)}")
        if group == "number":
            return rng.choice(GROUP_LITERALS)
        if group == "string":
            return f'"s{rng.randrange(100)}"'
        if group == "escaped":
            return f"\\e{rng.randrange(100)}"
        if group == "system":
            return f"$s{rng.randrange(100)}"
        return lexeme

    return _REWRITE_TOKEN.sub(new, text)


def gen_group(files, rng: random.Random) -> list[tuple[str, str, str, int]]:
    """One batch's items (generation, reference, mode, depth limit), see the module doc."""
    items = []
    for _, ref in rng.sample(files, GROUP_REFS):
        broken = damage_token(ref, rng)
        samples = [ref, rewrite_names(ref, rng), rewrite_names(ref, rng),
                   rewrite_names(redraw_blanks(ref, rng), rng), broken,
                   rewrite_names(broken, rng), GROUP_PROSE, GROUP_PROSE, rng.choice(files)[1]]
        items += [(gen, ref, rng.choice(("ast", "seq")), rng.choice(GROUP_LIMITS))
                  for gen in samples]
    rng.shuffle(items)
    return items


def gen_expr(rng: random.Random, depth: int) -> str:
    if depth <= 0 or rng.random() < 0.25:
        return rng.choice(LEAVES)
    pick = rng.random()
    if pick < 0.45:
        text = f"{gen_expr(rng, depth - 1)} {rng.choice(BINARY)} {gen_expr(rng, depth - 1)}"
    elif pick < 0.6:
        text = f"{rng.choice(UNARY)} {gen_expr(rng, depth - 1)}"
    elif pick < 0.72:
        parts = [gen_expr(rng, depth - 1) for _ in range(3)]
        text = f"{parts[0]} ? {parts[1]} : {parts[2]}"
    elif pick < 0.82:
        items = ", ".join(gen_expr(rng, depth - 1) for _ in range(rng.randrange(1, 4)))
        text = "{" + items + "}" if rng.random() < 0.6 else "{2{" + items + "}}"
    elif pick < 0.9:
        text = f"v[{gen_expr(rng, depth - 1)}]"
    else:
        text = f"f({gen_expr(rng, depth - 1)}, {gen_expr(rng, depth - 1)})"
    return f"({text})" if rng.random() < 0.3 else text


def gen_expr_module(rng: random.Random, n: int) -> str:
    if n % 10 == 9:  # nesting around the cap
        k = 124 + rng.randrange(8)
        shape = rng.randrange(3)
        if shape == 0:
            expr = "(" * k + "a" + ")" * k
        elif shape == 1:
            expr = "- " * k + "a"
        else:
            expr = "c ? b : " * k + "e"
    else:
        expr = gen_expr(rng, rng.randrange(1, 6))
    if rng.random() < 0.1:  # an operand gone missing
        tokens = _ROUGH_TOKEN.findall(expr)
        del tokens[rng.randrange(len(tokens))]
        expr = " ".join(tokens)
    context = rng.randrange(4)
    if context == 0:
        body = f"assign y = {expr};"
    elif context == 1:
        body = f"always @* y = {expr};"
    elif context == 2:
        body = f"always @(posedge clk) if ({expr}) q <= {expr}; else q <= 0;"
    else:
        body = f"always @* case ({expr}) {expr}, 1: y = {expr}; default: ; endcase"
    return f"module g(input clk, output y);\n  {body}\nendmodule\n"


def gen_decl(rng: random.Random, header: bool) -> str:
    word = rng.choice(("parameter",) if header and rng.random() < 0.5 else DECL_WORDS)
    text = word
    if word in ("input", "output", "inout") and rng.random() < 0.5:
        text += rng.choice((" wire", " reg"))
    if rng.random() < 0.3:
        text += " signed"
    if rng.random() < 0.6:
        text += f" [{gen_expr(rng, 1)}:{gen_expr(rng, 1)}]"
    names = []
    for i in range(rng.randrange(1, 4)):
        name = f"n{i}"
        if word == "reg" and rng.random() < 0.3:
            name += " [0:3]"
        if word in ("parameter", "localparam") or rng.random() < 0.2:
            name += f" = {gen_expr(rng, 2)}"
        names.append(name)
    return text + " " + ", ".join(names)


def gen_decl_module(rng: random.Random) -> str:
    position = rng.randrange(4)
    decls = [gen_decl(rng, position >= 2) for _ in range(rng.randrange(1, 4))]
    if position == 0:
        return "module d;\n  " + ";\n  ".join(decls) + ";\nendmodule\n"
    if position == 1:
        body = "; ".join(decls)
        return f"module d;\n  function f; {body}; f = 0; endfunction\nendmodule\n"
    if position == 2:
        return "module d #(" + ", ".join(decls) + ") ();\nendmodule\n"
    body = "  wire w;\n" + ("  input late;\n" if rng.random() < 0.3 else "")
    return "module d (" + ", ".join(decls) + ");\n" + body + "endmodule\n"


def wide_expr(rng: random.Random, depth: int):
    """A signal, a constant, or [operator, left, right]."""
    if depth == 0 or rng.random() < 0.2:
        return rng.choice(WIDE_SIGNALS) if rng.random() < 0.8 else f"8'd{rng.randrange(256)}"
    return [rng.choice(tuple(WIDE_SWAP)), wide_expr(rng, depth - 1), wide_expr(rng, depth - 1)]


def render_wide(e) -> str:
    return e if isinstance(e, str) else f"({render_wide(e[1])} {e[0]} {render_wide(e[2])})"


def wide_module(items) -> str:
    lines = ["module w(input clk, input rst, input [7:0] a, input [7:0] b, input [7:0] c);"]
    lines += [f"  reg [7:0] {s};" for s in WIDE_SIGNALS[3:]]
    for shape, target, exprs in items:
        e = [render_wide(x) for x in exprs]
        if shape == "assign":
            lines.append(f"  assign {target} = {e[0]};")
        elif shape == "ff":
            lines.append(f"  always @(posedge clk) if (rst) {target} <= {e[0]}; "
                         f"else {target} <= {e[1]};")
        else:
            arms = " ".join(f"{i}: {target} = {x};" for i, x in enumerate(e[:-1]))
            lines.append(f"  always @* case (a) {arms} default: {target} = {e[-1]}; endcase")
    return "\n".join(lines + ["endmodule"]) + "\n"


def gen_wide_pair(rng: random.Random) -> tuple[str, str]:
    """(module, reordered copy with one operator swapped in each item)."""
    items = []
    for _ in range(rng.randint(*WIDE_ITEMS)):
        shape = rng.choice(("assign", "ff", "ff", "ff", "case"))
        count = {"assign": 1, "ff": 2, "case": rng.randint(2, 4)}[shape]
        exprs = [wide_expr(rng, rng.randint(1, 3)) for _ in range(count)]
        items.append((shape, rng.choice(WIDE_SIGNALS[3:]), exprs))
    swapped = copy.deepcopy(items)
    for _, _, exprs in swapped:
        ops = []
        work = list(exprs)
        while work:
            e = work.pop()
            if not isinstance(e, str):
                ops.append(e)
                work += e[1:]
        if ops:
            op = rng.choice(ops)
            op[0] = WIDE_SWAP[op[0]]
    rng.shuffle(swapped)
    return wide_module(items), wide_module(swapped)


def joined(files, rng: random.Random, length: int) -> tuple[str, str]:
    """(files drawn at random and joined past `length` characters, the first)."""
    parts = []
    while sum(map(len, parts)) <= length:
        parts.append(rng.choice(files)[1])
    return "\n".join(parts), parts[0]


def one_line(text: str) -> str:
    """`text` on one line: line comments and whole-line directives dropped."""
    lines = [re.sub(r"//.*", "", line) for line in text.splitlines()]
    return " ".join(line for line in lines if not line.lstrip().startswith("`"))


def rare_at_run_ends(text: str, rng: random.Random, pieces) -> str:
    """`text` with some of `pieces` put at line starts near each multiple of RUN."""
    out = text
    for k in range(len(text) // RUN, 0, -1):
        for _ in range(3):
            at = out.find("\n", max(k * RUN + rng.randrange(-48, 48), 0)) + 1
            if at:
                out = out[:at] + rng.choice(pieces) + out[at:]
    return out


def gen_long(files, rng: random.Random, n: int) -> tuple[str, str]:
    """(long text, a reference): the shape cycles with `n`, see the module doc."""
    shape = n % 4
    text, first = joined(files, rng, RUN if shape == 1 else 3 * RUN)
    if shape == 1:
        return one_line(text), first
    if shape >= 2:
        return rare_at_run_ends(text, rng, LONG_RARE[:4] if shape == 2 else LONG_RARE), first
    return text, first


def load_files(limit: int | None) -> list[tuple[str, str]]:
    """(name, text) of the golden files, then the fixtures, the first `limit` of each."""
    files = []
    for folder in ("golden", "fixtures"):
        paths = sorted((ROOT / "tests" / folder).glob("*.v"))[:limit]
        files += [(f"{folder}/{p.name}", p.read_text(encoding="utf-8")) for p in paths]
    return files


def inputs(seed: int, copies: int, generated: int, limit: int | None, wide: int):
    """Yield (name, text, reference text) in a fixed order."""
    rng = random.Random(seed)
    files = load_files(limit)
    for name, text in files:
        yield name, text, text
    for name, text in files:
        for n in range(copies):
            yield f"tok/{name}/{n}", damage_token(text, rng), text
            yield f"chr/{name}/{n}", damage_char(text, rng), text
    # Its own generator, so the other families draw what they always drew.
    blank_rng = random.Random(f"blank/{seed}")
    for name, text in files:
        for n in range(copies):
            yield f"blank/{name}/{n}", redraw_blanks(text, blank_rng), text
    ref = "module g(input clk, output y);\n  assign y = a;\nendmodule\n"
    for n in range(generated):
        text = gen_expr_module(rng, n)
        yield f"expr/{n}", text, ref
        ref = text
    ref = "module d;\n  wire w;\nendmodule\n"
    for n in range(generated):
        text = gen_decl_module(rng)
        yield f"decl/{n}", text, ref
        ref = text
    for n in range(wide):
        ref, text = gen_wide_pair(rng)
        yield f"wide/{n}", text, ref
    long_rng = random.Random(f"long/{seed}")
    for n in range(LONG):
        text, ref = gen_long(files, long_rng, n)
        yield f"long/{n}", text, ref


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--copies", type=int, default=4,
                    help="token- and character-damaged copies per file (default 4)")
    ap.add_argument("--generated", type=int, default=300,
                    help="generated expression and declaration texts each (default 300)")
    ap.add_argument("--limit", type=int, default=None,
                    help="use only the first N files of each folder")
    ap.add_argument("--wide", type=int, default=20,
                    help="generated wide module pairs (default 20)")
    args = ap.parse_args(argv)
    for name, text, ref in inputs(args.seed, args.copies, args.generated, args.limit,
                                  args.wide):
        print(f"{name}\t{fingerprint(text, ref)}")
    files = load_files(args.limit)
    group_rng = random.Random(f"group/{args.seed}")
    for n in range(GROUPS):
        print(f"group/{n}\t{group_fingerprint(gen_group(files, group_rng))}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
