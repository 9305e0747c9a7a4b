"""Verilog-2005 tokenizer for the synthesizable subset.

Comments are stripped, whitespace is skipped, and compiler directives are
kept as `directive` tokens so later stages can drop them without losing
span bookkeeping.  Token spans are (start, end) offsets into the source
string; every token's text is exactly `source[start:end]`.

`scan` is the tokenizer.  It fills parallel lists of token texts and kinds,
and of spans when the caller needs them; `lex` builds its Token list from
those lists, and the parser reads them as they are.  Two paths share the
work, and give the same tokens and errors:

- The bulk scan reads runs of whole lines, about 16 KiB each, with one
  `re.findall` per run, so a common lexeme costs no Python bytecode of its
  own.  It finds keywords, identifiers (plain, system and escaped),
  numbers, operators, punctuation and one-line strings, and skips blanks,
  line comments and one-line block comments.  A lexeme's kind is read off
  its first character, and for a word off the keyword set.
- The per-match path takes one master-pattern match per token.  It lexes
  what the bulk scan leaves: directives (a backtick's whole-line rule
  needs the line), block comments and strings that span lines, malformed
  text, and any line longer than a run.  It goes on for a stretch after
  each such lexeme, so text dense with them is not cut into short runs.

The deadline is checked after each run and once per CHECK_EVERY matches of
the per-match path, so no input runs long past its deadline.
"""

from __future__ import annotations

import re
from enum import Enum
from functools import partial
from itertools import accumulate, islice
from operator import add, itemgetter, sub
from typing import NamedTuple

from vsr.deadline import CHECK_EVERY, check


class TokenKind(Enum):
    IDENTIFIER = "identifier"
    NUMBER = "number"
    STRING = "string"
    OPERATOR = "operator"
    PUNCTUATION = "punctuation"
    KEYWORD = "keyword"
    DIRECTIVE = "directive"


class Token(NamedTuple):
    """One lexeme.  Immutable: a named tuple, cheap to build."""

    kind: TokenKind
    text: str
    span: tuple[int, int]

    def __repr__(self) -> str:  # compact form for test failure output
        return f"Token({self.kind.value}, {self.text!r}, {self.span[0]}:{self.span[1]})"


class LexError(ValueError):
    """Tokenization failure; `span` points at the offending source range."""

    def __init__(self, message: str, span: tuple[int, int]):
        super().__init__(message)
        self.span = span


# IEEE 1364-2005 reserved words.  The parser accepts a subset; keeping the
# full list here stops reserved words from masquerading as identifiers.
KEYWORDS = frozenset(
    """
    always and assign automatic begin buf bufif0 bufif1 case casex casez cell
    cmos config deassign default defparam design disable edge else end endcase
    endconfig endfunction endgenerate endmodule endprimitive endspecify
    endtable endtask event for force forever fork function generate genvar
    highz0 highz1 if ifnone incdir include initial inout input instance
    integer join large liblist library localparam macromodule medium module
    nand negedge nmos nor noshowcancelled not notif0 notif1 or output
    parameter pmos posedge primitive pull0 pull1 pulldown pullup
    pulsestyle_ondetect pulsestyle_onevent rcmos real realtime reg release
    repeat rnmos rpmos rtran rtranif0 rtranif1 scalared showcancelled signed
    small specify specparam strong0 strong1 supply0 supply1 table task time
    tran tranif0 tranif1 tri tri0 tri1 triand trior trireg unsigned use uwire
    vectored wait wand weak0 weak1 while wire wor xnor xor
    """.split()
)

_ID_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_$]*")
_SYS_ID = r"\$[A-Za-z0-9_$]+"
# Ordered alternation: based literal, real, plain decimal.  Digit classes are
# per base so e.g. 8'hqq fails here instead of parsing later.
_NUMBER = (
    r"(?:\d[\d_]*)?'[sS]?(?:[bB][01xXzZ?_]+|[oO][0-7xXzZ?_]+"
    r"|[dD][0-9xXzZ?_]+|[hH][0-9a-fA-FxXzZ?_]+)"
    r"|\d[\d_]*\.\d[\d_]*(?:[eE][+-]?\d[\d_]*)?"
    r"|\d[\d_]*[eE][+-]?\d[\d_]*"
    r"|\d[\d_]*"
)
# Operators longest first, so `<<<` is never read as `<<` then `<`.  A `/`
# that opens a comment is left to the comment branches.
_OPERATORS = (
    "<<<", ">>>", "===", "!==",
    "<<", ">>", "<=", ">=", "==", "!=", "&&", "||",
    "~&", "~|", "~^", "^~", "**", "+:", "-:",
)
_OPERATOR_RE = "|".join(map(re.escape, _OPERATORS)) + r"|[-+*%&|^~!<>=?]|/(?![/*])"
_PUNCT_RE = r"[()\[\]{};,.:#@]"

# ---- The bulk scan ----
#
# Most text is lexed by `re.findall` over runs of whole lines, so a common
# lexeme costs no Python bytecode of its own.  Each match is a skip of
# blanks and comments, then one lexeme; the skip is possessive, so it is
# never given back.  The lexeme alternatives are the common lexemes plus
# those rare ones that fit on one line and need no context: system and
# escaped identifiers, strings whose escapes are not line ends, and (inside
# the skip) block comments that close on their own line.  They give the
# same tokens as the per-match path below, which handles them in
# `_lex_rare`.  `\Z` takes the end of the run after trailing blanks in one
# match; without it findall would retry a trailing blank run once per
# character.  Anything else (a backtick, an unterminated string or block
# comment, a stray or illegal character) is taken by the last alternative
# together with the rest of the run, which ends in a newline, so it is the
# only text that holds one: the run stops there and the per-match path
# takes over at that character.
#
# A lexeme's kind follows from its first character, and for a word from
# the keyword set: each lexeme class starts with characters of its own (see
# `vsr.parser`).
_SKIP = r"[ \t\r\f\v\n]*+(?:(?://[^\n]*|/\*[^\n]*?\*/)[ \t\r\f\v\n]*+)*+"
_LEXEME = (
    rf"{_ID_RE.pattern}|{_PUNCT_RE}|{_OPERATOR_RE}|(?=[0-9'])(?:{_NUMBER})|{_SYS_ID}"
    r'|\\\S+|"[^"\\\n]*(?:\\[^\n][^"\\\n]*)*"|\Z|(?s:.+)'
)
_BULK_RE = re.compile(rf"{_SKIP}({_LEXEME})")
# The same with the skip as a group of its own, for callers that need spans.
# It is compiled on first use, through the `re` module's own cache, so that
# a process that only scores does not pay for it at import.
_BULK_SPANS = rf"({_SKIP})({_LEXEME})"
# A run ends at the first newline this many characters after its start.  A
# run is then about CHECK_EVERY lexemes, and the deadline is checked after
# each.  A line that would make a run longer than twice this is lexed by
# the per-match path, which checks the deadline as it goes.
_RUN = 16384
# How far past a rare lexeme the per-match path goes on (see `_lex_slow`).
_DENSE = 64
_LINE_BLANKS = " \t\r\f\v\n"

_FIRST_KIND = {
    **dict.fromkeys("ABCDEFGHIJKLMNOPQRSTUVWXYZ", TokenKind.IDENTIFIER),
    **dict.fromkeys("abcdefghijklmnopqrstuvwxyz_$\\", TokenKind.IDENTIFIER),
    **dict.fromkeys("0123456789'", TokenKind.NUMBER),
    **dict.fromkeys("-+*%&|^~!<>=?/", TokenKind.OPERATOR),
    **dict.fromkeys("()[]{};,.:#@", TokenKind.PUNCTUATION),
    '"': TokenKind.STRING,
}
_KEYWORD_KIND = dict.fromkeys(KEYWORDS, TokenKind.KEYWORD)
_first = itemgetter(0)
_second = itemgetter(1)

# ---- The per-match path ----
#
# One master pattern for the common lexemes (the tokenizer recipe from the
# `re` module docs); its group number is the lexeme class.  Each match takes
# the blank run before its lexeme too, so the scan makes one match per token
# rather than one more per blank run; token text and span are read from the
# lexeme's group.  A number must start with an ASCII digit or a quote, as
# `\d` alone would admit other scripts' digits.  The last group takes any
# other character, which starts a lexeme `_lex_rare` handles: block comment,
# directive, string, escaped or system identifier, or an error.  A line
# comment, and the end of the text after trailing blanks, match no group.
# Every match but the one at the end consumes at least one character, so
# scanning never stalls.
_WORD, _NUMBER_GROUP, _OPERATOR, _PUNCT, _RARE = range(1, 6)
_MASTER_RE = re.compile(
    r"[ \t\r\f\v\n]*(?:"
    r"//[^\n]*"
    rf"|({_ID_RE.pattern})"
    rf"|(?=[0-9'])({_NUMBER})"
    rf"|({_OPERATOR_RE})"
    rf"|({_PUNCT_RE})"
    r"|(.)"
    r"|\Z)",
    re.DOTALL,
)
_KIND_OF_GROUP = {
    _NUMBER_GROUP: TokenKind.NUMBER,
    _OPERATOR: TokenKind.OPERATOR,
    _PUNCT: TokenKind.PUNCTUATION,
}
# A string literal's run up to its next quote, backslash or newline, and an
# escaped identifier's run up to the next whitespace (`\s` matches exactly
# the characters for which `str.isspace()` is true).
_STRING_RUN_RE = re.compile(r'[^"\\\n]*')
_ESCAPED_RUN_RE = re.compile(r"\S*")

# Builds a Token without NamedTuple's Python __new__.
_new_token = partial(tuple.__new__, Token)


def lex(source: str, *, deadline: float | None = None) -> list[Token]:
    """Tokenize `source`, raising LexError on malformed input.

    Guarantees on success: spans are non-overlapping and strictly
    increasing, and no token is empty.  Comments never produce tokens.
    A line whose first non-blank character is a backtick becomes a single
    directive token; a mid-line backtick plus identifier (a macro use) is
    also a directive token.  Raises DeadlineExceeded once `deadline` (a
    `time.monotonic()` value) has passed; see `vsr.deadline`.
    """
    texts, kinds, spans = scan(source, deadline, spans=True)
    return list(map(_new_token, zip(kinds, texts, spans)))


def scan(
    source: str, deadline: float | None = None, *, spans: bool = False
) -> tuple[list[str], list[TokenKind], list[tuple[int, int]] | None]:
    """Tokenize `source` into parallel lists: texts, kinds and spans.

    The tokens are those of `lex`, and so are the errors and the spans.
    The spans are computed only when `spans` is true and are None
    otherwise.  Runs of whole lines go to the bulk scan and the rest to the
    per-match path (see the comments above); the deadline is checked after
    each run and as the per-match path goes.
    """
    texts: list[str] = []
    kinds: list[TokenKind] = []
    found_spans: list[tuple[int, int]] | None = [] if spans else None
    n = len(source)
    pos = 0
    while pos < n:
        cut = source.find("\n", pos + _RUN)
        end = n if cut < 0 else cut + 1
        if end - pos > 2 * _RUN:
            back = source.rfind("\n", pos, pos + _RUN)
            if back < 0:
                # The line at `pos` is longer than a run.
                pos = _lex_slow(source, pos, pos, texts, kinds, found_spans, deadline)
                continue
            end = back + 1  # the run stops before the long line
        pos = _lex_bulk(source, pos, end, texts, kinds, found_spans, deadline)
        check(deadline)
    return texts, kinds, found_spans


def _lex_bulk(source, pos, end, texts, kinds, spans, deadline) -> int:
    """Lex `source[pos:end]` in one findall; return where lexing stands.

    That is `end`, unless the run held a lexeme the bulk scan leaves to the
    per-match path: then it is the line start where that path stopped.
    """
    if source[end - 1] == "\n":
        text, base, lo, hi = source, 0, pos, end
    else:  # the last run of a text that does not end in a newline
        text, base, lo, hi = source[pos:end] + "\n", pos, 0, end - pos + 1
    if spans is None:
        found = _BULK_RE.findall(text, lo, hi)
    else:
        pairs = re.compile(_BULK_SPANS).findall(text, lo, hi)
        found = list(map(_second, pairs))
    while found and not found[-1]:
        found.pop()  # the match at the end of the run
    rest = found.pop() if found and found[-1][-1] == "\n" else ""
    texts += found
    kinds += map(_KEYWORD_KIND.get, found, map(_FIRST_KIND.__getitem__, map(_first, found)))
    if spans is not None:
        # Each match is its skip and its lexeme, so its lexeme ends where it
        # does; `map` stops with `found`.
        lengths = list(map(len, found))
        ends = accumulate(map(add, map(len, map(_first, pairs)), lengths), initial=base + lo)
        ends = list(islice(ends, 1, None))
        spans += zip(map(sub, ends, lengths), ends)
    if not rest:
        return end
    # The last match took the rest of the run from a lexeme the per-match
    # path must read.  That path starts after the lexeme or comment before
    # it, where the blanks before it begin, as the whole-line directive test
    # reads them.
    at = base + hi - len(rest)
    first = pos + len(source[pos:at].rstrip(_LINE_BLANKS))
    return _lex_slow(source, first, at, texts, kinds, spans, deadline)


def _line_end(source: str, at: int) -> int:
    """The offset just past the end of the line that holds offset `at`."""
    nl = source.find("\n", at)
    return len(source) if nl < 0 else nl + 1


def _lex_slow(source, pos, past, texts, kinds, spans, deadline) -> int:
    """Lex from `pos` one master match at a time, to the end of a line.

    That is the line that holds offset `past`, or a later one: a rare
    lexeme closer than _DENSE characters to the end moves it on by twice
    that, so text dense with rare lexemes stays on this path rather than
    start a bulk run at each.  Returns the offset where lexing stopped, at
    the start of a line or at the end of the text.  Lexemes are taken in
    slices of CHECK_EVERY matches, and the deadline is checked between
    slices and after each rare lexeme, at no cost per lexeme.
    """
    add_text, add_kind = texts.append, kinds.append
    add_span = None if spans is None else spans.append
    scan = _MASTER_RE.finditer
    keywords = KEYWORDS
    kind_of_group = _KIND_OF_GROUP
    identifier, keyword = TokenKind.IDENTIFIER, TokenKind.KEYWORD
    # The scan ends at a line end, and no common lexeme holds a newline, so
    # it cuts none; `_lex_rare` reads past it on its own.
    stop = _line_end(source, past)
    matches = scan(source, pos, stop)
    while True:
        for m in islice(matches, CHECK_EVERY):
            group = m.lastindex
            if group == _WORD:
                text = m[group]
                add_text(text)
                add_kind(keyword if text in keywords else identifier)
            elif group is None:  # a line comment, or the end of the scan
                if m.end() == stop:
                    return stop
                continue
            elif group != _RARE:
                add_text(m[group])
                add_kind(kind_of_group[group])
            else:
                pos = _lex_rare(source, m, texts, kinds, spans, deadline)
                if pos + _DENSE >= stop:
                    stop = _line_end(source, pos + 2 * _DENSE)
                check(deadline)
                matches = scan(source, pos, stop)
                break
            if add_span is not None:
                add_span(m.span(group))
        else:
            check(deadline)


def _lex_rare(source: str, m: re.Match, texts, kinds, spans, deadline) -> int:
    """Lex the lexeme that starts at the rare group of master match `m`.

    Appends its token to the lists, if it makes one, and returns the offset
    just past it; raises LexError when the text there is malformed.  Long
    strings and escaped identifiers are scanned by `re` in runs, and a
    string checks `deadline` once per CHECK_EVERY escapes, so no lexeme is
    a long Python loop without a deadline check.
    """
    n = len(source)
    i = m.start(_RARE)
    ch = source[i]
    if source.startswith("/*", i):
        close = source.find("*/", i + 2)
        if close < 0:
            raise LexError("unterminated block comment", (i, i + 2))
        return close + 2
    if ch == "`":
        # Only blanks since the last newline: a whole-line directive.  The
        # match's blank prefix reaches back to the end of the previous
        # lexeme or comment, or to where the scan started, which is the
        # start of the text or of a line or the end of a lexeme or comment.
        # No lexeme or comment ends just after a newline (a newline inside
        # a comment or string is followed by its closing characters).  So
        # the line holds only blanks before the backtick exactly when the
        # prefix starts the text or a line or holds a newline.  This reads
        # each blank run once, where looking back to the line start would
        # reread a long line at each backtick on it.
        blanks = m.start()
        if not blanks or source[blanks - 1] == "\n" or source.find("\n", blanks, i) >= 0:
            # whole-line directive such as `define or `timescale
            nl = source.find("\n", i)
            end = n if nl < 0 else nl
        else:
            name = _ID_RE.match(source, i + 1)
            if name is None:
                raise LexError("stray backtick", (i, i + 1))
            end = name.end()
        kind = TokenKind.DIRECTIVE
    elif ch == '"':
        run = _STRING_RUN_RE.match
        steps = CHECK_EVERY
        end = run(source, i + 1).end()
        while True:
            if end >= n:
                raise LexError("unterminated string", (i, n))
            c = source[end]
            if c == '"':
                end += 1
                break
            if c == "\n":
                raise LexError("unterminated string", (i, i + 1))
            # a backslash: it escapes the next character, whatever it is
            steps -= 1
            if not steps:
                check(deadline)
                steps = CHECK_EVERY
            end = run(source, end + 2).end()
        kind = TokenKind.STRING
    elif ch == "\\":
        # escaped identifier: backslash through the next whitespace
        end = _ESCAPED_RUN_RE.match(source, i + 1).end()
        if end == i + 1:
            raise LexError("empty escaped identifier", (i, i + 1))
        kind = TokenKind.IDENTIFIER
    elif ch == "'":  # a quote the number pattern rejected
        raise LexError("malformed number literal", (i, i + 1))
    elif ch == "$":
        # Compiled on first use, not at import: a system identifier comes
        # this way only on a line longer than a run.
        name = re.compile(_SYS_ID).match(source, i)
        if name is None:
            raise LexError("stray '$'", (i, i + 1))
        end = name.end()
        kind = TokenKind.IDENTIFIER
    else:
        raise LexError(f"illegal character {ch!r}", (i, i + 1))
    texts.append(source[i:end])
    kinds.append(kind)
    if spans is not None:
        spans.append((i, end))
    return end
