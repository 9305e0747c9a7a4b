"""Verilog-2005 tokenizer for the synthesizable subset.

Comments are stripped, whitespace is skipped, and compiler directives are
kept as `directive` tokens so later stages can drop them without losing
span bookkeeping.  Token spans are (start, end) offsets into the source
string; every token's text is exactly `source[start:end]`.
"""

from __future__ import annotations

import re
from enum import Enum
from itertools import islice
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
_SYS_ID_RE = re.compile(r"\$[A-Za-z0-9_$]+")
# Ordered alternation: based literal, real, plain decimal.  Digit classes are
# per base so e.g. 8'hqq fails here instead of parsing later.
_NUMBER_RE = re.compile(
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

# One master pattern for the common lexemes (the tokenizer recipe from the
# `re` module docs); its group number is the lexeme class.  Each match takes
# the blank run before its lexeme too, so the scan makes one match per token
# rather than one more per blank run; token text and span are read from the
# lexeme's group.  A number must start with an ASCII digit or a quote, as
# `\d` alone would admit other scripts' digits.  The last group takes any
# other character, which starts a lexeme `_lex_rare` handles: block comment,
# directive, string, escaped or system identifier, or an error.  A line
# comment, and the end of the text after trailing blanks, match no group.
#
# Line comments stay matches of their own rather than part of the blank
# prefix: a match then covers at most one blank run and one lexeme or
# comment, and the deadline is checked once per CHECK_EVERY matches.  A
# prefix that also took comments would read a file of comment lines as one
# match that no deadline check can interrupt.  Every match but the one at
# the end consumes at least one character, so scanning never stalls.
_WORD, _NUMBER, _OPERATOR, _PUNCT, _RARE = range(1, 6)
_MASTER_RE = re.compile(
    r"[ \t\r\f\v\n]*(?:"
    r"//[^\n]*"
    rf"|({_ID_RE.pattern})"
    rf"|(?=[0-9'])({_NUMBER_RE.pattern})"
    rf"|({_OPERATOR_RE})"
    r"|([()\[\]{};,.:#@])"
    r"|(.)"
    r"|\Z)",
    re.DOTALL,
)
_KIND_OF_GROUP = {
    _NUMBER: TokenKind.NUMBER,
    _OPERATOR: TokenKind.OPERATOR,
    _PUNCT: TokenKind.PUNCTUATION,
}
# A string literal's run up to its next quote, backslash or newline, and an
# escaped identifier's run up to the next whitespace (`\s` matches exactly
# the characters for which `str.isspace()` is true).
_STRING_RUN_RE = re.compile(r'[^"\\\n]*')
_ESCAPED_RUN_RE = re.compile(r"\S*")


def lex(source: str, *, deadline: float | None = None) -> list[Token]:
    """Tokenize `source`, raising LexError on malformed input.

    Guarantees on success: spans are non-overlapping and strictly
    increasing, and no token is empty.  Comments never produce tokens.
    A line whose first non-blank character is a backtick becomes a single
    directive token; a mid-line backtick plus identifier (a macro use) is
    also a directive token.  Raises DeadlineExceeded once `deadline` (a
    `time.monotonic()` value) has passed; see `vsr.deadline`.
    """
    tokens: list[Token] = []
    append = tokens.append
    scan = _MASTER_RE.finditer
    new = tuple.__new__  # builds a Token without NamedTuple's Python __new__
    keywords = KEYWORDS
    kind_of_group = _KIND_OF_GROUP
    identifier, keyword = TokenKind.IDENTIFIER, TokenKind.KEYWORD
    end = len(source)
    pos = 0
    matches = scan(source)
    while pos < end:
        # Lexemes are taken in slices, so the deadline is checked between
        # slices at no cost per lexeme.  A rare lexeme ends its slice early
        # and is checked after, so text dense with them is checked too.
        for m in islice(matches, CHECK_EVERY):
            group = m.lastindex
            if group == _WORD:
                text = m[group]
                kind = keyword if text in keywords else identifier
                append(new(Token, (kind, text, m.span(group))))
            elif group is None:  # a line comment, or the end of the text
                continue
            elif group != _RARE:
                append(new(Token, (kind_of_group[group], m[group], m.span(group))))
            else:
                pos = _lex_rare(source, m, append, deadline)
                check(deadline)
                matches = scan(source, pos)
                break
        else:
            # The matches tile the source, so the last one ends where the
            # scan stands.  While pos < end the slice was not empty.
            pos = m.end()
            check(deadline)
    return tokens


def _lex_rare(source: str, m: re.Match, append, deadline: float | None) -> int:
    """Lex the lexeme that starts at the rare group of master match `m`.

    Appends its token, if it makes one, and returns the offset just past it;
    raises LexError when the text there is malformed.  Long strings and
    escaped identifiers are scanned by `re` in runs, and a string checks
    `deadline` once per CHECK_EVERY escapes, so no lexeme is a long Python
    loop without a deadline check.
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
        # lexeme or comment, and none of those ends just after a newline (a
        # newline inside a comment or string is followed by its closing
        # characters).  So the line holds only blanks before the backtick
        # exactly when the prefix starts the text or holds a newline.  This
        # reads each blank run once, where looking back to the line start
        # would reread a long line at each backtick on it.
        blanks = m.start()
        if blanks == 0 or source.find("\n", blanks, i) >= 0:
            # whole-line directive such as `define or `timescale
            nl = source.find("\n", i)
            end = n if nl < 0 else nl
        else:
            name = _ID_RE.match(source, i + 1)
            if name is None:
                raise LexError("stray backtick", (i, i + 1))
            end = name.end()
        append(Token(TokenKind.DIRECTIVE, source[i:end], (i, end)))
        return end
    if ch == '"':
        run = _STRING_RUN_RE.match
        steps = CHECK_EVERY
        j = run(source, i + 1).end()
        while j < n:
            c = source[j]
            if c == '"':
                append(Token(TokenKind.STRING, source[i : j + 1], (i, j + 1)))
                return j + 1
            if c == "\n":
                raise LexError("unterminated string", (i, i + 1))
            # a backslash: it escapes the next character, whatever it is
            steps -= 1
            if not steps:
                check(deadline)
                steps = CHECK_EVERY
            j = run(source, j + 2).end()
        raise LexError("unterminated string", (i, n))
    if ch == "\\":
        # escaped identifier: backslash through the next whitespace
        j = _ESCAPED_RUN_RE.match(source, i + 1).end()
        if j == i + 1:
            raise LexError("empty escaped identifier", (i, i + 1))
        append(Token(TokenKind.IDENTIFIER, source[i:j], (i, j)))
        return j
    if ch == "'":  # a quote the number pattern rejected
        raise LexError("malformed number literal", (i, i + 1))
    if ch == "$":
        name = _SYS_ID_RE.match(source, i)
        if name is None:
            raise LexError("stray '$'", (i, i + 1))
        append(Token(TokenKind.IDENTIFIER, name.group(), (i, name.end())))
        return name.end()
    raise LexError(f"illegal character {ch!r}", (i, i + 1))
