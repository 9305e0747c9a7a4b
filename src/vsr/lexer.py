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
# `re` module docs); its group number is the lexeme class.  A number must
# start with an ASCII digit or a quote, as `\d` alone would admit other
# scripts' digits.  The last group takes any other character, which starts a
# lexeme `_lex_rare` handles: block comment, directive, string, escaped or
# system identifier, or an error.  Every alternative consumes at least one
# character, so scanning never stalls.
_SKIP, _WORD, _NUMBER, _OPERATOR, _PUNCT, _RARE = range(1, 7)
_MASTER_RE = re.compile(
    r"([ \t\r\f\v\n]+|//[^\n]*)"
    rf"|({_ID_RE.pattern})"
    rf"|(?=[0-9'])({_NUMBER_RE.pattern})"
    rf"|({_OPERATOR_RE})"
    r"|([()\[\]{};,.:#@])"
    r"|(.)",
    re.DOTALL,
)
_KIND_OF_GROUP = {
    _NUMBER: TokenKind.NUMBER,
    _OPERATOR: TokenKind.OPERATOR,
    _PUNCT: TokenKind.PUNCTUATION,
}


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
        # slices at no cost per lexeme.
        for m in islice(matches, CHECK_EVERY):
            group = m.lastindex
            if group == _SKIP:
                continue
            if group == _WORD:
                text = m.group()
                kind = keyword if text in keywords else identifier
                append(new(Token, (kind, text, m.span())))
            elif group != _RARE:
                append(new(Token, (kind_of_group[group], m.group(), m.span())))
            else:
                pos = _lex_rare(source, m.start(), append)
                matches = scan(source, pos)
                break
        else:
            # The matches tile the source, so the last one ends where the
            # scan stands.  While pos < end the slice was not empty.
            pos = m.end()
            check(deadline)
    return tokens


def _lex_rare(source: str, i: int, append) -> int:
    """Lex the one lexeme at `i` the master pattern leaves alone.

    Appends its token, if it makes one, and returns the offset just past it;
    raises LexError when the text at `i` is malformed.
    """
    n = len(source)
    ch = source[i]
    if source.startswith("/*", i):
        close = source.find("*/", i + 2)
        if close < 0:
            raise LexError("unterminated block comment", (i, i + 2))
        return close + 2
    if ch == "`":
        # Only blanks since the last newline: a whole-line directive.  A
        # newline inside a comment or string leaves that comment's or
        # string's closing characters in between, so it never counts.
        line_start = source.rfind("\n", 0, i) + 1
        if source[line_start:i].strip() == "":
            # whole-line directive such as `define or `timescale
            nl = source.find("\n", i)
            end = n if nl < 0 else nl
        else:
            m = _ID_RE.match(source, i + 1)
            if m is None:
                raise LexError("stray backtick", (i, i + 1))
            end = m.end()
        append(Token(TokenKind.DIRECTIVE, source[i:end], (i, end)))
        return end
    if ch == '"':
        j = i + 1
        while j < n:
            c = source[j]
            if c == "\\":
                j += 2
                continue
            if c == "\n":
                raise LexError("unterminated string", (i, i + 1))
            if c == '"':
                append(Token(TokenKind.STRING, source[i : j + 1], (i, j + 1)))
                return j + 1
            j += 1
        raise LexError("unterminated string", (i, n))
    if ch == "\\":
        # escaped identifier: backslash through the next whitespace
        j = i + 1
        while j < n and not source[j].isspace():
            j += 1
        if j == i + 1:
            raise LexError("empty escaped identifier", (i, i + 1))
        append(Token(TokenKind.IDENTIFIER, source[i:j], (i, j)))
        return j
    if ch == "'":  # a quote the number pattern rejected
        raise LexError("malformed number literal", (i, i + 1))
    if ch == "$":
        m = _SYS_ID_RE.match(source, i)
        if m is None:
            raise LexError("stray '$'", (i, i + 1))
        append(Token(TokenKind.IDENTIFIER, m.group(), (i, m.end())))
        return m.end()
    raise LexError(f"illegal character {ch!r}", (i, i + 1))
