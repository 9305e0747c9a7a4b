import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vsr.lexer import KEYWORDS, LexError, Token, TokenKind, lex


def kinds_and_texts(src):
    return [(t.kind, t.text) for t in lex(src)]


def test_basic_statement():
    got = kinds_and_texts("assign y = a + 8'hFF;")
    assert got == [
        (TokenKind.KEYWORD, "assign"),
        (TokenKind.IDENTIFIER, "y"),
        (TokenKind.OPERATOR, "="),
        (TokenKind.IDENTIFIER, "a"),
        (TokenKind.OPERATOR, "+"),
        (TokenKind.NUMBER, "8'hFF"),
        (TokenKind.PUNCTUATION, ";"),
    ]


def test_keywords_are_case_sensitive():
    got = kinds_and_texts("module Module MODULE")
    assert [k for k, _ in got] == [
        TokenKind.KEYWORD,
        TokenKind.IDENTIFIER,
        TokenKind.IDENTIFIER,
    ]


def test_spans_slice_back_to_text():
    src = 'module m;\n  reg [3:0] x = 4\'b10_1z; // tail\n  initial $display("s");\nendmodule\n'
    for token in lex(src):
        start, end = token.span
        assert src[start:end] == token.text


@pytest.mark.parametrize(
    "literal",
    [
        "42",
        "8'hDE",
        "8'HDE",
        "4'b10xz",
        "12'o777",
        "16'd65535",
        "8'sd12",
        "4'sB1010",
        "'d9",
        "3.14",
        "1.5e3",
        "2E-4",
        "32'hdead_beef",
        "6'b??_01",
    ],
)
def test_number_forms(literal):
    tokens = lex(literal)
    assert len(tokens) == 1
    assert tokens[0].kind is TokenKind.NUMBER
    assert tokens[0].text == literal


def test_number_does_not_eat_range_colon():
    texts = [t.text for t in lex("[7:0]")]
    assert texts == ["[", "7", ":", "0", "]"]


def test_operators_longest_match():
    texts = [t.text for t in lex("a <<< b <= c <= d === e !== f ** g")]
    assert "<<<" in texts and "===" in texts and "!==" in texts and "**" in texts
    assert "<" not in texts


def test_part_select_operators():
    texts = [t.text for t in lex("x[3 +: 2] y[9 -: 4]")]
    assert "+:" in texts and "-:" in texts


def test_comments_are_skipped():
    got = kinds_and_texts("a // line comment\n/* block\ncomment */ b")
    assert got == [(TokenKind.IDENTIFIER, "a"), (TokenKind.IDENTIFIER, "b")]


def test_unterminated_block_comment():
    with pytest.raises(LexError) as err:
        lex("x /* never ends")
    assert "comment" in str(err.value)


def test_string_with_escapes():
    tokens = lex(r'"hi \"there\" \n"')
    assert tokens[0].kind is TokenKind.STRING


def test_unterminated_string():
    with pytest.raises(LexError):
        lex('"runs off the end')


def test_escaped_identifier():
    tokens = lex("\\bus+1 rest")
    assert tokens[0].kind is TokenKind.IDENTIFIER
    assert tokens[0].text == "\\bus+1"
    assert tokens[1].text == "rest"


def test_system_identifier():
    tokens = lex("$display($time);")
    assert tokens[0].kind is TokenKind.IDENTIFIER
    assert tokens[0].text == "$display"
    assert tokens[2].text == "$time"


def test_directive_whole_line():
    tokens = lex("`define W 8\nwire [`W-1:0] x;")
    assert tokens[0].kind is TokenKind.DIRECTIVE
    assert tokens[0].text == "`define W 8"
    macro_uses = [t for t in tokens if t.kind is TokenKind.DIRECTIVE]
    assert macro_uses[1].text == "`W"


def test_illegal_character():
    with pytest.raises(LexError) as err:
        lex("wire € bad;")
    assert err.value.span is not None


def test_keyword_set_is_reserved_words_only():
    assert "module" in KEYWORDS
    assert "endmodule" in KEYWORDS
    assert "always" in KEYWORDS
    assert "posedge" in KEYWORDS
    # identifier-looking names must not be swallowed
    assert "clk" not in KEYWORDS
    assert "data" not in KEYWORDS


@pytest.mark.parametrize(
    "source,message,span",
    [
        ("x /* never ends", "unterminated block comment", (2, 4)),
        ("a ` b", "stray backtick", (2, 3)),
        ("a `", "stray backtick", (2, 3)),
        ('x "ab\ncd"', "unterminated string", (2, 3)),
        ('x "abc', "unterminated string", (2, 6)),
        ('x "a\\', "unterminated string", (2, 5)),
        ("a \\ b", "empty escaped identifier", (2, 3)),
        ("x \\", "empty escaped identifier", (2, 3)),
        ("x = 'q;", "malformed number literal", (4, 5)),
        ("8'hqq", "malformed number literal", (1, 2)),
        ("a $ b", "stray '$'", (2, 3)),
        ("wire \u00e9;", "illegal character '\u00e9'", (5, 6)),
        ("x = \u0663;", "illegal character '\u0663'", (4, 5)),
    ],
)
def test_lex_error_message_and_span(source, message, span):
    with pytest.raises(LexError) as err:
        lex(source)
    assert str(err.value) == message
    assert err.value.span == span


@pytest.mark.parametrize(
    "source,expected",
    [
        ("a / b", [("a", (0, 1)), ("/", (2, 3)), ("b", (4, 5))]),
        ("a/b", [("a", (0, 1)), ("/", (1, 2)), ("b", (2, 3))]),
        ("a/", [("a", (0, 1)), ("/", (1, 2))]),
        ("a **/ b", [("a", (0, 1)), ("**", (2, 4)), ("/", (4, 5)), ("b", (6, 7))]),
        ("a // b\nc", [("a", (0, 1)), ("c", (7, 8))]),
        ("a//", [("a", (0, 1))]),
        ("a /* b */ c", [("a", (0, 1)), ("c", (10, 11))]),
        ("a /*/ b */ c", [("a", (0, 1)), ("c", (11, 12))]),
        ("a/**/b", [("a", (0, 1)), ("b", (5, 6))]),
    ],
)
def test_slash_comment_boundaries(source, expected):
    assert [(t.text, t.span) for t in lex(source)] == expected


@pytest.mark.parametrize(
    "source,expected",
    [
        ("a = `FOO + 1", ["a", "=", "`FOO", "+", "1"]),
        # a comment, even one spanning lines, leaves the backtick mid-line
        ("/* c */ `define X", ["`define", "X"]),
        ("/* a\n */ `FOO x", ["`FOO", "x"]),
        ('a "s\\\n" `M', ["a", '"s\\\n"', "`M"]),
        # only blanks before it: the whole line is one directive
        ("  `define W 8\nx", ["`define W 8", "x"]),
        ("`define A 1\n`define B 2", ["`define A 1", "`define B 2"]),
        ("x // c\n  `M y", ["x", "`M y"]),
        ("\\esc\n`M y", ["\\esc", "`M y"]),
        # after any lexeme on its line, a macro use
        ("\\esc `M y", ["\\esc", "`M", "y"]),
        ('"s" `M y', ['"s"', "`M", "y"]),
        ("$t`M y", ["$t", "`M", "y"]),
    ],
)
def test_backtick_after_code_is_a_macro_token(source, expected):
    tokens = lex(source)
    assert [t.text for t in tokens] == expected
    directives = [t.text for t in tokens if t.kind is TokenKind.DIRECTIVE]
    assert directives == [text for text in expected if text.startswith("`")]


def test_token_is_immutable():
    (token,) = lex("abc")
    assert token == Token(TokenKind.IDENTIFIER, "abc", (0, 3))
    assert repr(token) == "Token(identifier, 'abc', 0:3)"
    with pytest.raises(AttributeError):
        token.text = "xyz"  # type: ignore[misc]
    with pytest.raises(AttributeError):
        token.span = (1, 2)  # type: ignore[misc]
    assert token.text == "abc" and token.span == (0, 3)


@settings(max_examples=200)
@given(
    st.text(
        alphabet=st.characters(min_codepoint=9, max_codepoint=126),
        max_size=80,
    )
)
def test_lex_is_total_over_ascii(text):
    """Either a clean token list with exact spans, or LexError; nothing else."""
    try:
        tokens = lex(text)
    except LexError:
        return
    for token in tokens:
        start, end = token.span
        assert text[start:end] == token.text
    for earlier, later in zip(tokens, tokens[1:]):
        assert earlier.span[1] <= later.span[0]


# Every operator and punctuation text the lexer knows.  The parser tests a
# token by its text alone, which is exact only while each of these texts,
# and each keyword, always lexes as its one kind.
OPERATOR_TEXTS = frozenset(
    "<<< >>> === !== << >> <= >= == != && || ~& ~| ~^ ^~ ** +: -:"
    " - + * / % & | ^ ~ ! < > = ?".split()
)
PUNCTUATION_TEXTS = frozenset("( ) [ ] { } ; , . : # @".split())

_TOKEN_SOUP = st.lists(
    st.one_of(
        st.sampled_from(sorted(KEYWORDS)),
        st.sampled_from(sorted(OPERATOR_TEXTS)),
        st.sampled_from(sorted(PUNCTUATION_TEXTS)),
        st.sampled_from(["\\", "$", '"', "`", "'", "/", "*", "x", "1", "'h", " ", "\n"]),
    ),
    max_size=20,
).map("".join)


@settings(max_examples=50)
@given(
    before=_TOKEN_SOUP,
    after=_TOKEN_SOUP,
    sep=st.sampled_from(["", " ", "\n"]),
)
def test_keyword_operator_and_punctuation_texts_have_one_kind(before, after, sep):
    # Every such text, in a random context, lexes as its one kind or not
    # as a token of its own at all.
    for word in sorted(KEYWORDS | OPERATOR_TEXTS | PUNCTUATION_TEXTS):
        try:
            tokens = lex(before + sep + word + sep + after)
        except LexError:
            continue
        for token in tokens:
            if token.text in KEYWORDS:
                assert token.kind is TokenKind.KEYWORD, token
            if token.text in OPERATOR_TEXTS:
                assert token.kind is TokenKind.OPERATOR, token
            if token.text in PUNCTUATION_TEXTS:
                assert token.kind is TokenKind.PUNCTUATION, token


# Each match of the master pattern takes the blank run before its lexeme;
# these pin what that must not change.
BLANKS = " \t\r\n\f\v"


@pytest.mark.parametrize(
    "source,expected",
    [
        ("", []),
        (BLANKS, []),
        ("\n\n  \r\n", []),
        ("a" + BLANKS, [("a", (0, 1))]),
        ("a b \t\n", [("a", (0, 1)), ("b", (2, 3))]),
        ("  a", [("a", (2, 3))]),
        ("a // c", [("a", (0, 1))]),
        ("a\n// c", [("a", (0, 1))]),
        ("// only", []),
        ("a //", [("a", (0, 1))]),
        ("a // c\n \t", [("a", (0, 1))]),
        ("a // c\r\n// d\n b", [("a", (0, 1)), ("b", (14, 15))]),
        (" \f\v( \n8'hF )", [("(", (3, 4)), ("8'hF", (6, 10)), (")", (11, 12))]),
    ],
)
def test_blank_runs_and_line_comments(source, expected):
    assert [(t.text, t.span) for t in lex(source)] == expected


@pytest.mark.parametrize("blank", [" ", "\t", " \t ", "\n", "\r\n  ", "\f\v"])
def test_blanks_before_rare_lexemes_keep_their_spans(blank):
    b = len(blank)
    source = f"x{blank}/* c */{blank}\"s\"{blank}\\esc{blank}$time{blank}y"
    tokens = lex(source)
    texts = ("x", '"s"', "\\esc", "$time", "y")
    starts = [source.index(text) for text in texts]
    assert [(t.text, t.span[0]) for t in tokens] == list(zip(texts, starts))
    assert all(source[t.span[0] : t.span[1]] == t.text for t in tokens)
    # a backtick after blanks only, at the start of the text or of a line,
    # is a whole-line directive; after code on its line it is a macro use
    for lead in ("", "x;\n"):
        tokens = lex(f"{lead}{blank}`define W 8\ny")
        assert [t.text for t in tokens][-2:] == ["`define W 8", "y"]
        assert tokens[-2].span[0] == len(lead) + b
    tokens = lex(f"x{blank}`M y")
    if "\n" in blank:
        assert [t.text for t in tokens] == ["x", "`M y"]
    else:
        assert [t.text for t in tokens] == ["x", "`M", "y"]


@pytest.mark.parametrize(
    "source,message,span",
    [
        ("x \t\"abc", "unterminated string", (3, 7)),
        ("x\n \"ab\ncd\"", "unterminated string", (3, 4)),
        ("x \f\\", "empty escaped identifier", (3, 4)),
        ("a \t ` b", "stray backtick", (4, 5)),
        ("a \v$ b", "stray '$'", (3, 4)),
        ("x \r\n/* never ends", "unterminated block comment", (4, 6)),
    ],
)
def test_errors_after_blanks_keep_their_spans(source, message, span):
    with pytest.raises(LexError) as err:
        lex(source)
    assert str(err.value) == message
    assert err.value.span == span


def test_string_of_many_escapes_is_one_token():
    # more escapes than one deadline check interval, one of them a newline
    body = '\\"x' * 5000 + "\\\n" + "\\\\" * 5000
    source = f'a "{body}" b'
    tokens = lex(source)
    assert [t.text for t in tokens] == ["a", f'"{body}"', "b"]
    assert tokens[1].span == (2, 4 + len(body))
