"""Tokenizer behavior: totality, verbatim round-trip, comments as gaps, positions."""

import time

from hypothesis import example, given, settings
from hypothesis import strategies as st

from centriscan.scanloop import WHITESPACE
from centriscan.solidity.parser import parse_solidity, parse_source
from centriscan.solidity.tokens import Tokens, tokenize

from helpers import SOLIDITY_FRAGMENTS, corpus_text

_WORDS = st.lists(st.sampled_from(SOLIDITY_FRAGMENTS), max_size=60).map("".join)

ROW2_SNIPPET = """function fun() public {
    require(address(owner) == msg.sender)
}
"""


def _pairs(tokens: Tokens) -> list[tuple[str, str]]:
    return list(zip(tokens.kinds, tokens.texts))


def test_empty_input_yields_no_tokens():
    tokens = tokenize("")
    assert len(tokens) == 0
    assert tokens.kinds == tokens.texts == tokens.starts == []


@given(_WORDS)
@example("contract C { function f() public { x = 1; } }\r\n// tail")
@settings(max_examples=200, deadline=None)
def test_tokens_sequence_contract(src):
    tokens = tokenize(src)
    assert isinstance(tokens, Tokens)
    assert tokens.source is src
    assert len(tokens) == len(tokens.kinds) == len(tokens.texts) == len(tokens.starts)
    lists = (list(tokens.kinds), list(tokens.texts), list(tokens.starts))
    # The parser reads the lists without changing them, and its unit
    # carries the very tokens it read.
    unit = parse_source(tokens)
    assert unit.tokens is tokens
    assert unit == parse_solidity(src)
    assert (tokens.kinds, tokens.texts, tokens.starts) == lists


# (source, expected (kind, text) sequence). The second source reaches every
# alternative of the scan kernel's master regex, so a kind assigned to the
# wrong text shows here even though every round-trip test would still pass.
# The rest are gaps: comments are skipped like whitespace, wherever they sit.
EXACT_TOKEN_CASES = [
    ("msg.sender", [
        ("identifier", "msg"),
        ("punctuation", "."),
        ("identifier", "sender"),
    ]),
    ("uint x = 0x1F + 1.5e-3; s = \"a\" + 'b'; y >>= 2 @ // line\n/* block */ /* open", [
        ("keyword", "uint"),
        ("identifier", "x"),
        ("punctuation", "="),
        ("number-literal", "0x1F"),
        ("punctuation", "+"),
        ("number-literal", "1.5e-3"),
        ("punctuation", ";"),
        ("identifier", "s"),
        ("punctuation", "="),
        ("string-literal", '"a"'),
        ("punctuation", "+"),
        ("string-literal", "'b'"),
        ("punctuation", ";"),
        ("identifier", "y"),
        ("punctuation", ">>="),
        ("number-literal", "2"),
        ("unknown", "@"),
    ]),
    # A line comment at the end of input, with no newline after it.
    ("a //", [("identifier", "a")]),
    ("a // b", [("identifier", "a")]),
    # An unterminated block comment runs to the end of input.
    ("a /* b\nc", [("identifier", "a")]),
    ("a /*", [("identifier", "a")]),
    # Runs of empty block comments, with and without tokens between them.
    ("/**//**/a/**//**/b/**/", [("identifier", "a"), ("identifier", "b")]),
    # A comment between `/` and `=` keeps them two tokens, not `/=`.
    ("a/ /**/=b", [
        ("identifier", "a"),
        ("punctuation", "/"),
        ("punctuation", "="),
        ("identifier", "b"),
    ]),
    # `/` right before a comment is a token; `*` before `//` too.
    ("a//*b*/\nc", [("identifier", "a"), ("identifier", "c")]),
    ("a/ /b", [("identifier", "a"), ("punctuation", "/"), ("punctuation", "/"),
               ("identifier", "b")]),
    ("a*//b\nc", [("identifier", "a"), ("punctuation", "*"), ("identifier", "c")]),
    # CRLF line ends end line comments; the `\r` is whitespace.
    ("a // b\r\nc\r\n/* d\r\n*/ e\r\n", [
        ("identifier", "a"), ("identifier", "c"), ("identifier", "e"),
    ]),
    # Comment markers inside a string belong to the string.
    ('s = "// no /* comment";', [
        ("identifier", "s"),
        ("punctuation", "="),
        ("string-literal", '"// no /* comment"'),
        ("punctuation", ";"),
    ]),
]


def test_msg_sender_token_sequence():
    for source, expected in EXACT_TOKEN_CASES:
        tokens = tokenize(source)
        assert _pairs(tokens) == expected, source
        _assert_covering(source, tokens)


def test_require_pattern_word_sequence():
    # Word tokens (identifier or keyword kind) must contain the access-check
    # vocabulary in order.
    words = [text for kind, text in _pairs(tokenize(ROW2_SNIPPET))
             if kind in ("identifier", "keyword")]
    expected = ["function", "fun", "require", "address", "owner", "msg", "sender"]
    it = iter(words)
    assert all(w in it for w in expected), words


def test_comments_and_strings_kept_verbatim():
    src = 'uint a; // trailing\n/* block\ncomment */ string s = "x\\"y";'
    tokens = tokenize(src)
    assert "comment" not in tokens.kinds
    # The comments sit verbatim in the gap between `;` and `string`.
    semicolon = tokens.texts.index(";")
    gap = src[tokens.starts[semicolon] + 1:tokens.starts[semicolon + 1]]
    assert gap == " // trailing\n/* block\ncomment */ "
    assert tokens.texts[semicolon + 1] == "string"
    assert [text for kind, text in _pairs(tokens) if kind == "string-literal"] == ['"x\\"y"']


def test_unknown_characters_become_unknown_tokens():
    tokens = tokenize("a @ b")
    assert _pairs(tokens) == [
        ("identifier", "a"),
        ("unknown", "@"),
        ("identifier", "b"),
    ]


def test_line_and_column_are_one_based():
    tokens = tokenize("a\n  bb\n\tc")
    positions = {text: tokens.position(i) for i, text in enumerate(tokens.texts)}
    assert positions == {"a": (1, 1), "bb": (2, 3), "c": (3, 2)}
    # Past the last token, the position is the end of the source.
    assert tokens.position(len(tokens)) == (3, 3)
    assert tokenize("").position(0) == (1, 1)


def test_keyword_classification():
    tokens = tokenize("contract uint256 owner require mapping")
    tokens = dict(zip(tokens.texts, tokens.kinds))
    assert tokens["contract"] == "keyword"
    assert tokens["uint256"] == "keyword"
    assert tokens["mapping"] == "keyword"
    assert tokens["owner"] == "identifier"
    assert tokens["require"] == "identifier"  # builtin function, not reserved


def test_multichar_punctuation_longest_match():
    texts = tokenize("a >>= b == c => d").texts
    assert ">>=" in texts and "==" in texts and "=>" in texts


def _assert_gap(gap: str, at_end: bool) -> None:
    """gap is whitespace and complete comments; the last comment of a gap
    at the end of input may be a line comment without its newline or an
    unterminated block comment."""
    i = 0
    while i < len(gap):
        if gap[i] in WHITESPACE:
            i += 1
        elif gap.startswith("//", i):
            newline = gap.find("\n", i)
            assert newline != -1 or at_end, repr(gap)
            i = len(gap) if newline == -1 else newline
        elif gap.startswith("/*", i):
            close = gap.find("*/", i + 2)
            assert close != -1 or at_end, repr(gap)
            i = len(gap) if close == -1 else close + 2
        else:
            raise AssertionError(f"{gap[i]!r} outside a token in gap {gap!r}")


def _assert_covering(src: str, tokens: Tokens) -> None:
    """Every character of src lies in a token or in a gap of whitespace and
    comments, and no token starts where a comment does."""
    pos = 0
    for text, start in zip(tokens.texts, tokens.starts):
        assert text
        _assert_gap(src[pos:start], at_end=False)
        assert src[start:start + len(text)] == text
        assert not src.startswith(("//", "/*"), start), (src, start)
        pos = start + len(text)
    _assert_gap(src[pos:], at_end=True)


@given(st.text(max_size=300))
@settings(max_examples=200, deadline=None)
def test_roundtrip_property(src):
    _assert_covering(src, tokenize(src))


@given(st.text(
    alphabet=st.sampled_from(list('abc_$ \t\n"\'\\/*=!&|<>+-.0123456789xe@{}()[];,')),
    max_size=120,
))
@settings(max_examples=300, deadline=None)
def test_roundtrip_property_lexical_edge_alphabet(src):
    _assert_covering(src, tokenize(src))


def test_roundtrip_on_corpus():
    for name in ("owner_drain.sol", "row2_require.sol"):
        src = corpus_text("solidity", name)
        _assert_covering(src, tokenize(src))


@given(st.one_of(st.text(max_size=200), _WORDS))
@settings(max_examples=300, deadline=None)
def test_line_and_column_follow_from_start_offset(src):
    tokens = tokenize(src)
    for i, start in enumerate(tokens.starts):
        line, column = tokens.position(i)
        assert line == src.count("\n", 0, start) + 1
        assert column == start - src.rfind("\n", 0, start)


@given(_WORDS)
@settings(max_examples=300, deadline=None)
def test_word_kind_does_not_depend_on_context(src):
    for kind, text in _pairs(tokenize(src)):
        if kind in ("identifier", "keyword"):
            assert tokenize(text).kinds == [kind]


def test_gaps_tokenize_in_linear_time():
    # A gap that gave characters back would make both of these quadratic.
    for src in ("a" + " " * 1_000_000, "a" + "/**/" * 250_000):
        started = time.perf_counter()
        tokens = tokenize(src)
        elapsed = time.perf_counter() - started
        assert tokens.texts == ["a"]
        assert elapsed < 2.0, f"took {elapsed:.3f}s"
