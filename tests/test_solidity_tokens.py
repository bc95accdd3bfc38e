"""Tokenizer behavior: totality, verbatim round-trip, positions."""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from centriscan.scanloop import WHITESPACE
from centriscan.solidity import Tokens
from centriscan.solidity.parser import parse_solidity, parse_source
from centriscan.solidity.tokens import Token, tokenize

from helpers import SOLIDITY_FRAGMENTS, corpus_text

_WORDS = st.lists(st.sampled_from(SOLIDITY_FRAGMENTS), max_size=60).map("".join)

ROW2_SNIPPET = """function fun() public {
    require(address(owner) == msg.sender)
}
"""


def test_empty_input_yields_no_tokens():
    assert list(tokenize("")) == []


@given(_WORDS)
@example("contract C { function f() public { x = 1; } }\r\n// tail")
@settings(max_examples=200, deadline=None)
def test_tokens_sequence_contract(src):
    tokens = tokenize(src)
    assert isinstance(tokens, Tokens)
    items = [tokens[i] for i in range(len(tokens))]
    assert list(tokens) == items
    assert len(tokens) == len(tokens.kinds) == len(tokens.texts) == len(tokens.starts)
    assert all(type(t) is Token for t in items)
    if items:
        assert tokens[-1] == items[-1]
        assert tokens[-len(items)] == items[0]
    # The parser reads the lists without changing them.
    assert parse_source(tokens, "t.sol", src) == parse_solidity(src, "t.sol")
    assert list(tokens) == items


# (source, expected (kind, text) sequence). The second source reaches every
# group of the scan kernel's master regex, so a kind assigned to the wrong
# group shows here even though every round-trip test would still pass.
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
        ("comment", "// line"),
        ("comment", "/* block */"),
        ("comment", "/* open"),
    ]),
]


def test_msg_sender_token_sequence():
    for source, expected in EXACT_TOKEN_CASES:
        assert [(t.kind, t.text) for t in tokenize(source)] == expected, source


def test_require_pattern_word_sequence():
    # Word tokens (identifier or keyword kind) must contain the access-check
    # vocabulary in order.
    words = [t.text for t in tokenize(ROW2_SNIPPET) if t.kind in ("identifier", "keyword")]
    expected = ["function", "fun", "require", "address", "owner", "msg", "sender"]
    it = iter(words)
    assert all(w in it for w in expected), words


def test_comments_and_strings_kept_verbatim():
    src = 'uint a; // trailing\n/* block\ncomment */ string s = "x\\"y";'
    tokens = tokenize(src)
    kinds = {t.kind for t in tokens}
    assert "comment" in kinds and "string-literal" in kinds
    comment_texts = [t.text for t in tokens if t.kind == "comment"]
    assert "// trailing" in comment_texts
    assert "/* block\ncomment */" in comment_texts
    assert [t.text for t in tokens if t.kind == "string-literal"] == ['"x\\"y"']


def test_unknown_characters_become_unknown_tokens():
    tokens = tokenize("a @ b")
    assert [(t.kind, t.text) for t in tokens] == [
        ("identifier", "a"),
        ("unknown", "@"),
        ("identifier", "b"),
    ]


def test_line_and_column_are_one_based():
    tokens = tokenize("a\n  bb\n\tc")
    positions = {t.text: (t.line, t.column) for t in tokens}
    assert positions == {"a": (1, 1), "bb": (2, 3), "c": (3, 2)}


def test_keyword_classification():
    tokens = {t.text: t.kind for t in tokenize("contract uint256 owner require mapping")}
    assert tokens["contract"] == "keyword"
    assert tokens["uint256"] == "keyword"
    assert tokens["mapping"] == "keyword"
    assert tokens["owner"] == "identifier"
    assert tokens["require"] == "identifier"  # builtin function, not reserved


def test_multichar_punctuation_longest_match():
    texts = [t.text for t in tokenize("a >>= b == c => d")]
    assert ">>=" in texts and "==" in texts and "=>" in texts


def _assert_covering(src: str, tokens: Tokens) -> None:
    pos = 0
    for tok in tokens:
        gap = src[pos:tok.start]
        assert all(c in WHITESPACE for c in gap), repr(gap)
        assert src[tok.start:tok.end] == tok.text
        pos = tok.end
    assert all(c in WHITESPACE for c in src[pos:])


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
    for tok in tokenize(src):
        assert tok.line == src.count("\n", 0, tok.start) + 1
        assert tok.column == tok.start - src.rfind("\n", 0, tok.start)


@given(_WORDS)
@settings(max_examples=300, deadline=None)
def test_word_kind_does_not_depend_on_context(src):
    for tok in tokenize(src):
        if tok.kind in ("identifier", "keyword"):
            assert [t.kind for t in tokenize(tok.text)] == [tok.kind]
