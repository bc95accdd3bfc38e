"""Solidity tokenizer: verbatim tokens with 1-based line/column positions.

Total for any input string; unknown characters become `unknown` tokens and
concatenating token texts plus the skipped whitespace reproduces the input.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from ..scanloop import scan_solidity

KEYWORDS = frozenset("""
    abstract address assembly bool break bytes byte calldata catch constant
    constructor continue contract delete do else emit enum error event
    external fallback false fixed for function if immutable import indexed
    int interface internal is library mapping memory modifier new override
    payable pragma private public pure receive return returns revert storage
    string struct true try type ufixed uint unchecked using view virtual
    while
""".split())

_SIZED_TYPE = re.compile(r"(?:u?int\d+|bytes\d+)\Z")
_SIZED_PREFIXES = ("int", "uint", "bytes")


class Token(NamedTuple):
    kind: str  # keyword | identifier | punctuation | string-literal | number-literal | comment | unknown
    text: str
    line: int
    column: int
    start: int
    end: int


def tokenize(source: str) -> list[Token]:
    """Split source into tokens; total for arbitrary input."""
    tokens = []
    append = tokens.append
    # tuple.__new__ builds a Token without the Python-level frame of the
    # NamedTuple's generated __new__.
    new_token = tuple.__new__
    token_type = Token
    keywords = KEYWORDS
    sized = _SIZED_TYPE.match
    sized_prefixes = _SIZED_PREFIXES
    size = len(source)
    # Tokens arrive in order, so the next-newline cursor only moves forward;
    # `size` stands in for "no newline left" since every token starts before it.
    line = 1
    line_start = 0
    newline = source.find("\n")
    if newline < 0:
        newline = size
    # Each scan triple is popped, and so freed, as its Token is built: live
    # triples plus tokens stay at about one object per token instead of two,
    # so the cyclic collector runs less often.
    triples = scan_solidity(source)
    triples.reverse()
    pop = triples.pop
    for _ in range(len(triples)):
        kind, start, end = pop()
        while newline < start:
            line += 1
            line_start = newline + 1
            newline = source.find("\n", line_start)
            if newline < 0:
                newline = size
        text = source[start:end]
        if kind == "identifier" and (
                text in keywords or (text.startswith(sized_prefixes) and sized(text))):
            kind = "keyword"
        append(new_token(token_type, (kind, text, line, start - line_start + 1, start, end)))
    return tokens
