"""Solidity tokenizer: verbatim tokens with 1-based line/column positions.

Total for any input string; unknown characters become `unknown` tokens and
concatenating token texts plus the skipped whitespace reproduces the input.
Tokens are held as parallel lists; a `Token` record is built only when one
is asked for.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from collections.abc import Sequence
from itertools import compress, count
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
_NEWLINE = re.compile("\n")


class Token(NamedTuple):
    kind: str  # keyword | identifier | punctuation | string-literal | number-literal | comment | unknown
    text: str
    line: int
    column: int
    start: int
    end: int


class Tokens(Sequence):
    """The tokens of one source as parallel lists, indexed by token number.

    `newlines` is -1 followed by the offset of every newline in the source,
    so the token starting at s sits on line k = bisect_left(newlines, s) at
    column s - newlines[k - 1].
    """

    __slots__ = ("kinds", "texts", "starts", "newlines")

    def __init__(self, kinds: list[str], texts: list[str], starts: list[int],
                 newlines: list[int]):
        self.kinds = kinds
        self.texts = texts
        self.starts = starts
        self.newlines = newlines

    def __len__(self) -> int:
        return len(self.kinds)

    def __getitem__(self, i: int) -> Token:
        text = self.texts[i]
        start = self.starts[i]
        newlines = self.newlines
        line = bisect_left(newlines, start)
        return Token(self.kinds[i], text, line, start - newlines[line - 1], start,
                     start + len(text))


def tokenize(source: str) -> Tokens:
    """Split source into tokens; total for arbitrary input."""
    kinds, texts, starts = scan_solidity(source)
    # Only the kernel's identifier pattern matches a keyword or a sized type
    # name, so these texts are identifiers to reclassify. The distinct texts
    # are few; the per-token pass runs in C and yields only keyword tokens.
    words = {text for text in set(texts) if text in KEYWORDS or (
        text.startswith(_SIZED_PREFIXES) and _SIZED_TYPE.match(text))}
    for i in compress(count(), map(words.__contains__, texts)):
        kinds[i] = "keyword"
    newlines = [-1]
    newlines.extend(m.start() for m in _NEWLINE.finditer(source))
    return Tokens(kinds, texts, starts, newlines)
