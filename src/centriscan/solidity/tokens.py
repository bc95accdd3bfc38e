"""Solidity tokenizer: verbatim tokens and the map from token indices to
1-based line/column positions and source text.

Total for any input string; unknown characters become `unknown` tokens.
Whitespace and comments are gaps between tokens, skipped alike, so the
token texts plus the gaps reproduce the input. Tokens are held as parallel
lists; AST nodes refer to them by index.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from itertools import accumulate

from ..scanloop import PUNCT1, scan_solidity

KEYWORDS = frozenset("""
    abstract address assembly bool break bytes byte calldata catch constant
    constructor continue contract delete do else emit enum error event
    external fallback false fixed for function if immutable import indexed
    int interface internal is library mapping memory modifier new override
    payable pragma private public pure receive return returns revert storage
    string struct true try type ufixed uint unchecked using view virtual
    while
""".split())

SIZED_TYPE = re.compile(r"(?:u?int\d+|bytes\d+)\Z")
_SIZED_PREFIXES = ("int", "uint", "bytes")

# The kernel's token alternatives start with disjoint characters, so a
# token's first character names its kind.
_KIND_BY_FIRST = {
    **dict.fromkeys("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_$", "identifier"),
    **dict.fromkeys(PUNCT1, "punctuation"),
    **dict.fromkeys("\"'", "string-literal"),
    **dict.fromkeys("0123456789", "number-literal"),
}


def _kind(text: str) -> str:
    """keyword | identifier | punctuation | string-literal | number-literal | unknown"""
    kind = _KIND_BY_FIRST.get(text[0], "unknown")
    if kind == "identifier" and (text in KEYWORDS or (
            text.startswith(_SIZED_PREFIXES) and SIZED_TYPE.match(text))):
        return "keyword"
    return kind


class Tokens:
    """The tokens of one source as parallel lists, indexed by token number,
    and the one place that maps token indices to source positions and text.

    `newlines` is -1 followed by the offset of every newline in the source,
    so the token starting at s sits on line k = bisect_left(newlines, s) at
    column s - newlines[k - 1].
    """

    __slots__ = ("source", "kinds", "texts", "starts", "newlines")

    def __init__(self, source: str, kinds: list[str], texts: list[str], starts: list[int]):
        self.source = source
        self.kinds = kinds
        self.texts = texts
        self.starts = starts
        # Line k's newline sits one past the previous newline plus the line's
        # length; the last line has no newline, so its entry is dropped.
        self.newlines = list(accumulate(map((1).__add__, map(len, source.split("\n"))),
                                        initial=-1))[:-1]

    def __len__(self) -> int:
        return len(self.kinds)

    def position(self, i: int) -> tuple[int, int]:
        """1-based (line, column) of token i; past the last token, that of
        the end of the source."""
        start = self.starts[i] if i < len(self.starts) else len(self.source)
        newlines = self.newlines
        line = bisect_left(newlines, start)
        return line, start - newlines[line - 1]

    def text(self, at: int, end: int) -> str:
        """Source text from the start of token `at` to the end of token
        `end - 1`, gaps included; "" when the span is empty."""
        if at >= end:
            return ""
        last = end - 1
        return self.source[self.starts[at]:self.starts[last] + len(self.texts[last])]


def tokenize(source: str) -> Tokens:
    """Split source into tokens; total for arbitrary input."""
    texts, starts = scan_solidity(source)
    # The distinct texts are few, so each is classified once and the
    # per-token pass is a dict lookup in C.
    kind_of = {text: _kind(text) for text in set(texts)}
    return Tokens(source, list(map(kind_of.__getitem__, texts)), texts, starts)
