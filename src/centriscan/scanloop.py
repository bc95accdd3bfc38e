"""Solidity token-scan kernel.

Splits a source into two parallel lists (texts, starts), one entry per
token. Whitespace and comments are gaps between tokens, skipped alike; every
other character lies in a token. One `re.split` call does the whole scan,
so the hot loop runs inside the regex engine.
"""

import re
from itertools import accumulate, chain
from operator import add

# The benchmark in stagebench/ records this name with every run.
KERNEL = "pure"

# Explicit ASCII whitespace only; unicode spaces become `unknown` tokens.
WHITESPACE = " \t\r\n\x0b\x0c"

PUNCT1 = "+-*/%=<>!&|^~?:;,.()[]{}"

PUNCT2 = (
    "==", "!=", "<=", ">=", "&&", "||",
    "+=", "-=", "*=", "/=", "%=", "^=", "|=", "&=",
    "=>", "->", "++", "--", "**", "<<", ">>",
)

PUNCT3 = (">>=", "<<=", "**=")


def _build_pattern() -> re.Pattern:
    punct = "|".join(re.escape(p) for p in PUNCT3 + PUNCT2) + "|[" + re.escape(PUNCT1) + "]"
    ws = "[" + re.escape(WHITESPACE) + "]*"
    return re.compile(
        # Gap: whitespace, line comments, terminated and unterminated block
        # comments. It is greedy and never gives a character back, because
        # the token group after it always matches: `.` takes any character
        # and `\Z` the end of input.
        "(" + ws + "(?:(?://[^\n]*|/\\*.*?\\*/|/\\*.*)" + ws + ")*)"
        "([A-Za-z_$][A-Za-z0-9_$]*"
        "|" + punct +
        # Strings stop at an unescaped quote, newline, or EOF; a backslash
        # consumes the following character (including a newline).
        "|\"(?:\\\\.|[^\"\\\\\n])*\"?|'(?:\\\\.|[^'\\\\\n])*'?"
        "|0[xX][0-9a-fA-F_]*"
        "|[0-9][0-9_]*(?:\\.[0-9][0-9_]*)?(?:[eE][+-]?[0-9][0-9_]*)?"
        "|."
        "|\\Z)",
        re.DOTALL,
    )


_PATTERN = _build_pattern()


def scan_solidity(src: str) -> tuple[list[str], list[int]]:
    """Scan src into parallel (texts, starts) lists, skipping whitespace and
    comments. Token i is src[starts[i]:starts[i] + len(texts[i])]."""
    # Matches run back to back, each a gap then a token, so the parts are
    # "" and then gap, token and "" per match.
    parts = _PATTERN.split(src)
    texts = parts[2::3]
    # Each token starts where the one before it ends, plus the gap between.
    starts = list(accumulate(map(add, map(len, parts[1::3]), chain((0,), map(len, texts)))))
    # The last match takes the empty token at the end of input, and so does
    # the one before it when the source ends in a gap.
    while texts and not texts[-1]:
        texts.pop()
        starts.pop()
    return texts, starts
