"""Solidity token-scan kernel.

Produces three parallel lists (kinds, texts, starts), one entry per token,
covering every non-whitespace character of the input. Driven by a single
master regex, so the hot loop runs inside the regex engine.
"""

import re

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
    p3 = "|".join(re.escape(p) for p in PUNCT3)
    p2 = "|".join(re.escape(p) for p in PUNCT2)
    # Punctuation that starts no longer token is tried before comments, the
    # rest after them, so `//` and `/*` still win over `/`.
    starts_longer = {p[0] for p in PUNCT2 + PUNCT3}
    single = "[" + re.escape("".join(c for c in PUNCT1 if c not in starts_longer)) + "]"
    p1 = "[" + re.escape("".join(c for c in PUNCT1 if c in starts_longer)) + "]"
    # Whitespace is folded into the match that follows it. The greedy prefix
    # never backtracks: after it, `(.)` matches any character and `\Z` the
    # end of input, so a token never starts inside a whitespace run.
    ws = "[" + re.escape(WHITESPACE) + "]*"
    return re.compile(
        ws + "(?:([A-Za-z_$][A-Za-z0-9_$]*)"
        "|(" + single + ")"
        # Line comment, terminated block comment, unterminated block comment.
        "|(//[^\n]*|/\\*.*?\\*/|/\\*.*)"
        "|(" + p3 + "|" + p2 + "|" + p1 + ")"
        # Strings stop at an unescaped quote, newline, or EOF; a backslash
        # consumes the following character (including a newline).
        "|(\"(?:\\\\.|[^\"\\\\\n])*\"?|'(?:\\\\.|[^'\\\\\n])*'?)"
        "|(0[xX][0-9a-fA-F_]*"
        "|[0-9][0-9_]*(?:\\.[0-9][0-9_]*)?(?:[eE][+-]?[0-9][0-9_]*)?)"
        "|(.)"
        "|\\Z)",
        re.DOTALL,
    )


_PATTERN = _build_pattern()

# Token kind per capture group number, in the order the groups appear above.
_KIND_BY_GROUP = (
    None, "identifier", "punctuation", "comment", "punctuation",
    "string-literal", "number-literal", "unknown",
)


def scan_solidity(src: str) -> tuple[list[str], list[str], list[int]]:
    """Scan src into parallel (kinds, texts, starts) lists; whitespace is
    skipped. Token i is src[starts[i]:starts[i] + len(texts[i])]."""
    kinds, texts, starts = [], [], []
    add_kind, add_text, add_start = kinds.append, texts.append, starts.append
    kind_by_group = _KIND_BY_GROUP
    for m in _PATTERN.finditer(src):
        group = m.lastindex
        if group:  # None only for the empty match at the end of input
            add_kind(kind_by_group[group])
            add_text(m[group])
            add_start(m.start(group))
    return kinds, texts, starts
