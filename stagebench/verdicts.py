"""Verdict oracle: compares a report's findings with a workload's expected
verdicts.

A verdict fails when the report lacks the expected finding on its line, or
has any other finding there. A finding on a line that carries no verdict
counts as one more failed verdict. Every verdict of a file whose scan raised
fails.
"""

from __future__ import annotations

from collections import defaultdict


def score(
    findings: list[tuple[str, int, str]],
    verdicts: dict[str, list[tuple[int, str | None]]],
    raised: frozenset[str] = frozenset(),
) -> tuple[int, int]:
    """Return (verdicts checked, verdicts failed).

    findings holds (file, line, kind) with file named as in verdicts.
    """
    found: dict[str, dict[int, set[str]]] = defaultdict(lambda: defaultdict(set))
    for file, line, kind in findings:
        found[file][line].add(kind)
    checked = failed = 0
    for file, expected in verdicts.items():
        checked += len(expected)
        if file in raised:
            failed += len(expected)
            continue
        by_line = found.get(file, {})
        for line, kind in expected:
            if by_line.get(line, set()) != ({kind} if kind else set()):
                failed += 1
        expected_lines = {line for line, _ in expected}
        extra = sum(len(kinds) for line, kinds in by_line.items()
                    if line not in expected_lines)
        checked += extra
        failed += extra
    return checked, failed
