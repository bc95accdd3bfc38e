"""Diagnostic records attached to parses and analyses."""

from typing import NamedTuple


class Diagnostic(NamedTuple):
    message: str
    line: int
    column: int = 1
    severity: str = "note"  # "note" | "warning"
    file: str = ""  # set by the engine when it assembles the report
