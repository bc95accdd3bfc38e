"""Host-speed reference for the benchmark's timings.

The host this benchmark was built on changes speed by up to 2x from one
second to the next and for minutes at a time, with CPU time equal to wall
time (the same pass of the same files took 1.15 s and 2.3 s a minute
apart). Raw seconds from two runs of the same code then differ by more than
any useful bound.

So every timed operation is followed by one *unit*: a fixed workload that
uses only the standard library (regex tokenizing, tuples, dicts, sorting,
JSON and integer arithmetic, the kinds of work the scanner does), timed with
the cyclic garbage collector off so that its cost does not depend on the
heap the benchmark holds. An operation's time is reported in reference
seconds, its wall seconds times ``REFERENCE_S`` over the mean of the units
before and after it: the time it would take on a host where one unit takes
``REFERENCE_S``. The unit runs no code of the program, so a change to the
program moves reference seconds exactly as it moves wall seconds on a
steady host. Raw unit times are kept (``host.calib_s``) and so are raw wall
times, in the run record.
"""

from __future__ import annotations

import gc
import json
import re
import time

# Nominal time of one unit; about its median on the 2-core host the
# benchmark was built on.
REFERENCE_S = 0.1

_TEXT = "\n".join(
    f"    balances[user{i % 61}] = amount{i % 89} + {i}; // entry {i}" for i in range(2400))
_PATTERN = re.compile(r"(?P<name>[A-Za-z_]\w*)|(?P<number>\d+)|(?P<comment>//[^\n]*)"
                      r"|(?P<punct>[\[\]=+;])|(?P<space>\s+)")


def _work() -> int:
    tokens = [(m.lastgroup, m.group(), m.start()) for m in _PATTERN.finditer(_TEXT)
              if m.lastgroup != "space"]
    index: dict[str, list[int]] = {}
    for _, text, at in tokens:
        index.setdefault(text, []).append(at)
    ranked = sorted((len(places), text) for text, places in index.items())
    data = json.dumps([{"kind": kind, "text": text, "at": at} for kind, text, at in tokens])
    total = 0
    for i in range(120_000):
        total += i * i % 7
    return len(ranked) + len(data) + total


def unit() -> float:
    """Wall seconds of one unit, with the cyclic collector off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        started = time.perf_counter()
        _work()
        return time.perf_counter() - started
    finally:
        if enabled:
            gc.enable()


class Clock:
    """Converts wall seconds to reference seconds, one operation at a time.

    Call ``factor()`` right after each timed operation; it runs the unit
    that follows the operation and returns the factor for it.
    """

    def __init__(self) -> None:
        self.units: list[float] = []
        self._last = self._unit()

    def _unit(self) -> float:
        seconds = unit()
        self.units.append(seconds)
        return seconds

    def factor(self) -> float:
        before, after = self._last, self._unit()
        self._last = after
        return REFERENCE_S / ((before + after) / 2)
