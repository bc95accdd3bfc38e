"""Print the tracemalloc peak of each engine stage while a file is analyzed.

    python tools/peak_memory.py FILE...

Analyzes each FILE (`.sol` or `.teal`) once, through
`centriscan.engine.analyze_solidity_source` or `analyze_teal_source`, with
its back end loaded first and tracemalloc on. The engine calls its stages
through its module globals; for the run each one is rebound to a wrapper
that reads the peak of traced memory during its calls, and afterwards the
originals are put back and checked. Prints per file its size, the peak of
the whole analysis and that peak in bytes per source byte, then per stage
its largest peak, in call order. A peak counts all memory traced since the
analysis began, so a stage that runs after another holds what the earlier
one left alive. Memory held before the analysis, the source text among it,
is not counted.

Standard library only.
"""

from __future__ import annotations

import sys
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from centriscan import engine  # noqa: E402
from centriscan.config import AnalyzerConfig  # noqa: E402

_ANALYZERS = {engine.SOLIDITY_EXT: "analyze_solidity_source",
              engine.TEAL_EXT: "analyze_teal_source"}


class _Peaks:
    """The largest traced peak per stage, and over the whole analysis."""

    def __init__(self) -> None:
        self.stages: dict[str, int] = {}
        self.whole = 0

    def fold(self) -> int:
        """Take the peak since the last fold into the whole and restart it."""
        peak = tracemalloc.get_traced_memory()[1]
        self.whole = max(self.whole, peak)
        tracemalloc.reset_peak()
        return peak

    def wrap(self, name: str, fn):
        def measured(*args, **kwargs):
            self.fold()
            try:
                return fn(*args, **kwargs)
            finally:
                self.stages[name] = max(self.stages.get(name, 0), self.fold())
        return measured


def measure(source: str, path: str) -> _Peaks:
    """Analyze source as the file at path and return its peaks."""
    ext = Path(path).suffix
    engine._load(ext)
    names = [*engine._STAGES[ext], "classify"]
    saved = {name: getattr(engine, name) for name in names}
    peaks = _Peaks()
    for name, fn in saved.items():
        setattr(engine, name, peaks.wrap(name, fn))
    tracemalloc.start()
    try:
        getattr(engine, _ANALYZERS[ext])(source, path, AnalyzerConfig())
        peaks.fold()
    finally:
        tracemalloc.stop()
        for name, fn in saved.items():
            setattr(engine, name, fn)
    for name, fn in saved.items():
        if getattr(engine, name) is not fn:
            raise RuntimeError(f"could not restore engine.{name}")
    return peaks


def main(paths: list[str]) -> int:
    if not paths:
        print("usage: python tools/peak_memory.py FILE...", file=sys.stderr)
        return 2
    for path in paths:
        if Path(path).suffix not in _ANALYZERS:
            print(f"{path}: not a .sol or .teal file", file=sys.stderr)
            return 2
        data = Path(path).read_bytes()
        peaks = measure(data.decode("utf-8-sig", errors="replace"), path)
        print(f"{path}: {len(data)} bytes, peak {peaks.whole / 1e6:.2f} MB, "
              f"{peaks.whole / max(len(data), 1):.1f} bytes per source byte")
        for name, peak in peaks.stages.items():
            print(f"  {name:<26} {peak / 1e6:6.2f} MB")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
