"""Check that a revision and the working tree give byte-identical output.

    python tools/same_reports.py REV

Writes the three stagebench workloads at seeds 1 and 2 to a temporary
directory and extracts REV's `src/` next to them with `git archive`. Each
workload and `tests/corpus` is then scanned with
`python -m centriscan.cli scan --format FORMAT --fail-on none`, for FORMAT
`json` and `text`, once with REV's `src/` and once with the working tree's.
Prints three lines per input, one per output: the JSON report (`json`), the
text report (`text`) and the text run's stderr, which holds the
diagnostics (`stderr`). Each line gives the SHA-256 prefix of both outputs
and, when the JSON reports' bytes differ, whether their `json.loads` values
are still equal ("same JSON, bytes differ"), as when only the layout moved.
Under a JSON line whose findings differ, one line per finding that only
one side has, as `- KIND SEVERITY FILE:LINE` for REV's and `+ ...` for the
working tree's, so a changed grade shows as a `-` and a `+` line.
Exits 1 if any pair's bytes differ.

Standard library only. It is not part of the test suite: a run scans about
5.8 MB of source four times, in 28 CLI processes.
"""

from __future__ import annotations

import hashlib
import json
import os
from collections import Counter
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "stagebench"))

import workloads  # stagebench's generator, read only

SEEDS = (1, 2)


def _write_workloads(base: Path) -> list[tuple[str, Path, str]]:
    """(label, base, directory name) per workload and seed, written under base."""
    inputs = []
    for name in workloads.GENERATORS:
        for seed in SEEDS:
            target = base / f"{name}-seed{seed}"
            target.mkdir()
            for file, text in workloads.generate(name, seed).files.items():
                (target / file).write_text(text, encoding="utf-8")
            inputs.append((f"{name} seed {seed}", base, target.name))
    return inputs


def _extract_src(rev: str, dest: Path) -> Path:
    """REV's src/ tree, extracted under dest."""
    archive = dest / "src.tar"
    subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", "-o", str(archive),
                    rev, "src"], check=True)
    subprocess.run(["tar", "-xf", str(archive), "-C", str(dest)], check=True)
    return dest / "src"


def _scan(src: Path, cwd: Path, target: str, form: str) -> subprocess.CompletedProcess:
    """Scanned from cwd by a relative path, so the output names the same
    files on every run."""
    run = subprocess.run(
        [sys.executable, "-m", "centriscan.cli", "scan", "--format", form,
         "--fail-on", "none", target],
        capture_output=True, cwd=cwd, env={**os.environ, "PYTHONPATH": str(src)})
    if run.returncode != 0:
        sys.exit(f"scan of {target} with {src} exited {run.returncode}:\n"
                 f"{run.stderr.decode(errors='replace')}")
    return run


def _outputs(src: Path, cwd: Path, target: str) -> dict[str, bytes]:
    """The JSON report, the text report and the text run's stderr."""
    text = _scan(src, cwd, target, "text")
    return {"json": _scan(src, cwd, target, "json").stdout,
            "text": text.stdout, "stderr": text.stderr}


def _digest(report: bytes) -> str:
    return hashlib.sha256(report).hexdigest()[:12]


def _verdict(output: str, old: bytes, new: bytes) -> str:
    if old == new:
        return "same"
    if output != "json":
        return "DIFFERENT"
    if json.loads(old) == json.loads(new):
        return "DIFFERENT (same JSON, bytes differ)"
    return "DIFFERENT (JSON differs)"


def _findings(report: bytes) -> Counter:
    """Each finding of a JSON report as (kind, severity, FILE:LINE)."""
    return Counter((f["kind"], f["severity"], f"{f['file']}:{f['line']}")
                   for f in json.loads(report)["findings"])


def _changed_findings(old: bytes, new: bytes) -> list[str]:
    """The findings only one report has, REV's first, each sorted."""
    before, after = _findings(old), _findings(new)
    return [f"    {sign} {' '.join(finding)}"
            for sign, only in (("-", before - after), ("+", after - before))
            for finding in sorted(only.elements())]


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory(prefix="same_reports-") as tmp:
        base = Path(tmp)
        old_src = _extract_src(argv[0], base)
        inputs = [*_write_workloads(base), ("tests/corpus", ROOT, "tests/corpus")]
        differ = 0
        for label, cwd, target in inputs:
            olds, news = _outputs(old_src, cwd, target), _outputs(ROOT / "src", cwd, target)
            for output, old in olds.items():
                new = news[output]
                differ += old != new
                print(f"{label:<22} {output:<6} {argv[0][:12]:>12} {_digest(old)}  "
                      f"working tree {_digest(new)}  {_verdict(output, old, new)}")
                if output == "json" and old != new:
                    for line in _changed_findings(old, new):
                        print(line)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
