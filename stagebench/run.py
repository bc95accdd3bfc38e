#!/usr/bin/env python3
"""Pipeline benchmark for centriscan.

Usage (from the repository root):

    python3 stagebench/run.py --workload mixed-500 --seed 1 --seconds 30 --trace 0
    python3 stagebench/run.py --workload all --seed 1 --seconds 30 --trace 1

Generates the workload's files from the seed under .stagebench/, then:

  --trace 0  times warm in-process scans (scan_paths + JSON rendering), fresh
             CLI subprocesses and `centriscan --version` start-up, and prints
             the end-to-end metrics.
  --trace 1  alternates untraced and traced in-process scans and prints the
             per-layer metrics.

Times are in reference seconds: wall seconds scaled by the host-speed unit
timed right after each operation (see hostspeed.py), because the host's
speed swings too far for raw seconds to repeat. Raw wall times go to the
run record.

Every run also checks integrity: the generator is deterministic, every scan
and every CLI run of the same files gives identical JSON bytes, and a traced
scan gives the same bytes as an untraced one. A violation exits with code 1.
Verdict mismatches are counted (verdict.failed_share), not fatal.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. stagebench/README.md describes the
workloads, the metrics and which layer should move which metric.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed
import spans
import verdicts
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".stagebench"

# A timing needs at least this many samples, however short the run.
MIN_SAMPLES = 3
SETUP_SAMPLES = 3
SETUP_SAMPLES_PER_STEP = 2

END_TO_END_UNITS = {
    "scan_s": "s", "klines_per_s": "klines/s", "cli_s": "s", "setup_s": "s",
    "peak_rss_mb": "MB", "report_mb": "MB", "verdict_pass_share": "ratio",
}


class IntegrityError(Exception):
    """The program's output was not deterministic or tracing changed it."""


class OperationError(Exception):
    """A scan raised; the run cannot time what does not complete."""


def _digest(data: str) -> str:
    """Digest of the report as the CLI prints it, newline included."""
    return hashlib.sha256(data.encode() + b"\n").hexdigest()


class Launcher:
    """The launch.py process that starts every CLI run (see its docstring)."""

    def __init__(self) -> None:
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p))
        self.proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).with_name("launch.py"))],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, cwd=ROOT, env=env, text=True)

    def run(self, argv: list[str]) -> dict:
        self.proc.stdin.write(json.dumps(argv) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise OperationError("the launcher exited")
        return json.loads(line)

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


class Bench:
    def __init__(self, name: str, seed: int, seconds: float, launcher: Launcher) -> None:
        from centriscan import AnalyzerConfig

        self.name = name
        self.launcher = launcher
        self.seconds = seconds
        # The CLI runs with --fail-on none, which is part of the config
        # fingerprint; the in-process scans use the same config so both give
        # the same bytes.
        self.config = AnalyzerConfig(fail_threshold="none")
        self.attempted = 0

        work = workloads.generate(name, seed)
        again = workloads.generate(name, seed)
        if work.files != again.files or work.verdicts != again.verdicts:
            raise IntegrityError("workload generator is not deterministic")
        self.work = work
        self.target = os.path.join(WORK.name, name)
        shutil.rmtree(self.target, ignore_errors=True)
        os.makedirs(self.target)
        for file, text in work.files.items():
            with open(os.path.join(self.target, file), "w", encoding="utf-8") as fh:
                fh.write(text)

    # --- operations -------------------------------------------------------

    def scan(self, tracer: spans.Tracer | None = None):
        """One in-process pass: scan_paths plus JSON rendering."""
        from centriscan import engine
        from centriscan.report import render_report

        self.attempted += 1
        started = time.perf_counter()
        root = tracer.open("engine.scan") if tracer else None
        report = engine.scan_paths([self.target], self.config)
        if tracer:
            tracer.close(root)
            root = tracer.open("report.render_json")
        data = render_report(report, "json")
        if tracer:
            tracer.close(root)
        elapsed = time.perf_counter() - started
        if tracer:
            root = tracer.open("report.render_text")
            render_report(report, "text")
            tracer.close(root)
        return elapsed, data, report

    def cli(self, args: list[str]) -> tuple[float, str, float]:
        """Run `python -m centriscan.cli ARGS` through the launcher.

        Returns wall seconds, SHA-256 of stdout and maximum RSS in MB."""
        self.attempted += 1
        result = self.launcher.run([sys.executable, "-m", "centriscan.cli", *args])
        if result["returncode"] != 0:
            raise OperationError(f"centriscan {' '.join(args)} exited with "
                                 f"{result['returncode']}")
        return result["seconds"], result["sha256"], result["maxrss_kib"] / 1024

    # --- phases -----------------------------------------------------------

    def reference(self) -> tuple[str, dict]:
        """Warm pass: digest of the JSON, verdict score and report counts."""
        from centriscan import engine

        raised: set[str] = set()
        try:
            _, data, report = self.scan()
            findings = report.findings
        except Exception:
            # Score file by file so only the files that raise lose verdicts.
            data, findings = None, []
            for file in self.work.files:
                try:
                    findings += engine.scan_files(
                        [os.path.join(self.target, file)], self.config).findings
                except Exception:
                    raised.add(file)
        checked, failed = verdicts.score(
            [(os.path.relpath(f.file, self.target), f.line, f.kind) for f in findings],
            self.work.verdicts, frozenset(raised))
        info = {
            "verdict.expected": checked,
            "verdict.failed": failed,
            "verdict.failed_share": failed / checked,
            "report.findings": len(findings),
        }
        if data is None:
            print(f"{self.name}: verdicts checked {checked}, failed {failed}")
            raise OperationError(f"scan raised on {sorted(raised)}")
        info["report.evidence"] = sum(len(f.evidence) for f in report.findings)
        info["report.diagnostics"] = len(report.diagnostics)
        info["report_mb"] = (len(data) + 1) / 1e6  # as the CLI prints it
        return _digest(data), info

    def check_scan(self, reference: str) -> float:
        elapsed, data, _ = self.scan()
        if _digest(data) != reference:
            raise IntegrityError("two scans of the same files gave different JSON")
        return elapsed

    def check_traced(self, reference: str) -> tuple[float, spans.Tracer]:
        tracer = spans.Tracer()
        tracer.install()
        try:
            elapsed, data, _ = self.scan(tracer)
        finally:
            tracer.restore()
        if _digest(data) != reference:
            raise IntegrityError("traced JSON differs from untraced JSON")
        return elapsed, tracer

    def check_version(self) -> float:
        from centriscan import __version__

        elapsed, digest, _ = self.cli(["--version"])
        if digest != hashlib.sha256(f"centriscan {__version__}\n".encode()).hexdigest():
            raise IntegrityError("--version printed something else than the version")
        return elapsed

    def deadline_loop(self, step) -> None:
        """Call step() until the run's seconds are spent and step reports
        that every sample list holds MIN_SAMPLES values."""
        deadline = time.perf_counter() + self.seconds
        while True:
            done = step()
            if done and time.perf_counter() >= deadline:
                return

    def end_to_end(self) -> dict:
        self.cli(["--version"])  # writes bytecode caches; not timed
        reference, info = self.reference()
        clock = hostspeed.Clock()
        wall = {"scan_s": [], "cli_s": [], "setup_s": []}
        scan_t, cli_t, setup, rss = [], [], [], []

        def timed(metric: str, samples: list, seconds: float) -> None:
            wall[metric].append(seconds)
            samples.append(seconds * clock.factor())

        for _ in range(SETUP_SAMPLES):
            timed("setup_s", setup, self.check_version())

        def step() -> bool:
            timed("scan_s", scan_t, self.check_scan(reference))
            elapsed, digest, peak = self.cli(
                ["scan", "--format", "json", "--fail-on", "none", self.target])
            timed("cli_s", cli_t, elapsed)
            if digest != reference:
                raise IntegrityError("CLI JSON differs from the in-process JSON")
            rss.append(peak)
            # Start-up samples spread over the run, like the others.
            for _ in range(SETUP_SAMPLES_PER_STEP):
                timed("setup_s", setup, self.check_version())
            return len(scan_t) >= MIN_SAMPLES

        self.deadline_loop(step)
        self.check_traced(reference)
        scan_s = statistics.median(scan_t)
        self.samples = {"scan_s": scan_t, "cli_s": cli_t, "setup_s": setup,
                        "peak_rss_mb": rss, "host.calib_s": clock.units,
                        **{f"wall.{metric}": values for metric, values in wall.items()}}
        return {
            "scan_s": scan_s,
            "klines_per_s": self.work.lines / 1000 / scan_s,
            "cli_s": statistics.median(cli_t),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": statistics.median(rss),
            "report_mb": info["report_mb"],
            "verdict_pass_share": 1 - info["verdict.failed_share"],
        }

    def per_layer(self) -> dict:
        reference, info = self.reference()
        del info["report_mb"]
        clock = hostspeed.Clock()
        untraced, traced, tracers, factors = [], [], [], []

        def step() -> bool:
            untraced.append(self.check_scan(reference) * clock.factor())
            elapsed, tracer = self.check_traced(reference)
            factor = clock.factor()
            if tracers and tracer.counts != tracers[0].counts:
                raise IntegrityError("layer counts differ between two traced scans")
            traced.append(elapsed * factor)
            tracers.append(tracer)
            factors.append(factor)
            return len(traced) >= MIN_SAMPLES

        self.deadline_loop(step)
        # Every time below is in reference seconds, like scan_s.
        times = [{metric: own * f for metric, own in t.layer_times().items()}
                 for t, f in zip(tracers, factors)]
        metrics = {metric: statistics.median([t.get(metric, 0.0) for t in times])
                   for metric in sorted(set(spans.TIME_METRICS.values()))}
        counts = tracers[0].counts
        metrics.update((key, counts[key]) for key in spans.COUNT_METRICS)
        stmts = counts["solidity.parser.stmts"]
        metrics["solidity.parser.opaque_share"] = (
            counts["solidity.parser.opaque_stmts"] / stmts if stmts else 0.0)
        per_file = [[(lines, {layer: own * f for layer, own in layers.items()})
                     for lines, layers in t.file_layer_times()]
                    for t, f in zip(tracers, factors)]
        for layer in spans.EXP_LAYERS:
            # One point per file: its lines and its median self time.
            points = [(same[0][0], statistics.median([t.get(layer, 0.0) for _, t in same]))
                      for same in zip(*per_file)]
            metrics[f"{layer}.exp"] = spans.scaling_exponent(points)
        metrics.update(info)
        metrics["runtime.gc_s"] = statistics.median(
            [t.gc_s * f for t, f in zip(tracers, factors)])
        metrics["runtime.gc_gen2"] = statistics.median([t.gc_gen2 for t in tracers])
        metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
        metrics["host.calib_s"] = statistics.median(clock.units)
        self.samples = {"scan_s": untraced, "traced_scan_s": traced,
                        "host.calib_s": clock.units}
        return metrics


def _git_commit() -> str:
    # Only this checkout's own repository; git would otherwise report an
    # enclosing one.
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def _units(per_layer_metric: str) -> str:
    if per_layer_metric.endswith("_s"):
        return "s"
    if per_layer_metric.endswith("_share"):
        return "ratio"
    if per_layer_metric.endswith(".exp"):
        return "slope"
    return "count"


def run_workload(name: str, seed: int, seconds: float, trace: int,
                 launcher: Launcher) -> dict:
    bench = Bench(name, seed, seconds, launcher)
    values = bench.per_layer() if trace else bench.end_to_end()
    units = (lambda m: END_TO_END_UNITS[m]) if not trace else _units
    metrics = {m: {"value": v, "unit": units(m)} for m, v in values.items()}
    for metric, entry in metrics.items():
        count = len(bench.samples.get(metric, ()))
        note = f"  (median of {count})" if count else ""
        print(f"{name:14s} {metric:36s} {entry['value']:14.6g} {entry['unit']}{note}")
    return {"attempted": bench.attempted, "metrics": metrics, "samples": bench.samples}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[*workloads.GENERATORS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "centriscan" / "__init__.py").is_file():
        print(f"stagebench: no centriscan sources under {SRC}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    launcher = Launcher()  # first, while this process is small
    try:
        return _run(args, launcher)
    finally:
        launcher.close()


def _run(args: argparse.Namespace, launcher: Launcher) -> int:
    sys.path.insert(0, str(SRC))
    WORK.mkdir(exist_ok=True)
    from centriscan.scanloop import KERNEL

    env = {"kernel": KERNEL, "python": platform.python_version(), "nproc": os.cpu_count(),
           "commit": _git_commit(), "seed": args.seed, "seconds": args.seconds,
           "trace": args.trace}
    print("environment: " + json.dumps(env, sort_keys=True))
    names = list(workloads.GENERATORS) if args.workload == "all" else [args.workload]
    results = {}
    try:
        for name in names:
            results[name] = run_workload(name, args.seed, args.seconds, args.trace,
                                         launcher)
    except (IntegrityError, OperationError) as exc:
        print(f"stagebench: {name}: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1

    if len(names) == 1:
        metrics = results[names[0]]["metrics"]
    else:
        metrics = {f"{name}.{m}": v for name, r in results.items()
                   for m, v in r["metrics"].items()}
    summary = {
        "correct": True,
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": 0,  # a failed operation ends the run with exit code 1
        "metrics": metrics,
    }
    record = WORK / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({"environment": env, "results": results}, indent=1))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
