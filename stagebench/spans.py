"""Out-of-program tracing: timing wrappers around the pipeline's stage
functions, span self times, per-layer counts and scaling exponents.

The tracer rebinds the stage functions that ``centriscan.engine`` calls
through its module globals, plus the token-scan kernel that
``centriscan.solidity.tokens`` calls, so the real pipeline runs unchanged.
``Tracer.restore`` puts the originals back and checks that it did.
"""

from __future__ import annotations

import gc
import math
import statistics
import time
from collections import Counter, defaultdict

# engine global -> span name. Several functions may share one span name;
# the span name is the layer.
ENGINE_STAGES = {
    "discover_files": "engine.discover",
    "analyze_solidity_source": "engine.file",
    "analyze_teal_source": "engine.file",
    "tokenize": "solidity.tokens",
    "parse_source": "solidity.parser",
    "collect_state_vars": "solidity.symbols",
    "find_sender_guards": "solidity.detectors",
    "find_fund_modifications": "solidity.detectors",
    "pair_detections": "solidity.detectors",
    "parse_teal": "teal.parser",
    "build_cfg": "teal.cfg",
    "abstract_exec_block": "teal.absint",
    "find_guard_points": "teal.detectors",
    "find_fund_mod_points": "teal.detectors",
    "compute_guardedness": "teal.detectors",
    "classify": "report.classify",
    "build_report": "report.build",
}
KERNEL_SPAN = "scanloop.scan"

# Span name -> per-layer time metric. The benchmark opens the root spans
# ("engine.scan", "report.render_json", "report.render_text") itself.
TIME_METRICS = {
    "engine.scan": "engine.self_s",
    "engine.file": "engine.self_s",
    "engine.discover": "engine.discover_s",
    KERNEL_SPAN: "scanloop.scan_s",
    "solidity.tokens": "solidity.tokens.self_s",
    "solidity.parser": "solidity.parser.self_s",
    "solidity.symbols": "solidity.symbols.self_s",
    "solidity.detectors": "solidity.detectors.self_s",
    "teal.parser": "teal.parser.self_s",
    "teal.cfg": "teal.cfg.self_s",
    "teal.absint": "teal.absint.self_s",
    "teal.detectors": "teal.detectors.self_s",
    "report.classify": "report.classify_s",
    "report.build": "report.build_s",
    "report.render_json": "report.render_json_s",
    "report.render_text": "report.render_text_s",
}
# Counting runs in its own span so no layer's self time includes it.
COUNT_SPAN = "trace.count"
# Layers whose per-file self time is fitted against file size.
EXP_LAYERS = ("solidity.tokens", "solidity.parser", "teal.parser", "teal.cfg",
              "teal.detectors")


def _count_parse(counts: Counter, unit) -> None:
    from centriscan.solidity import ast

    stack = []
    for contract in unit.contracts:
        for decl in (*contract.modifiers, *contract.functions):
            stack.extend(decl.body)
    while stack:
        stmt = stack.pop()
        counts["solidity.parser.stmts"] += 1
        if isinstance(stmt, ast.Opaque):
            counts["solidity.parser.opaque_stmts"] += 1
        elif isinstance(stmt, ast.If):
            stack.extend(stmt.then_body)
            stack.extend(stmt.else_body)


def _count_guardedness(counts: Counter, result) -> None:
    counts["teal.detectors.unreachable_writes"] += sum(
        verdict is None for verdict in result.verdicts.values())
    counts["teal.detectors.witness_instrs"] += sum(
        len(path) for path in result.witness_instructions.values())


# engine global -> counter update from (counts, result).
COUNTERS = {
    "tokenize": lambda c, r: c.update({"solidity.tokens.count": len(r)}),
    "parse_source": _count_parse,
    "find_sender_guards": lambda c, r: c.update({"solidity.detectors.guard_sites": len(r)}),
    "find_fund_modifications": lambda c, r: c.update({"solidity.detectors.fund_sites": len(r)}),
    "parse_teal": lambda c, r: c.update({
        "teal.parser.instructions": len(r.instructions),
        "teal.parser.unknown_opcodes": sum(i.stack_delta is None for i in r.instructions)}),
    "build_cfg": lambda c, r: c.update({"teal.cfg.blocks": len(r.blocks),
                                        "teal.cfg.edges": len(r.edges)}),
    "abstract_exec_block": lambda c, r: c.update({"teal.absint.calls": 1}),
    "find_guard_points": lambda c, r: c.update({"teal.detectors.guard_points": len(r)}),
    "find_fund_mod_points": lambda c, r: c.update({"teal.detectors.fund_points": len(r)}),
    "compute_guardedness": _count_guardedness,
}


COUNT_METRICS = (
    "solidity.tokens.count", "solidity.parser.stmts", "solidity.parser.opaque_stmts",
    "solidity.detectors.guard_sites", "solidity.detectors.fund_sites",
    "teal.parser.instructions", "teal.parser.unknown_opcodes", "teal.cfg.blocks",
    "teal.cfg.edges", "teal.absint.calls", "teal.detectors.guard_points",
    "teal.detectors.fund_points", "teal.detectors.unreachable_writes",
    "teal.detectors.witness_instrs",
)


class Tracer:
    """Records spans (name, start, end, parent) and counts for one pass."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.file_lines: dict[int, int] = {}  # engine.file span -> lines
        self.counts: Counter = Counter()
        self.gc_s = 0.0
        self.gc_gen2 = 0
        self._stack: list[int] = []
        self._gc_started = 0.0
        self._saved: list[tuple[object, str, object]] = []

    # --- spans ------------------------------------------------------------

    def open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent])
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(f"span {index} closed out of order")

    # --- wrappers ---------------------------------------------------------

    def _wrap(self, name: str, fn, counter=None, file_span: bool = False):
        def traced(*args, **kwargs):
            index = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(index)
            if counter is not None or file_span:
                count_index = self.open(COUNT_SPAN)
                if file_span:
                    self.file_lines[index] = args[0].count("\n") + 1
                if counter is not None:
                    counter(self.counts, result)
                self.close(count_index)
            return result
        return traced

    def _gc_callback(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_started = time.perf_counter()
        else:
            self.gc_s += time.perf_counter() - self._gc_started
            if info["generation"] == 2:
                self.gc_gen2 += 1

    def install(self) -> None:
        """Rebind the stage functions to timing wrappers."""
        from centriscan import engine
        from centriscan.solidity import tokens

        if self._saved:
            raise RuntimeError("tracer already installed")
        for attr, name in ENGINE_STAGES.items():
            original = getattr(engine, attr)
            self._saved.append((engine, attr, original))
            setattr(engine, attr, self._wrap(name, original, COUNTERS.get(attr),
                                             file_span=name == "engine.file"))
        self._saved.append((tokens, "scan_solidity", tokens.scan_solidity))
        tokens.scan_solidity = self._wrap(KERNEL_SPAN, tokens.scan_solidity)
        gc.callbacks.append(self._gc_callback)

    def restore(self) -> None:
        """Put the original functions back and check that they are back."""
        gc.callbacks.remove(self._gc_callback)
        for module, attr, original in self._saved:
            setattr(module, attr, original)
        for module, attr, original in self._saved:
            if getattr(module, attr) is not original:
                raise RuntimeError(f"could not restore {module.__name__}.{attr}")
        self._saved.clear()

    # --- results ----------------------------------------------------------

    def layer_times(self) -> dict[str, float]:
        """Self time per time metric, summed over the pass."""
        totals: dict[str, float] = defaultdict(float)
        for (name, _, _, _), own in zip(self.spans, self_times(self.spans)):
            metric = TIME_METRICS.get(name)
            if metric is not None:
                totals[metric] += own
        return dict(totals)

    def file_layer_times(self) -> list[tuple[int, dict[str, float]]]:
        """(file lines, {layer: self time}) for every engine.file span."""
        per_file: dict[int, dict[str, float]] = {i: defaultdict(float) for i in self.file_lines}
        for index, own in enumerate(self_times(self.spans)):
            name = self.spans[index][0]
            if name not in EXP_LAYERS:
                continue
            parent = self.spans[index][3]
            while parent != -1 and parent not in per_file:
                parent = self.spans[parent][3]
            if parent != -1:
                per_file[parent][name] += own
        return [(self.file_lines[i], dict(per_file[i])) for i in sorted(per_file)]


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for _, start, end, parent in spans:
        if parent != -1:
            children[parent].append((start, end))
    result = []
    for index, (_, start, end, _) in enumerate(spans):
        covered = 0.0
        reach = start
        for child_start, child_end in sorted(children.get(index, ())):
            lo = max(child_start, reach)
            hi = min(child_end, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        result.append(end - start - covered)
    return result


def scaling_exponent(points: list[tuple[int, float]]) -> float:
    """Least-squares slope of log(time) against log(lines).

    About 1 for a stage linear in file size, about 2 for a quadratic one.
    Returns 0.0 when the points do not span at least a 1.5x size range.
    """
    points = [(lines, t) for lines, t in points if lines > 0 and t > 0]
    if not points or max(p[0] for p in points) < 1.5 * min(p[0] for p in points):
        return 0.0
    xs = [math.log(lines) for lines, _ in points]
    ys = [math.log(t) for _, t in points]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    sxx = sum((x - mx) ** 2 for x in xs)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sxx
