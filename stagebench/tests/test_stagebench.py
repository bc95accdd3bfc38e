"""Tests of the benchmark's own logic: generators, oracle, span arithmetic."""

from collections import Counter

import pytest

import hostspeed
import spans
import verdicts
import workloads

NAMES = sorted(workloads.GENERATORS)


@pytest.mark.parametrize("name", NAMES)
def test_generator_is_deterministic_per_seed(name):
    first, again = workloads.generate(name, 7), workloads.generate(name, 7)
    assert first.files == again.files
    assert first.verdicts == again.verdicts


@pytest.mark.parametrize("name", NAMES)
def test_seeds_change_text_but_not_size_or_shape_mix(name):
    one, two = workloads.generate(name, 1), workloads.generate(name, 2)
    assert one.files != two.files
    assert sorted(one.files) == sorted(two.files)
    for file in one.files:
        assert one.files[file].count("\n") == two.files[file].count("\n")

    def mix(work):
        return Counter(kind for expected in work.verdicts.values() for _, kind in expected)

    assert mix(one) == mix(two)


@pytest.mark.parametrize("name", NAMES)
def test_verdict_lines_land_on_function_or_put(name):
    work = workloads.generate(name, 3)
    assert sum(len(v) for v in work.verdicts.values()) > 0
    for file, expected in work.verdicts.items():
        lines = work.files[file].split("\n")
        for line, _ in expected:
            text = lines[line - 1].strip()
            if file.endswith(".sol"):
                assert text.startswith("function "), (file, line, text)
            else:
                assert text in ("app_global_put", "app_local_put"), (file, line, text)


def test_router_sizes_double():
    work = workloads.generate("teal-router", 1)
    sizes = [text.count("\n") + 1 for text in work.files.values()]
    assert sizes == list(workloads.ROUTER_SIZES)


def test_score_counts_misses_extras_and_raised_files():
    expected = {"a.sol": [(3, workloads.MAJOR), (9, None)],
                "b.teal": [(4, workloads.WARNING)]}
    assert verdicts.score([("a.sol", 3, workloads.MAJOR), ("b.teal", 4, workloads.WARNING)],
                          expected) == (3, 0)
    # Wrong kind on line 3, a finding on the negative line 9, one on line 5
    # that carries no verdict.
    found = [("a.sol", 3, workloads.INFO), ("a.sol", 9, workloads.INFO),
             ("a.sol", 5, workloads.MAJOR), ("b.teal", 4, workloads.WARNING)]
    assert verdicts.score(found, expected) == (4, 3)
    assert verdicts.score([("a.sol", 3, workloads.MAJOR)], expected,
                          frozenset({"b.teal"})) == (3, 1)


def test_self_times_subtract_nested_children():
    synthetic = [
        ["root", 0.0, 10.0, -1],
        ["a", 1.0, 4.0, 0],
        ["b", 2.0, 3.0, 1],
        ["c", 5.0, 9.0, 0],
        ["d", 6.0, 8.0, 3],
        ["e", 7.0, 8.5, 3],  # overlaps d; the union is counted once
    ]
    assert spans.self_times(synthetic) == pytest.approx([3.0, 2.0, 1.0, 1.5, 2.0, 1.5])


def test_scaling_exponent_of_linear_and_quadratic_costs():
    sizes = [100, 200, 400, 800, 1600]
    assert spans.scaling_exponent([(n, 3e-6 * n) for n in sizes]) == pytest.approx(1.0)
    assert spans.scaling_exponent([(n, 2e-9 * n * n) for n in sizes]) == pytest.approx(2.0)
    assert spans.scaling_exponent([(500, 0.1), (500, 0.2)]) == 0.0
    assert spans.scaling_exponent([]) == 0.0


def test_tracer_restores_originals_and_keeps_output():
    from centriscan import AnalyzerConfig, engine, render_report
    from centriscan.solidity import tokens

    work = workloads.generate("mixed-500", 1)
    files = {name: work.files[name] for name in ("synth_00.sol", "synth_00.teal")}
    config = AnalyzerConfig()

    def scan():
        findings = []
        for name, text in files.items():
            analyze = (engine.analyze_teal_source if name.endswith(".teal")
                       else engine.analyze_solidity_source)
            findings += analyze(text, name, config)[0]
        return render_report(engine.build_report(findings, [], len(files), config, "x"),
                             "json")

    originals = {attr: getattr(engine, attr) for attr in spans.ENGINE_STAGES}
    kernel = tokens.scan_solidity
    untraced = scan()
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert engine.parse_teal is not originals["parse_teal"]
        traced = scan()
    finally:
        tracer.restore()
    assert traced == untraced
    assert all(getattr(engine, attr) is fn for attr, fn in originals.items())
    assert tokens.scan_solidity is kernel
    times = tracer.layer_times()
    for metric in ("scanloop.scan_s", "solidity.tokens.self_s", "teal.cfg.self_s"):
        assert times[metric] > 0
    assert tracer.counts["teal.absint.calls"] == tracer.counts["teal.cfg.blocks"]
    assert [lines for lines, _ in tracer.file_layer_times()] == [500, 500]


def test_clock_scales_by_the_units_around_each_operation(monkeypatch):
    units = iter([0.1, 0.3, 0.05])
    monkeypatch.setattr(hostspeed, "unit", lambda: next(units))
    clock = hostspeed.Clock()
    # A host running at half the reference speed halves the time reported.
    assert clock.factor() == pytest.approx(hostspeed.REFERENCE_S / 0.2)
    assert clock.factor() == pytest.approx(hostspeed.REFERENCE_S / 0.175)
    assert clock.units == [0.1, 0.3, 0.05]


def test_unit_restores_the_collector():
    import gc

    assert gc.isenabled()
    assert hostspeed.unit() > 0
    assert gc.isenabled()
