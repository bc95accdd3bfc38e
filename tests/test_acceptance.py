"""Acceptance suite: one test per release criterion, each printing a
pass/fail line (visible with `pytest -s`).

Criteria:
  1. Solidity pattern corpus (exact sites + combined MAJOR finding), < 1 s.
  2. TEAL pattern corpus (assert/branch guards, fund point, combination), < 1 s.
  3. Negative corpus: no CENTRALIZATION_RISK; privileged-only -> INFO.
  4. Guardedness matches path enumeration on >= 200 random CFGs, < 10 s.
  5. 10,000 fuzzed inputs per frontend: zero crashes, a result every time.
  6. Byte-identical JSON across runs; input order never matters.
  7. Guard deletion/addition flips findings exactly as specified.
  8. 100 files of ~500 lines scanned in < 1 s.
"""

import json
import random
import time
from contextlib import contextmanager

from centriscan import __version__
from centriscan.config import AnalyzerConfig
from centriscan.engine import (
    analyze_solidity_source,
    analyze_teal_source,
    scan_files,
)
from centriscan.report import build_report, render_report
from centriscan.solidity.detectors import (
    find_fund_modifications,
    find_sender_guards,
)
from centriscan.solidity.symbols import collect_state_vars
from centriscan.teal.absint import abstract_exec_block
from centriscan.teal.cfg import build_cfg
from centriscan.teal.detectors import (
    compute_guardedness,
    find_fund_mod_points,
    find_guard_points,
)
from centriscan.teal.parser import parse_teal

from helpers import (
    all_corpus_files,
    corpus_text,
    parse_single_contract,
    random_cfg,
    random_guards_and_funds,
)
from oracle import oracle_verdicts

CONFIG = AnalyzerConfig()


@contextmanager
def criterion(number: int, description: str):
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {number} ({description}): FAIL", flush=True)
        raise
    print(f"[acceptance] criterion {number} ({description}): PASS", flush=True)


def _solidity_sites(name: str):
    contract = parse_single_contract(corpus_text("solidity", name))
    symbols = collect_state_vars(contract)
    guards = find_sender_guards(contract, CONFIG)
    funds = find_fund_modifications(contract, symbols, CONFIG)
    return guards, funds


def _teal_points(name: str):
    program = parse_teal(corpus_text("teal", name))
    cfg = build_cfg(program)
    facts = [abstract_exec_block(b, program, CONFIG) for b in cfg.blocks]
    guards = find_guard_points(cfg, facts, program)
    funds = find_fund_mod_points(facts, program)
    return cfg, guards, funds


def _findings(name: str):
    if name.endswith(".teal"):
        found, _ = analyze_teal_source(corpus_text("teal", name), name, CONFIG)
    else:
        found, _ = analyze_solidity_source(corpus_text("solidity", name), name, CONFIG)
    return found


def test_criterion_1_solidity_pattern_corpus():
    with criterion(1, "Solidity pattern corpus"):
        started = time.perf_counter()
        expected = {
            "row1_only_owner.sol": ("guard", "ModifierGuard"),
            "row2_require.sol": ("guard", "RequireGuard"),
            "row3_if.sol": ("guard", "IfGuard"),
            "row4_balance.sol": ("fund", "BalanceMappingWrite"),
        }
        for name, (channel, form) in expected.items():
            guards, funds = _solidity_sites(name)
            if channel == "guard":
                assert [g.form for g in guards] == [form], name
                assert funds == [], name
            else:
                assert [s.kind for s in funds] == [form], name
                assert guards == [], name
        combined = _findings("owner_drain.sol")
        assert [(f.kind, f.severity) for f in combined] == [
            ("CENTRALIZATION_RISK", "MAJOR")]
        elapsed = time.perf_counter() - started
        assert elapsed < 1.0, f"took {elapsed:.3f}s"


def test_criterion_2_teal_pattern_corpus():
    with criterion(2, "TEAL pattern corpus"):
        started = time.perf_counter()
        _, guards, funds = _teal_points("row1_assert.teal")
        assert [g.form for g in guards] == ["AssertGuard"] and funds == []
        _, guards, funds = _teal_points("row2_branch.teal")
        assert [g.form for g in guards] == ["BranchGuard"] and funds == []
        _, guards, funds = _teal_points("row3_put.teal")
        assert guards == [] and [(p.opcode, p.key) for p in funds] == [
            ("app_local_put", "MyBalance")]
        assert [(f.kind, f.severity) for f in _findings("guarded_put.teal")] == [
            ("CENTRALIZATION_RISK", "MAJOR")]
        assert [(f.kind, f.severity) for f in _findings("row3_put.teal")] == [
            ("UNPROTECTED_FUND_MODIFICATION", "WARNING")]
        elapsed = time.perf_counter() - started
        assert elapsed < 1.0, f"took {elapsed:.3f}s"


def test_criterion_3_negative_corpus():
    with criterion(3, "negative corpus"):
        negatives = {
            # file -> expected (kind, severity) list
            "neg_nonsender_require.sol": [],
            "neg_nonmapping_write.sol": [],
            "neg_uint_key_mapping.sol": [],
            "neg_self_compare.sol": [],
            "neg_if_nonsender_write.sol": [("UNPROTECTED_FUND_MODIFICATION", "WARNING")],
            "neg_guard_only.sol": [("PRIVILEGED_FUNCTION", "INFO")],
            "neg_color_put.teal": [],
            "neg_nonconst_key.teal": [],
            "neg_assert_int.teal": [],
            "neg_self_compare.teal": [],
        }
        assert len(negatives) >= 8
        for name, expected in negatives.items():
            found = [(f.kind, f.severity) for f in _findings(name)]
            assert found == expected, (name, found)
        # Privileged-only positives report exactly one INFO finding.
        for name in ("row1_only_owner.sol", "row2_require.sol", "row3_if.sol",
                     "row1_assert.teal"):
            found = [(f.kind, f.severity) for f in _findings(name)]
            assert found == [("PRIVILEGED_FUNCTION", "INFO")], (name, found)


def test_criterion_4_guardedness_oracle_agreement():
    with criterion(4, "guardedness oracle agreement"):
        started = time.perf_counter()
        cases = 0
        for seed in range(220):
            rng = random.Random(seed * 7919)
            cfg = random_cfg(rng)
            guards, funds = random_guards_and_funds(cfg, rng)
            result = compute_guardedness(cfg, guards, funds)
            assert result.verdicts == oracle_verdicts(cfg, guards, funds), seed
            cases += 1
        elapsed = time.perf_counter() - started
        assert cases >= 200
        assert elapsed < 10.0, f"took {elapsed:.3f}s"


def test_criterion_5_fuzz_robustness():
    with criterion(5, "fuzz robustness (10k inputs per frontend)"):
        rng = random.Random(0xC0FFEE)
        solidity_seeds = [corpus_text("solidity", n) for n in
                          ("owner_drain.sol", "row1_only_owner.sol", "row3_if.sol")]
        teal_seeds = [corpus_text("teal", n) for n in
                      ("guarded_put.teal", "row2_branch.teal")]

        def mutate(seeds):
            if rng.random() < 0.5:
                return bytes(rng.randrange(256) for _ in range(rng.randrange(160))) \
                    .decode("utf-8", errors="replace")
            base = rng.choice(seeds)
            cut = rng.randrange(len(base) + 1)
            return base[:cut] + rng.choice(["", "}", "{", ";", '"', "/*", "\\"])

        for _ in range(10_000):
            findings, diagnostics = analyze_solidity_source(
                mutate(solidity_seeds), "fuzz.sol", CONFIG)
            assert isinstance(findings, list) and isinstance(diagnostics, list)
        for _ in range(10_000):
            findings, diagnostics = analyze_teal_source(
                mutate(teal_seeds), "fuzz.teal", CONFIG)
            assert isinstance(findings, list) and isinstance(diagnostics, list)


def test_criterion_6_determinism():
    with criterion(6, "byte-identical reports"):
        files = all_corpus_files()
        first = render_report(scan_files(files, CONFIG), "json")
        second = render_report(scan_files(files, CONFIG), "json")
        assert first == second
        shuffled = files[:]
        random.Random(42).shuffle(shuffled)
        third = render_report(scan_files(shuffled, CONFIG), "json")
        assert first == third


def _finding_kinds(source: str, name: str):
    if name.endswith(".teal"):
        found, _ = analyze_teal_source(source, name, CONFIG)
    else:
        found, _ = analyze_solidity_source(source, name, CONFIG)
    return [f.kind for f in found]


def test_criterion_7_guard_monotonicity_suite():
    with criterion(7, "guard deletion/addition flips"):
        cases = [
            # (file, guard text to delete, second guard to insert after anchor)
            ("owner_drain.sol", "require(msg.sender == owner);",
             ("_;", "require(msg.sender == owner);"),
             ["CENTRALIZATION_RISK"], ["UNPROTECTED_FUND_MODIFICATION"]),
            ("row1_only_owner.sol", "require(msg.sender == owner);",
             ("_;", "require(msg.sender == owner);"),
             ["PRIVILEGED_FUNCTION"], []),
            ("row2_require.sol", "require(address(owner) == msg.sender);",
             ("require(address(owner) == msg.sender);",
              "require(owner == msg.sender);"),
             ["PRIVILEGED_FUNCTION"], []),
            ("guarded_put.teal",
             'byte "manager"\napp_global_get\ntxn Sender\n==\nassert\n',
             ("#pragma version 5\n",
              'byte "manager"\napp_global_get\ntxn Sender\n==\nassert\n'),
             ["CENTRALIZATION_RISK"], ["UNPROTECTED_FUND_MODIFICATION"]),
        ]
        for name, guard, (anchor, extra), with_guard, without_guard in cases:
            language = "teal" if name.endswith(".teal") else "solidity"
            source = corpus_text(language, name)
            assert guard in source and anchor in source, name
            assert _finding_kinds(source, name) == with_guard, name
            deleted = source.replace(guard, "")
            assert _finding_kinds(deleted, name) == without_guard, name
            doubled = source.replace(anchor, anchor + "\n" + extra, 1)
            assert _finding_kinds(doubled, name) == with_guard, (name, "doubled")


def _synthetic_solidity(index: int, lines: int = 500) -> str:
    out = [f"// synthetic contract {index}", f"contract Synth{index} {{",
           "    address owner;", "    uint counter;",
           "    mapping(address => uint) bals;",
           "    modifier only_owner { require(msg.sender == owner); _; }"]
    label = 0
    while len(out) < lines - 2:
        label += 1
        out += [
            f"    function f{label}(address to, uint amount) public only_owner {{",
            "        require(msg.sender == owner);",
            "        if (amount > 0) {",
            "            bals[to] = bals[to].add(amount);",
            "        }",
            "        emit Moved(to, amount);",
            "        counter = counter + 1;",
            "    }",
        ]
    out.append("}")
    return "\n".join(out)


def _synthetic_teal(index: int, lines: int = 500) -> str:
    out = ["#pragma version 5", f"// synthetic program {index}"]
    label = 0
    while len(out) < lines - 15:
        label += 1
        out += ['byte "manager"', "app_global_get", "txn Sender", "==",
                f"bz fail{label}", "int 0", 'byte "MyBalance"', f"int {label}",
                "app_local_put", f"b next{label}", f"fail{label}:", "err",
                f"next{label}:"]
    out += ["int 1", "return"]
    return "\n".join(out)


def test_criterion_8_throughput(tmp_path):
    with criterion(8, "100x500-line files under 1s"):
        paths = []
        for i in range(50):
            sol = tmp_path / f"synth_{i}.sol"
            sol.write_text(_synthetic_solidity(i), encoding="utf-8")
            paths.append(str(sol))
            teal = tmp_path / f"synth_{i}.teal"
            teal.write_text(_synthetic_teal(i), encoding="utf-8")
            paths.append(str(teal))
        started = time.perf_counter()
        report = scan_files(paths, CONFIG)
        elapsed = time.perf_counter() - started
        assert report.files_scanned == 100
        assert report.counts["major"] > 0
        assert elapsed < 1.0, f"took {elapsed:.3f}s"
        rendered = render_report(report, "json")
        assert json.loads(rendered)["version"] == __version__


def test_acceptance_summary_report():
    # Aggregate sanity: the full corpus scan is internally consistent.
    report = scan_files(all_corpus_files(), CONFIG)
    assert sum(report.counts.values()) == len(report.findings)
    assert report.files_scanned == len(all_corpus_files())
    rebuilt = build_report(report.findings, report.diagnostics,
                           report.files_scanned, CONFIG, __version__)
    assert render_report(rebuilt, "json") == render_report(report, "json")
