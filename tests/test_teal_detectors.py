"""Guard points, fund points, and guardedness decisions over the CFG."""

import gc
import random
import re
import time
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from centriscan import engine
from centriscan.config import AnalyzerConfig
from centriscan.engine import analyze_teal_source
from centriscan.flow import (
    ASSERT_GUARD,
    BRANCH_GUARD,
    BRANCH_NOT_TAKEN,
    BRANCH_TAKEN,
    compute_guardedness,
)
from centriscan.teal.absint import (
    EMPTY_FACTS,
    UNKNOWN,
    BlockFacts,
    IntConst,
    abstract_exec_block,
)
from centriscan.teal.cfg import build_cfg
from centriscan.teal.detectors import (_is_failure_region, find_fund_mod_points, find_guard_points,
                                       find_subjects, success_ends)
from centriscan.teal.parser import TealProgram, parse_teal

from helpers import block_of, corpus_text, opcodes_executed, random_cfg
from oracle import reference_is_failure_region, reference_success_ends

CONFIG = AnalyzerConfig()


def _pipeline(source: str, config: AnalyzerConfig = CONFIG):
    """Each stage's notes go to program.diagnostics, as in the engine; last
    the blocks at whose end the program may succeed."""
    program = parse_teal(source)
    diagnostics = program.diagnostics
    cfg = build_cfg(program)
    facts = [abstract_exec_block(b, program, config, diagnostics) for b in cfg.blocks]
    ends = success_ends(cfg, facts, program)
    guards = find_guard_points(cfg, facts, program, ends, diagnostics)
    funds = find_fund_mod_points(facts, program)
    return program, cfg, guards, funds, ends


def _fail_target(cfg, guard):
    """The branch guard's other successor: the edge an unauthorized sender takes."""
    (target,) = [to for to, kind in cfg.successors[guard.block]
                 if kind != guard.non_fail_edge[2]]
    return target


def test_assert_pattern_yields_one_assert_guard():
    _, _, guards, _, _ = _pipeline(corpus_text("teal", "row1_assert.teal"))
    assert [g.form for g in guards] == [ASSERT_GUARD]
    assert guards[0].privileged_source == 'app_global_get["manager"]'


def test_branch_pattern_yields_one_branch_guard():
    program, cfg, guards, _, _ = _pipeline(corpus_text("teal", "row2_branch.teal"))
    assert [g.form for g in guards] == [BRANCH_GUARD]
    guard = guards[0]
    failed_block = block_of(cfg)[program.labels["failed"]]
    assert guard.privileged_source == 'app_global_get["Creator"]'
    assert guard.non_fail_edge[1] != failed_block
    assert _fail_target(cfg, guard) == failed_block


def test_self_comparison_yields_no_guard_points():
    _, _, guards, _, _ = _pipeline(corpus_text("teal", "neg_self_compare.teal"))
    assert guards == []


def test_branch_to_non_failure_region_is_not_a_guard():
    source = (
        'byte "manager"\napp_global_get\ntxn Sender\n==\nbz other\n'
        "int 1\nreturn\nother:\nint 1\nreturn\n"
    )
    program, _, guards, _, _ = _pipeline(source)
    assert guards == []
    assert any("does not gate a failure path" in d.message for d in program.diagnostics)


def test_branch_to_return_zero_is_a_guard():
    source = (
        'byte "manager"\napp_global_get\ntxn Sender\n==\nbz bad\n'
        "int 1\nreturn\nbad:\nint 0\nreturn\n"
    )
    _, _, guards, _, _ = _pipeline(source)
    assert [g.form for g in guards] == [BRANCH_GUARD]


def test_fail_target_jumping_to_success_is_not_a_guard():
    # The fail target's own block ends in `b`; the region it leads to accepts.
    source = (
        'byte "manager"\napp_global_get\ntxn Sender\n==\nbz bad\n'
        "int 1\nreturn\nbad:\nb ok\nok:\nint 1\nreturn\n"
    )
    program, _, guards, _, _ = _pipeline(source)
    assert guards == []
    assert any("does not gate a failure path" in d.message for d in program.diagnostics)


def test_fail_target_that_may_end_the_program_is_not_a_guard():
    # A branch to the label after the last instruction, or a conditional
    # one that falls off the end, ends the program with `int 1` on top: a
    # stranger succeeds there, though the branch itself has no edge.
    guard = "txn Sender\nglobal CreatorAddress\n==\nbz other\nint 1\nreturn\nother:\n"
    for region in ("int 1\ndup\nbnz done\nerr\ndone:",
                   "int 1\nint 0\nbnz other"):
        findings, diagnostics = analyze_teal_source(guard + region, "p.teal", CONFIG)
        assert findings == []
        assert [d.line for d in diagnostics
                if d.message == "sender comparison branch does not gate a failure path"] == [4]


def test_fail_target_reaching_err_two_blocks_later_is_a_guard():
    source = (
        'byte "manager"\napp_global_get\ntxn Sender\n==\nbz bad\n'
        "int 1\nreturn\nbad:\nb worse\nworse:\nb worst\nworst:\nerr\n"
    )
    program, cfg, guards, _, _ = _pipeline(source)
    assert [g.form for g in guards] == [BRANCH_GUARD]
    assert _fail_target(cfg, guards[0]) == block_of(cfg)[program.labels["bad"]]


# Block-ending opcodes by the number of the block's successors.
_ENDINGS = {0: ("err", "return", "retsub", "b", "bnz", "int"), 1: ("b", "bnz", "int"),
            2: ("bz", "bnz")}


def _random_block_ends(cfg, rng):
    """A program and facts for a random CFG: each block ends in an opcode
    that fits its successor count, a branch names the label after the last
    instruction, the entry label or none, and a return pops 0, 1 or an
    unknown value."""
    n = cfg.blocks[-1].stop
    program = TealProgram()
    program.labels.update(end=n, start=0)
    facts = []
    for block, out in zip(cfg.blocks, cfg.successors):
        last = rng.choice(_ENDINGS[len(out)])
        target = rng.choice(((), ("end",), ("start",))) if last in ("b", "bz", "bnz") else ()
        filler = len(block) - 1
        program.opcodes += ["int"] * filler + [last]
        program.immediates += [("1",)] * filler + [target]
        facts.append(BlockFacts())
        facts[-1].returned = rng.choice((IntConst(0), IntConst(1), UNKNOWN))
    program.lines.extend(range(1, n + 1))
    return program, facts


def test_failure_regions_agree_with_the_reachable_set_rule():
    # The reference collects every block reachable from each start anew.
    for seed in range(500):
        rng = random.Random(seed)
        cfg = random_cfg(rng)
        program, facts = _random_block_ends(cfg, rng)
        succeeding = []
        ends = success_ends(cfg, facts, program)
        assert ends == reference_success_ends(cfg, facts, program), f"seed={seed}"
        for block in rng.sample(range(len(cfg.blocks)), len(cfg.blocks)):
            assert _is_failure_region(cfg, ends, block, succeeding) == \
                reference_is_failure_region(cfg, facts, program, block), f"seed={seed}"


# Program pieces for success_ends: returns of a proven zero in each
# spelling and of other values, err, retsub, an unknown opcode, and
# branches to a label in the program, to `end` (the label after the last
# instruction when the program gets one) and to an undefined label.
_END_PIECES = [
    "int 0\nreturn", "pushint 0\nreturn", "int 0x0\nreturn", "int NoOp\nreturn",
    "int 1\nreturn", "int OptIn\nreturn", "return", "err", "retsub", "int 1", "mystery",
    "L0:", "L1:", "callsub L1",
    *(f"{op} {label}" for op in ("b", "bz", "bnz") for label in ("L0", "L1", "end", "nowhere")),
]


@given(st.lists(st.sampled_from(_END_PIECES), min_size=1, max_size=25), st.booleans())
@example(["int 0\nreturn", "pushint 0\nreturn", "int 0x0\nreturn", "int NoOp\nreturn"], False)
@example(["int 1", "bz end", "err", "retsub"], True)
@example(["int 1", "bnz end", "b nowhere"], True)
@example(["int 1", "bz nowhere", "int 1", "bnz nowhere"], False)
@example(["L0:", "int 1", "bnz L0"], False)
@example(["b end"], True)
@settings(max_examples=400, deadline=None)
def test_success_ends_match_the_per_block_reference(pieces, label_at_end):
    # The reference asks every block whether the program may succeed at its
    # end; success_ends reads only the blocks that can.
    program = parse_teal("\n".join(pieces + ["end:"] * label_at_end))
    cfg = build_cfg(program)
    facts = [abstract_exec_block(b, program, CONFIG, []) for b in cfg.blocks]
    assert success_ends(cfg, facts, program) == reference_success_ends(cfg, facts, program)


def _creator_router(n: int) -> str:
    """n handlers that each branch to an admin handler when the sender is
    the creator and else fall through a public balance put into the next:
    every fail target leads on through the rest of the program."""
    handlers = "".join(f"txn Sender\nglobal CreatorAddress\n==\nbnz admin_{k}\n"
                       f'byte "balance"\nint {k}\napp_global_put\n' for k in range(n))
    admins = "".join(f'admin_{k}:\nbyte "fee"\nint {k}\napp_global_put\nint 1\nreturn\n'
                     for k in range(n))
    return "#pragma version 6\n" + handlers + "int 1\nreturn\n" + admins


def test_creator_router_with_fall_through_fail_targets_is_analysed_in_linear_time():
    # Deciding each of the 4,000 fail targets by its own reachable set took
    # about 5 s on a 2-core host; one backward pass per program, 0.2 s.
    source = _creator_router(4_000)
    started = time.perf_counter()
    findings, diagnostics = analyze_teal_source(source, "router.teal", CONFIG)
    elapsed = time.perf_counter() - started
    assert [f.kind for f in findings] == ["UNPROTECTED_FUND_MODIFICATION"] * 4_000
    assert {d.message for d in diagnostics} == {
        "sender comparison branch does not gate a failure path"}
    assert elapsed < 2.0, f"took {elapsed:.3f}s"


# Handler shapes of a PyTeal-style router: a branch-guarded and an
# assert-guarded balance put, an unguarded one, a guarded plain put,
# arithmetic filler, an inner payment (unknown opcodes) and a guarded call
# into a subroutine that writes a balance.
_ROUTER_SHAPES = (
    'byte "owner"\napp_global_get\ntxn Sender\n==\nbz fail\n'
    'byte "balance"\ntxna ApplicationArgs 1\nbtoi\napp_global_put',
    'byte "admin"\napp_global_get\ntxn Sender\n==\nassert\n'
    'txn Sender\nbyte "MyBalance"\nint {k}\napp_local_put',
    'txn Sender\nbyte "UserBalance"\nint {k}\napp_local_put',
    'byte "manager"\napp_global_get\ntxn Sender\n==\nassert\nbyte "paused"\nint 1\napp_global_put',
    'txna ApplicationArgs 1\nbtoi\nint {k}\n*\nstore 0\nload 0\nint 7\n+\nstore 1\n'
    'byte "counter"\nload 1\napp_global_put',
    'itxn_begin\nint pay\nitxn_field TypeEnum\ntxn Sender\nitxn_field Receiver\n'
    'int {k}\nitxn_field Amount\nitxn_submit',
    'byte "creator"\napp_global_get\ntxn Sender\n==\nassert\ncallsub credit_{k}',
)


def _pyteal_router(n: int) -> str:
    """n handlers behind a dispatch on the method selector, the shapes in turn."""
    dispatch = "".join(f'txna ApplicationArgs 0\nmethod "h{k}(uint64)void"\n==\nbnz h{k}\n'
                       for k in range(n))
    handlers = "".join(f"h{k}:\n{_ROUTER_SHAPES[k % len(_ROUTER_SHAPES)].format(k=k)}\n"
                       "int 1\nreturn\n" for k in range(n))
    subroutines = "".join(f'credit_{k}:\nbyte "lpBalance"\nint {k}\napp_global_put\nretsub\n'
                          for k in range(len(_ROUTER_SHAPES) - 1, n, len(_ROUTER_SHAPES)))
    return f"#pragma version 8\n{dispatch}err\n{handlers}fail:\nerr\n{subroutines}"


def test_detector_stage_cost_grows_linearly_with_router_size():
    # The stages after the interpreter read each block, edge and point a
    # bounded number of times, and success_ends only the blocks without
    # successors, so twice the handlers cost about twice the opcodes: a
    # stage that re-read the dispatch chain per handler would not.
    def cost(n):
        program = parse_teal(_pyteal_router(n))
        cfg = build_cfg(program)
        facts = [abstract_exec_block(b, program, CONFIG, []) for b in cfg.blocks]

        def stages():
            ends = success_ends(cfg, facts, program)
            guards = find_guard_points(cfg, facts, program, ends, [])
            funds = find_fund_mod_points(facts, program)
            guardedness = compute_guardedness(cfg, guards, funds, ends, [])
            list(find_subjects(guards, funds, guardedness))
        return opcodes_executed(stages)

    assert cost(280) / cost(140) <= 2.2


def test_router_analysis_peak_memory_per_source_character():
    # The peak holds the program's columns (`lines` an array of machine
    # ints), one facts record per block that the interpreter reads (the
    # others share EMPTY_FACTS) and the points; the columns and the facts go
    # before the flow query. About 13 bytes per character on Python
    # 3.10-3.13; with a list of int objects for `lines`, a record per block
    # and the columns held to the end, about 19.
    source = _pyteal_router(2_000)
    analyze_teal_source(source, "router.teal", CONFIG)  # loads the back end
    tracemalloc.start()
    try:
        findings, _ = analyze_teal_source(source, "router.teal", CONFIG)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(findings) == 858
    assert peak / len(source) < 16, f"{peak / len(source):.1f} bytes per character"


def test_the_program_and_the_facts_are_freed_before_the_flow_query(monkeypatch):
    # The flow query and the subjects read only the CFG and the points.
    made = set()

    def keep_id(stage):
        def run(*args):
            result = stage(*args)
            if result is not EMPTY_FACTS:
                made.add(id(result))
            return result
        return run

    alive = []

    def flow(*args):
        alive.extend(o for o in gc.get_objects()
                     if isinstance(o, (TealProgram, BlockFacts)) and id(o) in made)
        return compute_guardedness(*args)

    monkeypatch.setattr(engine, "parse_teal", keep_id(parse_teal))
    monkeypatch.setattr(engine, "abstract_exec_block", keep_id(abstract_exec_block))
    monkeypatch.setattr(engine, "compute_guardedness", flow)
    findings, _ = analyze_teal_source(_pyteal_router(14), "router.teal", CONFIG)
    assert len(made) > 1 and len(findings) == 6
    assert alive == []


def test_a_router_scan_leaves_the_shared_empty_facts_empty():
    source = _pyteal_router(70)
    program = parse_teal(source)
    facts = [abstract_exec_block(b, program, CONFIG, []) for b in build_cfg(program).blocks]
    assert any(f is EMPTY_FACTS for f in facts) and any(f is not EMPTY_FACTS for f in facts)
    analyze_teal_source(source, "router.teal", CONFIG)
    assert EMPTY_FACTS == BlockFacts()
    assert not EMPTY_FACTS.guard_points and not EMPTY_FACTS.fund_mods
    for facts_map in (EMPTY_FACTS.guard_points, EMPTY_FACTS.fund_mods):
        with pytest.raises(TypeError):
            facts_map[0] = None


def test_bnz_with_neq_polarity_orients_fail_edge_to_fallthrough():
    # `!=` + bnz failed: nonzero means sender differs, so taken edge fails.
    source = (
        'byte "manager"\napp_global_get\ntxn Sender\n!=\nbnz bad\n'
        "int 1\nreturn\nbad:\nerr\n"
    )
    program, cfg, guards, _, _ = _pipeline(source)
    assert [g.form for g in guards] == [BRANCH_GUARD]
    assert _fail_target(cfg, guards[0]) == block_of(cfg)[program.labels["bad"]]


def test_balance_put_yields_fund_point():
    _, _, _, funds, _ = _pipeline(corpus_text("teal", "row3_put.teal"))
    assert [(p.opcode, p.key) for p in funds] == [("app_local_put", "MyBalance")]


def test_color_key_put_yields_no_fund_point():
    # Hand evaluation of the default rule: "color" is not in the exact list
    # and does not contain "balance" case-insensitively.
    _, _, _, funds, _ = _pipeline(corpus_text("teal", "neg_color_put.teal"))
    assert funds == []


def test_non_constant_key_yields_no_point_with_note():
    program, _, _, funds, _ = _pipeline(corpus_text("teal", "neg_nonconst_key.teal"))
    assert funds == []
    assert any("non-constant key" in d.message for d in program.diagnostics)


def test_guarded_concatenation_is_guarded():
    _, cfg, guards, funds, ends = _pipeline(corpus_text("teal", "guarded_put.teal"))
    result = compute_guardedness(cfg, guards, funds, ends, [])
    assert [result.verdicts[p] for p in funds] == [True]


def test_unguarded_put_with_witness():
    _, cfg, guards, funds, ends = _pipeline(corpus_text("teal", "row3_put.teal"))
    result = compute_guardedness(cfg, guards, funds, ends, [])
    assert [result.verdicts[p] for p in funds] == [False]
    assert result.witnesses[funds[0]] == (0,)


def test_guard_and_put_in_parallel_branches_is_unguarded():
    # Entry branches to either a guarded arm or the put; 3-block CFG whose
    # expected verdict was derived with the path-enumeration oracle.
    source = (
        "int 1\n"
        "bz putside\n"
        'byte "manager"\napp_global_get\ntxn Sender\n==\nassert\nint 1\nreturn\n'
        "putside:\n"
        'int 0\nbyte "MyBalance"\nint 5\napp_local_put\nint 1\nreturn\n'
    )
    _, cfg, guards, funds, ends = _pipeline(source)
    assert len(guards) == 1 and len(funds) == 1
    result = compute_guardedness(cfg, guards, funds, ends, [])
    assert result.verdicts[funds[0]] is False
    witness = result.witnesses[funds[0]]
    assert len(witness) == 2  # entry block -> put block, one edge


def test_guard_on_one_of_two_merging_paths_is_unguarded():
    source = (
        "int 1\n"
        "bz skip\n"
        'byte "manager"\napp_global_get\ntxn Sender\n==\nassert\n'
        "skip:\n"
        'int 0\nbyte "MyBalance"\nint 5\napp_local_put\nint 1\nreturn\n'
    )
    _, cfg, guards, funds, ends = _pipeline(source)
    assert len(guards) == 1 and len(funds) == 1
    result = compute_guardedness(cfg, guards, funds, ends, [])
    assert result.verdicts[funds[0]] is False


def test_branch_guard_protects_fallthrough_region():
    source = corpus_text("teal", "row2_branch.teal") + (
        'int 0\nbyte "MyBalance"\nint 5\napp_local_put\nint 1\nreturn\n'
    )
    # The put sits after the success `return`, unreachable; move it into the
    # success arm instead.
    source = (
        'byte "Creator"\napp_global_get\ntxn Sender\n==\nbz failed\n'
        'int 0\nbyte "MyBalance"\nint 5\napp_local_put\nint 1\nreturn\n'
        "failed:\nerr\n"
    )
    _, cfg, guards, funds, ends = _pipeline(source)
    result = compute_guardedness(cfg, guards, funds, ends, [])
    assert result.verdicts[funds[0]] is True


def test_put_inside_failure_region_is_dead():
    # Every run through the put ends at `err`, so no sender commits it.
    source = (
        'byte "Creator"\napp_global_get\ntxn Sender\n==\nbz failed\n'
        "int 1\nreturn\n"
        "failed:\n"
        'int 0\nbyte "MyBalance"\nint 5\napp_local_put\nerr\n'
    )
    _, cfg, guards, funds, ends = _pipeline(source)
    assert len(guards) == 1
    diagnostics = []
    result = compute_guardedness(cfg, guards, funds, ends, diagnostics)
    assert result.verdicts[funds[0]] is None
    assert [d.message for d in diagnostics] == [
        "every path through the fund modification at line 12 fails"]


def test_dead_code_put_reports_not_applicable():
    diagnostics = []
    source = (
        "int 1\nreturn\n"
        "dead:\n"
        'int 0\nbyte "MyBalance"\nint 5\napp_local_put\nint 1\nreturn\n'
    )
    _, cfg, guards, funds, ends = _pipeline(source)
    result = compute_guardedness(cfg, guards, funds, ends, diagnostics)
    assert result.verdicts[funds[0]] is None
    assert any("unreachable" in d.message for d in diagnostics)


def test_conservatism_no_sender_no_guards():
    source = 'byte "manager"\napp_global_get\nint 1\n==\nassert\nint 1\nreturn'
    _, _, guards, _, _ = _pipeline(source)
    assert guards == []


def test_conservatism_no_put_no_fund_points():
    _, _, _, funds, _ = _pipeline(corpus_text("teal", "row1_assert.teal"))
    assert funds == []


def test_guarded_put_after_unknown_opcode_is_major():
    # What follows an opcode of unknown arity is read on an empty stack.
    source = ('mystery\ntxn Sender\nglobal CreatorAddress\n==\nassert\n'
              'byte "MyBalance"\nint 5\napp_global_put\nint 1\nreturn')
    findings, diagnostics = analyze_teal_source(source, "p.teal", CONFIG)
    assert [(f.kind, f.severity, f.line) for f in findings] == [
        ("CENTRALIZATION_RISK", "MAJOR", 8)]
    assert [d.message for d in diagnostics] == ["unknown opcode 'mystery'"]


def test_weakened_guard_still_guards_with_note():
    source = (
        'byte "manager"\napp_global_get\ntxn Sender\n==\nint 1\n||\nassert\n'
        'int 0\nbyte "MyBalance"\nint 5\napp_local_put\nint 1\nreturn\n'
    )
    program, cfg, guards, funds, ends = _pipeline(source)
    assert len(guards) == 1
    assert any("weakened guard" in d.message for d in program.diagnostics)
    result = compute_guardedness(cfg, guards, funds, ends, [])
    assert result.verdicts[funds[0]] is True


def test_negated_assert_is_not_a_guard():
    for negated in ("!=", "==\n!"):
        source = (f'byte "manager"\napp_global_get\ntxn Sender\n{negated}\n'
                  'assert\nint 1\nreturn')
        program, _, guards, _, _ = _pipeline(source)
        assert guards == [], negated
        assert any("negated sender comparison" in d.message
                   for d in program.diagnostics), negated


def test_negated_eq_branch_to_err_guards_the_put():
    source = ('txn Sender\nglobal CreatorAddress\n==\n!\nbnz fail\n'
              'byte "MyBalance"\nint 5\napp_global_put\nint 1\nreturn\nfail:\nerr\n')
    program, cfg, guards, _, _ = _pipeline(source)
    assert [(g.form, g.description) for g in guards] == [
        (BRANCH_GUARD, "bnz: txn Sender != CreatorAddress")]
    assert _fail_target(cfg, guards[0]) == block_of(cfg)[program.labels["fail"]]
    findings, _ = analyze_teal_source(source, "p.teal", CONFIG)
    assert [(f.kind, f.severity) for f in findings] == [("CENTRALIZATION_RISK", "MAJOR")]


def test_hex_and_base64_balance_keys_are_fund_points():
    for key in ("0x4d7942616c616e6365", "base64 TXlCYWxhbmNl", "b64(TXlCYWxhbmNl)"):
        source = f"byte {key}\nint 5\napp_global_put\nint 1\nreturn"
        findings, diagnostics = analyze_teal_source(source, "p.teal", CONFIG)
        assert [(f.kind, f.severity) for f in findings] == [
            ("UNPROTECTED_FUND_MODIFICATION", "WARNING")], key
        assert diagnostics == [], key


def test_escaped_balance_key_under_a_creator_guard_is_major():
    # `bal\x61nce` is "balance" once the assembler decodes its escape.
    source = ('global CreatorAddress\ntxn Sender\n==\nassert\n'
              'byte "bal\\x61nce"\nint 5\napp_global_put\nint 1\nreturn')
    findings, diagnostics = analyze_teal_source(source, "p.teal", CONFIG)
    assert [(f.kind, f.severity) for f in findings] == [("CENTRALIZATION_RISK", "MAJOR")]
    assert findings[0].evidence[-1].text == 'app_global_put key "balance"'
    assert diagnostics == []


def test_a_key_holding_a_quote_prints_escaped():
    # The key is `balance`, a newline, a quote and `x`: its printed literal
    # tells the inner quote from the closing one.
    source = ('global CreatorAddress\ntxn Sender\n==\nassert\n'
              'byte "bal\\x61nce\\n\\"x"\nint 5\napp_global_put\nint 1\nreturn')
    findings, diagnostics = analyze_teal_source(source, "p.teal", CONFIG)
    assert [(f.severity, f.message.split(" is ")[0]) for f in findings] == [
        ("MAJOR", 'state write to balance key "balance\\n\\"x"')]
    assert findings[0].evidence[-1].text == 'app_global_put key "balance\\n\\"x"'
    assert diagnostics == []


def test_hex_owner_key_makes_a_guard():
    # "manager" in hex, read by app_global_get and compared with the sender.
    source = ('byte 0x6d616e61676572\napp_global_get\ntxn Sender\n==\nassert\n'
              'int 0\nbyte b64 TXlCYWxhbmNl\nint 5\napp_local_put\nint 1\nreturn')
    _, _, guards, funds, _ = _pipeline(source)
    assert [(g.form, g.privileged_source) for g in guards] == [
        (ASSERT_GUARD, 'app_global_get["manager"]')]
    assert [(p.opcode, p.key) for p in funds] == [("app_local_put", "MyBalance")]
    findings, _ = analyze_teal_source(source, "p.teal", CONFIG)
    assert [(f.kind, f.severity) for f in findings] == [("CENTRALIZATION_RISK", "MAJOR")]


def test_addr_constant_guard_names_the_address_in_its_evidence():
    guard = "addr X\ntxn Sender\n==\nassert\n"
    findings, diagnostics = analyze_teal_source(
        guard + 'byte "balance"\nint 5\napp_global_put\nint 1\nreturn', "p.teal", CONFIG)
    assert [(f.kind, f.severity) for f in findings] == [("CENTRALIZATION_RISK", "MAJOR")]
    assert [(e.role, e.line, e.text) for e in findings[0].evidence] == [
        ("guard", 4, "assert: txn Sender == addr X"),
        ("fund_modification", 7, 'app_global_put key "balance"')]
    assert diagnostics == []
    findings, _ = analyze_teal_source(guard + "int 1\nreturn", "p.teal", CONFIG)
    assert [(f.kind, f.severity) for f in findings] == [("PRIVILEGED_FUNCTION", "INFO")]
    assert findings[0].message.startswith("sender guard on addr X ")
    assert [e.text for e in findings[0].evidence] == ["assert: txn Sender == addr X"]


def _dispatch_chain(n: int) -> str:
    """n `method` dispatch blocks of four instructions each, the `err`
    fall-through, n - 1 handlers of two instructions, then the last handler
    with an unguarded put."""
    tags = [f"h{i}" for i in range(n)]
    return "#pragma version 8\n" + "".join(
        f'txna ApplicationArgs 0\nmethod "{tag}(uint64)void"\n==\nbnz {tag}\n'
        for tag in tags) + "err\n" + "".join(
        f"{tag}:\nint 1\nreturn\n" for tag in tags[:-1]) + (
        f'{tags[-1]}:\nint 0\nbyte "MyBalance"\nint 5\napp_local_put\nint 1\nreturn\n')


def test_unguarded_put_behind_long_dispatch_chain():
    n = 200
    _, cfg, guards, funds, ends = _pipeline(_dispatch_chain(n))
    assert guards == [] and len(funds) == 1
    point = funds[0]
    result = compute_guardedness(cfg, guards, funds, ends, [])
    assert result.verdicts[point] is False
    path = result.witnesses[point]
    assert path == (*range(n), 2 * n)
    put_block = cfg.blocks[2 * n]
    assert (put_block.start, point.instruction) == (6 * n - 1, 6 * n + 2)
    instructions = result.witness_instructions[point]
    assert instructions == tuple(range(4 * n)) + tuple(range(6 * n - 1, 6 * n + 3))
    assert instructions == tuple(
        q for b in path[:-1] for q in cfg.blocks[b]
    ) + tuple(range(put_block.start, point.instruction + 1))


def test_long_dispatch_chain_witness_prints_entry_count_and_last_three():
    # The printed witness keeps the same few parts however long the chain:
    # only the numbers grow, never the text's shape.
    messages = []
    for n in (200, 2_000):
        findings, _ = analyze_teal_source(_dispatch_chain(n), "router.teal", CONFIG)
        assert [f.kind for f in findings] == ["UNPROTECTED_FUND_MODIFICATION"]
        messages.append(findings[0].message)
    assert messages[0] == (
        'state write to balance key "MyBalance" is reachable without a sender '
        "guard (blocks 0->...(+197)->198->199->400)")
    assert messages[1].endswith("(blocks 0->...(+1997)->1998->1999->4000)")
    assert re.sub(r"\d+", "N", messages[0]) == re.sub(r"\d+", "N", messages[1])


# Multi-block program pieces: labels, jumps, sender-comparison asserts and
# branches of both polarities, balance puts, accepting and failing ends.
_PIECES = [
    *(f"L{k}:" for k in range(3)),
    *(f"{op} L{k}" for op in ("b", "bz", "bnz") for k in range(3)),
    "txn Sender\nglobal CreatorAddress\n==\nassert",
    "txn Sender\nglobal CreatorAddress\n!=\nassert",
    *(f"txn Sender\nglobal CreatorAddress\n{cmp}\n{op} L{k}"
      for cmp in ("==", "!=") for op in ("bz", "bnz") for k in range(3)),
    'byte "MyBalance"\nint 5\napp_global_put',
    'int 0\nbyte "UserBalance"\nint 1\napp_local_put',
    "int 0\nreturn", "int 1\nreturn", "err", "int 1", "mystery",
]


@given(st.lists(st.sampled_from(_PIECES), min_size=1, max_size=30))
@settings(max_examples=300, deadline=None)
def test_stage_outputs_follow_instruction_and_block_order(pieces):
    # The detectors read points in the order the facts give them, the
    # branch at a block's last instruction and the value of the `return`
    # that ends it; Cfg.edges is the successor lists flattened.
    program = parse_teal("\n".join(pieces))
    diagnostics = program.diagnostics
    cfg = build_cfg(program)
    facts = [abstract_exec_block(b, program, CONFIG, diagnostics) for b in cfg.blocks]
    for points in (find_guard_points(cfg, facts, program, success_ends(cfg, facts, program),
                                     diagnostics),
                   find_fund_mod_points(facts, program)):
        instructions = [p.instruction for p in points]
        assert all(a < b for a, b in zip(instructions, instructions[1:])), instructions
    for block, block_facts in zip(cfg.blocks, facts):
        last = program.opcodes[block[-1]]
        assert block_facts.branch_guard is None or last in ("bz", "bnz")
        assert (block_facts.returned is not None) == (last == "return")
    assert cfg.edges == [(b, to, kind) for b in range(len(cfg.blocks))
                         for to, kind in cfg.successors[b]]
    for out in cfg.successors:
        kinds = [kind for _, kind in out]
        if BRANCH_NOT_TAKEN in kinds and BRANCH_TAKEN in kinds:
            assert kinds == [BRANCH_TAKEN, BRANCH_NOT_TAKEN]


_ASSERT_EQ = "txn Sender\nglobal CreatorAddress\n==\nassert"


@given(st.lists(st.sampled_from(_PIECES), min_size=1, max_size=30))
@example(["mystery", _ASSERT_EQ, 'byte "MyBalance"\nint 5\napp_global_put'])
@settings(max_examples=200, deadline=None)
def test_assert_and_branch_over_err_give_the_same_findings(pieces):
    # Metamorphic pair: a sender `==` assert guards what follows it as
    # `bnz ok; err; ok:` does, also where `ok:` ends the program. Two blank
    # lines after the assert keep every line where the rewrite puts it.
    # The rewrite adds block boundaries, also after an unknown opcode.
    def findings(rewrite):
        lines = [rewrite(k) if p == _ASSERT_EQ else p for k, p in enumerate(pieces)]
        found, _ = analyze_teal_source("\n".join(lines), "p.teal", CONFIG)
        return [(f.kind, f.severity, f.line) for f in found]

    branch = _ASSERT_EQ.removesuffix("assert")
    assert findings(lambda k: f"{branch}bnz ok{k}\nerr\nok{k}:") == \
        findings(lambda k: _ASSERT_EQ + "\n\n")
