"""Guard points, fund points, and guardedness decisions over the CFG."""

from centriscan.config import AnalyzerConfig
from centriscan.teal.absint import abstract_exec_block
from centriscan.teal.cfg import build_cfg
from centriscan.teal.detectors import (
    ASSERT_GUARD,
    BRANCH_GUARD,
    compute_guardedness,
    find_fund_mod_points,
    find_guard_points,
)
from centriscan.teal.parser import parse_teal

from helpers import corpus_text

CONFIG = AnalyzerConfig()


def _pipeline(source: str, config: AnalyzerConfig = CONFIG, diagnostics=None):
    program = parse_teal(source)
    cfg = build_cfg(program)
    facts = [abstract_exec_block(b, program, config, diagnostics) for b in cfg.blocks]
    guards = find_guard_points(cfg, facts, program, diagnostics)
    funds = find_fund_mod_points(facts, program)
    return program, cfg, guards, funds


def _fail_target(cfg, guard):
    """The branch guard's other successor: the edge an unauthorized sender takes."""
    (target,) = [to for to, kind in cfg.successors(guard.block)
                 if kind != guard.non_fail_edge[2]]
    return target


def test_assert_pattern_yields_one_assert_guard():
    _, _, guards, _ = _pipeline(corpus_text("teal", "row1_assert.teal"))
    assert [g.form for g in guards] == [ASSERT_GUARD]
    assert guards[0].privileged_source == 'app_global_get["manager"]'


def test_branch_pattern_yields_one_branch_guard():
    program, cfg, guards, _ = _pipeline(corpus_text("teal", "row2_branch.teal"))
    assert [g.form for g in guards] == [BRANCH_GUARD]
    guard = guards[0]
    failed_block = cfg.block_of[program.labels["failed"]]
    assert guard.privileged_source == 'app_global_get["Creator"]'
    assert guard.non_fail_edge[1] != failed_block
    assert _fail_target(cfg, guard) == failed_block


def test_self_comparison_yields_no_guard_points():
    _, _, guards, _ = _pipeline(corpus_text("teal", "neg_self_compare.teal"))
    assert guards == []


def test_branch_to_non_failure_region_is_not_a_guard():
    diagnostics = []
    source = (
        'byte "manager"\napp_global_get\ntxn Sender\n==\nbz other\n'
        "int 1\nreturn\nother:\nint 1\nreturn\n"
    )
    _, _, guards, _ = _pipeline(source, diagnostics=diagnostics)
    assert guards == []
    assert any("does not gate a failure path" in d.message for d in diagnostics)


def test_branch_to_return_zero_is_a_guard():
    source = (
        'byte "manager"\napp_global_get\ntxn Sender\n==\nbz bad\n'
        "int 1\nreturn\nbad:\nint 0\nreturn\n"
    )
    _, _, guards, _ = _pipeline(source)
    assert [g.form for g in guards] == [BRANCH_GUARD]


def test_fail_target_jumping_to_success_is_not_a_guard():
    # The fail target's own block ends in `b`; the region it leads to accepts.
    diagnostics = []
    source = (
        'byte "manager"\napp_global_get\ntxn Sender\n==\nbz bad\n'
        "int 1\nreturn\nbad:\nb ok\nok:\nint 1\nreturn\n"
    )
    _, _, guards, _ = _pipeline(source, diagnostics=diagnostics)
    assert guards == []
    assert any("does not gate a failure path" in d.message for d in diagnostics)


def test_fail_target_reaching_err_two_blocks_later_is_a_guard():
    source = (
        'byte "manager"\napp_global_get\ntxn Sender\n==\nbz bad\n'
        "int 1\nreturn\nbad:\nb worse\nworse:\nb worst\nworst:\nerr\n"
    )
    program, cfg, guards, _ = _pipeline(source)
    assert [g.form for g in guards] == [BRANCH_GUARD]
    assert _fail_target(cfg, guards[0]) == cfg.block_of[program.labels["bad"]]


def test_bnz_with_neq_polarity_orients_fail_edge_to_fallthrough():
    # `!=` + bnz failed: nonzero means sender differs, so taken edge fails.
    source = (
        'byte "manager"\napp_global_get\ntxn Sender\n!=\nbnz bad\n'
        "int 1\nreturn\nbad:\nerr\n"
    )
    program, cfg, guards, _ = _pipeline(source)
    assert [g.form for g in guards] == [BRANCH_GUARD]
    assert _fail_target(cfg, guards[0]) == cfg.block_of[program.labels["bad"]]


def test_balance_put_yields_fund_point():
    _, _, _, funds = _pipeline(corpus_text("teal", "row3_put.teal"))
    assert [(p.opcode, p.key) for p in funds] == [("app_local_put", "MyBalance")]


def test_color_key_put_yields_no_fund_point():
    # Hand evaluation of the default rule: "color" is not in the exact list
    # and does not contain "balance" case-insensitively.
    _, _, _, funds = _pipeline(corpus_text("teal", "neg_color_put.teal"))
    assert funds == []


def test_non_constant_key_yields_no_point_with_note():
    diagnostics = []
    _, _, _, funds = _pipeline(corpus_text("teal", "neg_nonconst_key.teal"),
                               diagnostics=diagnostics)
    assert funds == []
    assert any("non-constant key" in d.message for d in diagnostics)


def test_guarded_concatenation_is_guarded():
    _, cfg, guards, funds = _pipeline(corpus_text("teal", "guarded_put.teal"))
    result = compute_guardedness(cfg, guards, funds)
    assert [result.verdicts[p] for p in funds] == [True]


def test_unguarded_put_with_witness():
    _, cfg, guards, funds = _pipeline(corpus_text("teal", "row3_put.teal"))
    result = compute_guardedness(cfg, guards, funds)
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
    _, cfg, guards, funds = _pipeline(source)
    assert len(guards) == 1 and len(funds) == 1
    result = compute_guardedness(cfg, guards, funds)
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
    _, cfg, guards, funds = _pipeline(source)
    assert len(guards) == 1 and len(funds) == 1
    result = compute_guardedness(cfg, guards, funds)
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
    _, cfg, guards, funds = _pipeline(source)
    result = compute_guardedness(cfg, guards, funds)
    assert result.verdicts[funds[0]] is True


def test_put_inside_failure_region_is_unguarded():
    source = (
        'byte "Creator"\napp_global_get\ntxn Sender\n==\nbz failed\n'
        "int 1\nreturn\n"
        "failed:\n"
        'int 0\nbyte "MyBalance"\nint 5\napp_local_put\nerr\n'
    )
    _, cfg, guards, funds = _pipeline(source)
    assert len(guards) == 1
    result = compute_guardedness(cfg, guards, funds)
    assert result.verdicts[funds[0]] is False


def test_dead_code_put_reports_not_applicable():
    diagnostics = []
    source = (
        "int 1\nreturn\n"
        "dead:\n"
        'int 0\nbyte "MyBalance"\nint 5\napp_local_put\nint 1\nreturn\n'
    )
    _, cfg, guards, funds = _pipeline(source)
    result = compute_guardedness(cfg, guards, funds, diagnostics)
    assert result.verdicts[funds[0]] is None
    assert any("unreachable" in d.message for d in diagnostics)


def test_conservatism_no_sender_no_guards():
    source = 'byte "manager"\napp_global_get\nint 1\n==\nassert\nint 1\nreturn'
    _, _, guards, _ = _pipeline(source)
    assert guards == []


def test_conservatism_no_put_no_fund_points():
    _, _, _, funds = _pipeline(corpus_text("teal", "row1_assert.teal"))
    assert funds == []


def test_weakened_guard_still_guards_with_note():
    diagnostics = []
    source = (
        'byte "manager"\napp_global_get\ntxn Sender\n==\nint 1\n||\nassert\n'
        'int 0\nbyte "MyBalance"\nint 5\napp_local_put\nint 1\nreturn\n'
    )
    _, cfg, guards, funds = _pipeline(source, diagnostics=diagnostics)
    assert len(guards) == 1
    assert any("weakened guard" in d.message for d in diagnostics)
    result = compute_guardedness(cfg, guards, funds)
    assert result.verdicts[funds[0]] is True


def test_negated_assert_is_not_a_guard():
    diagnostics = []
    source = 'byte "manager"\napp_global_get\ntxn Sender\n!=\nassert\nint 1\nreturn'
    _, _, guards, _ = _pipeline(source, diagnostics=diagnostics)
    assert guards == []
    assert any("negated sender comparison" in d.message for d in diagnostics)
