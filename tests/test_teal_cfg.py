"""CFG construction: block partition, edge kinds, dangling targets."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from centriscan.diagnostics import Diagnostic
from centriscan.flow import BRANCH_NOT_TAKEN, BRANCH_TAKEN
from centriscan.teal.cfg import build_cfg
from centriscan.teal.parser import BRANCH_OPCODES, TERMINATOR_OPCODES, parse_teal

from helpers import corpus_text, readme_python_block


def test_straight_line_program_is_one_block():
    cfg = build_cfg(parse_teal("int 1\nint 2\n+"))
    assert len(cfg.blocks) == 1
    assert cfg.edges == []


def test_bz_program_partitions_into_three_blocks():
    # Hand-computed partition: leaders at 0 (entry), 1 (after bz), 3 (label).
    program = parse_teal("bz failed\nint 1\nreturn\nfailed:\nerr")
    cfg = build_cfg(program)
    assert cfg.blocks == [range(0, 1), range(1, 3), range(3, 4)]
    assert cfg.blocks[2].start == program.labels["failed"]
    assert set(cfg.edges) == {(0, 1, BRANCH_NOT_TAKEN), (0, 2, BRANCH_TAKEN)}


def test_branch_pattern_comparison_block_has_two_successors():
    cfg = build_cfg(parse_teal(corpus_text("teal", "row2_branch.teal")))
    assert len(cfg.successors[0]) == 2


def test_unconditional_branch_has_single_edge():
    cfg = build_cfg(parse_teal("b done\nint 0\nreturn\ndone:\nint 1\nreturn"))
    kinds = [kind for _, kind in cfg.successors[0]]
    assert kinds == [BRANCH_TAKEN]


def test_assert_does_not_end_a_block():
    cfg = build_cfg(parse_teal("int 1\nassert\nint 1\nreturn"))
    assert len(cfg.blocks) == 1


def test_dangling_label_at_end_drops_edge_with_diagnostic():
    program = parse_teal("b end\nend:")
    cfg = build_cfg(program)
    assert cfg.edges == []
    assert program.diagnostics == [Diagnostic(
        "branch target 'end' points past the last instruction; edge dropped", 1)]


def test_parser_notes_every_bad_branch_target_and_cfg_drops_its_edge():
    # Missing and undefined targets are warnings, a target past the last
    # instruction a note; callsub is noted only when its label is missing
    # or undefined. build_cfg takes no diagnostics and never raises.
    program = parse_teal("int 1\nbz\nint 1\nbnz nowhere\nint 1\nbz end\n"
                         "callsub end\ncallsub gone\nend:")
    assert [(d.line, d.severity, d.message) for d in program.diagnostics] == [
        (2, "warning", "'bz' without a target label"),
        (4, "warning", "undefined branch target 'nowhere'"),
        (6, "note", "branch target 'end' points past the last instruction; edge dropped"),
        (8, "warning", "undefined branch target 'gone'"),
    ]
    cfg = build_cfg(program)
    assert cfg.edges == [(b, b + 1, BRANCH_NOT_TAKEN) for b in range(3)]


def test_callsub_records_call_edge_without_control_edge():
    program = parse_teal("callsub sub\nint 1\nreturn\nsub:\nretsub")
    cfg = build_cfg(program)
    # retsub terminates its block with no outgoing control edge
    assert cfg.successors[1] == []


_OPCODE_POOL = ["int 1", "dup", "pop", "+", "assert", "b L0", "bz L1", "bnz L2",
                "return", "err", "retsub", "txn Sender", "mystery"]


def _random_program(rng: random.Random) -> str:
    lines = []
    n = rng.randint(1, 25)
    n_labels = rng.randint(0, 4)
    label_slots = sorted(rng.sample(range(n + 1), min(n_labels, n + 1)))
    for i in range(n):
        while label_slots and label_slots[0] == i:
            lines.append(f"L{len(label_slots)}:")
            label_slots.pop(0)
        lines.append(rng.choice(_OPCODE_POOL))
    for k in range(3):
        if rng.random() < 0.5:
            lines.append(f"L{k}:")
            lines.append("err")
    return "\n".join(lines)


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=200, deadline=None)
def test_partition_and_edge_soundness(seed):
    program = parse_teal(_random_program(random.Random(seed)))
    cfg = build_cfg(program)
    n = len(program.instructions)
    if n == 0:
        assert cfg.blocks == []
        return
    # Partition: every instruction in exactly one block.
    covered = []
    for block in cfg.blocks:
        assert len(block) > 0
        covered.extend(block)
    assert covered == list(range(n))
    # Boundaries exactly at labels, after branches, after terminators.
    leaders = {0}
    leaders.update(t for t in program.labels.values() if t < n)
    for i, ins in enumerate(program.instructions[:-1]):
        if ins.opcode in BRANCH_OPCODES or ins.opcode in TERMINATOR_OPCODES:
            leaders.add(i + 1)
    assert sorted(leaders) == [b.start for b in cfg.blocks]
    # Edge soundness: source ends in a branch, or it is a fallthrough to the
    # lexically next block.
    for frm, to, kind in cfg.edges:
        assert 0 <= frm < len(cfg.blocks) and 0 <= to < len(cfg.blocks)
        last = program.instructions[cfg.blocks[frm][-1]]
        if last.opcode in BRANCH_OPCODES:
            assert kind in (BRANCH_TAKEN, BRANCH_NOT_TAKEN)
            if kind == BRANCH_NOT_TAKEN:
                assert to == frm + 1
        else:
            assert kind == "fallthrough" and to == frm + 1
        assert last.opcode not in TERMINATOR_OPCODES


def test_readme_teal_front_end_snippet_runs():
    # README "Library use" shows the TEAL front end and the CFG on a source text.
    source = corpus_text("teal", "row2_branch.teal")
    names = {"source": source}
    exec(readme_python_block("parse_teal(source)"), names)
    program = parse_teal(source)
    assert names["program"] == program
    assert names["first"] == program.instructions[0]
    assert names["cfg"] == build_cfg(program)
    assert names["entry"] == range(0, names["cfg"].blocks[1].start)
    assert (names["to"], names["kind"]) == names["cfg"].successors[0][-1]
