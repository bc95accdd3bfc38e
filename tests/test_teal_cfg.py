"""CFG construction: block partition, edge kinds, dangling targets."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from centriscan.teal.cfg import (
    BRANCH_NOT_TAKEN,
    BRANCH_TAKEN,
    build_cfg,
)
from centriscan.teal.parser import BRANCH_OPCODES, TERMINATOR_OPCODES, parse_teal

from helpers import corpus_text


def test_straight_line_program_is_one_block():
    cfg = build_cfg(parse_teal("int 1\nint 2\n+"), [])
    assert len(cfg.blocks) == 1
    assert cfg.edges == []


def test_bz_program_partitions_into_three_blocks():
    # Hand-computed partition: leaders at 0 (entry), 1 (after bz), 3 (label).
    program = parse_teal("bz failed\nint 1\nreturn\nfailed:\nerr")
    cfg = build_cfg(program, [])
    assert [(b.start, b.end) for b in cfg.blocks] == [(0, 1), (1, 3), (3, 4)]
    assert cfg.blocks[2].start == program.labels["failed"]
    assert set(cfg.edges) == {(0, 1, BRANCH_NOT_TAKEN), (0, 2, BRANCH_TAKEN)}


def test_branch_pattern_comparison_block_has_two_successors():
    cfg = build_cfg(parse_teal(corpus_text("teal", "row2_branch.teal")), [])
    assert len(cfg.successors[0]) == 2


def test_unconditional_branch_has_single_edge():
    cfg = build_cfg(parse_teal("b done\nint 0\nreturn\ndone:\nint 1\nreturn"), [])
    kinds = [kind for _, kind in cfg.successors[0]]
    assert kinds == [BRANCH_TAKEN]


def test_assert_does_not_end_a_block():
    cfg = build_cfg(parse_teal("int 1\nassert\nint 1\nreturn"), [])
    assert len(cfg.blocks) == 1


def test_dangling_label_at_end_drops_edge_with_diagnostic():
    diagnostics = []
    cfg = build_cfg(parse_teal("b end\nend:"), diagnostics)
    assert cfg.edges == []
    assert any("past the last instruction" in d.message for d in diagnostics)


def test_callsub_records_call_edge_without_control_edge():
    program = parse_teal("callsub sub\nint 1\nreturn\nsub:\nretsub")
    cfg = build_cfg(program, [])
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
    cfg = build_cfg(program, [])
    n = len(program.instructions)
    if n == 0:
        assert cfg.blocks == []
        return
    # Partition: every instruction in exactly one block.
    covered = []
    for block in cfg.blocks:
        assert block.start < block.end
        covered.extend(range(block.start, block.end))
    assert covered == list(range(n))
    assert [cfg.block_of[i] for i in covered] == sorted(cfg.block_of)
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
        last = program.instructions[cfg.blocks[frm].end - 1]
        if last.opcode in BRANCH_OPCODES:
            assert kind in (BRANCH_TAKEN, BRANCH_NOT_TAKEN)
            if kind == BRANCH_NOT_TAKEN:
                assert to == frm + 1
        else:
            assert kind == "fallthrough" and to == frm + 1
        assert last.opcode not in TERMINATOR_OPCODES
