"""Basic-block CFG over TEAL branch opcodes.

Block boundaries occur at labels, after b/bz/bnz, and after return/err
(retsub included: it never falls through). `assert` does not end a block;
its failure path is program abort, not an edge. Entry is block 0, which
starts at instruction 0; each block's outgoing edges are one list.
"""

from __future__ import annotations

from itertools import compress
from operator import sub
from typing import NamedTuple

from .parser import BRANCH_OPCODES, TERMINATOR_OPCODES, TealProgram

FALLTHROUGH = "fallthrough"
BRANCH_TAKEN = "branch_taken"
BRANCH_NOT_TAKEN = "branch_not_taken"

_BLOCK_ENDS = BRANCH_OPCODES | TERMINATOR_OPCODES


class BasicBlock(NamedTuple):
    index: int
    start: int  # first instruction index
    end: int  # one past the last instruction index


class Cfg(NamedTuple):
    blocks: list[BasicBlock]
    # Per block, its (to, kind) edges: a branch's taken edge before its
    # not-taken one. A terminator's list is empty.
    successors: list[list[tuple[int, str]]]
    block_of: list[int]  # instruction index -> block index

    @property
    def edges(self) -> list[tuple[int, int, str]]:
        """Every (from, to, kind) edge in block order, built on read."""
        return [(b, to, kind) for b, out in enumerate(self.successors) for to, kind in out]


def build_cfg(program: TealProgram) -> Cfg:
    """Partition instructions into blocks and connect branch/fallthrough
    edges; a branch whose target the parser noted gets no taken edge."""
    opcodes = program.opcodes
    labels = program.labels
    n = len(opcodes)
    if n == 0:
        return Cfg([], [], [])

    leaders = {0, *(target for target in labels.values() if target < n)}
    # The instruction after each block end, picked out without a Python loop.
    leaders.update(compress(range(1, n + 1), map(_BLOCK_ENDS.__contains__, opcodes)))
    leaders.discard(n)

    starts = sorted(leaders)
    ends = starts[1:] + [n]
    blocks = list(map(BasicBlock, range(len(starts)), starts, ends))
    block_of: list[int] = []
    for bi, size in enumerate(map(sub, ends, starts)):
        block_of += [bi] * size

    successors = []
    for bi, end in enumerate(ends):
        out = []
        op = opcodes[end - 1]
        if op in BRANCH_OPCODES:
            immediates = program.immediates[end - 1]
            target = labels.get(immediates[0], n) if immediates else n
            if target < n:
                out.append((block_of[target], BRANCH_TAKEN))
            if op != "b" and end < n:
                out.append((bi + 1, BRANCH_NOT_TAKEN))
        elif op not in TERMINATOR_OPCODES and end < n:
            out.append((bi + 1, FALLTHROUGH))
        successors.append(out)
    return Cfg(blocks, successors, block_of)

