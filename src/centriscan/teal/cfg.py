"""Basic-block CFG over TEAL branch opcodes, in the form of `centriscan.flow`.

Block boundaries occur at labels, after b/bz/bnz, and after return/err
(retsub included: it never falls through). `assert` does not end a block;
its failure path is program abort, not an edge. Each block is the range of
its instruction indices.
"""

from __future__ import annotations

from itertools import compress

from ..flow import BRANCH_NOT_TAKEN, BRANCH_TAKEN, FALLTHROUGH, Cfg
from .parser import BRANCH_OPCODES, TERMINATOR_OPCODES, TealProgram

_BLOCK_ENDS = BRANCH_OPCODES | TERMINATOR_OPCODES


def build_cfg(program: TealProgram) -> Cfg:
    """Partition instructions into blocks and connect branch/fallthrough
    edges; a branch whose target the parser noted gets no taken edge."""
    opcodes = program.opcodes
    labels = program.labels
    n = len(opcodes)
    if n == 0:
        return Cfg([], [])

    leaders = {0, *(target for target in labels.values() if target < n)}
    # The instruction after each block end, picked out without a Python loop.
    leaders.update(compress(range(1, n + 1), map(_BLOCK_ENDS.__contains__, opcodes)))
    leaders.discard(n)

    starts = sorted(leaders)
    ends = starts[1:] + [n]
    block_at = dict(zip(starts, range(len(starts))))  # every label target starts a block

    successors = []
    for bi, end in enumerate(ends):
        out = []
        op = opcodes[end - 1]
        if op in BRANCH_OPCODES:
            immediates = program.immediates[end - 1]
            target = labels.get(immediates[0], n) if immediates else n
            if target < n:
                out.append((block_at[target], BRANCH_TAKEN))
            if op != "b" and end < n:
                out.append((bi + 1, BRANCH_NOT_TAKEN))
        elif op not in TERMINATOR_OPCODES and end < n:
            out.append((bi + 1, FALLTHROUGH))
        successors.append(out)
    return Cfg(list(map(range, starts, ends)), successors)
