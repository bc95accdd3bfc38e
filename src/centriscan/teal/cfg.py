"""Basic-block CFG over TEAL branch opcodes.

Block boundaries occur at labels, after b/bz/bnz, and after return/err
(retsub included: it never falls through). `assert` does not end a block;
its failure path is program abort, not an edge.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

from ..diagnostics import Diagnostic
from .parser import BRANCH_OPCODES, TERMINATOR_OPCODES, TealProgram

FALLTHROUGH = "fallthrough"
BRANCH_TAKEN = "branch_taken"
BRANCH_NOT_TAKEN = "branch_not_taken"

_BLOCK_ENDS = BRANCH_OPCODES | TERMINATOR_OPCODES


class BasicBlock(NamedTuple):
    index: int
    start: int  # first instruction index
    end: int  # one past the last instruction index


@dataclass
class Cfg:
    blocks: list[BasicBlock] = field(default_factory=list)
    edges: list[tuple[int, int, str]] = field(default_factory=list)
    entry: int = 0
    block_of: list[int] = field(default_factory=list)
    # (to, kind) pairs per source block in edge order, indexed once from the
    # edges given at construction; a Cfg's edges do not change afterwards.
    _successors: dict[int, list[tuple[int, str]]] = field(
        init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self._successors = {}
        for frm, to, kind in self.edges:
            self._successors.setdefault(frm, []).append((to, kind))

    def successors(self, block: int) -> list[tuple[int, str]]:
        """The stored (to, kind) list of block; callers must not mutate it."""
        return self._successors.get(block, [])


def build_cfg(program: TealProgram, diagnostics: list[Diagnostic] | None = None) -> Cfg:
    """Partition instructions into blocks and connect branch/fallthrough edges."""
    sink = diagnostics if diagnostics is not None else program.diagnostics
    opcodes = program.opcodes
    n = len(opcodes)
    if n == 0:
        return Cfg()

    leaders = {0, *(target for target in program.labels.values() if target < n)}
    leaders.update([after for after, op in enumerate(opcodes, 1) if op in _BLOCK_ENDS])
    leaders.discard(n)

    starts = sorted(leaders)
    blocks = []
    block_of: list[int] = []
    for bi, start in enumerate(starts):
        end = starts[bi + 1] if bi + 1 < len(starts) else n
        blocks.append(BasicBlock(bi, start, end))
        block_of += [bi] * (end - start)

    edges = []
    for block in blocks:
        last = block.end - 1
        op = opcodes[last]
        if op in BRANCH_OPCODES:
            target = _branch_target(program, last, n, sink)
            if op == "b":
                if target is not None:
                    edges.append((block.index, block_of[target], BRANCH_TAKEN))
            else:  # bz / bnz
                if target is not None:
                    edges.append((block.index, block_of[target], BRANCH_TAKEN))
                if block.index + 1 < len(blocks):
                    edges.append((block.index, block.index + 1, BRANCH_NOT_TAKEN))
        elif op in TERMINATOR_OPCODES:
            pass
        elif block.index + 1 < len(blocks):
            edges.append((block.index, block.index + 1, FALLTHROUGH))
    return Cfg(blocks, edges, 0, block_of)


def _branch_target(program, index, n, sink) -> int | None:
    immediates = program.immediates[index]
    if not immediates:
        return None
    target = program.labels.get(immediates[0])
    if target is None:
        return None  # already diagnosed by the parser
    if target >= n:
        sink.append(Diagnostic(
            f"branch target '{immediates[0]}' points past the last "
            f"instruction; edge dropped", program.lines[index]))
        return None
    return target
