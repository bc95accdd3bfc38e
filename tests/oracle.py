"""Independent guardedness oracle: exhaustive path enumeration.

A fund point is unguarded iff some entry path reaches it without passing
through an assert-guard instruction or crossing the authorized (non-fail)
edge of a branch guard. Enumeration caps revisits at one cycle repetition
per instruction, which is complete for this cut property and for the last
guard of a path (a shortest path to that guard, then a guard-free simple
path on to the write, holds each instruction at most twice).

`reference_gates` enumerates the same capped paths with no guard semantics
and collects, per guarded fund point, the last guard instruction each path
passes before reaching it.

`reference_witnesses` is the reference for witness paths: an
instruction-level BFS that records one parent per instruction and reads
each block path off the instruction path.

`reference_parents` reads the same BFS's parent tree off at block level:
per block entered, the block it is entered from.

`reference_is_failure_region` is the reference failure-region rule: every
block reachable from the start, collected anew for each start, may only
end the program unsuccessfully.

`reference_parse_teal` is the reference TEAL parser: it decodes every line
at every occurrence and checks every instruction for a branch target.

`reference_exec_block` is the reference abstract interpreter: one
instruction object and one stack method call at a time, with the value
helpers of `centriscan.teal.absint`.
"""

from __future__ import annotations

import re
from collections import deque

from centriscan.config import AnalyzerConfig
from centriscan.diagnostics import Diagnostic
from centriscan.teal.absint import (
    SENDER,
    UNKNOWN,
    AbstractValue,
    AddrConst,
    BlockFacts,
    ByteConst,
    GlobalField,
    GlobalGet,
    IntConst,
    SenderCmp,
    _byte_value,
    _combine,
    _compare,
    _int_value,
    _record_put,
)
from centriscan.flow import Cfg
from centriscan.teal.detectors import FundModPoint, GuardPoint
from centriscan.teal.parser import BRANCH_OPCODES, OPCODE_STACK_EFFECTS, TealProgram

from helpers import block_of


def _instruction_successors(cfg: Cfg, pruned: set) -> dict[int, list[int]]:
    """Successor map over instructions, without the pruned block edges."""
    successors: dict[int, list[int]] = {}
    for block in cfg.blocks:
        for q in block[:-1]:
            successors[q] = [q + 1]
        successors[block[-1]] = []
    for frm, to, kind in cfg.edges:
        if (frm, to, kind) not in pruned:
            successors[cfg.blocks[frm][-1]].append(cfg.blocks[to].start)
    return successors


def _capped_paths(cfg: Cfg, successors: dict[int, list[int]], stops: set,
                  visit_cap: int = 2):
    """Yield every entry path, as one list extended in place, on which no
    instruction occurs more than visit_cap times; a path ends at a stop."""
    path = [0]  # entry: instruction 0
    counts = {0: 1}
    pending = [iter(() if 0 in stops else successors[0])]
    yield path
    while pending:
        for s in pending[-1]:
            if counts.get(s, 0) < visit_cap:
                path.append(s)
                counts[s] = counts.get(s, 0) + 1
                yield path
                pending.append(iter(() if s in stops else successors[s]))
                break
        else:
            pending.pop()
            counts[path.pop()] -= 1


def _guard_cuts(guards: list[GuardPoint]) -> tuple[set[int], set]:
    asserts = {g.instruction for g in guards if g.form == "AssertGuard"}
    pruned = {g.non_fail_edge for g in guards
              if g.form == "BranchGuard" and g.non_fail_edge is not None}
    return asserts, pruned


def plain_reachable(cfg: Cfg) -> set[int]:
    """Instruction indices reachable from entry with no guard semantics."""
    if not cfg.blocks:
        return set()
    successors = _instruction_successors(cfg, set())
    seen = {0}  # entry: instruction 0
    queue = deque([0])
    while queue:
        q = queue.popleft()
        for s in successors[q]:
            if s not in seen:
                seen.add(s)
                queue.append(s)
    return seen


def exists_unguarded_path(cfg: Cfg, guards: list[GuardPoint], target: int,
                          visit_cap: int = 2) -> bool:
    """Search every entry path (cycles capped) for one avoiding all guards."""
    asserts, pruned = _guard_cuts(guards)
    successors = _instruction_successors(cfg, pruned)
    # A path ends at an assert, but reaching the target there still counts.
    return any(path[-1] == target
               for path in _capped_paths(cfg, successors, asserts, visit_cap))


def oracle_verdicts(
    cfg: Cfg, guards: list[GuardPoint], funds: list[FundModPoint]
) -> dict[FundModPoint, bool | None]:
    reachable = plain_reachable(cfg)
    verdicts: dict[FundModPoint, bool | None] = {}
    for point in funds:
        if point.instruction not in reachable:
            verdicts[point] = None
        else:
            verdicts[point] = not exists_unguarded_path(cfg, guards, point.instruction)
    return verdicts


def reference_gates(
    cfg: Cfg, guards: list[GuardPoint], funds: list[FundModPoint], visit_cap: int = 2
) -> dict[FundModPoint, tuple[int, ...]]:
    """Per fund point the oracle calls guarded, the sorted set of the last
    guard instruction on each entry path to it (either edge of a branch
    guard; the write's own instruction does not count as passed)."""
    verdicts = oracle_verdicts(cfg, guards, funds)
    guarded = {p.instruction: p for p, verdict in verdicts.items() if verdict is True}
    if not guarded:
        return {}
    guard_instructions = {g.instruction for g in guards}
    found: dict[int, set[int | None]] = {q: set() for q in guarded}
    successors = _instruction_successors(cfg, set())
    for path in _capped_paths(cfg, successors, set(), visit_cap):
        if path[-1] in found:
            found[path[-1]].add(next(
                (q for q in reversed(path[:-1]) if q in guard_instructions), None))
    assert all(None not in last for last in found.values()), \
        "a guarded write has an entry path that passes no guard"
    return {guarded[q]: tuple(sorted(last)) for q, last in found.items()}


def _reach(cfg: Cfg, stop_instructions: set, pruned_edges: set
           ) -> tuple[set[int], dict[int, int]]:
    """Instruction-level BFS from entry with one parent per instruction;
    expansion halts at stop instructions and never crosses pruned edges."""
    blocks = cfg.blocks
    blocks_of = block_of(cfg)
    seen = {0}  # entry: instruction 0
    parents: dict[int, int] = {}
    queue = deque([0])
    while queue:
        q = queue.popleft()
        if q in stop_instructions:
            continue
        frm = blocks_of[q]
        if q + 1 < blocks[frm].stop:
            nxt = [q + 1]
        else:
            nxt = [blocks[to].start for to, kind in cfg.successors[frm]
                   if (frm, to, kind) not in pruned_edges]
        for s in nxt:
            if s not in seen:
                seen.add(s)
                parents[s] = q
                queue.append(s)
    return seen, parents


def _instruction_path(parents: dict[int, int], target: int, cfg: Cfg) -> tuple[int, ...]:
    path = [target]
    while path[-1] != 0:
        path.append(parents[path[-1]])
    path.reverse()
    return tuple(path)


def _block_path(instruction_path: tuple[int, ...], blocks_of: list[int]) -> tuple[int, ...]:
    blocks = []
    for q in instruction_path:
        b = blocks_of[q]
        if not blocks or blocks[-1] != b:
            blocks.append(b)
    return tuple(blocks)


def reference_witnesses(
    cfg: Cfg, guards: list[GuardPoint], funds: list[FundModPoint]
) -> tuple[dict[FundModPoint, tuple[int, ...]], dict[FundModPoint, tuple[int, ...]]]:
    """(block paths, instruction paths) of every fund point reachable
    without crossing a guard, as the instruction-parent BFS finds them."""
    block_paths: dict[FundModPoint, tuple[int, ...]] = {}
    instruction_paths: dict[FundModPoint, tuple[int, ...]] = {}
    if not cfg.blocks:
        return block_paths, instruction_paths
    reached, parents = _reach(cfg, *_guard_cuts(guards))
    blocks_of = block_of(cfg)
    for point in funds:
        if point.instruction in reached:
            path = _instruction_path(parents, point.instruction, cfg)
            instruction_paths[point] = path
            block_paths[point] = _block_path(path, blocks_of)
    return block_paths, instruction_paths


def reference_parents(cfg: Cfg, guards: list[GuardPoint]) -> dict[int, int]:
    """Per block other than entry that the instruction BFS enters, the block
    it enters it from."""
    if not cfg.blocks:
        return {}
    _, parents = _reach(cfg, *_guard_cuts(guards))
    blocks_of = block_of(cfg)
    return {b: blocks_of[parents[block.start]] for b, block in enumerate(cfg.blocks)
            if block.start in parents}


def _reachable_blocks(cfg: Cfg, start: int) -> set[int]:
    seen = {start}
    stack = [start]
    while stack:
        for to, _kind in cfg.successors[stack.pop()]:
            if to not in seen:
                seen.add(to)
                stack.append(to)
    return seen


def reference_is_failure_region(cfg: Cfg, facts: list[BlockFacts], program: TealProgram,
                                start_block: int) -> bool:
    """True iff every terminator reachable from start_block is `err` or a
    `return` of a proven zero. A branch to the label after the last
    instruction, or a conditional one that falls off the end, ends the
    program with what is on the stack, so it may succeed."""
    n = len(program.opcodes)
    for block_index in _reachable_blocks(cfg, start_block):
        end = cfg.blocks[block_index].stop
        last = program.opcodes[end - 1]
        if last in BRANCH_OPCODES:
            immediates = program.immediates[end - 1]
            if (immediates and program.labels.get(immediates[0]) == n
                    or last != "b" and end == n):
                return False
        if cfg.successors[block_index]:
            continue
        if last == "err":
            continue
        if last == "return" and facts[block_index].returned == IntConst(0):
            continue
        return False
    return True


# The parser's grammar, copied so that a change to it shows as a disagreement.
_STRING = r'"(?:\\.|[^"\\])*(?:"|\\)?'
_CODE = re.compile(r'(?:[^"/]+|/(?!/)|' + _STRING + ")*", re.DOTALL)
_FIELD = re.compile(_STRING + r'|[^\s"]\S*', re.DOTALL)


def reference_parse_teal(source: str) -> TealProgram:
    """Parse TEAL text line by line, each line decoded where it occurs."""
    program = TealProgram()
    labels = program.labels
    diagnostics = program.diagnostics
    for lineno, raw in enumerate(source.split("\n"), 1):
        if '"' in raw:
            code = _CODE.match(raw).group().strip()
            if not code:
                continue
            fields = code.split() if code.startswith("#") else _FIELD.findall(code)
        else:
            fields = raw.split("//", 1)[0].split()
            if not fields:
                continue
        head = fields[0]
        if head[0] == "#":
            if fields[0] == "#pragma" and len(fields) >= 3 and fields[1] == "version":
                try:
                    int(fields[2])
                except ValueError:
                    diagnostics.append(Diagnostic(
                        f"unparseable version pragma {fields[2]!r}", lineno))
            elif fields[0] != "#pragma":
                diagnostics.append(Diagnostic(
                    f"unrecognized directive {fields[0]!r}", lineno))
            continue
        if head[-1] == ":" and head[0] != '"':
            label = head[:-1]
            if not label:
                diagnostics.append(Diagnostic("empty label name", lineno))
                continue
            if label in labels:
                diagnostics.append(Diagnostic(
                    f"duplicate label '{label}'; last definition wins", lineno))
            labels[label] = len(program.opcodes)
            if len(fields) > 1:
                diagnostics.append(Diagnostic(
                    f"content after label '{label}' ignored", lineno))
            continue
        if head not in OPCODE_STACK_EFFECTS:
            diagnostics.append(Diagnostic(f"unknown opcode '{head}'", lineno))
        program.opcodes.append(head)
        program.immediates.append(tuple(fields[1:]))
        program.lines.append(lineno)

    for op, immediates, line in zip(program.opcodes, program.immediates, program.lines):
        if op in BRANCH_OPCODES or op == "callsub":
            if not immediates:
                diagnostics.append(Diagnostic(
                    f"'{op}' without a target label", line, severity="warning"))
            elif immediates[0] not in labels:
                diagnostics.append(Diagnostic(
                    f"undefined branch target '{immediates[0]}'", line, severity="warning"))
            elif labels[immediates[0]] == len(program.opcodes) and op != "callsub":
                diagnostics.append(Diagnostic(
                    f"branch target '{immediates[0]}' points past the last "
                    f"instruction; edge dropped", line))
    return program


class _Stack:
    """Abstract stack; entry block is strict, successor blocks are bottomless
    (values flowing in from predecessors pop as Unknown). Popping past the
    bottom of a strict stack underflows and gives Unknown."""

    def __init__(self, bottomless: bool):
        self.values: list[AbstractValue] = []
        self.bottomless = bottomless
        self.underflowed = False

    def pop(self) -> AbstractValue:
        if self.values:
            return self.values.pop()
        self.underflowed |= not self.bottomless
        return UNKNOWN

    def push(self, value: AbstractValue) -> None:
        self.values.append(value)


def reference_exec_block(
    block: range,
    program: TealProgram,
    config: AnalyzerConfig,
    diagnostics: list[Diagnostic],
) -> BlockFacts:
    """Symbolically execute one block, flagging guard and fund-mod points.
    Over a span holding several branches or returns, as a test may pass,
    the last sender-comparison branch and the last return win. An opcode of
    unknown arity empties the stack and leaves it bottomless; the block is
    read no further than an instruction that underflows."""
    facts = BlockFacts()
    stack = _Stack(bottomless=block.start != 0)
    instructions = program.instructions

    for index in block:
        ins = instructions[index]
        op = ins.opcode
        imm = ins.immediates

        if op in ("int", "pushint"):
            stack.push(_int_value(imm[0]) if imm else UNKNOWN)
        elif op in ("byte", "pushbytes"):
            stack.push(_byte_value(imm))
        elif op == "addr":
            stack.push(AddrConst(imm[0]) if imm else UNKNOWN)
        elif op == "txn":
            stack.push(SENDER if imm and imm[0] == "Sender" else UNKNOWN)
        elif op == "gtxn":
            stack.push(SENDER if len(imm) >= 2 and imm[1] == "Sender" else UNKNOWN)
        elif op == "global":
            stack.push(GlobalField(imm[0]) if imm else UNKNOWN)
        elif op == "app_global_get":
            key = stack.pop()
            stack.push(GlobalGet(key.value) if isinstance(key, ByteConst) else UNKNOWN)
        elif op in ("==", "!="):
            b = stack.pop()
            a = stack.pop()
            stack.push(_compare(a, b, op, config))
        elif op in ("&&", "||"):
            b = stack.pop()
            a = stack.pop()
            stack.push(_combine(a, b, op))
        elif op == "!":
            value = stack.pop()
            stack.push(SenderCmp(value.source, "neq" if value.polarity == "eq" else "eq",
                                 value.weakened)
                       if isinstance(value, SenderCmp) else UNKNOWN)
        elif op == "assert":
            value = stack.pop()
            if isinstance(value, SenderCmp):
                facts.guard_points[index] = value
        elif op == "app_local_put":
            stack.pop()  # value
            key = stack.pop()
            stack.pop()  # account
            _record_put(facts, index, op, key, ins.line, config, diagnostics)
        elif op == "app_global_put":
            stack.pop()  # value
            key = stack.pop()
            _record_put(facts, index, op, key, ins.line, config, diagnostics)
        elif op in ("bz", "bnz"):
            value = stack.pop()
            if isinstance(value, SenderCmp):
                facts.branch_guard = value
        elif op == "return":
            facts.returned = stack.pop()
        elif op == "dup":
            value = stack.pop()
            stack.push(value)
            stack.push(value)
        elif op == "dup2":
            b = stack.pop()
            a = stack.pop()
            for value in (a, b, a, b):
                stack.push(value)
        elif op == "swap":
            b = stack.pop()
            a = stack.pop()
            stack.push(b)
            stack.push(a)
        elif op == "pop":
            stack.pop()
        elif ins.stack_delta is None:
            stack.values.clear()
            stack.bottomless = True
        else:
            pops, pushes = ins.stack_delta
            for _ in range(pops):
                stack.pop()
            for _ in range(pushes):
                stack.push(UNKNOWN)
        if stack.underflowed:  # the program fails here
            break

    if stack.underflowed:
        first = instructions[block.start]
        diagnostics.append(Diagnostic(
            "stack underflow in abstract interpretation; block state unknown",
            first.line))
    return facts
