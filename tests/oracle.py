"""Independent guardedness oracle: exhaustive path enumeration.

A run is a path from entry to the last instruction of an end block (a
block at whose end the program may finish). A fund point is unguarded iff
some run passes it without passing an assert-guard instruction or
crossing the authorized (non-fail) edge of a branch guard, before the
point or after it, and does not finish at a block whose last instruction
is a branch guard (such a block ends the program only across its
authorized edge). It is guarded iff some run passes it at all, and dead
otherwise. A run through a point joins a path from entry to it and a path
from it on, so the oracle searches each half alone, instruction by
instruction. Enumeration caps
revisits at one cycle repetition per instruction, which is complete for
these paths and for the guards they pass first or last (a shortest path to
a guard, then a guard-free simple path on, holds each instruction at most
twice).

`reference_gates` enumerates the same capped paths with no guard semantics
and collects, per guarded fund point, the last guard instruction each path
from entry passes before reaching it and, when a path from entry reaches
it without a guard, the first guard instruction each path on to an end
passes from the point on.

`reference_witnesses` is the reference for witness paths: per unguarded
write, the guard-free block path with the fewest blocks,
where two such paths part the one on the earlier successor edge, found
level by level by comparing whole paths; its instruction path is read off
the block path.

`reference_parents` reads the same paths off as a parent tree: per block
entered other than entry, the block before it on its path.

`reference_is_failure_region` is the reference failure-region rule: every
block reachable from the start, collected anew for each start, may only
end the program unsuccessfully.

`reference_success_ends` is the reference for the blocks at whose end a
TEAL program may succeed: it asks every block the same question in turn.

`reference_parse_teal` is the reference TEAL parser: it decodes every line
at every occurrence and checks every instruction for a branch target.

`reference_exec_block` is the reference abstract interpreter: one
instruction object and one stack method call at a time, with the value
helpers of `centriscan.teal.absint`.

`reference_solidity_verdicts` is the Solidity reference: it runs each
function's AST, modifiers around it, along every stranger run and every
run of any sender, and never lowers it onto a graph.
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
from centriscan.solidity import ast
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
                  visit_cap: int = 2, start: int = 0):
    """Yield every path from start (entry by default), as one list extended
    in place, on which no instruction occurs more than visit_cap times; a
    path ends at a stop."""
    path = [start]
    counts = {start: 1}
    pending = [iter(() if start in stops else successors[start])]
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


def _some_path(successors, stops: set, start: int, targets: set) -> bool:
    """Whether a path from start over instructions ends at one of targets,
    none of whose instructions but its last is a stop: a search over
    instructions, as a path need not repeat one."""
    seen = {start}
    stack = [start]
    while stack:
        q = stack.pop()
        if q in targets:
            return True
        if q not in stops:
            for s in successors[q]:
                if s not in seen:
                    seen.add(s)
                    stack.append(s)
    return False


def oracle_verdicts(
    cfg: Cfg, guards: list[GuardPoint], funds: list[FundModPoint], ends
) -> dict[FundModPoint, bool | None]:
    """Per fund point: False when unguarded, True when guarded, None when
    dead (see the module docstring)."""
    asserts, pruned = _guard_cuts(guards)
    finish = {cfg.blocks[b][-1] for b in ends}
    branch_guards = {g.instruction for g in guards if g.form == "BranchGuard"}
    free_finish = finish - asserts - branch_guards
    plain = _instruction_successors(cfg, set())
    free = _instruction_successors(cfg, pruned)
    verdicts: dict[FundModPoint, bool | None] = {}
    for point in funds:
        q = point.instruction
        if not (_some_path(plain, set(), 0, {q})
                and _some_path(plain, set(), q, finish)):
            verdicts[point] = None
        else:
            verdicts[point] = q in asserts or not (
                _some_path(free, asserts, 0, {q})
                and _some_path(free, asserts, q, free_finish))
    return verdicts


def reference_gates(
    cfg: Cfg, guards: list[GuardPoint], funds: list[FundModPoint], ends, visit_cap: int = 2
) -> dict[FundModPoint, tuple[int, ...]]:
    """Per fund point the oracle calls guarded, the sorted set of the last
    guard instruction on each path from entry to it (either edge of a
    branch guard; the write's own instruction does not count as passed)
    and, when a guard-free path from entry reaches it, of the first guard
    instruction on each path from it to an end (its own instruction
    included)."""
    verdicts = oracle_verdicts(cfg, guards, funds, ends)
    guarded = {p.instruction: p for p, verdict in verdicts.items() if verdict is True}
    if not guarded:
        return {}
    guard_instructions = {g.instruction for g in guards}
    finish = {cfg.blocks[b][-1] for b in ends}
    found: dict[int, set[int | None]] = {q: set() for q in guarded}
    successors = _instruction_successors(cfg, set())
    for path in _capped_paths(cfg, successors, set(), visit_cap):
        if path[-1] in found:
            found[path[-1]].add(next(
                (q for q in reversed(path[:-1]) if q in guard_instructions), None))
    asserts, pruned = _guard_cuts(guards)
    free = _instruction_successors(cfg, pruned)
    for q, last in found.items():
        last.discard(None)
        if _some_path(free, asserts, 0, {q}):
            after = {next((r for r in path if r in guard_instructions), None)
                     for path in _capped_paths(cfg, successors, set(), visit_cap, q)
                     if path[-1] in finish}
            assert None not in after, "a guarded write has a run that passes no guard"
            last |= after
        assert last, "a guarded write has a run that passes no guard"
    return {guarded[q]: tuple(sorted(last)) for q, last in found.items()}


def _fewest_block_paths(cfg: Cfg, stop_instructions: set, pruned_edges: set
                        ) -> dict[int, tuple[int, ...]]:
    """Per block entered from entry without crossing a pruned edge or
    leaving a block that holds a stop instruction, its path of fewest
    blocks; of equally short paths, the one whose successor-edge ranks,
    read from entry, are least. The paths of n + 1 blocks are built from
    those of n, and each block keeps the least (ranks, path) key."""
    blocks_of = block_of(cfg)
    leaves_none = {blocks_of[q] for q in stop_instructions}
    keys = {0: ((), (0,))}  # block -> (edge rank per step, block path)
    level = [0]
    while level:
        found: dict[int, tuple] = {}
        for frm in level:
            if frm in leaves_none:
                continue
            ranks, path = keys[frm]
            for rank, (to, kind) in enumerate(cfg.successors[frm]):
                if to in keys or (frm, to, kind) in pruned_edges:
                    continue
                key = (ranks + (rank,), path + (to,))
                if to not in found or key < found[to]:
                    found[to] = key
        keys.update(found)
        level = list(found)
    return {b: path for b, (_, path) in keys.items()}


def reference_witnesses(
    cfg: Cfg, guards: list[GuardPoint], funds: list[FundModPoint], ends
) -> tuple[dict[FundModPoint, tuple[int, ...]], dict[FundModPoint, tuple[int, ...]]]:
    """(block paths, instruction paths) of every fund point the oracle
    calls unguarded: the block path of fewest blocks that enters its block
    without crossing a guard, and the instructions it runs, each block
    whole but the last, which is cut after the point."""
    block_paths: dict[FundModPoint, tuple[int, ...]] = {}
    instruction_paths: dict[FundModPoint, tuple[int, ...]] = {}
    if not cfg.blocks:
        return block_paths, instruction_paths
    asserts, pruned = _guard_cuts(guards)
    paths = _fewest_block_paths(cfg, asserts, pruned)
    verdicts = oracle_verdicts(cfg, guards, funds, ends)
    for point in funds:
        path = paths.get(point.block)
        start = cfg.blocks[point.block].start
        if verdicts[point] is not False:
            continue
        block_paths[point] = path
        instruction_paths[point] = tuple(q for b in path[:-1] for q in cfg.blocks[b]) + \
            tuple(range(start, point.instruction + 1))
    return block_paths, instruction_paths


def reference_parents(cfg: Cfg, guards: list[GuardPoint]) -> dict[int, int]:
    """Per block other than entry that a guard-free path enters, the block
    before it on its witness path."""
    if not cfg.blocks:
        return {}
    paths = _fewest_block_paths(cfg, *_guard_cuts(guards))
    return {b: path[-2] for b, path in paths.items() if b != 0}


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


def _may_succeed(cfg: Cfg, facts: list[BlockFacts], program: TealProgram, block: int) -> bool:
    """True iff the program may end successfully at the end of block: every
    ending but `err` and a `return` of a proven zero. A branch to the label
    after the last instruction, or a conditional one that falls off the
    end, ends the program with what is on the stack."""
    end = cfg.blocks[block].stop
    last = program.opcodes[end - 1]
    if last in BRANCH_OPCODES:
        immediates = program.immediates[end - 1]
        n = len(program.opcodes)
        if immediates and program.labels.get(immediates[0]) == n or last != "b" and end == n:
            return True
    if cfg.successors[block] or last == "err":
        return False
    return last != "return" or facts[block].returned != IntConst(0)


def reference_success_ends(cfg: Cfg, facts: list[BlockFacts], program: TealProgram) -> set[int]:
    """The blocks for which _may_succeed holds, each asked in turn."""
    return {b for b in range(len(cfg.blocks)) if _may_succeed(cfg, facts, program, b)}


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
                facts.guard_points = {**facts.guard_points, index: value}
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


# --- Solidity: runs over the AST ---------------------------------------------

def _sender_test(condition: ast.Expr) -> str | None:
    """"==" or "!=" for a plain comparison of `msg.sender` with another
    operand, else None: the conditions the generated bodies hold."""
    if type(condition) is ast.Binary and condition.op in ("==", "!=") and \
            (type(condition.lhs) is ast.MsgSender) != (type(condition.rhs) is ast.MsgSender):
        return condition.op
    return None


def _outcomes(condition: ast.Expr, stranger: bool) -> tuple[bool, ...]:
    """The values a condition takes: for a stranger a sender `==` is false
    and a sender `!=` true; any other condition, and any condition for any
    sender, takes both."""
    test = _sender_test(condition)
    if stranger and test is not None:
        return (test == "!=",)
    return (True, False)


def _runs(body: list, i: int, inner, stranger: bool):
    """Yield (writes, end) for each run of body[i:]: the balance writes it
    executes and how it ends, "fall" off the end, "return" or "revert".
    inner yields the runs of what a modifier's `_` runs; it is None in a
    function body."""
    if i == len(body):
        yield (), "fall"
        return
    for writes, end in _step(body[i], inner, stranger):
        if end == "fall":
            for rest, last in _runs(body, i + 1, inner, stranger):
                yield writes + rest, last
        else:
            yield writes, end


def _step(stmt, inner, stranger: bool):
    cls = type(stmt)
    if cls is ast.ExprStmt:
        yield (stmt,) if _is_write(stmt) else (), "fall"
    elif cls is ast.Require:
        for value in _outcomes(stmt.condition, stranger):
            yield (), "fall" if value else "revert"
    elif cls is ast.If:
        for value in _outcomes(stmt.condition, stranger):
            yield from _runs(stmt.then_body if value else stmt.else_body, 0, inner, stranger)
    elif cls is ast.Revert:
        yield (), "revert"
    elif cls is ast.Return:
        yield (), "return"
    elif cls is ast.Placeholder and inner is not None:
        # A return in what `_` runs ends that level only.
        for writes, end in inner():
            yield writes, "revert" if end == "revert" else "fall"
    else:
        yield (), "fall"


def _level_runs(levels: list, k: int, stranger: bool):
    """The runs of levels[k:], each modifier's `_` running the levels inside it."""
    inner = (lambda: _level_runs(levels, k + 1, stranger)) if k + 1 < len(levels) else None
    return _runs(levels[k].body, 0, inner, stranger)


def reference_solidity_verdicts(contract: ast.ContractDecl) -> dict:
    """Per balance-write statement (`bals[k] = v;`) of each function body,
    by the statement's `at`: False when a stranger run executes it and ends
    without a revert, True when only a run of some other sender does, None
    when no run does. A function runs its modifiers by name, outermost
    first, the function body at the innermost `_`."""
    verdicts = {}
    for function in contract.functions:
        levels = [m for name in function.modifier_invocations
                  for m in contract.modifiers if m.name == name] + [function]
        committed = {stranger: {id(w) for writes, end in _level_runs(levels, 0, stranger)
                                if end != "revert" for w in writes}
                     for stranger in (True, False)}
        for stmt in _writes(function.body):
            verdicts[stmt.at] = False if id(stmt) in committed[True] else \
                True if id(stmt) in committed[False] else None
    return verdicts


def _is_write(stmt) -> bool:
    """`bals[k] = v;`: a write to the balance mapping of the generated bodies."""
    expr = stmt.expr
    return type(expr) is ast.Assign and type(expr.lvalue) is ast.Index \
        and type(expr.lvalue.base) is ast.Identifier and expr.lvalue.base.name == "bals"


def _writes(body: list):
    """Every balance-write statement of body, at any depth."""
    for stmt in body:
        if type(stmt) is ast.If:
            yield from _writes(stmt.then_body)
            yield from _writes(stmt.else_body)
        elif type(stmt) is ast.ExprStmt and _is_write(stmt):
            yield stmt
