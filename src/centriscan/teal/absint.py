"""Per-block abstract stack interpretation for TEAL.

Models just enough opcodes to recognize sender comparisons against
privileged sources and state writes under constant keys. Anything
unmodeled degrades to Unknown; an opcode with unknown arity poisons the
rest of the block's stack so no spurious guard or fund flags can arise.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..config import AnalyzerConfig
from ..diagnostics import Diagnostic
from .cfg import BasicBlock
from .parser import TealProgram


# --- abstract values --------------------------------------------------------

class AbstractValue:
    __slots__ = ()


class _Sender(AbstractValue):
    __slots__ = ()

    def __repr__(self):
        return "Sender"


class _Unknown(AbstractValue):
    __slots__ = ()

    def __repr__(self):
        return "Unknown"


SENDER = _Sender()
UNKNOWN = _Unknown()


@dataclass(frozen=True)
class GlobalField(AbstractValue):
    name: str


@dataclass(frozen=True)
class GlobalGet(AbstractValue):
    key: str


@dataclass(frozen=True)
class ByteConst(AbstractValue):
    value: str


@dataclass(frozen=True)
class IntConst(AbstractValue):
    value: int


@dataclass(frozen=True)
class AddrConst(AbstractValue):
    value: str


@dataclass(frozen=True)
class SenderCmp(AbstractValue):
    source: AbstractValue  # the privileged side of the comparison
    polarity: str  # "eq" | "neq"
    weakened: bool = False  # propagated through `||`


# Named integer constants accepted by `int`.
_NAMED_INTS = {
    "NoOp": 0, "OptIn": 1, "CloseOut": 2, "ClearState": 3,
    "UpdateApplication": 4, "DeleteApplication": 5,
    "pay": 1, "keyreg": 2, "acfg": 3, "axfer": 4, "afrz": 5, "appl": 6,
}


@dataclass(slots=True)
class BlockFacts:
    """What one block's abstract run found, keyed by instruction index:
    sender-comparison asserts, balance writes, the sender-comparison branch
    that ends the block, and the value each `return` pops."""

    block: int
    guard_points: dict[int, SenderCmp] = field(default_factory=dict)
    fund_mods: dict[int, tuple[str, str]] = field(default_factory=dict)  # index -> (opcode, key)
    branch_guard: SenderCmp | None = None
    branch_index: int | None = None
    return_values: dict[int, AbstractValue] = field(default_factory=dict)


class _Stack:
    """Abstract stack; entry block is strict, successor blocks are bottomless
    (values flowing in from predecessors pop as Unknown)."""

    def __init__(self, bottomless: bool):
        self.values: list[AbstractValue] = []
        self.bottomless = bottomless
        self.unknown_depth = False
        self.underflowed = False

    def pop(self) -> AbstractValue:
        if self.unknown_depth:
            return UNKNOWN
        if self.values:
            return self.values.pop()
        if self.bottomless:
            return UNKNOWN
        self.underflowed = True
        self.unknown_depth = True
        return UNKNOWN

    def push(self, value: AbstractValue) -> None:
        if not self.unknown_depth:
            self.values.append(value)


def _int_value(immediate: str) -> AbstractValue:
    try:
        return IntConst(int(immediate, 0))
    except ValueError:
        named = _NAMED_INTS.get(immediate)
        return IntConst(named) if named is not None else UNKNOWN


def _byte_value(immediates: tuple[str, ...]) -> AbstractValue:
    # Only the quoted-string form yields a known constant; base64/hex forms
    # stay opaque.
    if len(immediates) == 1 and immediates[0].startswith('"'):
        inner = immediates[0][1:]
        if inner.endswith('"'):
            inner = inner[:-1]
        return ByteConst(inner)
    return UNKNOWN


def _is_privileged_source(value: AbstractValue, config: AnalyzerConfig) -> bool:
    if isinstance(value, GlobalGet):
        return config.is_owner_key(value.key)
    if isinstance(value, GlobalField):
        return value.name == "CreatorAddress"
    return isinstance(value, AddrConst)


def _compare(a: AbstractValue, b: AbstractValue, opcode: str,
             config: AnalyzerConfig) -> AbstractValue:
    polarity = "eq" if opcode == "==" else "neq"
    a_sender = isinstance(a, _Sender)
    b_sender = isinstance(b, _Sender)
    if a_sender == b_sender:  # neither side, or a self-comparison
        return UNKNOWN
    other = b if a_sender else a
    if _is_privileged_source(other, config):
        return SenderCmp(other, polarity)
    return UNKNOWN


def _combine(a: AbstractValue, b: AbstractValue, opcode: str) -> AbstractValue:
    picked = a if isinstance(a, SenderCmp) else b if isinstance(b, SenderCmp) else None
    if picked is None:
        return UNKNOWN
    weakened = picked.weakened or opcode == "||"
    return SenderCmp(picked.source, picked.polarity, weakened)


def abstract_exec_block(
    block: BasicBlock,
    program: TealProgram,
    config: AnalyzerConfig,
    diagnostics: list[Diagnostic] | None = None,
) -> BlockFacts:
    """Symbolically execute one block, flagging guard and fund-mod points."""
    facts = BlockFacts(block.index)
    stack = _Stack(bottomless=block.start != 0)
    instructions = program.instructions

    for index in range(block.start, block.end):
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
            sender = len(imm) >= 2 and imm[1] == "Sender" and config.gtxn_sender
            stack.push(SENDER if sender else UNKNOWN)
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
                facts.branch_index = index
        elif op == "return":
            facts.return_values[index] = stack.pop()
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
            # Unknown arity: conservatively poison the rest of the block.
            stack.unknown_depth = True
        else:
            pops, pushes = ins.stack_delta
            for _ in range(pops):
                stack.pop()
            for _ in range(pushes):
                stack.push(UNKNOWN)

    if stack.underflowed and diagnostics is not None:
        first = instructions[block.start]
        diagnostics.append(Diagnostic(
            "stack underflow in abstract interpretation; block state unknown",
            first.line))
    return facts


def _record_put(facts, index, opcode, key, line, config, diagnostics) -> None:
    if isinstance(key, ByteConst):
        if config.is_balance_key(key.value):
            facts.fund_mods[index] = (opcode, key.value)
    elif diagnostics is not None:
        diagnostics.append(Diagnostic(
            f"'{opcode}' with non-constant key; write not classified", line))


def render_value(value: AbstractValue) -> str:
    """Stable human rendering for privileged sources in reports."""
    if isinstance(value, GlobalGet):
        return f'app_global_get["{value.key}"]'
    if isinstance(value, GlobalField):
        return value.name
    if isinstance(value, AddrConst):
        return f"addr {value.value}"
    if isinstance(value, _Sender):
        return "txn Sender"
    return repr(value)
