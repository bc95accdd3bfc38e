"""Per-block abstract stack interpretation for TEAL.

Models just enough opcodes to recognize sender comparisons against
privileged sources and state writes under constant keys. Anything
unmodeled degrades to Unknown; an opcode with unknown arity empties the
stack, so no spurious guard or fund flags can arise from what it consumed.
"""

from __future__ import annotations

import binascii
import re
from types import MappingProxyType

from ..config import AnalyzerConfig
from ..diagnostics import Diagnostic
from ..record import Record
from .parser import OPCODE_STACK_EFFECTS, TealProgram


# --- abstract values --------------------------------------------------------

class AbstractValue(Record):
    """Stack values compare and hash by class and fields; none changes once built."""
    __slots__ = ()

    def __hash__(self):
        return hash((type(self), *self._values()))


class _Sender(AbstractValue):
    __slots__ = ()


class _Unknown(AbstractValue):
    __slots__ = ()


SENDER = _Sender()
UNKNOWN = _Unknown()


class GlobalField(AbstractValue):
    __slots__ = ("name",)


class GlobalGet(AbstractValue):
    __slots__ = ("key",)


class _Constant(AbstractValue):
    __slots__ = ("value",)


class ByteConst(_Constant):
    __slots__ = ()  # value: str


class IntConst(_Constant):
    __slots__ = ()  # value: int


class AddrConst(_Constant):
    __slots__ = ()  # value: str


class SenderCmp(AbstractValue):
    # source: the privileged side; polarity: "eq" | "neq"; weakened: went through `||`
    __slots__ = ("source", "polarity", "weakened")

    def __init__(self, source: AbstractValue, polarity: str, weakened: bool = False):
        self.source, self.polarity, self.weakened = source, polarity, weakened


# Named integer constants accepted by `int`.
_NAMED_INTS = {
    "NoOp": 0, "OptIn": 1, "CloseOut": 2, "ClearState": 3,
    "UpdateApplication": 4, "DeleteApplication": 5,
    "pay": 1, "keyreg": 2, "acfg": 3, "axfer": 4, "afrz": 5, "appl": 6,
}

# Prefixes of a base64 byte constant: `base64 X`, `b64 X`, `base64(X)`, `b64(X)`.
_BASE64_FORMS = frozenset({"base64", "b64"})
# A quoted string's escape: `\xHH`, or the one character after a backslash.
_ESCAPE = re.compile(rb"\\(x..|.?)", re.DOTALL)
_ESCAPED = {b"n": b"\n", b"r": b"\r", b"t": b"\t", b"\\": b"\\", b'"': b'"'}
# How string_literal writes a character that cannot stand for itself.
_LITERAL_ESCAPES = str.maketrans({
    **{chr(code): f"\\x{code:02x}" for code in (*range(0x20), 0x7f)},
    "\n": "\\n", "\r": "\\r", "\t": "\\t", "\\": "\\\\", '"': '\\"',
})


class BlockFacts(Record):
    """What one block's abstract run found: sender-comparison asserts and
    balance writes (index -> (opcode, key)) keyed by instruction index, in
    ascending order; the sender comparison popped by the `bz`/`bnz` that
    ends the block; and the value popped by the `return` that ends it. A
    map becomes a dict of its own on its first entry; most stay empty."""
    __slots__ = ("guard_points", "fund_mods", "branch_guard", "returned")

    def __init__(self):
        self.guard_points = self.fund_mods = _NO_ENTRIES
        self.branch_guard: SenderCmp | None = None
        self.returned: AbstractValue | None = None


# The empty, read-only map a block's facts hold until their first entry,
# and the facts of every block that abstract_exec_block skips unread.
_NO_ENTRIES = MappingProxyType({})
EMPTY_FACTS = BlockFacts()


def _int_value(immediate: str) -> AbstractValue:
    try:
        return IntConst(int(immediate, 0))
    except ValueError:
        named = _NAMED_INTS.get(immediate)
        return IntConst(named) if named is not None else UNKNOWN


def _byte_value(immediates: tuple[str, ...]) -> AbstractValue:
    """A byte constant: a quoted string, hex (`0x…`) or base64 (`base64 X`,
    `b64 X`, `base64(X)`, `b64(X)`) whose bytes are UTF-8 text. Any other
    form, base32 among them, is Unknown."""
    if len(immediates) == 1:
        text = immediates[0]
        if text.startswith('"'):
            inner = text[1:]
            if inner.endswith('"'):
                inner = inner[:-1]
            return _decoded(_unescaped, inner)
        if text.startswith("0x"):
            return _decoded(binascii.unhexlify, text[2:])
        form, paren, encoded = text.partition("(")
        if paren and form in _BASE64_FORMS and encoded.endswith(")"):
            return _decoded(_base64, encoded[:-1])
    elif len(immediates) == 2 and immediates[0] in _BASE64_FORMS:
        return _decoded(_base64, immediates[1])
    return UNKNOWN


def _unescaped(text: str) -> bytes:
    r"""A quoted string's bytes, with the assembler's escapes (`\n \r \t \\
    \" \xHH`) decoded. Any other escape raises ValueError, as the assembler
    rejects it."""
    def escape(match: re.Match) -> bytes:
        code = match[1]
        if len(code) == 3:
            return binascii.unhexlify(code[1:])
        if code not in _ESCAPED:
            raise ValueError(f"not an escape: {code!r}")
        return _ESCAPED[code]
    return _ESCAPE.sub(escape, text.encode())


def _base64(text: str) -> bytes:
    data = binascii.a2b_base64(text)
    # a2b_base64 skips characters outside the alphabet: only the canonical
    # encoding of what it decoded is base64 text.
    if binascii.b2a_base64(data, newline=False).decode() != text:
        raise ValueError(f"not base64: {text!r}")
    return data


def _decoded(decode, text: str) -> AbstractValue:
    try:
        return ByteConst(decode(text).decode("utf-8"))
    except ValueError:  # binascii.Error and UnicodeDecodeError among them
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


# Opcodes that push a value read only from their immediates, each with its
# decoder; a program decodes each (opcode, immediates) once, into its
# `constants`.
_DECODERS = {
    "int": lambda imm: _int_value(imm[0]) if imm else UNKNOWN,
    "byte": _byte_value,
    "addr": lambda imm: AddrConst(imm[0]) if imm else UNKNOWN,
    "txn": lambda imm: SENDER if imm and imm[0] == "Sender" else UNKNOWN,
    "gtxn": lambda imm: SENDER if len(imm) >= 2 and imm[1] == "Sender" else UNKNOWN,
    "global": lambda imm: GlobalField(imm[0]) if imm else UNKNOWN,
}
_DECODERS["pushint"], _DECODERS["pushbytes"] = _DECODERS["int"], _DECODERS["byte"]
# Opcodes with a branch of their own below; every other opcode of known
# arity pops its operands and pushes Unknown.
_MODELED = frozenset({
    "app_global_get", "==", "!=", "&&", "||", "!", "assert", "app_local_put",
    "app_global_put", "bz", "bnz", "return", "dup", "dup2", "swap", "pop",
})
_PUTS = frozenset({"app_local_put", "app_global_put"})
# The only opcodes that make the sender, a put or a returned value. A block
# other than entry pops Unknown from below its own stack, so without one of
# them it holds no fact and no note.
FACT_OPCODES = frozenset({"txn", "gtxn", "return", *_PUTS})


def abstract_exec_block(
    block: range,
    program: TealProgram,
    config: AnalyzerConfig,
    diagnostics: list[Diagnostic],
) -> BlockFacts:
    """Symbolically execute one block (a range of instruction indices).

    The entry block's stack starts empty and is strict: popping past its
    bottom is an underflow: the opcode runs with what it popped, and the
    block is read no further, as the program fails there. Other blocks are
    bottomless: values flowing in from predecessors pop as Unknown. Every
    opcode pops as many values as its stack effect says, so an opcode that
    would pop past the bottom first has the missing values put under the
    stack as Unknown. An opcode of unknown arity empties the stack, and the
    rest of the block runs bottomless.

    A block other than entry that holds none of `FACT_OPCODES` makes no
    sender, no put and no returned value, so it gets EMPTY_FACTS unread.
    """
    opcodes = program.opcodes
    start = block.start
    if start and FACT_OPCODES.isdisjoint(opcodes[start:block.stop]):
        return EMPTY_FACTS
    facts = BlockFacts()
    immediates = program.immediates
    constants = program.constants
    effects = OPCODE_STACK_EFFECTS
    strict = start == 0
    stack: list[AbstractValue] = []
    push = stack.append
    pop = stack.pop

    for index in block:
        op = opcodes[index]
        decode = _DECODERS.get(op)
        if decode is not None:  # pops nothing, so cannot underflow
            key = (op, immediates[index])
            value = constants.get(key)
            if value is None:
                value = constants[key] = decode(key[1])
            push(value)
            continue
        delta = effects.get(op)
        if delta is None:  # what it pops and pushes is unknown: start over bottomless
            stack.clear()
            strict = False
            continue
        missing = delta[0] - len(stack)
        if missing > 0:
            stack[:0] = [UNKNOWN] * missing

        if op not in _MODELED:
            pops, pushes = delta
            if pops:
                del stack[-pops:]
            if pushes:
                stack += [UNKNOWN] * pushes
        elif op == "app_global_get":
            key = pop()
            push(GlobalGet(key.value) if isinstance(key, ByteConst) else UNKNOWN)
        elif op == "==" or op == "!=":
            b = pop()
            push(_compare(pop(), b, op, config))
        elif op == "assert":
            value = pop()
            if isinstance(value, SenderCmp):
                facts.guard_points = facts.guard_points or {}
                facts.guard_points[index] = value
        elif op == "bz" or op == "bnz":
            value = pop()
            if isinstance(value, SenderCmp):
                facts.branch_guard = value
        elif op == "return":
            facts.returned = pop()
        elif op in _PUTS:
            pop()  # value
            key = pop()
            if op == "app_local_put":
                pop()  # account
            _record_put(facts, index, op, key, program.lines[index], config, diagnostics)
        elif op == "&&" or op == "||":
            b = pop()
            push(_combine(pop(), b, op))
        elif op == "!":
            value = pop()
            push(SenderCmp(value.source, "neq" if value.polarity == "eq" else "eq",
                           value.weakened)
                 if isinstance(value, SenderCmp) else UNKNOWN)
        elif op == "dup":
            push(stack[-1])
        elif op == "dup2":
            stack += stack[-2:]
        elif op == "swap":
            stack[-1], stack[-2] = stack[-2], stack[-1]
        else:  # pop
            pop()
        if missing > 0 and strict:  # the program fails here
            diagnostics.append(Diagnostic(
                "stack underflow in abstract interpretation; block state unknown",
                program.lines[start]))
            break
    return facts


def _record_put(facts, index, opcode, key, line, config, diagnostics) -> None:
    if isinstance(key, ByteConst):
        if config.is_balance_key(key.value):
            facts.fund_mods = facts.fund_mods or {}
            facts.fund_mods[index] = (opcode, key.value)
    else:
        diagnostics.append(Diagnostic(
            f"'{opcode}' with non-constant key; write not classified", line))


def string_literal(key: str) -> str:
    r"""key as a TEAL string literal, which `byte` reads back as key: `\`
    and `"` escaped, `\n \r \t` as such, any other control character and
    DEL as `\xHH`."""
    return '"' + key.translate(_LITERAL_ESCAPES) + '"'


def render_value(value: AbstractValue) -> str:
    """Stable human rendering for privileged sources in reports."""
    if isinstance(value, GlobalGet):
        return f"app_global_get[{string_literal(value.key)}]"
    if isinstance(value, GlobalField):
        return value.name
    if isinstance(value, AddrConst):
        return f"addr {value.value}"
    return repr(value)
