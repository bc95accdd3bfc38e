"""Line-oriented TEAL assembly parser.

Total for any input text. Lines end at `\\n` only, as Solidity positions do;
a `\\r` before it is whitespace. Comments are stripped outside string
immediates, labels and `#pragma version` lines are recorded, and unknown
opcodes are kept with an unknown stack effect plus a note diagnostic.

A program is held as parallel columns indexed by instruction number
(`opcodes`, `immediates`, `lines`), not as one object per instruction. A
line's instruction depends only on the line's text, so each distinct
instruction line is decoded once per parse and its repeats share one
immediates tuple; an unknown opcode's note is built with it and added again
at each occurrence. Labels and directives are parsed at every occurrence, so
each gets its own label index or diagnostic. Branch targets are checked only
at the branch instructions, which `itertools.compress` picks out.
"""

from __future__ import annotations

import re
from itertools import compress
from typing import NamedTuple

from ..diagnostics import Diagnostic
from ..record import Record

# (pops, pushes) for common TEAL v2-v8 opcodes; anything absent pops/pushes
# an unknown amount, so the abstract stack is emptied and goes on bottomless.
OPCODE_STACK_EFFECTS: dict[str, tuple[int, int]] = {
    # constants and immediates
    "int": (0, 1), "pushint": (0, 1),
    "byte": (0, 1), "pushbytes": (0, 1),
    "addr": (0, 1), "method": (0, 1),
    "intc": (0, 1), "intc_0": (0, 1), "intc_1": (0, 1), "intc_2": (0, 1), "intc_3": (0, 1),
    "bytec": (0, 1), "bytec_0": (0, 1), "bytec_1": (0, 1), "bytec_2": (0, 1), "bytec_3": (0, 1),
    "intcblock": (0, 0), "bytecblock": (0, 0),
    "arg": (0, 1), "arg_0": (0, 1), "arg_1": (0, 1), "arg_2": (0, 1), "arg_3": (0, 1),
    # transaction / global fields
    "txn": (0, 1), "txna": (0, 1), "gtxn": (0, 1), "gtxna": (0, 1),
    "gtxns": (1, 1), "gtxnsa": (1, 1), "global": (0, 1),
    # scratch space
    "load": (0, 1), "store": (1, 0), "loads": (1, 1), "stores": (2, 0),
    # arithmetic / comparison / logic
    "+": (2, 1), "-": (2, 1), "*": (2, 1), "/": (2, 1), "%": (2, 1),
    "<": (2, 1), ">": (2, 1), "<=": (2, 1), ">=": (2, 1),
    "==": (2, 1), "!=": (2, 1), "&&": (2, 1), "||": (2, 1),
    "&": (2, 1), "|": (2, 1), "^": (2, 1), "~": (1, 1), "!": (1, 1),
    "shl": (2, 1), "shr": (2, 1), "exp": (2, 1), "sqrt": (1, 1), "bitlen": (1, 1),
    "addw": (2, 2), "mulw": (2, 2), "divmodw": (4, 4), "expw": (2, 2), "divw": (3, 1),
    "b+": (2, 1), "b-": (2, 1), "b*": (2, 1), "b/": (2, 1), "b%": (2, 1),
    "b<": (2, 1), "b>": (2, 1), "b<=": (2, 1), "b>=": (2, 1), "b==": (2, 1), "b!=": (2, 1),
    "b&": (2, 1), "b|": (2, 1), "b^": (2, 1), "b~": (1, 1),
    # bytes and hashing
    "len": (1, 1), "itob": (1, 1), "btoi": (1, 1), "concat": (2, 1),
    "substring": (1, 1), "substring3": (3, 1), "extract": (1, 1), "extract3": (3, 1),
    "getbyte": (2, 1), "setbyte": (3, 1), "getbit": (2, 1), "setbit": (3, 1),
    "sha256": (1, 1), "keccak256": (1, 1), "sha512_256": (1, 1), "sha3_256": (1, 1),
    "ed25519verify": (3, 1), "ecdsa_verify": (5, 1),
    # stack manipulation
    "pop": (1, 0), "dup": (1, 2), "dup2": (2, 4), "swap": (2, 2),
    "select": (3, 1), "cover": (1, 1), "uncover": (1, 1), "bury": (1, 0),
    "dupn": (1, 1), "popn": (0, 0),
    # flow control
    "b": (0, 0), "bz": (1, 0), "bnz": (1, 0),
    "callsub": (0, 0), "retsub": (0, 0),
    "return": (1, 0), "err": (0, 0), "assert": (1, 0), "nop": (0, 0),
    # application state
    "app_global_get": (1, 1), "app_global_get_ex": (2, 2),
    "app_local_get": (2, 1), "app_local_get_ex": (3, 2),
    "app_global_put": (2, 0), "app_local_put": (3, 0),
    "app_global_del": (1, 0), "app_local_del": (2, 0),
    "app_opted_in": (2, 1), "app_params_get": (1, 2),
    "asset_holding_get": (2, 2), "asset_params_get": (1, 2),
    "acct_params_get": (1, 2),
    "balance": (1, 1), "min_balance": (1, 1),
    "log": (1, 0),
}

BRANCH_OPCODES = frozenset({"b", "bz", "bnz"})
# retsub never falls through, so it terminates blocks like return/err.
TERMINATOR_OPCODES = frozenset({"return", "err", "retsub"})
# Opcodes whose first immediate names a label.
_TARGETED_OPCODES = BRANCH_OPCODES | {"callsub"}


class Instruction(NamedTuple):
    opcode: str
    immediates: tuple[str, ...]
    line: int
    stack_delta: tuple[int, int] | None  # (pops, pushes); None = unknown


class TealProgram(Record):
    __slots__ = ("opcodes", "immediates", "lines", "labels", "diagnostics", "constants")
    # Programs parsed from equal sources compare equal, whatever was decoded.
    _fields = ("opcodes", "immediates", "lines", "labels", "diagnostics")

    def __init__(self):
        self.labels, self.diagnostics = {}, []
        # Columns with one entry per instruction: str, tuple[str, ...] and int.
        self.opcodes, self.immediates, self.lines = [], [], []
        # (opcode, immediates) -> the value it pushes, filled by the interpreter.
        self.constants = {}

    @property
    def instructions(self) -> list[Instruction]:
        """The columns as Instruction tuples, built anew on each read."""
        effects = OPCODE_STACK_EFFECTS
        return [Instruction(op, imm, line, effects.get(op))
                for op, imm, line in zip(self.opcodes, self.immediates, self.lines)]


# A string immediate: a quote, then escaped or plain characters up to the
# closing quote or the end of the line (a lone trailing backslash included).
_STRING = r'"(?:\\.|[^"\\])*(?:"|\\)?'
# The code before a `//` comment; a `//` inside a string immediate is code.
_CODE = re.compile(r'(?:[^"/]+|/(?!/)|' + _STRING + ")*", re.DOTALL)
# Whitespace-separated fields; a field that starts with a quote is a string
# immediate, which may hold whitespace.
_FIELD = re.compile(_STRING + r'|[^\s"]\S*', re.DOTALL)


def parse_teal(source: str) -> TealProgram:
    """Parse TEAL text into instruction columns; total for any input."""
    program = TealProgram()
    add_opcode = program.opcodes.append
    add_immediates = program.immediates.append
    add_line = program.lines.append
    labels = program.labels
    diagnostics = program.diagnostics
    effects = OPCODE_STACK_EFFECTS
    # line text -> (opcode, immediates, note or None for a known opcode)
    decoded: dict[str, tuple[str, tuple[str, ...], str | None]] = {}
    for lineno, raw in enumerate(source.split("\n"), 1):
        hit = decoded.get(raw)
        if hit is None:
            if '"' in raw:
                # Without a `//` the code is the whole line.
                code = (_CODE.match(raw).group() if "//" in raw else raw).strip()
                if not code:
                    continue
                fields = code.split() if code.startswith("#") else _FIELD.findall(code)
            else:
                # Without a quote no `//` can sit inside a string immediate, and
                # _FIELD reduces to str.split (both split on str.isspace).
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
            hit = decoded[raw] = (head, tuple(fields[1:]), None if head in effects
                                  else f"unknown opcode '{head}'")
        if hit[2] is not None:
            diagnostics.append(Diagnostic(hit[2], lineno))
        add_opcode(hit[0])
        add_immediates(hit[1])
        add_line(lineno)

    opcodes = program.opcodes
    n = len(opcodes)
    for index in compress(range(n), map(_TARGETED_OPCODES.__contains__, opcodes)):
        op = opcodes[index]
        immediates = program.immediates[index]
        line = program.lines[index]
        if not immediates:
            diagnostics.append(Diagnostic(
                f"'{op}' without a target label", line, severity="warning"))
        elif immediates[0] not in labels:
            diagnostics.append(Diagnostic(
                f"undefined branch target '{immediates[0]}'", line, severity="warning"))
        elif labels[immediates[0]] == n and op != "callsub":
            diagnostics.append(Diagnostic(
                f"branch target '{immediates[0]}' points past the last "
                f"instruction; edge dropped", line))
    return program
