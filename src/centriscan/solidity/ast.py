"""AST for the recognized Solidity subset.

Expression and statement nodes hold token spans: `at` is the index of a
node's first token and `end` one past its last, into the `Tokens` its
SourceUnit carries. `tokens.position(node.at)` gives the node's line and
column, and `tokens.text(node.at, node.end)` its verbatim source text, gaps
(whitespace and comments) between its tokens included. A declaration's `at`
is the index of its keyword token (of its name token for a state variable),
so `tokens.position(decl.at)` gives its line and column. A modifier is a
FunctionDecl like a function: `ContractDecl.modifiers` and `.functions` hold
the same record. Anything outside the subset is preserved as Opaque spans;
detectors never look inside those.
"""

from __future__ import annotations

from ..diagnostics import Diagnostic
from ..record import Record
from .tokens import Tokens


# --- expressions -----------------------------------------------------------

class Expr(Record):
    __slots__ = ("at", "end")  # index of the first token, one past the last

    def __init__(self, at: int, end: int):
        self.at, self.end = at, end


class MsgSender(Expr):
    __slots__ = ()


class Identifier(Expr):
    __slots__ = ("name",)

    def __init__(self, at: int, end: int, name: str):
        self.at, self.end, self.name = at, end, name


class Member(Expr):
    __slots__ = ("base", "member")

    def __init__(self, at: int, end: int, base: Expr, member: str):
        self.at, self.end = at, end
        self.base, self.member = base, member


class Index(Expr):
    __slots__ = ("base", "index")

    def __init__(self, at: int, end: int, base: Expr, index: Expr):
        self.at, self.end = at, end
        self.base, self.index = base, index


class Binary(Expr):
    __slots__ = ("op", "lhs", "rhs")  # op: == != && ||; others parse to OpaqueExpr

    def __init__(self, at: int, end: int, op: str, lhs: Expr, rhs: Expr):
        self.at, self.end = at, end
        self.op, self.lhs, self.rhs = op, lhs, rhs


class Not(Expr):
    __slots__ = ("operand",)  # a run of `!`, by parity; other prefix operators parse to OpaqueExpr

    def __init__(self, at: int, end: int, operand: Expr):
        self.at, self.end, self.operand = at, end, operand


class CallExpr(Expr):
    __slots__ = ("callee", "args", "options")  # options: brace block "{value: x}" or None

    def __init__(self, at: int, end: int, callee: Expr, args: list[Expr],
                 options: str | None = None):
        self.at, self.end = at, end
        self.callee, self.args, self.options = callee, args, options


class OpaqueExpr(Expr):
    __slots__ = ()


# --- statements ------------------------------------------------------------

class Stmt(Record):
    __slots__ = ("at", "end")

    def __init__(self, at: int, end: int):
        self.at, self.end = at, end


class Require(Stmt):
    __slots__ = ("condition",)

    def __init__(self, at: int, end: int, condition: Expr):
        self.at, self.end, self.condition = at, end, condition


class If(Stmt):
    __slots__ = ("condition", "then_body", "else_body")

    def __init__(self, at: int, end: int, condition: Expr,
                 then_body: list[Stmt], else_body: list[Stmt]):
        self.at, self.end, self.condition = at, end, condition
        self.then_body, self.else_body = then_body, else_body


class Assign(Stmt):
    """`lvalue op= rvalue;`, and `delete x;`, `++x;` or `x--;`, whose rvalue
    is the opaque operator token."""
    __slots__ = ("lvalue", "rvalue")

    def __init__(self, at: int, end: int, lvalue: Expr, rvalue: Expr):
        self.at, self.end = at, end
        self.lvalue, self.rvalue = lvalue, rvalue


class Call(Stmt):
    __slots__ = ("expr",)

    def __init__(self, at: int, end: int, expr: Expr):
        self.at, self.end, self.expr = at, end, expr


class Revert(Stmt):
    __slots__ = ()


class Return(Stmt):
    __slots__ = ()


class Placeholder(Stmt):
    """The `_;` statement inside a modifier body."""
    __slots__ = ()


class Opaque(Stmt):
    """Unrecognized statement, skipped with brace/semicolon recovery."""
    __slots__ = ()


# --- declarations ----------------------------------------------------------

class TypeDesc(Record):
    __slots__ = ("name", "key", "value")  # verbatim type text; a mapping's key and value

    def __init__(self, name: str, key: TypeDesc | None = None, value: TypeDesc | None = None):
        self.name, self.key, self.value = name, key, value


class StateVar(Record):
    __slots__ = ("name", "type_desc", "at")  # at: index of the name token

    def __init__(self, name: str, type_desc: TypeDesc, at: int):
        self.name, self.type_desc, self.at = name, type_desc, at


class FunctionDecl(Record):
    # A function, modifier, constructor, fallback or receive; at is its keyword
    # token's index. name is "" for the last three; pairing reads no modifier's
    # invocations.
    __slots__ = ("name", "modifier_invocations", "body", "at")

    def __init__(self, name: str, modifier_invocations: list[str], body: list[Stmt], at: int):
        self.name, self.modifier_invocations = name, modifier_invocations
        self.body, self.at = body, at


class ContractDecl(Record):
    # at: its contract | interface | library keyword; bases: its `is` list, in order.
    __slots__ = ("name", "at", "bases", "state_vars", "modifiers", "functions")

    def __init__(self, name: str, at: int):
        self.name, self.at = name, at
        self.bases, self.state_vars, self.modifiers, self.functions = [], [], [], []


class SourceUnit(Record):
    __slots__ = ("contracts", "diagnostics", "tokens")
    # Units parsed from equal sources compare equal, whatever their tokens.
    _fields = ("contracts", "diagnostics")

    def __init__(self, contracts: list[ContractDecl], diagnostics: list[Diagnostic],
                 tokens: Tokens):
        self.contracts, self.diagnostics, self.tokens = contracts, diagnostics, tokens
