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

from ..record import Record


# --- expressions -----------------------------------------------------------

class Expr(Record):
    __slots__ = ("at", "end")  # index of the first token, one past the last


class MsgSender(Expr):
    __slots__ = ()


class Identifier(Expr):
    __slots__ = ("name",)


class Member(Expr):
    __slots__ = ("base", "member")


class Index(Expr):
    __slots__ = ("base", "index")


class Binary(Expr):
    __slots__ = ("op", "lhs", "rhs")  # op: == != && ||; others parse to OpaqueExpr


class Not(Expr):
    __slots__ = ("operand",)  # a run of `!`, by parity; other prefix operators parse to OpaqueExpr


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


class Require(Stmt):
    __slots__ = ("condition",)


class If(Stmt):
    __slots__ = ("condition", "then_body", "else_body")


class Assign(Stmt):
    """`lvalue op= rvalue;`, and `delete x;`, `++x;` or `x--;`, whose rvalue
    is the opaque operator token."""
    __slots__ = ("lvalue", "rvalue")


class Call(Stmt):
    __slots__ = ("expr",)


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


class FunctionDecl(Record):
    # A function, modifier, constructor, fallback or receive; at is its keyword
    # token's index. name is "" for the last three; pairing reads no modifier's
    # invocations.
    __slots__ = ("name", "modifier_invocations", "body", "at")


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
