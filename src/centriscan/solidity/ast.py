"""AST for the recognized Solidity subset.

Every region of source a node holds is a token span, and every other text
it holds is a name, operator or keyword as a string. An expression or
statement spans token `at` to `end`, one past its last token, into the
`Tokens` its SourceUnit carries, and a state variable's type the span
`type_at` to `type_end`. A call's options (`x.call{value: v}(...)`,
`new T{value: v}(...)`) and its named arguments (`f({to: a})`) are Pairs
of names and expressions.
`tokens.position(node.at)` gives a node's line and column, and
`tokens.text(node.at, node.end)` its verbatim source text, gaps (whitespace
and comments) between its tokens included. A declaration's `at` is the
index of its keyword token (of its name token for a state variable), so
`tokens.position(decl.at)` gives its line and column. A modifier is a
FunctionDecl like a function: `ContractDecl.modifiers` and `.functions` hold
the same record. Every write (an assignment, `delete x`, `++x`, `x--`) is an
Assign expression, held by an ExprStmt at statement level; any other binary
operator is a Binary, prefix operator a Unary, and ternary a Conditional.
Anything outside the subset is Opaque; detectors never look inside those.
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
    __slots__ = ("op", "lhs", "rhs")  # op: any binary operator


class Unary(Expr):
    __slots__ = ("op", "operand")  # op: one prefix operator, spanning from its own token


class Conditional(Expr):
    __slots__ = ("condition", "if_true", "if_false")  # `condition ? if_true : if_false`


class CallExpr(Expr):
    # options: the Pairs of a `{value: v, gas: g}` block after the callee, or None.
    __slots__ = ("callee", "args", "options")


class Pairs(Expr):
    """`{name: value, ...}`: a call's options, or its named arguments as its
    one argument (`f({to: a, amount: 1})`)."""
    __slots__ = ("names", "values")


class Assign(Expr):
    """`lvalue op= rvalue`, and `delete x`, `++x` or `x--`, whose rvalue is
    the opaque operator token."""
    __slots__ = ("lvalue", "rvalue")


class OpaqueExpr(Expr):
    __slots__ = ()


# --- statements ------------------------------------------------------------

class Stmt(Record):
    __slots__ = ("at", "end")


class Require(Stmt):
    __slots__ = ("condition",)


class If(Stmt):
    __slots__ = ("condition", "then_body", "else_body")


class ExprStmt(Stmt):
    """An assignment, a step or a call, and its `;`."""
    __slots__ = ("expr",)


class Revert(Stmt):
    __slots__ = ()


class Return(Stmt):
    __slots__ = ("value",)  # the returned expression, or None


class Placeholder(Stmt):
    """The `_;` statement inside a modifier body."""
    __slots__ = ()


class Opaque(Stmt):
    """Unrecognized statement, skipped with brace/semicolon recovery."""
    __slots__ = ()


# --- declarations ----------------------------------------------------------

class StateVar(Record):
    # at: index of the name token; type_at, type_end: the span of its type.
    __slots__ = ("name", "at", "type_at", "type_end")


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
