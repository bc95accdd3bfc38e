"""AST for the recognized Solidity subset.

Expression and statement nodes hold token spans: `at` is the index of a
node's first token and `end` one past its last, into the `Tokens` its
SourceUnit carries. `tokens.position(node.at)` gives the node's line and
column, and `tokens.text(node.at, node.end)` its verbatim source text, gaps
(whitespace and comments) between its tokens included. A declaration's `at`
is the index of its keyword token (of its name token for a state variable),
so `tokens.position(decl.at)` gives its line and column. Anything outside
the subset is preserved as Opaque spans; detectors never look inside those.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..diagnostics import Diagnostic
from .tokens import Tokens


# --- expressions -----------------------------------------------------------

@dataclass(slots=True)
class Expr:
    at: int  # index of the first token
    end: int  # one past the index of the last token


@dataclass(slots=True)
class MsgSender(Expr):
    pass


@dataclass(slots=True)
class Identifier(Expr):
    name: str


@dataclass(slots=True)
class Member(Expr):
    base: Expr
    member: str


@dataclass(slots=True)
class Index(Expr):
    base: Expr
    index: Expr


@dataclass(slots=True)
class Binary(Expr):
    op: str  # "==" | "!=" | "&&" | "||"; other operators parse to OpaqueExpr
    lhs: Expr
    rhs: Expr


@dataclass(slots=True)
class CallExpr(Expr):
    callee: Expr
    args: list[Expr]
    options: str | None = None  # brace option block, e.g. "{value: amount}"


@dataclass(slots=True)
class OpaqueExpr(Expr):
    pass


# --- statements ------------------------------------------------------------

@dataclass(slots=True)
class Stmt:
    at: int
    end: int


@dataclass(slots=True)
class Require(Stmt):
    condition: Expr


@dataclass(slots=True)
class If(Stmt):
    condition: Expr
    then_body: list[Stmt]
    else_body: list[Stmt]


@dataclass(slots=True)
class Assign(Stmt):
    lvalue: Expr
    rvalue: Expr


@dataclass(slots=True)
class Call(Stmt):
    expr: Expr


@dataclass(slots=True)
class Revert(Stmt):
    pass


@dataclass(slots=True)
class Return(Stmt):
    pass


@dataclass(slots=True)
class Placeholder(Stmt):
    """The `_;` statement inside a modifier body."""


@dataclass(slots=True)
class Opaque(Stmt):
    """Unrecognized statement, skipped with brace/semicolon recovery."""


# --- declarations ----------------------------------------------------------

@dataclass(slots=True)
class TypeDesc:
    name: str  # verbatim type text
    key: TypeDesc | None = None  # set exactly for a mapping
    value: TypeDesc | None = None


@dataclass(slots=True)
class StateVar:
    name: str
    type_desc: TypeDesc
    at: int  # index of the name token


@dataclass(slots=True)
class ModifierDecl:
    name: str
    body: list[Stmt]
    at: int  # index of the keyword token


@dataclass(slots=True)
class FunctionDecl:
    name: str  # "" for constructor/fallback/receive
    modifier_invocations: list[str]
    body: list[Stmt]
    at: int  # index of the keyword token


@dataclass(slots=True)
class ContractDecl:
    name: str
    at: int  # index of the contract | interface | library keyword token
    bases: list[str] = field(default_factory=list)  # the `is` list, in order
    state_vars: list[StateVar] = field(default_factory=list)
    modifiers: list[ModifierDecl] = field(default_factory=list)
    functions: list[FunctionDecl] = field(default_factory=list)


@dataclass(slots=True)
class SourceUnit:
    contracts: list[ContractDecl]
    diagnostics: list[Diagnostic]
    # Units parsed from equal sources compare equal, whatever their tokens.
    tokens: Tokens = field(compare=False, repr=False)

