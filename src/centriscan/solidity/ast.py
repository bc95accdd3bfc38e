"""AST for the recognized Solidity subset.

Anything outside the subset is preserved as Opaque nodes carrying raw
text; detectors never look inside those.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..diagnostics import Diagnostic


# --- expressions -----------------------------------------------------------

@dataclass(slots=True)
class Expr:
    line: int
    column: int
    text: str  # verbatim source slice


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
class AddressCast(Expr):
    inner: Expr


@dataclass(slots=True)
class Literal(Expr):
    pass


@dataclass(slots=True)
class OpaqueExpr(Expr):
    pass


# --- statements ------------------------------------------------------------

@dataclass(slots=True)
class Stmt:
    line: int
    column: int
    text: str


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
    op: str  # "=", "+=", "-=", ...


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
    kind: str  # "elementary" | "mapping" | "other"
    name: str  # verbatim type text
    key: TypeDesc | None = None
    value: TypeDesc | None = None


@dataclass(slots=True)
class StateVar:
    name: str
    type_desc: TypeDesc
    line: int
    column: int


@dataclass(slots=True)
class ModifierDecl:
    name: str
    body: list[Stmt]
    line: int
    column: int


@dataclass(slots=True)
class FunctionDecl:
    name: str  # "" for constructor/fallback/receive
    modifier_invocations: list[str]
    body: list[Stmt]
    line: int
    column: int


@dataclass(slots=True)
class ContractDecl:
    name: str
    state_vars: list[StateVar] = field(default_factory=list)
    modifiers: list[ModifierDecl] = field(default_factory=list)
    functions: list[FunctionDecl] = field(default_factory=list)
    line: int = 1
    column: int = 1


@dataclass(slots=True)
class SourceUnit:
    path: str
    contracts: list[ContractDecl]
    diagnostics: list[Diagnostic]

