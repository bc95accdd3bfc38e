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


# --- rendering (recognized subset round-trips through the parser) ----------

def render_expr(expr: Expr) -> str:
    if isinstance(expr, MsgSender):
        return "msg.sender"
    if isinstance(expr, Identifier):
        return expr.name
    if isinstance(expr, Member):
        return f"{_wrap(expr.base)}.{expr.member}"
    if isinstance(expr, Index):
        return f"{_wrap(expr.base)}[{render_expr(expr.index)}]"
    if isinstance(expr, Binary):
        return f"{_wrap(expr.lhs)} {expr.op} {_wrap(expr.rhs)}"
    if isinstance(expr, CallExpr):
        args = ", ".join(render_expr(a) for a in expr.args)
        options = expr.options or ""
        return f"{_wrap(expr.callee)}{options}({args})"
    if isinstance(expr, AddressCast):
        return f"address({render_expr(expr.inner)})"
    return expr.text  # Literal and OpaqueExpr carry their own text


def _wrap(expr: Expr) -> str:
    if isinstance(expr, Binary):
        return f"({render_expr(expr)})"
    return render_expr(expr)


def render_stmt(stmt: Stmt, indent: str = "") -> str:
    if isinstance(stmt, Require):
        return f"{indent}require({render_expr(stmt.condition)});"
    if isinstance(stmt, If):
        lines = [f"{indent}if ({render_expr(stmt.condition)}) {{"]
        lines += [render_stmt(s, indent + "    ") for s in stmt.then_body]
        if stmt.else_body:
            lines.append(f"{indent}}} else {{")
            lines += [render_stmt(s, indent + "    ") for s in stmt.else_body]
        lines.append(f"{indent}}}")
        return "\n".join(lines)
    if isinstance(stmt, Assign):
        return f"{indent}{render_expr(stmt.lvalue)} {stmt.op} {render_expr(stmt.rvalue)};"
    if isinstance(stmt, Call):
        return f"{indent}{render_expr(stmt.expr)};"
    if isinstance(stmt, Revert):
        return f"{indent}revert;"
    if isinstance(stmt, Return):
        return f"{indent}return;"
    if isinstance(stmt, Placeholder):
        return f"{indent}_;"
    return indent + stmt.text  # Opaque passes through verbatim
