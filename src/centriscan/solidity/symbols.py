"""Contract-level symbol table over state variables."""

from __future__ import annotations

from ..diagnostics import Diagnostic
from .ast import ContractDecl, StateVar, TypeDesc


def collect_state_vars(
    contract: ContractDecl,
    diagnostics: list[Diagnostic] | None = None,
) -> dict[str, StateVar]:
    """Map state-variable names to declarations; last declaration wins."""
    table: dict[str, StateVar] = {}
    for var in contract.state_vars:
        if var.name in table and diagnostics is not None:
            diagnostics.append(Diagnostic(
                f"duplicate state variable '{var.name}'; last declaration wins",
                var.line, var.column,
            ))
        table[var.name] = var
    return table


def is_address_to_uint_mapping(table: dict[str, StateVar], name: str, depth: int) -> bool:
    """True iff name is declared as a mapping nested depth levels deep, every
    key an address and the innermost value a uint type: depth 1 is
    mapping(address => uint...), depth 2 mapping(address => mapping(address
    => uint...))."""
    var = table.get(name)
    if var is None:
        return False
    desc: TypeDesc | None = var.type_desc
    for _ in range(depth):
        if desc is None or desc.kind != "mapping":
            return False
        if desc.key is None or desc.key.name != "address":
            return False
        desc = desc.value
    return desc is not None and desc.kind != "mapping" and desc.name.startswith("uint")
