"""Contract-level symbol table over state variables."""

from __future__ import annotations

from ..diagnostics import Diagnostic
from .ast import ContractDecl, StateVar
from .tokens import Tokens

_ADDRESS_TYPES = frozenset({"address", "address payable"})
# Elementary unsigned integers: `uint` and `uint8` ... `uint256`. A uint
# array (`uint[]`, `uint256[2]`) is no balance.
_UINT_TYPES = frozenset({"uint", *(f"uint{bits}" for bits in range(8, 257, 8))})


def collect_state_vars(
    contract: ContractDecl,
    tokens: Tokens,
    diagnostics: list[Diagnostic],
) -> dict[str, StateVar]:
    """Map state-variable names to declarations; last declaration wins.
    ``tokens`` are those the contract was parsed from."""
    table: dict[str, StateVar] = {}
    for var in contract.state_vars:
        if var.name in table:
            diagnostics.append(Diagnostic(
                f"duplicate state variable '{var.name}'; last declaration wins",
                *tokens.position(var.at),
            ))
        table[var.name] = var
    return table


def is_address_to_uint_mapping(table: dict[str, StateVar], name: str) -> bool:
    """True iff name is declared as a mapping(address => uint...): its key an
    address (payable or not) and its value an elementary uint type (`uint`
    or `uintN`)."""
    var = table.get(name)
    if var is None:
        return False
    desc = var.type_desc
    key = desc.key  # a mapping has both a key and a value; no other type has either
    return key is not None and key.name in _ADDRESS_TYPES and desc.value.name in _UINT_TYPES
