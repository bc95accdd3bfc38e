"""The balance mappings among a contract's state variables."""

from __future__ import annotations

from ..diagnostics import Diagnostic
from .ast import ContractDecl
from .tokens import Tokens

# The tokens of a balance mapping's type: an address key, payable or not,
# and an elementary unsigned integer value, `uint` or `uint8` ... `uint256`.
# A uint array (`uint[]`, `uint256[2]`) is no balance. The rule reads no
# identifier: a key's or value's name (Solidity 0.8.18) is left out, and a
# user-defined key or value type leaves a sequence that is no balance.
_BALANCE_TYPES = frozenset(
    ("mapping", "(", "address", *payable, "=>", uint, ")")
    for payable in ((), ("payable",))
    for uint in ("uint", *(f"uint{bits}" for bits in range(8, 257, 8))))


def collect_state_vars(
    contract: ContractDecl,
    tokens: Tokens,
    diagnostics: list[Diagnostic],
) -> frozenset[str]:
    """The names of the state variables whose last declaration is a
    mapping(address => uint...); a name declared twice gets a note.
    ``tokens`` are those the contract was parsed from."""
    balance: dict[str, bool] = {}
    for var in contract.state_vars:
        if var.name in balance:
            diagnostics.append(Diagnostic(
                f"duplicate state variable '{var.name}'; last declaration wins",
                *tokens.position(var.at),
            ))
        balance[var.name] = tuple(
            tokens.texts[k] for k in range(var.type_at, var.type_end)
            if tokens.kinds[k] != "identifier") in _BALANCE_TYPES
    return frozenset(name for name, is_balance in balance.items() if is_balance)
