"""Solidity frontend and pattern detectors."""

from .tokens import Tokens, tokenize
from .parser import parse_source
from .symbols import collect_state_vars, is_address_to_uint_mapping

__all__ = [
    "Tokens",
    "tokenize",
    "parse_source",
    "collect_state_vars",
    "is_address_to_uint_mapping",
]
