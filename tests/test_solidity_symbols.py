"""State-variable symbol table and the balance-mapping predicate."""

from centriscan.solidity.symbols import collect_state_vars, is_address_to_uint_mapping

from helpers import parse_single_unit


def _table(source: str):
    return collect_state_vars(*parse_single_unit(source), [])


def test_balance_mapping_is_detected():
    table = _table("contract C { mapping(address => uint) bals; }")
    assert is_address_to_uint_mapping(table, "bals")


def test_sized_uint_value_counts():
    table = _table("contract C { mapping(address => uint256) bals; }")
    assert is_address_to_uint_mapping(table, "bals")


def test_uint_array_values_are_not_balances():
    table = _table("contract C { mapping(address => uint[]) lots;"
                   " mapping(address => uint256[2]) pairs;"
                   " mapping(address => mapping(address => uint8[])) deep; }")
    assert not is_address_to_uint_mapping(table, "lots")
    assert not is_address_to_uint_mapping(table, "pairs")
    assert not is_address_to_uint_mapping(table, "deep")


def test_plain_uint_is_not_a_mapping():
    table = _table("contract C { uint x; }")
    assert not is_address_to_uint_mapping(table, "x")


def test_nested_mapping_is_excluded_by_strict_rule():
    table = _table("contract C { mapping(address => mapping(address => uint)) allow; }")
    assert not is_address_to_uint_mapping(table, "allow")


def test_wrong_key_type_is_excluded():
    table = _table("contract C { mapping(uint => uint) slots; }")
    assert not is_address_to_uint_mapping(table, "slots")


def test_unknown_name():
    table = _table("contract C { }")
    assert not is_address_to_uint_mapping(table, "ghost")


def test_duplicate_names_last_wins_with_diagnostic():
    diagnostics = []
    table = collect_state_vars(*parse_single_unit(
        "contract C { uint bals; mapping(address => uint) bals; }"), diagnostics)
    assert is_address_to_uint_mapping(table, "bals")
    assert len(diagnostics) == 1
    assert "duplicate" in diagnostics[0].message
