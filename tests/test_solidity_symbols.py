"""State-variable symbol table and the balance-mapping predicate."""

from centriscan.solidity.symbols import collect_state_vars, is_address_to_uint_mapping

from helpers import parse_single_contract


def _table(source: str, diagnostics=None):
    return collect_state_vars(parse_single_contract(source), diagnostics)


def test_balance_mapping_is_detected():
    table = _table("contract C { mapping(address => uint) bals; }")
    assert is_address_to_uint_mapping(table, "bals", 1)


def test_sized_uint_value_counts():
    table = _table("contract C { mapping(address => uint256) bals; }")
    assert is_address_to_uint_mapping(table, "bals", 1)


def test_plain_uint_is_not_a_mapping():
    table = _table("contract C { uint x; }")
    assert not is_address_to_uint_mapping(table, "x", 1)


def test_nested_mapping_is_excluded_by_strict_rule():
    table = _table("contract C { mapping(address => mapping(address => uint)) allow; }")
    assert not is_address_to_uint_mapping(table, "allow", 1)
    assert is_address_to_uint_mapping(table, "allow", 2)


def test_wrong_key_type_is_excluded():
    table = _table("contract C { mapping(uint => uint) slots; }")
    assert not is_address_to_uint_mapping(table, "slots", 1)


def test_unknown_name():
    table = _table("contract C { }")
    assert not is_address_to_uint_mapping(table, "ghost", 1)


def test_duplicate_names_last_wins_with_diagnostic():
    diagnostics = []
    table = _table(
        "contract C { uint bals; mapping(address => uint) bals; }", diagnostics)
    assert is_address_to_uint_mapping(table, "bals", 1)
    assert len(diagnostics) == 1
    assert "duplicate" in diagnostics[0].message
