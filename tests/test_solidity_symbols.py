"""The balance mappings among a contract's state variables: the names whose
last declaration has the type mapping(address => uint...)."""

import re

from hypothesis import example, given, settings
from hypothesis import strategies as st

from centriscan.solidity.parser import parse_solidity
from centriscan.solidity.symbols import collect_state_vars

_DUPLICATE = "duplicate state variable 'bals'; last declaration wins"
_SKIPPED = "skipped unrecognized contract member"


def _case(members: str, balances: set[str], notes: list[str]):
    """A test that the contract holding members has exactly these balance
    mappings and gets these notes, the parser's first."""
    def test():
        unit = parse_solidity("contract C { " + members + " }")
        (contract,) = unit.contracts
        diagnostics = list(unit.diagnostics)
        found = collect_state_vars(contract, unit.tokens, diagnostics)
        assert type(found) is frozenset and found == balances
        assert [d.message for d in diagnostics] == notes
    return test


# One row per test: the members, their balance mappings, the notes.
test_balance_mapping_is_detected = _case("mapping(address => uint) bals;", {"bals"}, [])
test_sized_uint_value_counts = _case("mapping(address => uint256) bals;", {"bals"}, [])
test_payable_key_counts = _case("mapping(address payable => uint8) bals;", {"bals"}, [])
test_comments_and_newlines_inside_the_type = _case(
    "mapping /* m */ (\n  address // key\n  payable =>\n uint128 /* value */ ) bals;",
    {"bals"}, [])
test_uint_array_values_are_not_balances = _case(
    "mapping(address => uint[]) lots; mapping(address => uint256[2]) pairs;"
    " mapping(address => mapping(address => uint8[])) deep;", set(), [])
test_plain_uint_is_not_a_mapping = _case("uint x;", set(), [])
test_nested_mapping_is_excluded_by_strict_rule = _case(
    "mapping(address => mapping(address => uint)) allow;", set(), [])
test_wrong_key_type_is_excluded = _case("mapping(uint => uint) slots;", set(), [])
test_unknown_name = _case("", set(), [])
test_duplicate_names_last_wins_with_diagnostic = _case(
    "uint bals; mapping(address => uint) bals;", {"bals"}, [_DUPLICATE])
test_a_later_declaration_that_is_no_balance_wins = _case(
    "mapping(address => uint) bals; uint bals;", set(), [_DUPLICATE])
# Named mapping parameters (Solidity 0.8.18): the rule reads past the names.
test_named_mapping_parameters_count = _case(
    "mapping(address user => uint amount) bals; mapping(address payable who => uint8) b;",
    {"bals", "b"}, [])
test_named_nested_mapping_is_excluded = _case(
    "mapping(address => mapping(address spender => uint amount) allowed) allow;", set(), [])
test_named_user_defined_types_are_no_balances = _case(
    "mapping(Id user => uint amount) ids; mapping(address user => Amount amount) amounts;",
    set(), [])
test_a_second_name_after_a_type_is_skipped_with_a_note = _case(
    "mapping(address user => uint amount extra) bals;", set(), [_SKIPPED])


# Generated types: elementary and sized types, arrays of them, and mappings
# of any of these, whose key and value may be named; a mapping of a one-word
# key and value is often a balance or near one. An array of mappings is
# outside the parser's grammar.
_UINT_BITS = "|".join(str(bits) for bits in range(8, 257, 8))
_BALANCE = re.compile(rf"mapping\(address(?:payable)?=>uint(?:{_UINT_BITS})?\)")
_NAMES = re.compile(r"\b(?:who|amount)\b")
_NAME = st.sampled_from([(), ("who",), ("amount",)])
_GAPS = re.compile(r"/\*.*?\*/|//[^\n]*\n|\s+", re.DOTALL)
_ELEMENTARY = st.sampled_from([
    ("address",), ("address", "payable"), ("uint",), ("uint8",), ("uint256",), ("uint7",),
    ("uint264",), ("int",), ("int256",), ("bool",), ("bytes32",), ("string",), ("IERC20",),
])
_PLAIN = st.recursive(
    _ELEMENTARY,
    lambda inner: st.tuples(inner, st.sampled_from([("[", "]"), ("[", "2", "]")]))
    .map(lambda parts: parts[0] + parts[1]),
    max_leaves=3)
_SIMPLE_MAPPINGS = st.tuples(
    st.sampled_from([("address",), ("address", "payable"), ("uint",), ("IERC20",)]), _NAME,
    st.sampled_from([("uint",), ("uint8",), ("uint256",), ("uint7",), ("int",), ("uint", "[", "]")]),
    _NAME,
).map(lambda kv: ("mapping", "(", *kv[0], *kv[1], "=>", *kv[2], *kv[3], ")"))
_TYPES = st.recursive(
    st.one_of(_PLAIN, _SIMPLE_MAPPINGS),
    lambda inner: st.tuples(inner, _NAME, inner, _NAME)
    .map(lambda kv: ("mapping", "(", *kv[0], *kv[1], "=>", *kv[2], *kv[3], ")")),
    max_leaves=5)
_GAP = st.sampled_from(["", " ", "\n", "\t", "\r\n  ", "/* c */", " // x\n"])


@st.composite
def _declared_types(draw) -> str:
    """A type's source text, with a random gap between each two tokens."""
    parts = draw(st.one_of(_SIMPLE_MAPPINGS, _TYPES))
    text = parts[0]
    for part in parts[1:]:
        gap = draw(_GAP)
        if not gap and text[-1].isalnum() and part[0].isalnum():
            gap = " "  # two words need a gap
        text += gap + part
    return text


@given(_declared_types(), _GAP, st.sampled_from(["", "public", "private immutable",
                                                  "override(A, B)"]))
@example("mapping(address payable=>uint)", "", "")
@example("mapping(address=>uint264)", " ", "public")
@example("mapping(address who=>uint amount)", "", "")
@settings(max_examples=300, deadline=None)
def test_the_balance_rule_reads_the_tokens_of_the_declared_type(declared, gap, keywords):
    unit = parse_solidity("contract C { " + declared + " " + gap + keywords + " v; }")
    assert unit.diagnostics == []
    ((var,),) = [contract.state_vars for contract in unit.contracts]
    assert unit.tokens.text(var.type_at, var.type_end) == declared
    balances = collect_state_vars(unit.contracts[0], unit.tokens, [])
    assert ("v" in balances) == bool(_BALANCE.fullmatch(_GAPS.sub("", _NAMES.sub("", declared))))
