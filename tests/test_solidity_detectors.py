"""Guard/fund-site detection and per-function pairing on the Solidity AST."""

import random
from dataclasses import replace

from centriscan.config import AnalyzerConfig
from centriscan.engine import analyze_solidity_source
from centriscan.solidity.detectors import (
    BALANCE_MAPPING_WRITE,
    IF_GUARD,
    MODIFIER_GUARD,
    NATIVE_TRANSFER,
    REQUIRE_GUARD,
    SELF_DESTRUCT,
    find_fund_modifications,
    find_sender_guards,
    pair_detections,
)
from centriscan.solidity.symbols import collect_state_vars

from helpers import corpus_text, parse_single_contract

CONFIG = AnalyzerConfig()


def _analyze(source: str, config: AnalyzerConfig = CONFIG):
    contract = parse_single_contract(source)
    symbols = collect_state_vars(contract)
    guards = find_sender_guards(contract, config)
    funds = find_fund_modifications(contract, symbols, config)
    return contract, guards, funds


def _at(decl) -> tuple[int, int]:
    return decl.line, decl.column


def test_row1_modifier_guard():
    contract, guards, funds = _analyze(corpus_text("solidity", "row1_only_owner.sol"))
    assert [g.form for g in guards] == [MODIFIER_GUARD]
    assert guards[0].enclosing_at == _at(contract.modifiers[0])
    assert funds == []


def test_row2_require_guard():
    contract, guards, funds = _analyze(corpus_text("solidity", "row2_require.sol"))
    assert [g.form for g in guards] == [REQUIRE_GUARD]
    assert guards[0].enclosing_at == _at(contract.functions[0])
    assert funds == []


def test_row3_if_guard():
    contract, guards, funds = _analyze(corpus_text("solidity", "row3_if.sol"))
    assert [g.form for g in guards] == [IF_GUARD]
    assert guards[0].enclosing_at == _at(contract.functions[0])
    assert funds == []


def test_row4_balance_write():
    _, guards, funds = _analyze(corpus_text("solidity", "row4_balance.sol"))
    assert guards == []
    assert [(s.kind, s.text) for s in funds] == [
        (BALANCE_MAPPING_WRITE, "bals[msg.sender] = bals[msg.sender].add(1);")]


def test_non_sender_require_is_not_a_guard():
    _, guards, _ = _analyze(
        "contract C { uint a; uint b; function f() public { require(a == b); } }")
    assert guards == []


def test_self_comparison_is_not_a_guard():
    _, guards, _ = _analyze(
        "contract C { function f() public { require(msg.sender == msg.sender); } }")
    assert guards == []


def test_guard_found_under_boolean_connectives():
    _, guards, _ = _analyze(
        "contract C { address owner; uint a; function f() public {"
        " require(a > 1 && (owner == msg.sender)); } }")
    assert [g.form for g in guards] == [REQUIRE_GUARD]


def test_revert_guard_counts_as_require_form():
    source = ("contract C { address owner; function f() public {"
              " if (msg.sender != owner) { revert; } } }")
    _, guards, _ = _analyze(source)
    assert [g.form for g in guards] == [REQUIRE_GUARD]
    _, guards_off, _ = _analyze(source, replace(CONFIG, revert_guard=False))
    assert guards_off == []


def test_neq_without_revert_is_not_a_guard():
    _, guards, _ = _analyze(
        "contract C { address owner; function f() public {"
        " if (msg.sender != owner) { x = 1; } } }")
    assert guards == []


def test_tx_origin_flag():
    source = ("contract C { address owner; function f() public {"
              " require(tx.origin == owner); } }")
    _, guards_off, _ = _analyze(source)
    assert guards_off == []
    _, guards_on, _ = _analyze(source, replace(CONFIG, tx_origin=True))
    assert [g.form for g in guards_on] == [REQUIRE_GUARD]


def test_non_mapping_write_is_not_a_fund_site():
    _, _, funds = _analyze(
        "contract C { uint x; function f() public { x = 1; } }")
    assert funds == []


def test_selfdestruct_site():
    _, _, funds = _analyze(
        "contract C { address owner; function f() public {"
        " selfdestruct(payable(owner)); } }")
    assert [s.kind for s in funds] == [SELF_DESTRUCT]


def test_native_transfer_sites():
    source = ("contract C { function f(address payable to, uint amt) public {"
              " to.transfer(amt);"
              ' to.call{value: amt}("");'
              " } }")
    _, _, funds = _analyze(source)
    assert [s.kind for s in funds] == [NATIVE_TRANSFER, NATIVE_TRANSFER]
    _, _, funds_off = _analyze(source, replace(CONFIG, native_transfer=False))
    assert funds_off == []


def test_send_in_require_condition_is_found():
    _, _, funds = _analyze(
        "contract C { function f(address payable to) public {"
        " require(to.send(1)); } }")
    assert [s.kind for s in funds] == [NATIVE_TRANSFER]


def test_nested_mapping_write_requires_config():
    source = ("contract C { mapping(address => mapping(address => uint)) allow;"
              " function f(address a, address b) public { allow[a][b] = 1; } }")
    _, _, funds = _analyze(source)
    assert funds == []
    _, _, funds_on = _analyze(source, replace(CONFIG, nested_mappings=True))
    assert [(s.kind, s.text) for s in funds_on] == [(BALANCE_MAPPING_WRITE, "allow[a][b] = 1;")]


def test_if_scope_covers_then_branch_only():
    contract, guards, funds = _analyze(
        "contract C { mapping(address => uint) bals; address owner;"
        " function f() public {"
        " if (msg.sender == owner) { bals[owner] = 1; }"
        " bals[owner] = 2; } }")
    # The detectors find the guard and both writes; pairing them is scoped
    # per function, so the write after the block counts as guarded too.
    assert [g.form for g in guards] == [IF_GUARD]
    assert [s.text for s in funds] == ["bals[owner] = 1;", "bals[owner] = 2;"]


def test_eq_comparison_preferred_over_earlier_neq():
    _, guards, _ = _analyze(
        "contract C { address a; address b; function f() public {"
        " if (msg.sender != a && msg.sender == b) { } } }")
    assert [g.form for g in guards] == [IF_GUARD]


def test_else_branch_is_not_guarded_by_condition():
    _, _, funds = _analyze(
        "contract C { mapping(address => uint) bals; address owner;"
        " function f() public {"
        " if (msg.sender == owner) { } else { bals[owner] = 1; } } }")
    assert [s.text for s in funds] == ["bals[owner] = 1;"]


def test_pairing_row1_plus_row4():
    contract, guards, funds = _analyze(corpus_text("solidity", "owner_drain.sol"))
    detections = pair_detections(contract, guards, funds)
    assert len(detections) == 1
    det = detections[0]
    assert det.guard_sites
    assert det.function == "fun"
    assert len(det.fund_sites) == 1 and len(det.guard_sites) == 1


def test_pairing_guard_only_function():
    contract, guards, funds = _analyze(corpus_text("solidity", "row2_require.sol"))
    detections = pair_detections(contract, guards, funds)
    assert len(detections) == 1
    assert detections[0].guard_sites and detections[0].fund_sites == []


def test_pairing_unguarded_write():
    # Hand-evaluated pairing rule: no guards anywhere, one fund site in `fun`.
    contract, guards, funds = _analyze(corpus_text("solidity", "row4_balance.sol"))
    detections = pair_detections(contract, guards, funds)
    assert len(detections) == 1
    det = detections[0]
    assert not det.guard_sites
    assert len(det.fund_sites) == 1 and det.guard_sites == []


def test_pairing_keeps_overloads_on_one_line_apart():
    source = ("contract C { mapping(address => uint) b; address owner; "
              "function f() public { require(msg.sender == owner); } "
              "function f(uint x) public { b[msg.sender] = x; } }")
    findings, _ = analyze_solidity_source(source, "c.sol", CONFIG)
    assert [(f.kind, f.line, f.column) for f in findings] == [
        ("PRIVILEGED_FUNCTION", 1, 57),
        ("UNPROTECTED_FUND_MODIFICATION", 1, 111),
    ]
    assert [[e.role for e in f.evidence] for f in findings] == [
        ["guard"], ["fund_modification"]]


def test_pairing_micro_corpus_privilege_matrix():
    # Four functions: guarded+write, guarded only, write only, neither.
    contract, guards, funds = _analyze("""
        contract M {
            address owner;
            mapping(address => uint) bals;
            modifier only_owner { require(msg.sender == owner); _; }
            function gw(address t) public only_owner { bals[t] = 1; }
            function g() public only_owner { }
            function w(address t) public { bals[t] = 2; }
            function n() public { }
        }
    """)
    detections = {d.function: d for d in pair_detections(contract, guards, funds)}
    assert set(detections) == {"gw", "g", "w"}
    assert detections["gw"].guard_sites and len(detections["gw"].fund_sites) == 1
    assert detections["g"].guard_sites and not detections["g"].fund_sites
    assert not detections["w"].guard_sites and len(detections["w"].fund_sites) == 1


def test_unknown_modifier_invocation_diagnosed():
    contract, guards, funds = _analyze(
        "contract C { mapping(address => uint) bals;"
        " function f(address t) public ghost { bals[t] = 1; } }")
    diagnostics = []
    detections = pair_detections(contract, guards, funds, diagnostics)
    assert len(diagnostics) == 1 and "ghost" in diagnostics[0].message
    assert not detections[0].guard_sites


def test_detection_order_is_sorted_and_deterministic():
    source = corpus_text("solidity", "owner_drain.sol")
    runs = []
    for _ in range(2):
        contract, guards, funds = _analyze(source)
        runs.append([(g.line, g.column, g.form) for g in guards]
                    + [(s.line, s.column, s.kind) for s in funds])
        assert runs[0] == runs[-1]
        assert runs[0] == sorted(runs[0], key=lambda t: (t[0], t[1]))


def _random_contract(rng: random.Random, guarded_functions: set[int], n: int) -> str:
    lines = ["contract R {", "    address owner;", "    mapping(address => uint) bals;"]
    for i in range(n):
        lines.append(f"    function f{i}(address t) public {{")
        if i in guarded_functions:
            lines.append("        require(msg.sender == owner);")
        if rng.random() < 0.7:
            lines.append("        bals[t] = bals[t].add(1);")
        lines.append("    }")
    lines.append("}")
    return "\n".join(lines)


def test_privilege_monotonicity_random_contracts():
    rng = random.Random(7)
    for _ in range(25):
        n = rng.randint(1, 6)
        guarded = {i for i in range(n) if rng.random() < 0.5}
        extra = rng.randrange(n)

        def privileged_set(guard_ids):
            contract, guards, funds = _analyze(_random_contract(random.Random(1), guard_ids, n))
            return {d.function for d in pair_detections(contract, guards, funds)
                    if d.guard_sites}

        base = privileged_set(guarded)
        assert privileged_set(guarded | {extra}) >= base  # adding never shrinks
        assert privileged_set(set()) == set()  # deleting all guards clears privilege


# Guards are paired by the position of their declaration. Each source maps
# the position of every detected function to the positions of its guards.
PAIRING_SHAPES = [
    # A modifier declared after the function that invokes it.
    ("contract C { address owner;\n"
     "function f() public late { }\n"
     "modifier late { require(msg.sender == owner); _; } }",
     {(2, 1): [(3, 17)]}),
    # Two modifiers with one name: the guards of both attach.
    ("contract C { address a; address b;\n"
     "modifier m { require(msg.sender == a); _; }\n"
     "modifier m { require(msg.sender == b); _; }\n"
     "function f() public m { } }",
     {(4, 1): [(2, 14), (3, 14)]}),
    # Two overloads on one line, each with its own guard.
    ("contract C { address a; address b;\n"
     "function f() public { require(msg.sender == a); } "
     "function f(uint x) public { require(msg.sender == b); } }",
     {(2, 1): [(2, 23)], (2, 51): [(2, 79)]}),
]


def test_pairing_keys_guards_by_declaration():
    for source, expected in PAIRING_SHAPES:
        contract, guards, funds = _analyze(source)
        paired = {(d.line, d.column): [(g.line, g.column) for g in d.guard_sites]
                  for d in pair_detections(contract, guards, funds)}
        assert paired == expected, source


def test_base_constructor_with_named_arguments_keeps_the_contract():
    findings, diagnostics = analyze_solidity_source(
        "contract A is B({owner: msg.sender}) { mapping(address=>uint) bals; "
        "function f(address to) public { require(msg.sender == owner); bals[to] = 0; } }",
        "a.sol", CONFIG)
    assert [f.kind for f in findings] == ["CENTRALIZATION_RISK"]
    assert diagnostics == []
