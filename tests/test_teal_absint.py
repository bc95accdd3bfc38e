"""Abstract stack interpretation: value modeling, guard/fund flags,
conservatism under unknown opcodes and underflows."""

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from centriscan.config import AnalyzerConfig
from centriscan.teal.absint import (
    FACT_OPCODES,
    SENDER,
    UNKNOWN,
    AddrConst,
    BlockFacts,
    ByteConst,
    GlobalField,
    GlobalGet,
    IntConst,
    SenderCmp,
    abstract_exec_block,
)
from centriscan.teal.cfg import build_cfg
from centriscan.teal.parser import OPCODE_STACK_EFFECTS, parse_teal

from helpers import corpus_text
from oracle import reference_exec_block

CONFIG = AnalyzerConfig()


def _facts(source: str, config: AnalyzerConfig = CONFIG):
    """Each block's facts and the program; notes go to program.diagnostics."""
    program = parse_teal(source)
    cfg = build_cfg(program)
    return [abstract_exec_block(b, program, config, program.diagnostics)
            for b in cfg.blocks], program


def test_assert_pattern_flags_guard_point():
    facts, _ = _facts(corpus_text("teal", "row1_assert.teal"))
    guard_indices = list(facts[0].guard_points)
    assert len(guard_indices) == 1
    cmp = facts[0].guard_points[guard_indices[0]]
    assert cmp == SenderCmp(GlobalGet("manager"), "eq")


def test_balance_put_flags_fund_mod():
    facts, program = _facts(corpus_text("teal", "row3_put.teal"))
    mods = [m for f in facts for m in f.fund_mods.values()]
    assert mods == [("app_local_put", "MyBalance")]


def test_int_assert_is_not_a_guard():
    facts, _ = _facts("int 1\nassert")
    assert facts[0].guard_points == {}


def _returned(ops: str):
    """The value `return` pops after running `ops` as the entry block."""
    facts, _ = _facts(f"{ops}\nreturn")
    return facts[0].returned


def test_value_modeling():
    assert _returned("int 5") == IntConst(5)
    assert _returned('byte "key"') == ByteConst("key")
    assert _returned("addr AAAA") == AddrConst("AAAA")
    assert _returned("txn Sender") is SENDER
    assert _returned("txn Fee") is UNKNOWN
    assert _returned("global CreatorAddress") == GlobalField("CreatorAddress")


def test_app_global_get_requires_constant_key():
    assert _returned('byte "owner"\napp_global_get') == GlobalGet("owner")
    assert _returned("load 0\napp_global_get") is UNKNOWN


@pytest.mark.parametrize("constant", [
    "0x4d7942616c616e6365", "base64 TXlCYWxhbmNl", "b64 TXlCYWxhbmNl",
    "base64(TXlCYWxhbmNl)", "b64(TXlCYWxhbmNl)",
])
def test_hex_and_base64_byte_constants_decode(constant):
    assert _returned(f"byte {constant}") == ByteConst("MyBalance")
    assert _returned(f"pushbytes {constant}") == ByteConst("MyBalance")


@pytest.mark.parametrize("constant", [
    "0x4d7", "0xzz", "0xff", "base64 TXl", "base64 TX!lCYWxhbmNl", "b64 TXlC YWxh",
    "base32 JV4UEYLMMFXGGZI", "base64(TXlCYWxhbmNl", "64(TXlCYWxhbmNl)",
])
def test_malformed_or_non_text_byte_constants_stay_unknown(constant):
    # Odd or non-hex digits, bad padding, characters outside the alphabet,
    # bytes that are not UTF-8, base32 and a missing parenthesis.
    assert _returned(f"byte {constant}") is UNKNOWN


@pytest.mark.parametrize("ops, expected", [
    pytest.param("txn Sender\ndup", SENDER, id="dup-top"),
    pytest.param("txn Sender\ndup\npop", SENDER, id="dup-second"),
    pytest.param("int 1\ntxn Sender\ndup2", SENDER, id="dup2-top"),
    pytest.param("int 1\ntxn Sender\ndup2\npop", IntConst(1), id="dup2-second"),
    pytest.param("int 1\ntxn Sender\ndup2\npop\npop", SENDER, id="dup2-third"),
    pytest.param("txn Sender\nint 1\nswap", SENDER, id="swap-top"),
    pytest.param("txn Sender\nint 1\nswap\npop", IntConst(1), id="swap-second"),
])
def test_stack_shuffles_carry_values(ops, expected):
    assert _returned(ops) == expected


def test_creator_address_comparison_is_privileged():
    facts, _ = _facts("global CreatorAddress\ntxn Sender\n==\nassert")
    assert list(facts[0].guard_points.values()) == [
        SenderCmp(GlobalField("CreatorAddress"), "eq")]


def test_addr_constant_comparison_is_privileged():
    facts, _ = _facts("addr SUPERUSERADDR\ntxn Sender\n==\nassert")
    assert list(facts[0].guard_points.values()) == [
        SenderCmp(AddrConst("SUPERUSERADDR"), "eq")]


def test_self_comparison_is_not_sender_cmp():
    facts, _ = _facts("txn Sender\ntxn Sender\n==\nassert")
    assert facts[0].guard_points == {}


def test_non_owner_key_comparison_is_not_privileged():
    facts, _ = _facts('byte "color"\napp_global_get\ntxn Sender\n==\nassert')
    assert facts[0].guard_points == {}


def test_gtxn_sender_is_the_sender():
    facts, _ = _facts('byte "manager"\napp_global_get\ngtxn 0 Sender\n==\nassert')
    assert list(facts[0].guard_points.values()) == [SenderCmp(GlobalGet("manager"), "eq")]
    assert _returned("gtxn 0 Sender") is SENDER
    assert _returned("gtxn 0 Fee") is UNKNOWN


def test_and_propagates_sender_cmp():
    facts, _ = _facts(
        'byte "manager"\napp_global_get\ntxn Sender\n==\nint 1\n&&\nassert')
    cmp = list(facts[0].guard_points.values())[0]
    assert cmp == SenderCmp(GlobalGet("manager"), "eq")
    assert not cmp.weakened


def test_or_propagation_marks_weakened():
    facts, _ = _facts(
        'byte "manager"\napp_global_get\ntxn Sender\n==\nint 1\n||\nassert')
    cmp = list(facts[0].guard_points.values())[0]
    assert cmp.weakened


def test_neq_comparison_records_polarity():
    facts, _ = _facts('byte "manager"\napp_global_get\ntxn Sender\n!=\nbz ok\nok:\nint 1\nreturn')
    assert facts[0].branch_guard == SenderCmp(GlobalGet("manager"), "neq")


def test_not_flips_sender_cmp_polarity():
    cmp = SenderCmp(GlobalField("CreatorAddress"), "eq")
    facts, _ = _facts("txn Sender\nglobal CreatorAddress\n==\n!\nassert")
    assert list(facts[0].guard_points.values()) == [SenderCmp(cmp.source, "neq")]
    facts, _ = _facts("txn Sender\nglobal CreatorAddress\n!=\n!\nassert")
    assert list(facts[0].guard_points.values()) == [cmp]
    facts, _ = _facts("txn Sender\nglobal CreatorAddress\n==\nint 1\n||\n!\nassert")
    assert list(facts[0].guard_points.values()) == [
        SenderCmp(cmp.source, "neq", weakened=True)]
    assert _returned("int 1\n!") is UNKNOWN


def test_bz_popping_sender_cmp_marks_conditional_guard_block():
    facts, _ = _facts(corpus_text("teal", "row2_branch.teal"))
    assert facts[0].branch_guard is not None


def test_balance_key_substring_rule():
    source = 'int 0\nbyte "userBalance"\nint 5\napp_local_put'
    facts, _ = _facts(source)
    assert list(facts[0].fund_mods.values()) == [("app_local_put", "userBalance")]
    facts_listed_elsewhere, _ = _facts(source, CONFIG._replace(balance_keys=("Vault",)))
    assert facts_listed_elsewhere == facts


def test_non_constant_key_never_flags_and_notes():
    facts, program = _facts("load 0\nint 5\napp_global_put")
    assert facts[0].fund_mods == {}
    assert any("non-constant key" in d.message for d in program.diagnostics)


def test_entry_block_underflow_diagnosed_without_crash():
    facts, program = _facts(
        "pop\ntxn Sender\nglobal CreatorAddress\n==\nassert\nint 1\nreturn")
    assert [(d.message, d.line) for d in program.diagnostics] == [
        ("stack underflow in abstract interpretation; block state unknown", 1)]
    # The program fails at the underflow, so nothing after it is read.
    assert facts[0].guard_points == {}
    assert facts[0].returned is None


def test_unknown_opcode_empties_the_stack():
    # What the opcode consumed is unknown, so no value pushed before it
    # reaches a later instruction; the rest of the block runs bottomless.
    facts, program = _facts("txn Sender\nglobal CreatorAddress\nmystery\n==\nassert")
    assert facts[0].guard_points == {}
    assert _returned("int 1\nmystery") is UNKNOWN
    facts, program = _facts(
        'mystery\ntxn Sender\nglobal CreatorAddress\n==\nassert\n'
        'byte "MyBalance"\nint 5\napp_global_put\nint 1\nreturn')
    assert facts[0].guard_points == {4: SenderCmp(GlobalField("CreatorAddress"), "eq")}
    assert facts[0].fund_mods == {7: ("app_global_put", "MyBalance")}
    assert facts[0].returned == IntConst(1)
    facts, program = _facts("mystery\npop\npop\nint 1\nreturn")
    assert facts[0].returned == IntConst(1)
    assert not any("underflow" in d.message for d in program.diagnostics)


def test_entry_block_partial_underflow_keeps_what_was_popped():
    # The put pops its value and key, then underflows on the missing account:
    # the key is known, so the write is a fund mod, and the underflow noted
    # at the block's first line. The program fails there: `return` is not read.
    facts, program = _facts('byte "MyBalance"\nint 5\napp_local_put\nint 1\nreturn')
    assert facts[0].fund_mods == {2: ("app_local_put", "MyBalance")}
    assert facts[0].returned is None
    assert [(d.message, d.line) for d in program.diagnostics] == [
        ("stack underflow in abstract interpretation; block state unknown", 1)]


def test_non_entry_block_pops_unknown_without_diagnostic():
    _, program = _facts("int 1\nbz merge\nmerge:\nassert\nint 1\nreturn")
    assert not any("underflow" in d.message for d in program.diagnostics)


_MODEL_OPS = [
    "int 1", 'byte "manager"', 'byte "MyBalance"', "addr AAAA", "txn Sender",
    "global CreatorAddress", "app_global_get", "app_global_put", "==", "!=", "&&",
    "||", "!", "dup", "dup2", "swap", "pop", "assert", "bnz end", "return",
]
_UNKNOWN_OPS = ["mystery", "itxn_begin", "frobnicate 3"]


def _merged_facts(source: str):
    """Guard points, fund mods, and each block's branch guard and returned
    value keyed by its last instruction, over all blocks; and whether the
    entry block underflowed."""
    facts, program = _facts(source)
    guards, funds, ends = {}, {}, {}
    for block_facts in facts:
        guards.update(block_facts.guard_points)
        funds.update(block_facts.fund_mods)
    for block, block_facts in zip(build_cfg(program).blocks, facts):
        ends[block[-1]] = (block_facts.branch_guard, block_facts.returned)
    underflowed = any("underflow" in d.message for d in program.diagnostics)
    return guards, funds, ends, underflowed


@given(st.lists(st.sampled_from(_MODEL_OPS + _UNKNOWN_OPS), min_size=1, max_size=15))
@settings(max_examples=300, deadline=None)
def test_label_after_unknown_opcode_changes_no_fact(lines):
    # An opcode of unknown arity leaves the stack as a block start does: a
    # label right after it, which starts a new bottomless block there, changes
    # nothing. Ends are compared where both runs split the blocks alike. An
    # entry-block underflow before the opcode ends the run there, but the
    # labelled block would still be read, so such programs are left out.
    labelled = []
    for k, line in enumerate(lines):
        labelled.append(line)
        if line in _UNKNOWN_OPS:
            labelled.append(f"U{k}:")
    tail = "\nend:\nint 1\nreturn"
    guards, funds, ends, underflowed = _merged_facts("\n".join(lines) + tail)
    assume(not underflowed)
    guards_l, funds_l, ends_l, _ = _merged_facts("\n".join(labelled) + tail)
    assert (guards, funds) == (guards_l, funds_l)
    for index, end in ends.items():
        assert ends_l[index] == end


_EXEC_OPS = _MODEL_OPS + _UNKNOWN_OPS + [
    "app_local_put", "int 0", "pushint 2", 'pushbytes "owner"', "gtxn 0 Sender",
    "gtxn 1 Fee", "txn Fee", "byte 0x6f776e6572", "b64 TXlCYWxhbmNl", "+",
    "load 0", "store 0", "app_local_get", "divmodw", "bz end", 'byte "Vault"',
]


@given(st.lists(st.sampled_from(_EXEC_OPS), min_size=1, max_size=25), st.booleans(),
       st.sampled_from([CONFIG.balance_keys, ("Vault",)]))
@settings(max_examples=500, deadline=None)
def test_block_facts_match_reference_interpreter(lines, entry, balance_keys):
    # One block over the whole list, terminators included: the entry block's
    # strict stack, or a successor's bottomless one after a leading `nop`.
    # "Vault" is a balance key only when listed.
    config = CONFIG._replace(balance_keys=balance_keys)
    program = parse_teal("\n".join(lines if entry else ["nop", *lines]))
    start = 0 if entry else 1
    block = range(start, len(program.opcodes))
    got_diagnostics, want_diagnostics = [], []
    got = abstract_exec_block(block, program, config, got_diagnostics)
    want = reference_exec_block(block, program, config, want_diagnostics)
    assert got == want
    assert got_diagnostics == want_diagnostics


_FACT_FREE_OPS = [line for line in _EXEC_OPS if line.split()[0] not in FACT_OPCODES]
_FACT_OPS = [line for line in _EXEC_OPS if line.split()[0] in FACT_OPCODES]


@given(st.lists(st.sampled_from(_FACT_FREE_OPS), min_size=1, max_size=25),
       st.lists(st.sampled_from(_FACT_OPS), max_size=1), st.integers(min_value=0))
@settings(max_examples=500, deadline=None)
def test_non_entry_block_without_fact_opcodes_matches_reference(lines, fact, at):
    # A block other than entry with no fact opcode is skipped unread, so it
    # decodes no constant; with one fact opcode put back it is read.
    at %= len(lines) + 1
    program = parse_teal("\n".join(["nop", *lines[:at], *fact, *lines[at:]]))
    block = range(1, len(program.opcodes))
    got_diagnostics, want_diagnostics = [], []
    got = abstract_exec_block(block, program, CONFIG, got_diagnostics)
    want = reference_exec_block(block, program, CONFIG, want_diagnostics)
    assert got == want
    assert got_diagnostics == want_diagnostics
    if not fact:
        assert program.constants == {}


def test_fact_opcodes_are_the_opcodes_that_make_a_fact():
    # Each opcode runs in a block other than entry twice: last, after a
    # balance put's account, key and value; and first, before an asserted
    # creator comparison. An opcode that makes a fact or a note in the
    # reference must be a fact opcode, or the blocks holding it are skipped.
    makers = set()
    for opcode in OPCODE_STACK_EFFECTS:
        for immediates in ("", " Sender", " 0 Sender"):
            instruction = opcode + immediates
            for body in ('int 0\nbyte "MyBalance"\nint 1\n' + instruction,
                         instruction + "\nglobal CreatorAddress\n==\nassert"):
                program = parse_teal("nop\n" + body)
                diagnostics = []
                facts = reference_exec_block(range(1, len(program.opcodes)), program,
                                             CONFIG, diagnostics)
                if facts != BlockFacts() or diagnostics:
                    makers.add(opcode)
    assert makers <= FACT_OPCODES, makers - FACT_OPCODES


def test_decoded_constants_leave_program_equality():
    # Each (opcode, immediates) is decoded once into the program's memo,
    # which equality does not read.
    source = 'int 1\nbyte "owner"\napp_global_get\nint 1\ntxn Sender\n==\nassert\nint 1\nreturn'
    interpreted = parse_teal(source)
    for block in build_cfg(interpreted).blocks:
        abstract_exec_block(block, interpreted, CONFIG, [])
    assert interpreted.constants == {
        ("int", ("1",)): IntConst(1), ("byte", ('"owner"',)): ByteConst("owner"),
        ("txn", ("Sender",)): SENDER}
    assert interpreted == parse_teal(source)
