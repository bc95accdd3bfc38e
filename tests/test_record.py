"""Nodes, abstract values and analysis records compare by class and fields,
never as bare tuples; mutable fields start fresh in every instance; a
generated constructor takes every slot, a base class's first."""

import pytest

from centriscan.flow import Cfg, GuardednessResult
from centriscan.report import ScanReport
from centriscan.solidity import ast
from centriscan.solidity.parser import parse_solidity
from centriscan.teal.absint import (
    SENDER,
    UNKNOWN,
    AddrConst,
    BlockFacts,
    ByteConst,
    GlobalField,
    GlobalGet,
    IntConst,
    SenderCmp,
)
from centriscan.teal.parser import TealProgram

SOURCE = "contract C { address owner; function f() public { require(msg.sender == owner); } }"


def test_nodes_of_different_classes_with_equal_fields_differ():
    assert ast.Revert(3, 4) != ast.Return(3, 4)
    assert ast.Opaque(3, 4) != ast.OpaqueExpr(3, 4)
    assert ast.Revert(3, 4) != (3, 4)
    assert ast.Revert(3, 4) == ast.Revert(3, 4)
    assert ast.Revert(3, 4) != ast.Revert(3, 5)
    assert ast.Binary(0, 3, "==", ast.MsgSender(0, 1), ast.Identifier(2, 3, "owner")) == \
        ast.Binary(0, 3, "==", ast.MsgSender(0, 1), ast.Identifier(2, 3, "owner"))
    assert ast.Binary(0, 3, "==", ast.MsgSender(0, 1), ast.Identifier(2, 3, "owner")) != \
        ast.Binary(0, 3, "==", ast.MsgSender(0, 1), ast.Identifier(2, 3, "admin"))


def test_values_of_different_classes_with_equal_fields_differ():
    assert ByteConst("x") != AddrConst("x")
    assert GlobalField("x") != GlobalGet("x")
    assert IntConst(0) != ByteConst(0)
    assert SenderCmp(GlobalGet("x"), "eq") != SenderCmp(GlobalField("x"), "eq")
    assert len({ByteConst("x"), AddrConst("x"), GlobalField("x"), GlobalGet("x")}) == 4
    assert SENDER != UNKNOWN


def test_equal_values_hash_equal():
    pairs = [
        (IntConst(5), IntConst(5)),
        (ByteConst("manager"), ByteConst("manager")),
        (GlobalGet("manager"), GlobalGet("manager")),
        (SenderCmp(GlobalGet("manager"), "eq"), SenderCmp(GlobalGet("manager"), "eq", False)),
        (SENDER, SENDER),
    ]
    for a, b in pairs:
        assert a == b and hash(a) == hash(b), a
    assert len({a for pair in pairs for a in pair}) == len(pairs)


def test_nodes_and_analysis_records_are_unhashable():
    # They are mutable; only abstract values (and AnalyzerConfig) hash.
    for record in (ast.Revert(3, 4), BlockFacts(), TealProgram()):
        with pytest.raises(TypeError):
            hash(record)


def test_units_parsed_from_equal_sources_compare_equal():
    a, b = parse_solidity(SOURCE), parse_solidity(SOURCE)
    assert a.tokens is not b.tokens
    assert a == b
    assert a != parse_solidity(SOURCE.replace("owner", "admin"))
    assert "tokens" not in repr(a)


def test_repr_names_class_and_fields():
    assert repr(ast.Identifier(0, 1, "owner")) == "Identifier(at=0, end=1, name='owner')"
    assert repr(SenderCmp(GlobalGet("m"), "neq")) == \
        "SenderCmp(source=GlobalGet(key='m'), polarity='neq', weakened=False)"
    assert ast.Identifier._fields == ("at", "end", "name")


def test_mutable_fields_are_fresh_per_instance():
    a, b = ast.ContractDecl("A", 0), ast.ContractDecl("B", 5)
    a.bases.append("Base")
    a.functions.append(ast.FunctionDecl("f", [], [], 1))
    assert (b.bases, b.functions, b.state_vars, b.modifiers) == ([], [], [], [])
    p, q = TealProgram(), TealProgram()
    p.opcodes.append("int")
    p.labels["x"] = 0
    assert (q.opcodes, q.labels) == ([], {})
    f, g = BlockFacts(), BlockFacts()
    f.guard_points[1] = SenderCmp(SENDER, "eq")
    assert g.guard_points == {} and f != g
    cfg = Cfg([], [])
    v, w = GuardednessResult(cfg), GuardednessResult(cfg)
    v.parents[1] = 0
    assert w.parents == {} and w.verdicts == {}


def test_generated_constructors_take_slots_in_order_base_first():
    base = ast.MsgSender(0, 1)
    node = ast.Member(1, 2, base, "x")
    assert (node.at, node.end, node.base, node.member) == (1, 2, base, "x")
    assert ast.Member(at=1, end=2, base=base, member="x") == node
    report = ScanReport(version="1", config_fingerprint="f", files_scanned=0,
                        findings=[], diagnostics=[], counts={})
    assert (report.version, report.files_scanned, report.counts) == ("1", 0, {})
    assert ScanReport("1", "f", 0, [], [], {}) == report
    assert GlobalGet("k").key == "k" and ByteConst("v").value == "v"


def test_generated_constructors_reject_missing_and_extra_arguments():
    for build in (lambda: ast.Member(1, 2, ast.MsgSender(0, 1)),
                  lambda: ast.Identifier(0, 1, "x", "y"),
                  lambda: ast.Require(0, 1, condition=None, then_body=[]),
                  lambda: IntConst(),
                  lambda: ast.MsgSender(0)):
        with pytest.raises(TypeError):
            build()
    with pytest.raises(TypeError, match=r"Member\.__init__"):
        ast.Member(1, 2)


def test_a_class_without_new_slots_uses_its_bases_constructor():
    node = ast.MsgSender(0, 1)
    assert (node.at, node.end) == (0, 1)
    assert ast.MsgSender.__init__ is ast.Expr.__init__
    assert AddrConst.__init__ is IntConst.__init__


def test_a_class_with_its_own_constructor_keeps_it():
    call = ast.CallExpr(0, 3, ast.Identifier(0, 1, "f"), [])
    assert call.options is None
    assert ast.TypeDesc("uint").key is None
    assert SenderCmp(SENDER, "eq").weakened is False


def test_source_unit_takes_tokens_that_equality_leaves_out():
    tokens = parse_solidity(SOURCE).tokens
    unit = ast.SourceUnit([], [], tokens)
    assert unit.tokens is tokens
    assert unit == ast.SourceUnit([], [], None)
    assert ast.SourceUnit._fields == ("contracts", "diagnostics")
