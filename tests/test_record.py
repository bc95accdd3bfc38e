"""Nodes, abstract values and analysis records compare by class and fields,
never as bare tuples; mutable fields start fresh in every instance."""

import pytest

from centriscan.flow import Cfg, GuardednessResult
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
