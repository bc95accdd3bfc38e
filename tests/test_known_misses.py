"""Ledger of declaration-level Solidity shapes the analyzer misgrades today,
each next to the negatives its fix must keep.

A row holds a source, the (kind, severity, line) findings it should get
and the ROADMAP item whose fix decides it. A row that fails today is a
strict xfail with that item as its reason, so it turns into a failure,
and has to become a plain row, the moment its fix lands. The plain rows
are negatives and neighbouring positives: a fix that reaches too far
fails one of them. Run with `-rx` to list the known misses.
"""

import pytest

from centriscan.config import AnalyzerConfig
from centriscan.engine import analyze_solidity_source

CONFIG = AnalyzerConfig()

MAJOR = ("CENTRALIZATION_RISK", "MAJOR")
WARNING = ("UNPROTECTED_FUND_MODIFICATION", "WARNING")
INFO = ("PRIVILEGED_FUNCTION", "INFO")

# Every row's contract opens with these two lines, so its drain is on line 3
# unless the row says otherwise.
_STATE = "contract Vault {\naddress owner; uint x; mapping(address => uint) bals;\n"
_PARENT = """contract Ownable {{ address owner; uint x; modifier onlyOwner() {{ {check} _; }} }}
contract Vault is Ownable {{ mapping(address => uint) bals;
function drain(address to) public onlyOwner {{ bals[to] = 0; }} }}
"""


def _drain(guard: str) -> str:
    return _STATE + f"function drain(address to) public {{ {guard} bals[to] = 0; }}\n}}\n"


def _miss(item: int, name: str, source: str, expected: list):
    return pytest.param(source, expected, id=f"item{item}-{name}", marks=pytest.mark.xfail(
        strict=True, reason=f"ROADMAP item {item}"))


def _holds(item: int, name: str, source: str, expected: list):
    # item: the ROADMAP item whose fix must leave this row as it is.
    return pytest.param(source, expected, id=f"item{item}-{name}")


_ROWS = [
    # Item 4: guards declared in a parent contract or an internal helper.
    _miss(4, "parent-onlyOwner",
          _PARENT.format(check="require(msg.sender == owner);"), [(*MAJOR, 3)]),
    _miss(4, "checkOwner-helper", _STATE
          + "function _checkOwner() internal view { require(msg.sender == owner); }\n"
          + "function drain(address to) public { _checkOwner(); bals[to] = 0; }\n}\n",
          [(*INFO, 3), (*MAJOR, 4)]),
    _holds(4, "same-file-modifier", _STATE
           + "modifier onlyOwner() { require(msg.sender == owner); _; }\n"
           + "function drain(address to) public onlyOwner { bals[to] = 0; }\n}\n",
           [(*MAJOR, 4)]),
    _holds(4, "parent-onlyOwner-no-sender-check",
           _PARENT.format(check="require(x < 10);"),
           [(*WARNING, 3)]),
    _holds(4, "helper-returns-check", _STATE
           + "function _isOwner() internal view returns (bool) { return msg.sender == owner; }\n"
           + "function drain(address to) public { _isOwner(); bals[to] = 0; }\n}\n",
           [(*WARNING, 4)]),
    # Item 8: library contracts and their accessors.
    _miss(8, "imported-onlyOwner",
          'import "@openzeppelin/contracts/access/Ownable.sol";\n'
          + "contract Vault is Ownable { mapping(address => uint) bals;\n"
          + "function drain(address to) public onlyOwner { bals[to] = 0; } }\n",
          [(*MAJOR, 3)]),
    _miss(8, "msgSender-owner-accessors", _drain("require(_msgSender() == owner());"),
          [(*MAJOR, 3)]),
    # Item 7: a guard is only a check that a stranger cannot pass.
    _miss(7, "sender-check-or-anything", _drain("require(msg.sender == owner || x < 10);"),
          [(*WARNING, 3)]),
    _miss(7, "sender-against-parameter", _drain("require(msg.sender == to);"),
          [(*WARNING, 3)]),
    # Item 7 too: a cast of the sender is the sender, and never a comparand.
    _holds(7, "address-cast-sender", _drain("require(address(msg.sender) == owner);"),
           [(*MAJOR, 3)]),
    _holds(7, "payable-cast-sender", _drain("require(payable(msg.sender) == owner);"),
           [(*MAJOR, 3)]),
    _holds(7, "sender-against-own-cast",
           _drain("require(address(msg.sender) == msg.sender);"), [(*WARNING, 3)]),
]


@pytest.mark.parametrize("source, expected", _ROWS)
def test_known_miss(source, expected):
    findings, _ = analyze_solidity_source(source, "vault.sol", CONFIG)
    assert [(f.kind, f.severity, f.line) for f in findings] == expected
