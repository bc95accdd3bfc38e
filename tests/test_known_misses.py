"""Ledger of Solidity and TEAL shapes the analyzer misgrades today, each
next to the negatives its fix must keep.

A row holds the analyzer of its language, a source, the (kind, severity,
line) findings it should get and the ROADMAP item whose fix decides it. A row that fails today is a
strict xfail with that item as its reason, so it turns into a failure,
and has to become a plain row, the moment its fix lands. The plain rows
are negatives and neighbouring positives: a fix that reaches too far
fails one of them. Run with `-rx` to list the known misses.
"""

import pytest

from centriscan.config import AnalyzerConfig
from centriscan.engine import analyze_solidity_source, analyze_teal_source

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


def _miss(item: int, name: str, source: str, expected: list, analyze=analyze_solidity_source):
    return pytest.param(analyze, source, expected, id=f"item{item}-{name}",
                        marks=pytest.mark.xfail(strict=True, reason=f"ROADMAP item {item}"))


def _holds(item: int, name: str, source: str, expected: list, analyze=analyze_solidity_source):
    # item: the ROADMAP item whose fix must leave this row as it is.
    return pytest.param(analyze, source, expected, id=f"item{item}-{name}")


# A TEAL row's program: a creator assert, then the balance put on line 8.
_CREATOR = "txn Sender\nglobal CreatorAddress\n==\nassert\n"
_PUT = 'byte "MyBalance"\nint 5\napp_global_put\n'
_ACCEPT = "int 1\nreturn\n"
# Dispatch on the first argument: "setmgr" sets the manager (after the
# given guard), anything else is a balance put behind a manager assert,
# on line 13.
_MANAGER = ("#pragma version 6\ntxna ApplicationArgs 0\nbyte \"setmgr\"\n==\nbnz setmgr\n"
            'byte "manager"\napp_global_get\ntxn Sender\n==\nassert\n' + _PUT + _ACCEPT
            + 'setmgr:\n{guard}byte "manager"\ntxn Sender\napp_global_put\n' + _ACCEPT)
# Dispatch on the first argument: `name` runs the body, from line 9, in a
# block other than entry; anything else is accepted.
_BRANCH = ('#pragma version 6\ntxna ApplicationArgs 0\nbyte "{name}"\n==\nbnz {name}\n'
           + _ACCEPT + "{name}:\n{body}" + _ACCEPT)
# An application call on completion `action` runs a creator assert and is
# accepted on line 14.
_ON_COMPLETION = ("#pragma version 6\ntxn OnCompletion\nint {action}\n==\nbnz update\n"
                  + _ACCEPT + "update:\n" + _CREATOR + _ACCEPT)
_INNER_PAY = ("itxn_begin\nint pay\nitxn_field TypeEnum\ntxna Accounts 1\nitxn_field Receiver\n"
              "int 1000\nitxn_field Amount\nitxn_submit\n")


def _roles(guard: str) -> str:
    """A drain on line 4, after a role mapping."""
    return (_STATE + "mapping(address => bool) admins;\n"
            + f"function drain(address to) public {{ {guard} bals[to] = 0; }}\n}}\n")


def _payout(body: str, returns: str = "") -> str:
    """A function on line 3 that may send to `to`."""
    return _STATE + f"function f(address payable to) public{returns} {{ {body} }}\n}}\n"


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
    _miss(7, "de-morgan-sender-check-or-anything",
          _drain("require(!(msg.sender != owner && x > 0));"), [(*WARNING, 3)]),
    _holds(7, "de-morgan-sender-check-and-anything",
           _drain("require(!(msg.sender != owner || x > 0));"), [(*MAJOR, 3)]),
    _miss(7, "role-mapping-of-sender", _roles("require(admins[msg.sender]);"),
          [(*MAJOR, 4)]),
    _holds(7, "role-mapping-of-parameter", _roles("require(admins[to]);"),
           [(*WARNING, 4)]),
    # Item 5: a guard is only as strong as the writes to its owner.
    _miss(5, "unguarded-initWallet", _STATE
          + "function initWallet(address o) public { owner = o; }\n"
          + "function drain(address to) public { require(msg.sender == owner); bals[to] = 0; }\n}\n",
          [(*WARNING, 4)]),
    _holds(5, "owner-set-in-constructor", _STATE + "constructor(address o) { owner = o; }\n"
           + "function drain(address to) public { require(msg.sender == owner); bals[to] = 0; }\n}\n",
           [(*MAJOR, 4)]),
    _holds(5, "owner-set-by-owner", _STATE
           + "function setOwner(address o) public { require(msg.sender == owner); owner = o; }\n"
           + "function drain(address to) public { require(msg.sender == owner); bals[to] = 0; }\n}\n",
           [(*INFO, 3), (*MAJOR, 4)]),
    # Item 9: code replacement.
    _miss(9, "unguarded-delegatecall", _STATE
          + "address impl;\nfunction exec(bytes memory data) public { impl.delegatecall(data); }\n}\n",
          [(*WARNING, 4)]),
    _holds(9, "unguarded-staticcall", _STATE
           + "address impl;\nfunction exec(bytes memory data) public { impl.staticcall(data); }\n}\n",
           []),
    # Item 13: ordinary statements that hide a fund move.
    _miss(13, "return-send", _payout("return to.send(1);", " returns (bool)"),
          [(*WARNING, 3)]),
    _holds(13, "send-statement", _payout("to.send(1);"), [(*WARNING, 3)]),
    _miss(13, "tuple-value-call",
          _payout('(bool ok, ) = to.call{value: 1}("");'), [(*WARNING, 3)]),
    _holds(13, "value-call-statement", _payout('to.call{value: 1}("");'),
           [(*WARNING, 3)]),
    _miss(13, "postfix-increment-in-expression",
          _payout("x = bals[to]++;"), [(*WARNING, 3)]),
    _holds(13, "postfix-increment-statement", _payout("bals[to]++;"),
           [(*WARNING, 3)]),
    _miss(13, "guarded-write-in-for-loop", _STATE + "function drain(address to) public { "
          + "require(msg.sender == owner); for (uint i = 0; i < 3; i++) { bals[to] = 0; } }\n}\n",
          [(*MAJOR, 3)]),
    _holds(13, "guarded-for-loop-without-write", _STATE + "function drain(address to) public { "
           + "require(msg.sender == owner); for (uint i = 0; i < 3; i++) { x = i; } }\n}\n",
           [(*INFO, 3)]),
    # Item 3: a write is guarded when every path to it crosses a guard, not
    # when its function holds one.
    _miss(3, "write-after-sender-if", _drain("if (msg.sender == owner) { owner = to; }"),
          [(*WARNING, 3)]),
    _miss(3, "require-under-unrelated-if", _drain("if (x > 0) { require(msg.sender == owner); }"),
          [(*WARNING, 3)]),
    _miss(3, "stranger-returns-early", _drain("if (msg.sender != owner) { return; }"),
          [(*MAJOR, 3)]),
    _holds(3, "stranger-reverts", _drain("if (msg.sender != owner) { revert(); }"),
           [(*MAJOR, 3)]),
    _holds(3, "require-then-unrelated-if",
           _drain("require(msg.sender == owner); if (x > 0) { owner = to; }"), [(*MAJOR, 3)]),
    _holds(3, "unrelated-early-return", _drain("if (x > 0) { return; }"), [(*WARNING, 3)]),
    # TEAL. Item 2: subroutines and multi-way branches.
    _miss(2, "teal-callsub-creator-guarded-put",
          "#pragma version 6\ncallsub credit\n" + _ACCEPT + "credit:\n" + _CREATOR + _PUT
          + "retsub\n", [(*MAJOR, 12)], analyze_teal_source),
    _miss(2, "teal-switch-creator-guarded-put",
          "#pragma version 8\ntxn OnCompletion\nswitch main del\nerr\nmain:\n" + _CREATOR
          + _PUT + _ACCEPT + "del:\nint 0\nreturn\n", [(*MAJOR, 12)], analyze_teal_source),
    _holds(2, "teal-creator-asserted-put", "#pragma version 6\n" + _CREATOR + _PUT + _ACCEPT,
           [(*MAJOR, 8)], analyze_teal_source),
    # Item 5: a guard is only as strong as the writes to its owner.
    _miss(5, "teal-unguarded-setmgr", _MANAGER.format(guard=""), [(*WARNING, 13)],
          analyze_teal_source),
    _holds(5, "teal-creator-guarded-setmgr", _MANAGER.format(guard=_CREATOR), [(*MAJOR, 13)],
           analyze_teal_source),
    # Item 7: a guard is only a check that a stranger cannot pass.
    _miss(7, "teal-sender-check-or-amount",
          "#pragma version 6\ntxn Sender\nglobal CreatorAddress\n==\ntxn Amount\nint 10\n<\n"
          "||\nassert\n" + _PUT + _ACCEPT, [(*WARNING, 12)], analyze_teal_source),
    _holds(7, "teal-sender-against-argument",
           "#pragma version 6\ntxn Sender\ntxna ApplicationArgs 1\n==\nassert\n" + _PUT + _ACCEPT,
           [(*WARNING, 8)], analyze_teal_source),
    _holds(7, "teal-sender-check-inside-comment",
           "#pragma version 6\n// audit note\x0ctxn Sender\x0cglobal CreatorAddress\x0c==\x0cassert\n"
           + _PUT + _ACCEPT, [(*WARNING, 5)], analyze_teal_source),
    # Item 9: code replacement.
    _miss(9, "teal-creator-gated-update",
          _ON_COMPLETION.format(action="UpdateApplication"), [(*MAJOR, 14)], analyze_teal_source),
    _holds(9, "teal-creator-gated-opt-in",
           _ON_COMPLETION.format(action="OptIn"), [(*INFO, 12)], analyze_teal_source),
    # Item 15: fund moves beyond app-state puts.
    _miss(15, "teal-unguarded-inner-pay", "#pragma version 6\n" + _INNER_PAY + _ACCEPT,
          [(*WARNING, 9)], analyze_teal_source),
    _miss(15, "teal-creator-guarded-inner-pay",
          _BRANCH.format(name="pay", body=_CREATOR + _INNER_PAY), [(*MAJOR, 20)],
          analyze_teal_source),
    _holds(15, "teal-creator-guarded-inner-app-call",
           _BRANCH.format(name="call", body=_CREATOR + "itxn_begin\nint appl\n"
                          "itxn_field TypeEnum\nint 7\nitxn_field ApplicationID\nitxn_submit\n"),
           [(*INFO, 12)], analyze_teal_source),
    _miss(15, "teal-unguarded-clawback",
          _BRANCH.format(name="claw", body="itxn_begin\nint axfer\nitxn_field TypeEnum\n"
                         "txna Accounts 1\nitxn_field AssetSender\ntxn Sender\n"
                         "itxn_field AssetReceiver\nint 10\nitxn_field AssetAmount\n"
                         "txna Assets 0\nitxn_field XferAsset\nitxn_submit\n"),
          [(*WARNING, 20)], analyze_teal_source),
    _miss(15, "teal-creator-guarded-box-balance",
          _BRANCH.format(name="box", body=_CREATOR + 'byte "MyBalance"\nint 5\nbox_put\n'),
          [(*MAJOR, 15)], analyze_teal_source),
    _holds(15, "teal-creator-guarded-box-plain-key",
           _BRANCH.format(name="box", body=_CREATOR + 'byte "color"\nint 5\nbox_put\n'),
           [(*INFO, 12)], analyze_teal_source),
]


@pytest.mark.parametrize("analyze, source, expected", _ROWS)
def test_known_miss(analyze, source, expected):
    findings, _ = analyze(source, "vault", CONFIG)
    assert [(f.kind, f.severity, f.line) for f in findings] == expected
