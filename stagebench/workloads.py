"""Seeded workload generators with expected verdicts.

Each generator returns the files of one workload together with the verdict
the analyzer should reach for every function or state write it wrote: a
finding kind (positive) or None (negative, no finding on that line).

The seed only changes names, keys, literals and the order of shapes. The
number of files, their line counts and the number of each shape are fixed
per workload, so cost and the expected failed share do not depend on the
seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

MAJOR = "CENTRALIZATION_RISK"
WARNING = "UNPROTECTED_FUND_MODIFICATION"
INFO = "PRIVILEGED_FUNCTION"

OWNER_KEYS = ("manager", "admin", "owner", "creator", "Creator")
BALANCE_KEYS = ("MyBalance", "UserBalance", "balance", "lpBalance", "VaultBalance")
PLAIN_KEYS = ("paused", "fee_bps", "counter", "round", "limit", "epoch")
WORDS = ("alpha", "bravo", "delta", "ember", "flux", "gamma", "harbor", "ion",
         "jade", "kilo", "lumen", "mesa", "nova", "orbit", "pulse", "quill")


@dataclass
class Workload:
    name: str
    files: dict[str, str] = field(default_factory=dict)  # relative name -> text
    # relative name -> [(line, expected finding kind or None)]
    verdicts: dict[str, list[tuple[int, str | None]]] = field(default_factory=dict)

    @property
    def lines(self) -> int:
        return sum(text.count("\n") + 1 for text in self.files.values())


class _Lines:
    """Line buffer that records expected verdicts at 1-based line numbers."""

    def __init__(self) -> None:
        self.lines: list[str] = []
        self.verdicts: list[tuple[int, str | None]] = []

    def add(self, *lines: str) -> None:
        self.lines.extend(lines)

    def expect(self, kind: str | None, line: str) -> None:
        self.lines.append(line)
        self.verdicts.append((len(self.lines), kind))

    def pad(self, total: int, comment: str) -> None:
        while len(self.lines) < total:
            self.lines.append(comment)

    def text(self) -> str:
        return "\n".join(self.lines)


def _name(rng: random.Random, index: int) -> str:
    return f"{rng.choice(WORDS)}{rng.choice(WORDS).title()}{index}"


# --- mixed-500: the criterion-8 shapes ------------------------------------

def _mixed_solidity(rng: random.Random, index: int, lines: int = 500) -> _Lines:
    out = _Lines()
    owner = rng.choice(("owner", "admin", "governor"))
    bals = rng.choice(("bals", "balances", "credits", "deposits"))
    modifier = rng.choice(("only_owner", "onlyAdmin", "restricted"))
    out.add(f"// synthetic contract {index}", f"contract Synth{_name(rng, index)} {{",
            f"    address {owner};", "    uint counter;",
            f"    mapping(address => uint) {bals};",
            f"    modifier {modifier} {{ require(msg.sender == {owner}); _; }}")
    label = 0
    while len(out.lines) < lines - 2 - 8:
        label += 1
        to, amount = rng.choice((("to", "amount"), ("dst", "value"), ("who", "wad")))
        out.expect(MAJOR, f"    function {_name(rng, label)}(address {to}, uint {amount})"
                          f" public {modifier} {{")
        out.add(f"        require(msg.sender == {owner});",
                f"        if ({amount} > {rng.randint(0, 9)}) {{",
                f"            {bals}[{to}] = {bals}[{to}].add({amount});",
                "        }",
                f"        emit Moved({to}, {amount});",
                "        counter = counter + 1;",
                "    }")
    out.pad(lines - 1, "    // padding")
    out.add("}")
    return out


def _mixed_teal(rng: random.Random, index: int, lines: int = 500) -> _Lines:
    out = _Lines()
    out.add("#pragma version 5", f"// synthetic program {index}")
    label = 0
    while len(out.lines) < lines - 15:
        label += 1
        tag = _name(rng, label)
        out.add(f'byte "{rng.choice(OWNER_KEYS)}"', "app_global_get", "txn Sender", "==",
                f"bz fail_{tag}", "int 0", f'byte "{rng.choice(BALANCE_KEYS)}"',
                f"int {rng.randint(1, 10_000)}")
        out.expect(MAJOR, "app_local_put")
        out.add(f"b next_{tag}", f"fail_{tag}:", "err", f"next_{tag}:")
    out.pad(lines - 2, "// padding")
    out.add("int 1", "return")
    return out


def mixed_500(seed: int) -> Workload:
    """50 .sol and 50 .teal files of 500 lines in the criterion-8 shapes."""
    rng = random.Random(f"mixed-500:{seed}")
    work = Workload("mixed-500")
    for i in range(50):
        for suffix, make in ((".sol", _mixed_solidity), (".teal", _mixed_teal)):
            buf = make(rng, i)
            name = f"synth_{i:02d}{suffix}"
            work.files[name] = buf.text()
            work.verdicts[name] = buf.verdicts
    return work


# --- teal-router: PyTeal-style dispatch into independent handlers --------

# One group of handler shapes; every group holds each shape once, so the
# share of each shape is fixed and only the order follows the seed.
ROUTER_SHAPES = ("branch_put", "assert_put", "unguarded_put", "guard_plain_put",
                 "filler", "unknown_op", "callsub_put")
ROUTER_SIZES = (1250, 2500, 5000, 10000, 20000)


def _router_handler(out: _Lines, subs: _Lines, shape: str, tag: str,
                    rng: random.Random) -> None:
    out.add(f"{tag}:")
    if shape == "branch_put":
        out.add(f'byte "{rng.choice(OWNER_KEYS)}"', "app_global_get", "txn Sender", "==",
                "bz fail", f'byte "{rng.choice(BALANCE_KEYS)}"',
                "txna ApplicationArgs 1", "btoi")
        out.expect(MAJOR, "app_global_put")
    elif shape == "assert_put":
        out.add(f'byte "{rng.choice(OWNER_KEYS)}"', "app_global_get", "txn Sender", "==",
                "assert", "txn Sender", f'byte "{rng.choice(BALANCE_KEYS)}"',
                f"int {rng.randint(1, 10_000)}")
        out.expect(MAJOR, "app_local_put")
    elif shape == "unguarded_put":
        out.add("txn Sender", f'byte "{rng.choice(BALANCE_KEYS)}"',
                f"int {rng.randint(1, 10_000)}")
        out.expect(WARNING, "app_local_put")
    elif shape == "guard_plain_put":
        out.add(f'byte "{rng.choice(OWNER_KEYS)}"', "app_global_get", "txn Sender", "==",
                "assert", f'byte "{rng.choice(PLAIN_KEYS)}"', f"int {rng.randint(0, 1)}")
        out.expect(None, "app_global_put")
    elif shape == "filler":
        out.add("txna ApplicationArgs 1", "btoi", f"int {rng.randint(2, 99)}", "*",
                "store 0", "load 0", f"int {rng.randint(1, 9)}", "+", "store 1",
                f'byte "{rng.choice(PLAIN_KEYS)}"', "load 1")
        out.expect(None, "app_global_put")
    elif shape == "unknown_op":
        out.add("itxn_begin", "int pay", "itxn_field TypeEnum", "txn Sender",
                "itxn_field Receiver", f"int {rng.randint(1000, 9999)}",
                "itxn_field Amount", "itxn_submit")
    else:  # callsub_put: a guarded call into a subroutine that writes a balance
        out.add(f'byte "{rng.choice(OWNER_KEYS)}"', "app_global_get", "txn Sender", "==",
                "assert", f"callsub credit_{tag}")
        subs.add(f"credit_{tag}:", f'byte "{rng.choice(BALANCE_KEYS)}"',
                 f"int {rng.randint(1, 10_000)}")
        subs.expect(MAJOR, "app_global_put")
        subs.add("retsub")
    out.add("int 1", "return")


def _router_cost(shape: str) -> int:
    """Lines one handler of this shape adds: dispatch, body and subroutine."""
    out, subs = _Lines(), _Lines()
    _router_handler(out, subs, shape, "t", random.Random(0))
    return 4 + len(out.lines) + len(subs.lines)


def _router_program(rng: random.Random, lines: int) -> _Lines:
    budget = lines - 4  # pragma, dispatch fall-through err, fail label and err
    shapes: list[str] = []
    while True:
        shape = ROUTER_SHAPES[len(shapes) % len(ROUTER_SHAPES)]
        if _router_cost(shape) > budget:
            break
        shapes.append(shape)
        budget -= _router_cost(shape)
    groups = [shapes[i:i + len(ROUTER_SHAPES)] for i in range(0, len(shapes), len(ROUTER_SHAPES))]
    for group in groups:
        rng.shuffle(group)
    shapes = [shape for group in groups for shape in group]
    tags = [f"{rng.choice(WORDS)}_{i}" for i in range(len(shapes))]

    out = _Lines()
    out.add("#pragma version 8")
    for tag in tags:
        out.add("txna ApplicationArgs 0", f'method "{tag}(uint64)void"', "==", f"bnz {tag}")
    out.add("err")
    subs = _Lines()
    for shape, tag in zip(shapes, tags):
        _router_handler(out, subs, shape, tag, rng)
    out.add("fail:", "err")
    offset = len(out.lines)
    out.lines.extend(subs.lines)
    out.verdicts.extend((offset + line, kind) for line, kind in subs.verdicts)
    out.pad(lines, "// padding")
    return out


def teal_router(seed: int) -> Workload:
    """Router programs in a size-doubling series, one file per size."""
    rng = random.Random(f"teal-router:{seed}")
    work = Workload("teal-router")
    for size in ROUTER_SIZES:
        buf = _router_program(rng, size)
        name = f"router_{size:05d}.teal"
        work.files[name] = buf.text()
        work.verdicts[name] = buf.verdicts
    return work


# --- sol-contracts: token- and vault-like contracts -----------------------

# Fixed schedule of function shapes. A file takes the first shapes of the
# cycle that fit its size, so its composition depends on its size only; the
# shapes the analyzer is known to miss (for_loop, parent_modifier,
# check_owner) sit early so that every size class holds them.
SOL_SHAPES = ("modifier_write", "for_loop", "unguarded_deposit", "view",
              "parent_modifier", "require_transfer", "privileged_only", "check_owner",
              "if_send", "unguarded_transfer", "plain_write", "call_value")
SOL_SIZES = (100, 200, 400, 800, 1600)
SOL_FILES_PER_SIZE = 12


@dataclass
class _Contract:
    name: str
    admin: str
    only_admin: str
    bals: str


def _sol_function(out: _Lines, shape: str, c: _Contract, fname: str,
                  rng: random.Random) -> None:
    who, amt = rng.choice((("to", "amount"), ("account", "value"), ("dst", "wad")))
    bals = c.bals
    if shape == "modifier_write":
        out.add("    /// @notice Sets the credited balance of an account.")
        out.expect(MAJOR, f"    function {fname}(address {who}, uint256 {amt}) external"
                          f" {c.only_admin} {{")
        out.add(f"        {bals}[{who}] = {amt};",
                f"        emit Deposited({who}, {amt});")
    elif shape == "for_loop":
        out.add("    /// @notice Credits every listed account.")
        out.expect(MAJOR, f"    function {fname}(address[] calldata {who}, uint256 {amt})"
                          f" external {c.only_admin} {{")
        out.add(f"        for (uint256 i = 0; i < {who}.length; i++) {{",
                f"            {bals}[{who}[i]] += {amt};",
                "        }")
    elif shape == "unguarded_deposit":
        out.add("    /// @notice Deposits the attached value for the caller.")
        out.expect(WARNING, f"    function {fname}() external payable {{")
        out.add(f"        {bals}[msg.sender] += msg.value;",
                "        emit Deposited(msg.sender, msg.value);")
    elif shape == "view":
        out.add("    /// @notice Returns the balance of an account.")
        out.expect(None, f"    function {fname}(address {who}) external view"
                         f" returns (uint256) {{")
        out.add(f"        return {bals}[{who}];")
    elif shape == "parent_modifier":
        out.add("    /// @notice Clears an account; owner only (modifier from Ownable).")
        out.expect(MAJOR, f"    function {fname}(address {who}) external onlyOwner {{")
        out.add(f"        {bals}[{who}] = 0;")
    elif shape == "require_transfer":
        out.add("    /// @dev Pays out to the caller, minus the fee; admin only.")
        out.expect(MAJOR, f"    function {fname}(uint256 {amt}) external {{")
        out.add(f'        require(msg.sender == {c.admin}, "{c.name}: not admin");',
                f"        uint256 fee = {amt} * feeBps / 10000;",
                f"        payable(msg.sender).transfer({amt} - fee);")
    elif shape == "privileged_only":
        out.add("    /// @notice Changes the fee in basis points.")
        out.expect(INFO, f"    function {fname}(uint256 {amt}) external {c.only_admin} {{")
        out.add(f'        require({amt} <= {rng.randint(100, 2000)}, "{c.name}: fee too high");',
                f"        feeBps = {amt};",
                f"        emit FeeChanged({amt});")
    elif shape == "check_owner":
        out.add("    /// @notice Recovers funds; guarded by the _checkOwner() helper.")
        out.expect(MAJOR, f"    function {fname}(address {who}, uint256 {amt}) external {{")
        out.add("        _checkOwner();",
                f"        {bals}[{who}] -= {amt};")
    elif shape == "if_send":
        out.add("    /// @notice Forwards fees to the treasury when the admin asks.")
        out.expect(MAJOR, f"    function {fname}(uint256 {amt}) external {{")
        out.add(f"        if (msg.sender == {c.admin}) {{",
                f'            require(treasury.send({amt}), "{c.name}: send failed");',
                "        }")
    elif shape == "unguarded_transfer":
        out.add("    /// @notice Withdraws the caller's own balance.")
        out.expect(WARNING, f"    function {fname}(uint256 {amt}) external {{")
        out.add(f'        require({bals}[msg.sender] >= {amt}, "{c.name}: insufficient balance");',
                f"        {bals}[msg.sender] -= {amt};",
                f"        payable(msg.sender).transfer({amt});")
    elif shape == "plain_write":
        out.add("    /// @notice Records a score; not a fund movement.")
        out.expect(None, f"    function {fname}(uint256 id, uint256 {amt}) external {{")
        out.add(f"        scores[id] = {amt};")
    else:  # call_value
        out.add("    /// @notice Sends value with a low-level call; admin only.")
        out.expect(MAJOR, f"    function {fname}(address payable {who}, uint256 {amt})"
                          f" external {c.only_admin} {{")
        out.add(f'        {who}.call{{value: {amt}}}("");')
    out.add("    }", "")


def _sol_header(out: _Lines, c: _Contract, rng: random.Random) -> None:
    out.add("// SPDX-License-Identifier: MIT", "pragma solidity ^0.8.20;", "",
            f"/// @title Ownable base for {c.name}",
            "/// @notice Keeps the owner address and the onlyOwner modifier.",
            "contract Ownable {",
            "    address public owner;",
            "    event OwnershipTransferred(address indexed previous, address indexed next);",
            "",
            "    modifier onlyOwner() {",
            '        require(msg.sender == owner, "Ownable: caller is not the owner");',
            "        _;",
            "    }",
            "",
            "    /// @notice Hands the contract to a new owner.")
    out.expect(INFO, "    function transferOwnership(address next) public onlyOwner {")
    out.add("        emit OwnershipTransferred(owner, next);",
            "        owner = next;",
            "    }",
            "}",
            "",
            "/**",
            f" * @title {c.name}",
            " * @notice Token-like vault with privileged maintenance functions.",
            " */",
            f"contract {c.name} is Ownable {{",
            "    struct Position { uint256 amount; uint64 since; }",
            f'    string public name = "{c.name} Token";',
            f'    string public symbol = "{c.name[:3].upper()}";',
            f"    address public {c.admin};",
            "    address payable public treasury;",
            "    uint256 public feeBps;",
            f"    mapping(address => uint256) public {c.bals};",
            "    mapping(uint256 => uint256) public scores;",
            "    event Deposited(address indexed who, uint256 amount);",
            "    event FeeChanged(uint256 fee);",
            "",
            f"    modifier {c.only_admin}() {{",
            f'        require(msg.sender == {c.admin}, "{c.name}: not admin");',
            "        _;",
            "    }",
            "",
            "    /// @dev Reverts unless the caller is the owner.")
    out.expect(INFO, "    function _checkOwner() internal view {")
    out.add(f'        require(msg.sender == owner, "{c.name}: caller is not the owner");',
            "    }", "")


def _sol_cost(shape: str) -> int:
    out = _Lines()
    _sol_function(out, shape, _Contract("C", "a", "m", "b"), "f", random.Random(0))
    return len(out.lines)


def _sol_contract(rng: random.Random, index: int, lines: int) -> _Lines:
    c = _Contract(name=f"{rng.choice(WORDS).title()}{rng.choice(WORDS).title()}Vault{index}",
                  admin=rng.choice(("admin", "operator", "guardian")),
                  only_admin=rng.choice(("onlyAdmin", "onlyOperator", "auth")),
                  bals=rng.choice(("balances", "balanceOf_", "credits", "deposits")))
    out = _Lines()
    _sol_header(out, c, rng)
    budget = lines - len(out.lines) - 1  # closing brace of the contract
    shapes: list[str] = []
    while budget >= _sol_cost(SOL_SHAPES[len(shapes) % len(SOL_SHAPES)]):
        shape = SOL_SHAPES[len(shapes) % len(SOL_SHAPES)]
        shapes.append(shape)
        budget -= _sol_cost(shape)
    rng.shuffle(shapes)
    for i, shape in enumerate(shapes):
        _sol_function(out, shape, c, _name(rng, i), rng)
    out.pad(lines - 1, "    // reserved")
    out.add("}")
    return out


def sol_contracts(seed: int) -> Workload:
    """Vault-like contracts in size classes of 100 to 1600 lines."""
    rng = random.Random(f"sol-contracts:{seed}")
    work = Workload("sol-contracts")
    index = 0
    for size in SOL_SIZES:
        for _ in range(SOL_FILES_PER_SIZE):
            buf = _sol_contract(rng, index, size)
            name = f"vault_{size:04d}_{index:02d}.sol"
            work.files[name] = buf.text()
            work.verdicts[name] = buf.verdicts
            index += 1
    return work


GENERATORS = {"mixed-500": mixed_500, "teal-router": teal_router,
              "sol-contracts": sol_contracts}


def generate(name: str, seed: int) -> Workload:
    return GENERATORS[name](seed)
