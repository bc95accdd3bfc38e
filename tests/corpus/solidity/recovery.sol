// Each construct below is left open at a different level: a file-level
// definition, a member, a function header, a block, an expression. No
// contract starts inside a construct, so recovery stops where the next one
// starts, and every vault after a broken contract is analyzed.
pragma solidity ^0.8.0;

error Broken(uint code

contract Vault1 {
    mapping(address => uint) bals;
    function drain(address to) public { bals[to] = 0; }
}

contract OpenMember {
    uint[] limits = [1, 2;

contract Vault2 {
    mapping(address => uint) bals;
    function drain(address to) public { bals[to] = 0; }
}

contract OpenHeader {
    function set(uint a public {}

contract Vault3 {
    mapping(address => uint) bals;
    function drain(address to) public { bals[to] = 0; }
}

contract OpenBlock {
    bool paused;
    uint count;
    function tick() public { if (paused) { count = 1; }

contract Vault4 {
    mapping(address => uint) bals;
    function drain(address to) public { bals[to] = 0; }
}

contract OpenExpression {
    address owner;
    function check() public { require(owner == msg.

contract Vault5 {
    function pay(address payable to) public returns (bool) { return to.send(1); }
}
