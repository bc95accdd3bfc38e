// Writes and fund moves inside expressions. An assignment, `delete`, `++`
// and `--` write wherever they sit, a chain of assignments writes each of
// its targets, and every binary operator keeps its operands, so each fund
// move below is found. A ternary keeps its three operands too, so the send
// in `pick` is found.
pragma solidity ^0.8.0;

contract Writes {
    address owner;
    uint x;
    bool sent;
    mapping(address => uint) bals;

    function prefixStep(address to) public { x = ++bals[to]; }

    function guardedPostfix(address to) public {
        require(msg.sender == owner);
        x = bals[to]--;
    }

    function stepOnTheRight(address to, address a) public { bals[to] = bals[a]--; }

    function chained(address to, address a) public { bals[a] = bals[to] = 0; }

    function sendUnderComparison(address payable to) public { require(g(to.send(1)) > 0); }

    function sendInSum(address payable to) public { x = 1 + g(to.send(1)); }

    // `>=` orders addresses; it is no guard.
    function orderedSender(address to) public {
        require(msg.sender >= owner);
        bals[to] = 0;
    }

    function pick(address payable to, bool c) public { sent = c ? to.send(1) : false; }

    function g(bool b) internal pure returns (uint) { return b ? 1 : 0; }
}
