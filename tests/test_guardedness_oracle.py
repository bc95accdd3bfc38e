"""compute_guardedness vs exhaustive path enumeration on random CFGs."""

import random
import re
import time

from hypothesis import example, given, settings
from hypothesis import strategies as st

from centriscan.flow import BRANCH_NOT_TAKEN, BRANCH_TAKEN, FALLTHROUGH, compute_guardedness
from centriscan.report import classify
from centriscan.solidity.detectors import find_fund_modifications, find_sender_guards
from centriscan.teal.detectors import FundModPoint, GuardPoint, find_subjects

from helpers import (
    block_of,
    cfg_from_sizes,
    parse_single_unit,
    comb_cfg,
    every_block,
    random_cfg,
    random_ends,
    random_guards_and_funds,
    random_tied_cfg,
    run_fresh_python,
    terminal_blocks,
)
from oracle import (
    oracle_verdicts,
    plain_reachable,
    reference_gates,
    reference_parents,
    reference_solidity_verdicts,
    reference_witnesses,
)


def test_flow_core_loads_no_language_back_end():
    # The flow core reads only the graph and the points: a back end imports
    # it, never the reverse.
    code = ("import sys, centriscan.flow; print(sorted(m for m in sys.modules "
            "if m.startswith(('centriscan.teal', 'centriscan.solidity'))))")
    assert run_fresh_python(code) == "[]\n"


def _case(seed: int):
    rng = random.Random(seed)
    cfg = random_cfg(rng)
    guards, funds = random_guards_and_funds(cfg, rng)
    return cfg, guards, funds, random_ends(cfg, rng)


def _write(cfg, q):
    return FundModPoint(block_of(cfg)[q], q, q + 1, "app_global_put", "MyBalance")


def _assert(cfg, q):
    return GuardPoint("AssertGuard", block_of(cfg)[q], q, q + 1, "addr OWNER", "assert guard")


def _branch(cfg, q, non_fail_to, kind):
    block = block_of(cfg)[q]
    return GuardPoint("BranchGuard", block, q, q + 1, "addr OWNER", "branch guard",
                      non_fail_edge=(block, non_fail_to, kind))


def test_matches_oracle_on_random_cfgs():
    for seed in range(300):
        cfg, guards, funds, ends = _case(seed)
        result = compute_guardedness(cfg, guards, funds, ends, [])
        expected = oracle_verdicts(cfg, guards, funds, ends)
        assert result.verdicts == expected, f"seed={seed}"


def test_witness_paths_are_valid():
    edge_set_cache = {}
    for seed in range(300):
        cfg, guards, funds, ends = _case(seed)
        result = compute_guardedness(cfg, guards, funds, ends, [])
        asserts = {g.instruction for g in guards if g.form == "AssertGuard"}
        pruned = {g.non_fail_edge for g in guards
                  if g.form == "BranchGuard" and g.non_fail_edge is not None}
        edges = {(f, t) for f, t, k in cfg.edges if (f, t, k) not in pruned}
        blocks_of = block_of(cfg)
        for point, verdict in result.verdicts.items():
            if verdict is not False:
                assert point not in result.witnesses
                continue
            blocks = result.witnesses[point]
            instrs = result.witness_instructions[point]
            # Starts at entry, ends at the point, block-connected.
            assert blocks[0] == 0
            assert blocks[-1] == point.block
            assert instrs[0] == 0
            assert instrs[-1] == point.instruction
            for a, b in zip(blocks, blocks[1:]):
                assert (a, b) in edges, (seed, point, blocks)
            # Avoids all guard points: no assert instruction on the path and
            # every instruction step is intra-block or a legal block edge.
            assert not (set(instrs[:-1]) & asserts)
            for a, b in zip(instrs, instrs[1:]):
                if b == a + 1 and blocks_of[a] == blocks_of[b]:
                    continue
                assert a == cfg.blocks[blocks_of[a]][-1]
                assert b == cfg.blocks[blocks_of[b]].start
                assert (blocks_of[a], blocks_of[b]) in edges


def test_witnesses_match_reference_bfs():
    # Blocks of 1-8 instructions, so the path of fewest blocks is often not
    # the one of fewest instructions.
    for seed in range(300):
        cfg, guards, funds, _ = _case(seed)
        # Also a write at the end of every block, and every block an end, so
        # each block's witness is checked, not only those of the few random
        # writes.
        funds += [_write(cfg, b[-1]) for b in cfg.blocks]
        result = compute_guardedness(cfg, guards, funds, every_block(cfg), [])
        blocks, instructions = reference_witnesses(cfg, guards, funds, every_block(cfg))
        assert result.parents == reference_parents(cfg, guards), f"seed={seed}"
        assert result.witnesses == blocks, f"seed={seed}"
        assert result.witness_instructions == instructions, f"seed={seed}"


def _bounded(path):
    """A block path as the report should print it: whole up to 8 blocks,
    else the entry block, the count left out and the last three blocks."""
    if len(path) <= 8:
        return "->".join(map(str, path))
    return f"{path[0]}->...(+{len(path) - 4})->" + "->".join(map(str, path[-3:]))


def _printed_witnesses(cfg, guards, funds, ends):
    """Per unguarded write, the block text its finding prints."""
    result = compute_guardedness(cfg, guards, funds, ends, [])
    printed = {}
    for point in funds:
        if result.verdicts[point] is False:
            (finding,) = classify("teal", "p.teal", find_subjects(guards, [point], result))
            printed[point] = re.fullmatch(r".*\(blocks (.*)\)", finding.message)[1]
    return printed


def test_printed_witnesses_are_the_bounded_reference_paths():
    cases = [_case(seed) for seed in range(300)]
    # Chains of 1-20 blocks with a write ending each block: witnesses of
    # every length from 1 to 20 blocks, on both sides of the 8-block cut.
    for n in range(1, 21):
        cfg = cfg_from_sizes([2] * n, [(b, b + 1, FALLTHROUGH) for b in range(n - 1)])
        cases.append((cfg, [], [_write(cfg, b[-1]) for b in cfg.blocks], [n - 1]))
    lengths = set()
    for case, (cfg, guards, funds, ends) in enumerate(cases):
        blocks, _ = reference_witnesses(cfg, guards, funds, ends)
        assert _printed_witnesses(cfg, guards, funds, ends) == {
            point: _bounded(path) for point, path in blocks.items()}, f"case={case}"
        lengths.update(map(len, blocks.values()))
    assert lengths >= set(range(1, 21))


def test_tie_heavy_cfgs_match_the_reference_bfs():
    # Here many blocks are entered from two blocks equally deep; the edge
    # where their paths part picks the parent.
    # A write opens every block, so every block entered is checked. A
    # printed witness is as long as the traversal's depth says: a wrong
    # depth prints a path that misses entry or walks past it.
    for seed in range(3000):
        rng = random.Random(seed)
        cfg = random_tied_cfg(rng)
        guards, funds = random_guards_and_funds(cfg, rng)
        funds += [_write(cfg, b.start) for b in cfg.blocks]
        result = compute_guardedness(cfg, guards, funds, every_block(cfg), [])
        blocks, instructions = reference_witnesses(cfg, guards, funds, every_block(cfg))
        reached = plain_reachable(cfg)
        assert result.parents == reference_parents(cfg, guards), f"seed={seed}"
        assert {p: result.tail(p) for p in result.witnesses} == {
            p: _bounded(path) for p, path in blocks.items()}, f"seed={seed}"
        assert (result.witnesses, result.witness_instructions) == (blocks, instructions)
        assert result.verdicts == {
            p: False if p in blocks else True if p.instruction in reached else None
            for p in funds}, f"seed={seed}"


def test_gates_match_reference_on_random_cfgs():
    for seed in range(300):
        cfg, guards, funds, ends = _case(seed)
        result = compute_guardedness(cfg, guards, funds, ends, [])
        gates = {p: tuple(g.instruction for g in gs) for p, gs in result.gates.items()}
        assert gates == reference_gates(cfg, guards, funds, ends), f"seed={seed}"
        assert set(gates) == {p for p, v in result.verdicts.items() if v is True}
        assert all(gates.values()), f"seed={seed}"


def _gates(cfg, guards, writes):
    """The gates of each write; the program ends at the blocks with no successors."""
    ends = terminal_blocks(cfg)
    result = compute_guardedness(cfg, guards, writes, ends, [])
    gates = {p: tuple(g.instruction for g in gs) for p, gs in result.gates.items()}
    assert gates == reference_gates(cfg, guards, writes, ends)
    return [gates[w] for w in writes]


def test_router_handlers_each_list_only_their_own_guard():
    # 0: bnz h1 | 1: bnz h2 | 2: err | 3: h1 assert, put | 4: h2 assert, put
    cfg = cfg_from_sizes([3, 3, 1, 3, 3], [
        (0, 3, BRANCH_TAKEN), (0, 1, BRANCH_NOT_TAKEN),
        (1, 4, BRANCH_TAKEN), (1, 2, BRANCH_NOT_TAKEN)])
    guards = [_assert(cfg, 7), _assert(cfg, 10)]
    assert _gates(cfg, guards, [_write(cfg, 8), _write(cfg, 11)]) == [(7,), (10,)]


def test_later_guard_on_the_path_gates_the_write():
    # A in block 0, then B in block 1, then the write in block 2.
    cfg = cfg_from_sizes([2, 2, 2], [(0, 1, FALLTHROUGH), (1, 2, FALLTHROUGH)])
    guards = [_assert(cfg, 0), _assert(cfg, 3)]
    assert _gates(cfg, guards, [_write(cfg, 5)]) == [(3,)]


def test_joining_guarded_branches_list_both_in_instruction_order():
    # 0 branches to 1 and 2; each ends in a branch guard whose fail edge
    # goes to the err block 3 and whose authorized edge goes to the write.
    cfg = cfg_from_sizes([2, 2, 2, 1, 2], [
        (0, 2, BRANCH_TAKEN), (0, 1, BRANCH_NOT_TAKEN),
        (1, 3, BRANCH_TAKEN), (1, 4, BRANCH_NOT_TAKEN),
        (2, 3, BRANCH_TAKEN), (2, 4, BRANCH_NOT_TAKEN)])
    guards = [_branch(cfg, 5, 4, BRANCH_NOT_TAKEN), _branch(cfg, 3, 4, BRANCH_NOT_TAKEN)]
    assert _gates(cfg, guards, [_write(cfg, 8)]) == [(3, 5)]


def test_earlier_assert_in_the_write_block_gates_it():
    cfg = cfg_from_sizes([2, 3], [(0, 1, FALLTHROUGH)])
    guards = [_assert(cfg, 1), _assert(cfg, 2)]
    assert _gates(cfg, guards, [_write(cfg, 4)]) == [(2,)]


def test_loop_back_edge_adds_the_guard_inside_the_loop():
    # 0: assert A | 1: loop head with the write | 2: assert B, back to 1
    cfg = cfg_from_sizes([2, 2, 2, 1], [
        (0, 1, FALLTHROUGH), (1, 2, BRANCH_NOT_TAKEN), (1, 3, BRANCH_TAKEN),
        (2, 1, BRANCH_TAKEN)])
    guards = [_assert(cfg, 0), _assert(cfg, 4)]
    assert _gates(cfg, guards, [_write(cfg, 2)]) == [(0, 4)]


def _witness_to_last_block(sizes, edges):
    cfg = cfg_from_sizes(sizes, edges)
    last = cfg.blocks[-1].start
    point = FundModPoint(len(sizes) - 1, last, last + 1, "app_global_put", "MyBalance")
    result = compute_guardedness(cfg, [], [point], [len(sizes) - 1], [])
    assert (result.witnesses, result.witness_instructions) == \
        reference_witnesses(cfg, [], [point], [len(sizes) - 1])
    assert result.tail(point) == _bounded(result.witnesses[point])
    return result.witnesses[point], result.witness_instructions[point]


def test_witness_has_fewest_blocks_not_fewest_instructions():
    # entry -> A (5 instructions) -> D against entry -> B -> C -> D (1 each):
    # the walk counts blocks, so it takes the path with more instructions,
    # whichever edge of entry leads to A.
    edges = [(0, 1, BRANCH_TAKEN), (0, 2, BRANCH_NOT_TAKEN), (1, 4, BRANCH_TAKEN),
             (2, 3, BRANCH_TAKEN), (3, 4, BRANCH_TAKEN)]
    assert _witness_to_last_block([1, 5, 1, 1, 1], edges) == \
        ((0, 1, 4), (0, 1, 2, 3, 4, 5, 8))
    b_first = [edges[1], edges[0], *edges[2:]]
    assert _witness_to_last_block([1, 5, 1, 1, 1], b_first) == \
        ((0, 1, 4), (0, 1, 2, 3, 4, 5, 8))


def test_witness_ties_follow_edge_order():
    # entry -> A -> D against entry -> B -> D: both paths have three blocks,
    # so the earlier edge of entry wins, however many instructions A and B
    # hold.
    a_first = [(0, 1, BRANCH_TAKEN), (0, 2, BRANCH_NOT_TAKEN), (1, 3, BRANCH_TAKEN),
               (2, 3, BRANCH_TAKEN)]
    b_first = [a_first[1], a_first[0], *a_first[2:]]
    assert _witness_to_last_block([1, 3, 1, 1], a_first) == ((0, 1, 3), (0, 1, 2, 3, 5))
    assert _witness_to_last_block([1, 3, 1, 1], b_first) == ((0, 2, 3), (0, 4, 5))
    assert _witness_to_last_block([1, 1, 3, 1], a_first) == ((0, 1, 3), (0, 1, 5))
    assert _witness_to_last_block([1, 1, 3, 1], b_first) == ((0, 2, 3), (0, 2, 3, 4, 5))


def test_witness_tie_is_decided_where_the_chains_part():
    # 0 -> 1 -> 3 -> 5 and 0 -> 2 -> 4 -> 5 in one-instruction blocks: the
    # ends of 3 and 4 are equally far from entry, and block 0, two blocks
    # above them, decides the tie by its edge order.
    edges = [(0, 1, BRANCH_TAKEN), (0, 2, BRANCH_NOT_TAKEN), (1, 3, BRANCH_TAKEN),
             (2, 4, BRANCH_TAKEN), (3, 5, BRANCH_TAKEN), (4, 5, BRANCH_TAKEN)]
    assert _witness_to_last_block([1] * 6, edges) == ((0, 1, 3, 5), (0, 1, 3, 5))
    swapped = [(0, 2, BRANCH_TAKEN), (0, 1, BRANCH_NOT_TAKEN), *edges[2:]]
    assert _witness_to_last_block([1] * 6, swapped) == ((0, 2, 4, 5), (0, 2, 4, 5))


def _comb_writes(cfg, rungs):
    """A write in every rung of comb_cfg(rungs), in rung order."""
    return [FundModPoint(b, cfg.blocks[b].start, cfg.blocks[b].start + 1,
                         "app_global_put", "MyBalance")
            for b in range(2 * rungs + 1, 3 * rungs + 1)]


def test_comb_witnesses_take_linear_time():
    # Each rung is a tie whose paths part only at entry; A's chain is on
    # entry's earlier edge, so rung i's witness is entry, A_1..A_i, rung i.
    small = comb_cfg(12)
    writes = _comb_writes(small, 12)
    result = compute_guardedness(small, [], writes, terminal_blocks(small), [])
    assert (result.witnesses, result.witness_instructions) == \
        reference_witnesses(small, [], writes, terminal_blocks(small))
    n = 20_000
    cfg = comb_cfg(n)
    writes = _comb_writes(cfg, n)
    start = time.perf_counter()
    result = compute_guardedness(cfg, [], writes, terminal_blocks(cfg), [])
    elapsed = time.perf_counter() - start
    assert elapsed < 2.0, f"{elapsed:.2f} s"
    # Rung i's witness has i + 2 blocks; from rung 7 on it is cut.
    assert [result.tail(w) for w in writes] == [
        _bounded((*range(i + 1), 2 * n + i)) if i < 7
        else f"0->...(+{i - 2})->{i - 1}->{i}->{2 * n + i}" for i in range(1, n + 1)]


def test_guard_monotonicity():
    for seed in range(150):
        rng = random.Random(10_000 + seed)
        cfg = random_cfg(rng)
        guards, funds = random_guards_and_funds(cfg, rng)
        if not funds:
            continue
        ends = random_ends(cfg, rng)
        with_guards = compute_guardedness(cfg, guards, funds, ends, []).verdicts
        without = compute_guardedness(cfg, [], funds, ends, []).verdicts
        for point in funds:
            # Removing all guards can only move verdicts toward unguarded.
            if without[point] is None:
                assert with_guards[point] is None
            else:
                assert without[point] is False or with_guards[point] is not False
        # Adding a guard never makes a guarded point unguarded.
        extra_rng = random.Random(seed)
        extra, _ = random_guards_and_funds(cfg, extra_rng)
        grown = compute_guardedness(cfg, guards + extra, funds, ends, []).verdicts
        for point in funds:
            if with_guards[point] is True:
                assert grown[point] is True


def test_reachable_points_without_guards_are_all_unguarded():
    for seed in range(100):
        rng = random.Random(20_000 + seed)
        cfg = random_cfg(rng)
        _, funds = random_guards_and_funds(cfg, rng)
        verdicts = compute_guardedness(cfg, [], funds, random_ends(cfg, rng), []).verdicts
        for point, verdict in verdicts.items():
            assert verdict in (False, None)


# Generated Solidity bodies: writes, other statements, guards, ends and
# nested `if`/`else` on sender and other conditions.
_CONDITIONS = ("msg.sender == owner", "msg.sender != owner", "owner == msg.sender",
               "x > 0", "y > 0")
_SIMPLE = st.sampled_from((
    "bals[to] = 1;", "bals[to] = 2;", "x = 1;", "require(msg.sender == owner);",
    "require(msg.sender != owner);", "require(x > 0);", "revert();", "return;"))


def _if_statement(condition, then, otherwise):
    text = f"if ({condition}) {{ {' '.join(then)} }}"
    return text if otherwise is None else f"{text} else {{ {' '.join(otherwise)} }}"


_STATEMENTS = st.recursive(_SIMPLE, lambda inner: st.builds(
    _if_statement, st.sampled_from(_CONDITIONS), st.lists(inner, max_size=3),
    st.none() | st.lists(inner, max_size=3)), max_leaves=8)
_BODIES = st.lists(_STATEMENTS, max_size=5)


# Where a modifier runs the function: its `_`, alone or inside an `if`.
_PLACEHOLDERS = st.sampled_from(("_;", "if (msg.sender == owner) { _; }",
                                 "if (x > 0) { _; } else { revert(); }",
                                 "if (msg.sender != owner) { return; } _;"))


@given(st.lists(_BODIES, min_size=1, max_size=2),
       st.none() | st.tuples(_BODIES, st.integers(0, 5), _PLACEHOLDERS))
@example([["bals[to] = 1;"], ["x = 1;"]], (["require(msg.sender == owner);"], 0, "_;"))
@example([["bals[to] = 1;"]], (["require(msg.sender == owner);", "x = 1;"], 1, "_;"))
@settings(max_examples=300, deadline=None)
def test_lowered_solidity_agrees_with_the_stranger_run_reference(bodies, modifier):
    # Per write, the flow query over the lowered contract says what the
    # reference finds by running the AST: unguarded when a stranger run
    # commits it, guarded when only another sender's does, dead when none
    # does. The modifier checks before or after its `_`, which may sit in an
    # `if`, or not at all, and the functions running it share one copy of it.
    source = "contract C { address owner; uint x; uint y; mapping(address => uint) bals;\n"
    invoked = ""
    if modifier is not None:
        statements, at, placeholder = modifier
        statements = [*statements[:at], placeholder, *statements[at:]]
        source += f"modifier m() {{ {' '.join(statements)} }}\n"
        invoked = " m"
    for i, body in enumerate(bodies):
        source += f"function f{i}(address to) public{invoked} {{ {' '.join(body)} }}\n"
    source += "}"
    contract, tokens = parse_single_unit(source)
    lowering = find_sender_guards(contract, tokens, frozenset({"bals"}), [])
    funds = find_fund_modifications(lowering)
    verdicts = compute_guardedness(lowering.cfg, lowering.guards, funds, lowering.ends,
                                   []).verdicts
    assert {(p.evidence.line, p.evidence.column): v for p, v in verdicts.items()} == {
        tokens.position(at): v for at, v in reference_solidity_verdicts(contract).items()}
