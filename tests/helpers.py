"""Shared test utilities: corpus access, AST comparison, random CFGs."""

from __future__ import annotations

import os
import random
import subprocess
import sys

import centriscan
from centriscan.record import Record
from centriscan.solidity import ast
from centriscan.solidity.tokens import Tokens
from centriscan.solidity.detectors import find_fund_modifications, find_sender_guards
from centriscan.solidity.parser import parse_solidity
from centriscan.solidity.symbols import collect_state_vars
from centriscan.flow import BRANCH_NOT_TAKEN, BRANCH_TAKEN, FALLTHROUGH, Cfg
from centriscan.teal.detectors import FundModPoint, GuardPoint

CORPUS_DIR = os.path.join(os.path.dirname(__file__), "corpus")
SOLIDITY_CORPUS = os.path.join(CORPUS_DIR, "solidity")
TEAL_CORPUS = os.path.join(CORPUS_DIR, "teal")


# Source fragments for generated Solidity: keyword-like and sized-type
# words, line and block comments spanning lines, `\r\n`, an unterminated
# string, literals and an unknown character.
SOLIDITY_FRAGMENTS = (
    "contract", "uint", "uint256", "uint7", "int", "int8x", "bytes", "bytes32",
    "bytes0", "integer", "ubytes", "owner", "msg", "_", "$x", "require",
    " ", "\n", "\r\n", "\t", "(", ".", "// c\n", "/* a\nb */", '"s\n', "'q'",
    "1", "0x2", "@",
)


# Keys of the detector rules that are fixed; a config file naming one fails.
REMOVED_CONFIG_KEYS = ("revert_guard", "native_transfer", "selfdestruct", "gtxn_sender",
                       "tx_origin", "nested_mappings", "balance_substring")


def readme_python_block(containing: str) -> str:
    """The one ```python block of README.md whose code contains the text."""
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme, encoding="utf-8") as fh:
        text = fh.read()
    blocks = [part.split("```", 1)[0] for part in text.split("```python\n")[1:]]
    (block,) = [block for block in blocks if containing in block]
    return block


def run_fresh_python(code: str, *args: str) -> str:
    """stdout of `python -S -c code args` in a new process that imports
    centriscan from this tree; -S keeps `site` from loading anything first."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(centriscan.__file__)))
    run = subprocess.run([sys.executable, "-S", "-c", code, *args], capture_output=True,
                         text=True, env={**os.environ, "PYTHONPATH": src})
    assert run.returncode == 0, run.stderr
    return run.stdout


def corpus_path(language: str, name: str) -> str:
    return os.path.join(CORPUS_DIR, language, name)


def corpus_text(language: str, name: str) -> str:
    with open(corpus_path(language, name), encoding="utf-8") as fh:
        return fh.read()


def all_corpus_files() -> list[str]:
    found = []
    for sub in ("solidity", "teal"):
        base = os.path.join(CORPUS_DIR, sub)
        found.extend(os.path.join(base, name) for name in sorted(os.listdir(base)))
    return found


def parse_single_unit(source: str) -> tuple[ast.ContractDecl, Tokens]:
    """The one contract in source, and the tokens its nodes index."""
    unit = parse_solidity(source)
    assert len(unit.contracts) == 1, unit.diagnostics
    return unit.contracts[0], unit.tokens


def parse_single_contract(source: str) -> ast.ContractDecl:
    return parse_single_unit(source)[0]


def parse_function(statements: str) -> tuple[list[ast.Stmt], Tokens]:
    """The statements parsed as one function body, and the tokens its nodes index."""
    contract, tokens = parse_single_unit(
        "contract W { function w() public {\n" + statements + "\n} }"
    )
    return contract.functions[0].body, tokens


def parse_function_body(statements: str) -> list[ast.Stmt]:
    return parse_function(statements)[0]


def solidity_sites(contract: ast.ContractDecl, tokens: Tokens, diagnostics: list | None = None):
    """The lowering of contract, its guard sites and its fund sites, each
    site the `at` of its declaration and its Evidence, sorted by position."""
    lowering = find_sender_guards(contract, tokens, collect_state_vars(contract, tokens, []),
                                  [] if diagnostics is None else diagnostics)
    return (lowering, [(at, evidence) for evidence, at in lowering.sites],
            [(point.at, point.evidence) for point in find_fund_modifications(lowering)])


# Node kinds whose text is their content, not just a source echo.
_TEXT_IS_CONTENT = (ast.OpaqueExpr, ast.Opaque)


def ast_equal(a, b, tokens_a: Tokens, tokens_b: Tokens) -> bool:
    """Structural equality ignoring locations and incidental source text.
    Nodes of a index tokens_a, nodes of b tokens_b."""
    if type(a) is not type(b):
        return False
    if isinstance(a, list):
        return len(a) == len(b) and all(
            ast_equal(x, y, tokens_a, tokens_b) for x, y in zip(a, b))
    if not isinstance(a, Record):
        return a == b
    if isinstance(a, _TEXT_IS_CONTENT) and \
            tokens_a.text(a.at, a.end) != tokens_b.text(b.at, b.end):
        return False
    for name in a._fields:
        if name in ("at", "end"):
            continue
        if not ast_equal(getattr(a, name), getattr(b, name), tokens_a, tokens_b):
            return False
    return True


# --- synthetic CFGs for the guardedness oracle ------------------------------

def block_of(cfg: Cfg) -> list[int]:
    """Per instruction index, the index of the block that holds it."""
    return [b for b, block in enumerate(cfg.blocks) for _ in block]


def cfg_from_sizes(sizes: list[int], edges: list[tuple[int, int, str]]) -> Cfg:
    """A CFG of consecutive blocks with the given instruction counts and
    (from, to, kind) edges, kept in their order per source block; entry 0."""
    blocks = []
    start = 0
    for size in sizes:
        blocks.append(range(start, start + size))
        start += size
    successors = [[] for _ in sizes]
    for frm, to, kind in edges:
        successors[frm].append((to, kind))
    return Cfg(blocks, successors)


def comb_cfg(rungs: int) -> Cfg:
    """Entry, then two chains of one-instruction blocks: A_1..A_n (blocks 1
    to n) on entry's taken edge and B_1..B_n (blocks n + 1 to 2n) on its
    not-taken one. Rung i, block 2n + i, is a one-instruction leaf that
    both A_i and B_i branch to, so every rung is entered from two blocks
    equally deep whose paths part only at entry."""
    n = rungs
    edges = [(0, 1, BRANCH_TAKEN), (0, n + 1, BRANCH_NOT_TAKEN)]
    for i in range(1, n + 1):
        for b in (i, n + i):
            edges.append((b, 2 * n + i, BRANCH_TAKEN))
            if i < n:
                edges.append((b, b + 1, BRANCH_NOT_TAKEN))
    return cfg_from_sizes([1] * (3 * n + 1), edges)


def random_cfg(rng: random.Random) -> Cfg:
    """A random small CFG shaped like build_cfg output (<=12 blocks of 1-8
    instructions, so the path with the fewest blocks and the one with the
    fewest instructions can differ)."""
    n_blocks = rng.randint(1, 12)
    sizes = [rng.randint(1, 8) for _ in range(n_blocks)]
    edges = []
    for i in range(n_blocks):
        shape = rng.choice(("halt", "jump", "branch", "fall"))
        if shape == "halt":
            continue
        if shape == "jump":
            edges.append((i, rng.randrange(n_blocks), BRANCH_TAKEN))
        elif shape == "branch":
            edges.append((i, rng.randrange(n_blocks), BRANCH_TAKEN))
            edges.append((i, rng.randrange(n_blocks), BRANCH_NOT_TAKEN))
        elif i + 1 < n_blocks:
            edges.append((i, i + 1, FALLTHROUGH))
    return cfg_from_sizes(sizes, edges)


def random_tied_cfg(rng: random.Random) -> Cfg:
    """A random CFG of up to 80 blocks, most of one instruction and the rest
    of two, most of them branching to blocks a few places on, so that many
    blocks are entered from two blocks equally deep."""
    n_blocks = rng.randint(1, 80)
    edges = []

    def target(i):
        return min(n_blocks - 1, i + rng.randint(1, 6)) if rng.random() < 0.85 \
            else rng.randrange(n_blocks)

    for i in range(n_blocks):
        shape = rng.choices(("halt", "jump", "branch", "fall"), (1, 2, 5, 2))[0]
        if shape == "jump":
            edges.append((i, target(i), BRANCH_TAKEN))
        elif shape == "branch":
            edges.append((i, target(i), BRANCH_TAKEN))
            edges.append((i, target(i), BRANCH_NOT_TAKEN))
        elif shape == "fall" and i + 1 < n_blocks:
            edges.append((i, i + 1, FALLTHROUGH))
    return cfg_from_sizes(rng.choices((1, 2), (3, 1), k=n_blocks), edges)


def terminal_blocks(cfg: Cfg) -> list[int]:
    """The blocks with no successors: where a synthetic program ends."""
    return [b for b, out in enumerate(cfg.successors) if not out]


def every_block(cfg: Cfg) -> range:
    """Every block as an end, so that most writes a guard-free path reaches
    are unguarded and have a witness."""
    return range(len(cfg.blocks))


def random_ends(cfg: Cfg, rng: random.Random) -> list[int]:
    """The blocks at whose end a random program may finish: most of those
    without successors and a few others, as a TEAL branch past the last
    instruction is."""
    return [b for b, out in enumerate(cfg.successors) if rng.random() < (0.15 if out else 0.8)]


def random_guards_and_funds(
    cfg: Cfg, rng: random.Random
) -> tuple[list[GuardPoint], list[FundModPoint]]:
    n_instr = cfg.blocks[-1].stop
    blocks = block_of(cfg)
    guards = []
    for _ in range(rng.randint(0, 3)):
        q = rng.randrange(n_instr)
        block = blocks[q]
        outgoing = cfg.successors[block]
        if q == cfg.blocks[block].stop - 1 and len(outgoing) == 2 and rng.random() < 0.6:
            fail_idx = rng.randrange(2)
            other_to, other_kind = outgoing[1 - fail_idx]
            guards.append(GuardPoint(
                "BranchGuard", block, q, q + 1, "addr TESTSOURCE",
                "branch guard", non_fail_edge=(block, other_to, other_kind),
            ))
        else:
            guards.append(GuardPoint(
                "AssertGuard", block, q, q + 1, "addr TESTSOURCE", "assert guard"))
    funds = []
    for q in rng.sample(range(n_instr), min(rng.randint(0, 3), n_instr)):
        funds.append(FundModPoint(blocks[q], q, q + 1, "app_global_put", "MyBalance"))
    return guards, funds
