"""Shared test utilities: corpus access, AST comparison, random CFGs."""

from __future__ import annotations

import dataclasses
import os
import random

from centriscan.solidity import ast
from centriscan.solidity.parser import parse_solidity
from centriscan.teal.cfg import (
    BRANCH_NOT_TAKEN,
    BRANCH_TAKEN,
    FALLTHROUGH,
    BasicBlock,
    Cfg,
)
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


def parse_single_contract(source: str) -> ast.ContractDecl:
    unit = parse_solidity(source, "test.sol")
    assert len(unit.contracts) == 1, unit.diagnostics
    return unit.contracts[0]


def parse_function_body(statements: str) -> list[ast.Stmt]:
    contract = parse_single_contract(
        "contract W { function w() public {\n" + statements + "\n} }"
    )
    return contract.functions[0].body


# Node kinds whose text is their content, not just a source echo.
_TEXT_IS_CONTENT = (ast.Literal, ast.OpaqueExpr, ast.Opaque)


def ast_equal(a, b) -> bool:
    """Structural equality ignoring locations and incidental source text."""
    if type(a) is not type(b):
        return False
    if isinstance(a, list):
        return len(a) == len(b) and all(ast_equal(x, y) for x, y in zip(a, b))
    if not dataclasses.is_dataclass(a):
        return a == b
    for f in dataclasses.fields(a):
        if f.name in ("line", "column"):
            continue
        if f.name == "text" and not isinstance(a, _TEXT_IS_CONTENT):
            continue
        if not ast_equal(getattr(a, f.name), getattr(b, f.name)):
            return False
    return True


# --- synthetic CFGs for the guardedness oracle ------------------------------

def random_cfg(rng: random.Random) -> Cfg:
    """A random small CFG shaped like build_cfg output (<=12 blocks)."""
    n_blocks = rng.randint(1, 12)
    sizes = [rng.randint(1, 3) for _ in range(n_blocks)]
    blocks = []
    block_of = []
    start = 0
    for i, size in enumerate(sizes):
        blocks.append(BasicBlock(i, start, start + size))
        block_of.extend([i] * size)
        start += size
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
    return Cfg(blocks=blocks, edges=edges, entry=0, block_of=block_of)


def random_guards_and_funds(
    cfg: Cfg, rng: random.Random
) -> tuple[list[GuardPoint], list[FundModPoint]]:
    n_instr = cfg.blocks[-1].end
    guards = []
    for _ in range(rng.randint(0, 3)):
        q = rng.randrange(n_instr)
        block = cfg.block_of[q]
        outgoing = cfg.successors(block)
        if q == cfg.blocks[block].end - 1 and len(outgoing) == 2 and rng.random() < 0.6:
            fail_idx = rng.randrange(2)
            fail_to, _fail_kind = outgoing[fail_idx]
            other_to, other_kind = outgoing[1 - fail_idx]
            guards.append(GuardPoint(
                "BranchGuard", block, q, q + 1, "addr TESTSOURCE",
                "branch guard", fail_target=fail_to,
                non_fail_edge=(block, other_to, other_kind),
            ))
        else:
            guards.append(GuardPoint(
                "AssertGuard", block, q, q + 1, "addr TESTSOURCE", "assert guard"))
    funds = []
    for q in rng.sample(range(n_instr), min(rng.randint(0, 3), n_instr)):
        funds.append(FundModPoint(cfg.block_of[q], q, q + 1, "app_global_put", "MyBalance"))
    return guards, funds
