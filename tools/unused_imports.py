"""Fail when a module imports a name, or defines a private one, that it never reads.

    python tools/unused_imports.py [DIR ...]

Checks every `.py` file under each DIR (default: `src`). A name bound by an
`import` or `from ... import` is unused when no expression in the module
reads it and the module's `__all__` does not list it. `from __future__`
imports are exempt. A private name bound at module level (`_X = ...`,
`def _f`, `class _C`; not a dunder) is unused when no expression in the
module reads it: a constant or helper that a refactor orphaned. Prints one
`FILE:LINE: 'NAME' imported but never read` or `FILE:LINE: 'NAME' defined
but never read` line per unused name and exits 1 if there is any.

Standard library only.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path


def _exported(tree: ast.Module) -> set[str]:
    """The names a module-level `__all__ = [...]` or `(...)` lists."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__"
                for target in node.targets) and isinstance(node.value, (ast.List, ast.Tuple)):
            return {elt.value for elt in node.value.elts if isinstance(elt, ast.Constant)}
    return set()


def _private_definitions(tree: ast.Module) -> dict[str, int]:
    """Line of each private name the module's top level binds, dunders aside."""
    defined: dict[str, int] = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [name.id for target in targets for name in ast.walk(target)
                     if isinstance(name, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                defined.setdefault(name, node.lineno)
    return defined


def unused_names(path: Path) -> list[tuple[int, str, str]]:
    """(line, name, what) of each name the module at path imports, or
    privately defines, and never reads; what is "imported" or "defined"."""
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    imported: dict[str, int] = {}
    read: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # `import a.b` binds `a`; `from m import *` binds no one name.
                name = alias.asname or alias.name.split(".")[0]
                if name != "*":
                    imported.setdefault(name, node.lineno)
        elif isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            read.add(node.id)
    defined = _private_definitions(tree)
    return sorted([(imported[name], name, "imported")
                   for name in imported.keys() - read - _exported(tree)]
                  + [(defined[name], name, "defined") for name in defined.keys() - read])


def main(argv: list[str]) -> int:
    found = False
    for root in argv or ["src"]:
        for path in sorted(Path(root).rglob("*.py")):
            for line, name, what in unused_names(path):
                print(f"{path}:{line}: {name!r} {what} but never read")
                found = True
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
