"""Fail when a module imports a name that it never reads.

    python tools/unused_imports.py [DIR ...]

Checks every `.py` file under each DIR (default: `src`). A name bound by an
`import` or `from ... import` is unused when no expression in the module
reads it and the module's `__all__` does not list it. `from __future__`
imports are exempt. Prints one `FILE:LINE: 'NAME' imported but never read`
line per unused name and exits 1 if there is any.

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


def unused_imports(path: Path) -> list[tuple[int, str]]:
    """(line, name) of each name the module at path imports and never reads."""
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
    unused = imported.keys() - read - _exported(tree)
    return sorted((imported[name], name) for name in unused)


def main(argv: list[str]) -> int:
    found = False
    for root in argv or ["src"]:
        for path in sorted(Path(root).rglob("*.py")):
            for line, name in unused_imports(path):
                print(f"{path}:{line}: {name!r} imported but never read")
                found = True
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
