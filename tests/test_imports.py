"""Every module-level import under src/ is read by its module.

The package `__init__.py` files re-export names and are left out.  A name counts
as read when it appears as a loaded name anywhere in the module, so an import
that a local of the same name shadows still passes.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
MODULES = sorted(p for p in SRC.rglob("*.py") if p.name != "__init__.py")


def unread_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.partition(".")[0]
                imported[name] = node.lineno
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in read]


def test_modules_found():
    assert {"cli.py", "transform.py", "core.py", "cells.py"} <= {p.name for p in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(SRC)))
def test_module_reads_every_import(path):
    assert unread_imports(path.read_text()) == []


def test_unread_import_is_found():
    source = "from math import gcd, lcm\nimport os.path\n\nprint(lcm(2, 3))\n"
    assert unread_imports(source) == ["gcd (line 1)", "os (line 2)"]
