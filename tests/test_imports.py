"""Every name a package module imports is used there.

A stdlib ``ast`` pass in place of a linter's F401 rule: a name bound by an
import and never read in the module fails, unless its import statement
carries ``# noqa: F401``.  ``__init__.py`` is left out, since it imports only
to re-export.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "naqae"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names bound by imports in ``source`` that are never read, as 'line: name'."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any("# noqa: F401" in line for line in lines[node.lineno - 1 : node.end_lineno]):
            continue
        for alias in node.names:
            imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{line}: {name}" for name, line in sorted(imported.items()) if name not in used]


def test_checker_flags_unused_and_honours_noqa():
    source = (
        "import math\n"
        "import os.path\n"
        "from json import dumps as _dumps, loads\n"
        "from re import (  # noqa: F401\n"
        "    compile,\n"
        ")\n"
        "print(os.path.sep, loads)\n"
    )
    assert unused_imports(source) == ["3: _dumps", "1: math"]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
