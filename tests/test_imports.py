"""Every module of the package uses each name it imports."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "ghilb_kit"


def unused_imports(source: str) -> list[str]:
    """Names bound by the imports of a module that the module never reads.

    A name listed in the module's __all__ is a re-export and counts as read;
    `from __future__ import ...` binds nothing.
    """
    tree = ast.parse(source)
    imported = {}
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            read.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            read.update(ast.literal_eval(node.value))
    return sorted(f"line {line}: {name}" for name, line in imported.items() if name not in read)


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_detector_sees_unused_and_reexported_names():
    source = (
        "from __future__ import annotations\n"
        "import os, sys\n"
        "from fractions import Fraction as F\n"
        "from typing import Optional\n"
        "__all__ = ['F']\n"
        "def f(x: Optional[int]) -> None:\n"
        "    sys.exit(x)\n"
    )
    assert unused_imports(source) == ["line 2: os"]
