"""Every top-level import of the package, the tests and the scripts is used.

Each module is parsed with `ast`; a name bound by an import statement at
module level must appear as a name somewhere else in the module or be
listed in its `__all__`.  `from __future__` imports are exempt.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted(
    path for folder in ("src", "tests", "scripts") for path in (ROOT / folder).rglob("*.py")
)


def unused_imports(source: str) -> list[str]:
    """The names that top-level imports of `source` bind and it never uses."""
    tree = ast.parse(source)
    bound: dict[str, int] = {}
    exported: set[str] = set()
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported = set(ast.literal_eval(node.value))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in bound.items() if name not in used | exported]


def test_the_scan_sees_every_folder():
    folders = {path.relative_to(ROOT).parts[0] for path in MODULES}
    assert folders == {"src", "tests", "scripts"}


def test_the_scan_flags_unused_names_only():
    source = (
        "from __future__ import annotations\n"
        "import os, sys\n"
        "import numpy.linalg\n"
        "from json import dumps as d, loads\n"
        "from math import pi\n"
        "__all__ = ['pi']\n"
        "print(sys.argv, numpy.linalg, d)\n"
    )
    assert unused_imports(source) == ["os (line 2)", "loads (line 4)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_top_level_import(path):
    assert unused_imports(path.read_text()) == []
