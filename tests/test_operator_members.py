"""Every public member of the operator bundle has a reader outside the tests.

A member of `AssembledOperators` that only tests read is a table of
`src/` kept for tests alone.  Each module of `src/`, `perfbench/` and
`scripts/` other than a test module is parsed with `ast`; every public
field, property and method of the bundle must be read as an attribute
(`x.name`, not assigned) in one of them.
"""

import ast
import dataclasses
from pathlib import Path

from pstokes.spaces import AssembledOperators

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted(
    path
    for folder in ("src", "perfbench", "scripts")
    for path in (ROOT / folder).rglob("*.py")
    if not path.name.startswith("test_")
)


def public_members(cls: type) -> set[str]:
    """The public fields, properties and methods of a dataclass."""
    names = {f.name for f in dataclasses.fields(cls)} | set(vars(cls))
    return {name for name in names if not name.startswith("_")}


def attributes_read(source: str) -> set[str]:
    """The attribute names that `source` reads."""
    return {
        node.attr
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }


def test_the_scan_sees_reads_only():
    source = "a.read + f(b.called)\nc.written = 1\ndef defined(): pass\n"
    assert attributes_read(source) == {"read", "called"}


def test_the_scan_sees_fields_and_cached_tables():
    members = public_members(AssembledOperators)
    assert {"M_free", "free", "stream_basis", "projection_saddle"} <= members
    assert "_projection_saddle" not in members


def test_every_operator_member_is_read_outside_the_tests():
    read = set().union(*(attributes_read(path.read_text()) for path in MODULES))
    assert sorted(public_members(AssembledOperators) - read) == []
