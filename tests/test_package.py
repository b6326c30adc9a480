"""Rules on how the modules of the package depend on each other."""

import ast
from pathlib import Path

import mspacings

PACKAGE = Path(mspacings.__file__).parent


def private_imports(source: str) -> list[tuple[int, str, str]]:
    """(line, module, name) of every underscore name imported from a sibling
    module by a relative import."""
    return [(node.lineno, "." * node.level + (node.module or ""), alias.name)
            for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ImportFrom) and node.level > 0
            for alias in node.names if alias.name.startswith("_")]


def test_no_private_name_imported_across_modules():
    found = {path.name: private_imports(path.read_text())
             for path in sorted(PACKAGE.glob("*.py"))}
    assert {name: hits for name, hits in found.items() if hits} == {}


def test_guard_sees_a_private_import():
    source = "from .statistics import (\n    evaluate,\n    _scaled_rows,\n)\n"
    assert private_imports(source) == [(1, ".statistics", "_scaled_rows")]
