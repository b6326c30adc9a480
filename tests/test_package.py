"""Rules on how the modules of the package depend on each other, and on the
names the benchmark needs from it."""

import ast
from pathlib import Path

import mspacings
from mspacings import cli

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


BENCH_WORKLOADS = Path(__file__).parents[1] / "bench" / "workloads.py"


def bench_needs(source: str) -> tuple[set[str], set[str]]:
    """(names the benchmark imports from ``mspacings``, ``cli`` attributes
    its traced CLI replay wraps by name)."""
    tree = ast.parse(source)
    imported = {alias.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.level == 0
                and node.module == "mspacings" for alias in node.names}
    (traced,) = [node for node in ast.walk(tree)
                 if isinstance(node, ast.FunctionDef) and node.name == "_traced_cli"]
    wrapped = {key.value for node in ast.walk(traced)
               if isinstance(node, ast.Assign) and isinstance(node.value, ast.Dict)
               for key in node.value.keys}
    return imported, wrapped


def test_benchmark_names_exist():
    imported, wrapped = bench_needs(BENCH_WORKLOADS.read_text())
    assert "statistic_Z" in imported and "statistic_V" in wrapped
    assert sorted(name for name in imported if not hasattr(mspacings, name)) == []
    assert sorted(name for name in wrapped if not hasattr(cli, name)) == []
