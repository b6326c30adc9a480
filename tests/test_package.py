"""Rules on how the modules of the package depend on each other and tell the
statistic kinds apart, and on the names the benchmark needs from it."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import mspacings
from mspacings import asymptotics, cli
from mspacings.statistics import NAMED_KINDS

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


def test_import_and_test_command_leave_numpy_random_unloaded(tmp_path):
    # numpy.random loads only when a stream is drawn: importing it with the
    # package would add 12-14 ms (2-vCPU container) to every ``test`` call
    data = tmp_path / "data.txt"
    data.write_text("".join(f"{(k * 0.618034) % 1.0!r}\n" for k in range(1, 40)))
    script = ("import sys\n"
              "import mspacings\n"
              "from mspacings import cli\n"
              "loaded = 'numpy.random' in sys.modules\n"
              f"code = cli.main(['test', {str(data)!r}, '--statistic', 'greenwood'])\n"
              "print(loaded, 'numpy.random' in sys.modules, code, file=sys.stderr)\n")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)}, timeout=60)
    assert proc.stderr.split() == ["False", "False", "0"], proc.stderr


def name_dispatch(source: str) -> list[tuple[int, str]]:
    """(line, kind name) of every comparison of a ``.name`` attribute with the
    name of a registered kind written as a string literal."""
    hits = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Compare):
            continue
        operands = [node.left, *node.comparators]
        if not any(isinstance(op, ast.Attribute) and op.attr == "name" for op in operands):
            continue
        literals = [elt for op in operands
                    for elt in (op.elts if isinstance(op, (ast.Tuple, ast.List, ast.Set)) else [op])]
        hits += [(node.lineno, lit.value) for lit in literals
                 if isinstance(lit, ast.Constant) and lit.value in NAMED_KINDS]
    return hits


def test_no_kind_is_told_apart_by_its_name():
    # a custom kind may reuse a registered name, so its name says nothing of
    # its formulas: the closed forms go by the kinds themselves
    found = {path.name: name_dispatch(path.read_text())
             for path in sorted(PACKAGE.glob("*.py"))}
    assert {name: hits for name, hits in found.items() if hits} == {}


def test_guard_sees_a_name_comparison():
    source = ('if kind.name == "greenwood":\n    pass\n'
              'elif "moran" != h.name or k.name in ("entropy", "cube"):\n    pass\n'
              'ok = kind.name == "custom-sum" or kind == "moran"\n')
    assert name_dispatch(source) == [(1, "greenwood"), (3, "moran"), (3, "entropy")]


def test_closed_forms_cover_exactly_the_registered_kinds():
    # the CLI offers every registered kind, and each needs its closed forms
    assert asymptotics._CLOSED_FORMS.keys() == NAMED_KINDS.keys()


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
