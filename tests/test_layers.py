"""The modules of the package import one another without a cycle.  Every
relative import in `src/ballquot`, function-level ones included, is an edge
of the module graph."""

import ast
from graphlib import TopologicalSorter
from pathlib import Path

import pytest

import ballquot

PACKAGE = Path(ballquot.__file__).parent
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py"))


def parse(module: str) -> ast.Module:
    return ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))


def imported_modules(module: str) -> set[str]:
    """The package modules that `module` imports anywhere in its source: the
    module a `from .m import x` names, each module that a `from . import m`
    names, and `__init__` for a `from . import name` of anything else."""
    found = set()
    for node in ast.walk(parse(module)):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module:
                found.add(node.module.split(".")[0])
            else:
                found.update(a.name if a.name in MODULES else "__init__" for a in node.names)
    return found


def import_graph() -> dict[str, set[str]]:
    return {m: imported_modules(m) for m in MODULES}


def test_the_module_graph_has_no_cycle():
    TopologicalSorter(import_graph()).prepare()  # raises graphlib.CycleError on a cycle


def test_the_graph_holds_function_level_imports():
    graph = import_graph()
    # the CLI imports each command's modules inside the command
    assert {"lfunctions", "singularities", "dimension", "classifier", "report"} <= graph["cli"]
    assert "__init__" in graph["report"]  # from . import __version__, read_data


@pytest.mark.parametrize("module", ["cyclotomic", "cyclic_algebra", "order_arithmetic"])
def test_the_algebra_layers_import_at_module_top_only(module):
    nested = [node.lineno for top in parse(module).body
              if isinstance(top, (ast.FunctionDef, ast.ClassDef))
              for node in ast.walk(top) if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert nested == []
