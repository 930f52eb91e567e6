"""The benchmark in ``perfbench/`` wraps library functions by name and calls
others through their modules.  A rename or removal in ``thermosft`` must
fail here, not only when the benchmark runs.  The benchmark's files are read
as source text, never imported or changed."""

import ast
import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _extras_names():
    """The ``module.function`` keys of ``EXTRAS`` in ``perfbench/tracer.py``."""
    tree = ast.parse((PERFBENCH / "tracer.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "EXTRAS" for t in node.targets
        ):
            return [ast.literal_eval(key) for key in node.value.keys]
    raise AssertionError("perfbench/tracer.py defines no EXTRAS")


def _workload_calls():
    """Every ``module.name`` that ``perfbench/workloads.py`` reads off a
    thermosft module it imports."""
    tree = ast.parse((PERFBENCH / "workloads.py").read_text())
    modules = {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.module == "thermosft"
        for alias in node.names
    }
    return sorted(
        {
            f"{node.value.id}.{node.attr}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in modules
        }
    )


def _resolve(name):
    module, attr = name.split(".")
    return getattr(importlib.import_module("thermosft." + module), attr, None)


def test_tracer_extras_resolve_to_callables():
    names = _extras_names()
    assert names
    missing = [name for name in names if not callable(_resolve(name))]
    assert missing == []


def test_workload_calls_resolve():
    names = _workload_calls()
    assert "transfer.integrate" in names
    missing = [name for name in names if _resolve(name) is None]
    assert missing == []
