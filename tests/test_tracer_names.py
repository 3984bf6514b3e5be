"""The benchmark's tracer (``perfbench/tracer.py``) wraps package functions
by module and name, and its runner (``perfbench/run.py``) imports package
modules by name; a rename in the package would break its runs.  Both are
read as source, not imported."""

import ast
import importlib
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "perfbench"
TRACER = BENCH / "tracer.py"
RUNNER = BENCH / "run.py"


def _wrapped_names():
    """(module, function) of every entry of the tracer's PATCHES and
    COUNTED tables."""
    names = []
    for node in ast.parse(TRACER.read_text()).body:
        if isinstance(node, ast.Assign) and any(
                getattr(t, "id", None) in ("PATCHES", "COUNTED")
                for t in node.targets):
            names += [tuple(ast.literal_eval(e) for e in entry.elts[:2])
                      for entry in node.value.elts]
    return names


def test_every_wrapped_name_resolves():
    names = _wrapped_names()
    assert len(names) >= 20 and ("stationary", "census") in names
    missing = [(module, function) for module, function in names
               if not callable(getattr(importlib.import_module(
                   f"potts_landscape.{module}"), function, None))]
    assert missing == []


def _runner_submodules():
    """The runner's SUBMODULES tuple."""
    for node in ast.parse(RUNNER.read_text()).body:
        if isinstance(node, ast.Assign) and any(
                getattr(t, "id", None) == "SUBMODULES" for t in node.targets):
            return ast.literal_eval(node.value)
    return ()


def test_every_runner_submodule_imports():
    names = _runner_submodules()
    assert "rootfind" in names and "maxwell" in names
    for name in names:
        importlib.import_module(f"potts_landscape.{name}")
