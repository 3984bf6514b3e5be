"""The benchmark's tracer (``perfbench/tracer.py``) wraps package functions
by module and name; a rename in the package would break its traced runs.
The tracer is read as source, not imported."""

import ast
import importlib
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


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
