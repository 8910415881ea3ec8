"""The library names the benchmark in `perfbench/` hooks into still resolve.

`perfbench/tracing.py` wraps every (module, attribute) in its `TARGETS`
for `--trace 1`, and `perfbench/worker.py` builds its workload inputs from
the `lib` namespace of library functions.  A refactor that renames or
removes one of them breaks the benchmark without failing any other test.
"""

from __future__ import annotations

import ast
import importlib
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _tracing_targets():
    sys.path.insert(0, str(BENCH))
    try:
        import tracing
    finally:
        sys.path.remove(str(BENCH))
    return sorted({site for sites in tracing.TARGETS.values() for site in sites})


def _worker_lib_names():
    """(module, attribute) of every `lib` entry in worker.import_library."""
    tree = ast.parse((BENCH / "worker.py").read_text())
    calls = [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "SimpleNamespace"
    ]
    assert len(calls) == 1
    return [(kw.value.value.id, kw.value.attr) for kw in calls[0].keywords]


@pytest.mark.parametrize("module, attr", _tracing_targets() + _worker_lib_names())
def test_hooked_name_resolves(module, attr):
    obj = importlib.import_module(f"cayleycodes.{module}")
    for part in attr.split("."):
        obj = getattr(obj, part)
    assert callable(obj)
