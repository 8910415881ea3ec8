"""Every public library definition is used by the library itself.

A public top-level function or class of a module in `src/cayleycodes/`
(other than `__init__`), or a public method of one of its classes, must be
referenced by name -- a `Name`, an `Attribute` or an import -- in some
library module other than `__init__`.  Code that only tests read is
deleted rather than kept.  The exceptions are the two test oracles and
the names the benchmark hooks into (`test_bench_hooks`).  The sources are
read with the `ast` module only; nothing is imported from the library.
"""

from __future__ import annotations

import ast
from pathlib import Path

from test_bench_hooks import _tracing_targets, _worker_lib_names

SRC = Path(__file__).resolve().parent.parent / "src" / "cayleycodes"
# independent checks that only tests call
ORACLES = {("groups", "is_automorphism"), ("spectral", "CyclotomicSum.as_complex")}


def _modules():
    return {
        path.stem: ast.parse(path.read_text())
        for path in sorted(SRC.glob("*.py"))
        if path.stem != "__init__"
    }


def _definitions(modules):
    """(module, name) of every public top-level function and class, and
    (module, "Class.method") of every public method of a top-level class."""
    out = []
    for module, tree in modules.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if not node.name.startswith("_"):
                out.append((module, node.name))
            if isinstance(node, ast.ClassDef):
                out += [
                    (module, f"{node.name}.{item.name}")
                    for item in node.body
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_")
                ]
    return out


def _referenced(modules):
    names = set()
    for tree in modules.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                names.update(alias.name for alias in node.names)
    return names


def test_allowlist_names_defined():
    assert ORACLES <= set(_definitions(_modules()))


def test_every_public_definition_is_used_by_the_library():
    modules = _modules()
    used = _referenced(modules)
    allowed = ORACLES | set(_tracing_targets()) | set(_worker_lib_names())
    unused = [
        f"{module}.{name}"
        for module, name in _definitions(modules)
        if name.rsplit(".", 1)[-1] not in used and (module, name) not in allowed
    ]
    assert unused == []
