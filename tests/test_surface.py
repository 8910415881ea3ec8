"""Every public library definition is used by the library itself.

A public top-level function or class of a module in `src/cayleycodes/`
(other than `__init__`), or a public method of one of its classes, must be
referenced by name -- a `Name`, an `Attribute` or an import -- in some
library module other than `__init__`.  A public annotated class attribute
(a dataclass field) must be read as an attribute, `obj.field`, in some
such module.  Code and data that only tests read are deleted rather than
kept.  The exceptions are the two test oracles and the names the
benchmark hooks into (`test_bench_hooks`).  The sources are read with the
`ast` module only; nothing is imported from the library.

Both checks match by name only, so a dead member escapes them while any
library module reads another member of the same name.  The `generators`
field of the deleted subgroup class went unnoticed that way: only tests
read it, but `FiniteGroup.generators` has the same name.
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


def _fields(modules):
    """(module, "Class.field") of every public annotated attribute of a
    top-level class."""
    return [
        (module, f"{node.name}.{item.target.id}")
        for module, tree in modules.items()
        for node in tree.body
        if isinstance(node, ast.ClassDef)
        for item in node.body
        if isinstance(item, ast.AnnAssign)
        and isinstance(item.target, ast.Name)
        and not item.target.id.startswith("_")
    ]


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


def _allowed():
    return ORACLES | set(_tracing_targets()) | set(_worker_lib_names())


def test_every_public_definition_is_used_by_the_library():
    modules = _modules()
    used = _referenced(modules)
    allowed = _allowed()
    unused = [
        f"{module}.{name}"
        for module, name in _definitions(modules)
        if name.rsplit(".", 1)[-1] not in used and (module, name) not in allowed
    ]
    assert unused == []


def test_every_public_field_is_read_by_the_library():
    modules = _modules()
    read = {
        node.attr
        for tree in modules.values()
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
    }
    allowed = _allowed()
    unread = [
        f"{module}.{name}"
        for module, name in _fields(modules)
        if name.rsplit(".", 1)[-1] not in read and (module, name) not in allowed
    ]
    assert unread == []
