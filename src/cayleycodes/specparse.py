"""Group spec strings and element expressions.

Spec grammar (ASCII, case-insensitive):
    "cyclic:N" | "dihedral:N" (order 2N) | "abelian:N1,N2,..."
    | "product:(SPEC)x(SPEC)" | "table:PATH"

Cayley-table files: line 1 is n, then n rows of n indices; identity must
be index 0.

Element expressions use the group's canonical generators (a for cyclic,
a and b for dihedral, a1..ak for abelian products), "^" for exponents,
"*" for products and "," between generators; plain comma-separated
integers are read as element indices for any group kind.
"""

from __future__ import annotations

import re

from .errors import CayleyCodesError, GroupSpecError, GroupTableError
from .groups import (
    FiniteGroup,
    constructed_order,
    direct_product,
    from_table,
    make_abelian,
    make_cyclic,
    make_dihedral,
)


def parse_group_spec(spec: str, check_order=None) -> FiniteGroup:
    """The group a spec names.

    Table files are read first.  Then `check_order`, when given, is called
    with |G| before any multiplication table is built from a constructor
    or a product, so it can refuse a spec without an n^2 table.
    """
    tree = _tree(spec)
    order = _order(tree)  # raises on a parameter a constructor rejects
    if check_order is not None:
        check_order(order)
    return _build(tree)


def _tree(spec: str):
    """The spec as (kind, parameter) or ("product", left tree, right tree);
    a table file is ("table", its group)."""
    kind, *args = _parse(spec)
    if kind == "product":
        return ("product", *map(_tree, args))
    if kind == "table":
        return ("table", load_table_file(args[0]))
    return (kind, args[0])


def _order(tree) -> int:
    """|G| of a tree, without building a table."""
    kind, *args = tree
    if kind == "product":
        return _order(args[0]) * _order(args[1])
    if kind == "table":
        return args[0].order
    try:
        return constructed_order(kind, args[0])
    except CayleyCodesError as exc:
        raise GroupSpecError(str(exc)) from exc


def _build(tree) -> FiniteGroup:
    kind, *args = tree
    if kind == "product":
        return direct_product(*map(_build, args))
    if kind == "table":
        return args[0]
    make = {"cyclic": make_cyclic, "dihedral": make_dihedral, "abelian": make_abelian}
    return make[kind](args[0])


def _parse(spec: str):
    """The spec's grammar: (kind, parameter), or ("product", left, right)."""
    text = spec.strip()
    low = text.lower()
    if low.startswith("cyclic:"):
        return "cyclic", _int(text[7:])
    if low.startswith("dihedral:"):
        return "dihedral", _int(text[9:])
    if low.startswith("abelian:"):
        parts = [p for p in text[8:].split(",") if p.strip()]
        if not parts:
            raise GroupSpecError(f"empty abelian factor list in {spec!r}")
        return "abelian", tuple(_int(p) for p in parts)
    if low.startswith("product:"):
        return ("product", *_split_product(text[8:], spec))
    if low.startswith("table:"):
        return "table", text[6:]
    raise GroupSpecError(f"unrecognized group spec {spec!r}")


def _int(text: str) -> int:
    try:
        return int(text.strip())
    except ValueError as exc:
        raise GroupSpecError(f"expected an integer, got {text.strip()!r}") from exc


def _split_product(body: str, spec: str):
    body = body.strip()
    if not body.startswith("("):
        raise GroupSpecError(f"product spec must look like (A)x(B): {spec!r}")
    depth, i = 0, 0
    for i, ch in enumerate(body):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth == 0:
                break
    left = body[1:i]
    rest = body[i + 1 :].strip()
    if not rest.lower().startswith("x"):
        raise GroupSpecError(f"product spec must look like (A)x(B): {spec!r}")
    rest = rest[1:].strip()
    if not (rest.startswith("(") and rest.endswith(")")):
        raise GroupSpecError(f"product spec must look like (A)x(B): {spec!r}")
    return left, rest[1:-1]


def load_table_file(path: str) -> FiniteGroup:
    """Read a Cayley-table file and validate it with `from_table`.

    The entries are parsed in one pass, O(n^2); on a bad token they are
    parsed again one by one, so the error names the first bad token.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            tokens = fh.read().split()
    except UnicodeDecodeError:
        raise GroupSpecError(f"table file {path!r} is not UTF-8 text") from None
    if not tokens:
        raise GroupSpecError(f"empty table file {path!r}")
    n = _int(tokens[0])
    body = tokens[1:]
    if len(body) != n * n:
        raise GroupSpecError(
            f"table file {path!r}: expected {n * n} entries, got {len(body)}"
        )
    try:
        cells = list(map(int, body))
    except ValueError:
        cells = [_int(token) for token in body]
    table = [cells[i * n : (i + 1) * n] for i in range(n)]
    g = from_table(table)
    if g.identity != 0:
        raise GroupTableError("no-identity", ("identity must be index 0", g.identity))
    return g


# ---------------------------------------------------------------------------
# element expressions


def canonical_generators(g: FiniteGroup) -> dict[str, int]:
    """Named generators for the expression grammar, keyed by token."""
    if g.kind == "cyclic":
        return {"a": 1 % g.order}
    if g.kind == "dihedral":
        n = g.order // 2
        return {"a": 1, "b": n}
    if g.kind == "abelian-product":
        return {f"a{i + 1}": s for i, s in enumerate(g.strides)}
    return {}

_TERM = re.compile(r"^([a-z][a-z0-9]*?|[a-z])(?:\^(-?\d+))?$", re.IGNORECASE)


def parse_element_expr(g: FiniteGroup, expr: str) -> int:
    """One element as a product of generator powers, e.g. "a1*a2^2"."""
    gens = canonical_generators(g)
    acc = g.identity
    for term in expr.strip().split("*"):
        term = term.strip()
        if not term:
            raise GroupSpecError(f"empty term in element expression {expr!r}")
        # isdecimal, not isdigit: int() rejects digits such as "²"
        if term.removeprefix("-").isdecimal():
            idx = int(term)
            if not 0 <= idx < g.order:
                raise GroupSpecError(f"element index {idx} out of range")
            acc = g.mult[acc][idx]
            continue
        m = _TERM.match(term)
        if not m:
            raise GroupSpecError(f"bad term {term!r} in element expression")
        name, exp = m.group(1).lower(), int(m.group(2) or 1)
        if name not in gens:
            raise GroupSpecError(
                f"unknown generator {name!r} for a {g.kind} group"
            )
        acc = g.mult[acc][g.power(gens[name], exp)]
    return acc


def parse_element_list(g: FiniteGroup, text: str) -> list[int]:
    """Comma-separated element indices or generator expressions."""
    parts = [p.strip() for p in text.split(",") if p.strip()]
    if not parts:
        return []
    if all(p.isdecimal() for p in parts):
        out = []
        for p in parts:
            idx = int(p)
            if not 0 <= idx < g.order:
                raise GroupSpecError(f"element index {idx} out of range")
            out.append(idx)
        return out
    return [parse_element_expr(g, p) for p in parts]
