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
from .groups import FiniteGroup, from_table, make_abelian, make_cyclic, make_dihedral


def parse_group_spec(spec: str) -> FiniteGroup:
    text = spec.strip()
    low = text.lower()
    if low.startswith("cyclic:"):
        return _construct(make_cyclic, _int(text[7:]))
    if low.startswith("dihedral:"):
        return _construct(make_dihedral, _int(text[9:]))
    if low.startswith("abelian:"):
        parts = [p for p in text[8:].split(",") if p.strip()]
        if not parts:
            raise GroupSpecError(f"empty abelian factor list in {spec!r}")
        return _construct(make_abelian, tuple(_int(p) for p in parts))
    if low.startswith("product:"):
        left, right = _split_product(text[8:], spec)
        from .groups import direct_product

        return direct_product(parse_group_spec(left), parse_group_spec(right))
    if low.startswith("table:"):
        return load_table_file(text[6:])
    raise GroupSpecError(f"unrecognized group spec {spec!r}")


def _construct(make, param) -> FiniteGroup:
    """Call a group constructor; a parameter it rejects is a spec error."""
    try:
        return make(param)
    except CayleyCodesError as exc:
        raise GroupSpecError(str(exc)) from exc


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
    with open(path) as fh:
        tokens = fh.read().split()
    if not tokens:
        raise GroupSpecError(f"empty table file {path!r}")
    n = _int(tokens[0])
    body = tokens[1:]
    if len(body) != n * n:
        raise GroupSpecError(
            f"table file {path!r}: expected {n * n} entries, got {len(body)}"
        )
    table = [[_int(body[i * n + j]) for j in range(n)] for i in range(n)]
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
        strides = []
        acc = g.order
        for m in g.decomposition:
            acc //= m
            strides.append(acc)
        return {f"a{i + 1}": s for i, s in enumerate(strides)}
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
        if term.lstrip("-").isdigit():
            idx = int(term)
            if not 0 <= idx < g.order:
                raise GroupSpecError(f"element index {idx} out of range")
            acc = g.mul(acc, idx)
            continue
        m = _TERM.match(term)
        if not m:
            raise GroupSpecError(f"bad term {term!r} in element expression")
        name, exp = m.group(1).lower(), int(m.group(2) or 1)
        if name not in gens:
            raise GroupSpecError(
                f"unknown generator {name!r} for a {g.kind} group"
            )
        acc = g.mul(acc, g.power(gens[name], exp))
    return acc


def parse_element_list(g: FiniteGroup, text: str) -> list[int]:
    """Comma-separated element indices or generator expressions."""
    parts = [p.strip() for p in text.split(",") if p.strip()]
    if not parts:
        return []
    if all(p.isdigit() for p in parts):
        out = []
        for p in parts:
            idx = int(p)
            if not 0 <= idx < g.order:
                raise GroupSpecError(f"element index {idx} out of range")
            out.append(idx)
        return out
    return [parse_element_expr(g, p) for p in parts]
