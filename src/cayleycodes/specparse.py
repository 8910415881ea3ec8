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
from itertools import chain

from .errors import (
    BoundExceededError,
    CayleyCodesError,
    GroupSpecError,
)
from .groups import (
    FiniteGroup,
    constructed_order,
    direct_product,
    from_table,
    make_abelian,
    make_cyclic,
    make_dihedral,
)


# The deepest product nesting a spec may have.  65 nested products of
# nontrivial groups have order at least 2^66, over every default order
# bound, and 64 keeps the spec walk's recursion far from the interpreter's
# limit.
MAX_PRODUCT_DEPTH = 64


def parse_group_spec(spec: str, check_order=None) -> FiniteGroup:
    """The group a spec names.

    The spec is walked once: table files are read and validated, and
    constructor parameters checked, on the way down.  Then `check_order`,
    when given, is called with |G| before any multiplication table is
    built from a constructor or a product, so it can refuse a spec without
    an n^2 table.  Products nested deeper than MAX_PRODUCT_DEPTH raise
    BoundExceededError.
    """
    order, build = _plan(spec, 0)
    if check_order is not None:
        check_order(order)
    return build()


def _plan(spec: str, depth: int):
    """(|G|, a function that builds G) for a spec inside `depth` products."""
    kind, colon, param = spec.strip().partition(":")
    kind = kind.lower() if colon else None
    if kind == "product":
        if depth == MAX_PRODUCT_DEPTH:
            raise BoundExceededError(
                f"product nesting exceeds bound {MAX_PRODUCT_DEPTH}"
            )
        factors = (_plan(arg, depth + 1) for arg in _split_product(param, spec))
        (m, left), (n, right) = factors
        return m * n, lambda: direct_product(left(), right())
    if kind == "table":
        g = load_table_file(param)
        return g.order, lambda: g
    if kind == "abelian":
        parts = [p for p in param.split(",") if p.strip()]
        if not parts:
            raise GroupSpecError(f"empty abelian factor list in {spec!r}")
        param = tuple(map(_int, parts))
    elif kind in ("cyclic", "dihedral"):
        param = _int(param)
    else:
        raise GroupSpecError(f"unrecognized group spec {spec!r}")
    try:
        order = constructed_order(kind, param)
    except CayleyCodesError as exc:
        raise GroupSpecError(str(exc)) from exc
    make = {"cyclic": make_cyclic, "dihedral": make_dihedral, "abelian": make_abelian}
    return order, lambda: make[kind](param)


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

    The entries are parsed in one pass, O(n^2), by looking each token up
    in a dict from the plain spellings "0" .. "n-1" to their indices.  The
    file is split one line at a time, so that its n^2 token strings are
    never held at once.  A token outside the dict (another spelling int()
    reads, such as "007", "+1", "1_0" or a non-ASCII digit, an
    out-of-range index or a word) sends the body through int() token by
    token once the entry count is checked: `from_table` range-checks the
    result, and the first token int() rejects is named in the error.  A
    header n whose n^2 entries cannot fit in the file takes that path too,
    so the dict is never larger than the file.  The looked-up cells of a
    table of order <= 256 are one `bytes` object, and its row slices take
    `from_table`'s bytes path: one ``max`` per row for the range check.
    Any other table's cells are one list, cut into tuple rows that
    `from_table` keeps as they are.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except UnicodeDecodeError:
        raise GroupSpecError(f"table file {path!r} is not UTF-8 text") from None
    tokens = chain.from_iterable(map(str.split, lines))
    head = next(tokens, None)
    if head is None:
        raise GroupSpecError(f"empty table file {path!r}")
    n = _int(head)
    if n * n > sum(map(len, lines)):  # each entry takes one character or more
        cells, spelled = " ".join(lines).split()[1:], True
    else:
        lookup = {str(i): i for i in range(n)}.__getitem__
        try:
            cells = (bytes if n <= 256 else list)(map(lookup, tokens))
            spelled = False
        except KeyError:
            cells, spelled = " ".join(lines).split()[1:], True
    del tokens, lines  # the text is not read again
    if len(cells) != n * n:
        raise GroupSpecError(
            f"table file {path!r}: expected {n * n} entries, got {len(cells)}"
        )
    if spelled:
        cells = list(map(_int, cells))
    row = bytes if type(cells) is bytes else tuple  # bytes(b) is b, uncopied
    g = from_table([row(cells[i * n : (i + 1) * n]) for i in range(n)])
    if g.identity != 0:
        raise GroupSpecError(
            f"table file {path!r}: the identity is index {g.identity}, not index 0"
        )
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
    return [parse_element_expr(g, p) for p in text.split(",") if p.strip()]
