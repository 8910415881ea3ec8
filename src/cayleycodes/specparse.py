"""Group spec strings and element expressions.

Spec grammar (ASCII, case-insensitive):
    "cyclic:N" | "dihedral:N" (order 2N) | "abelian:N1,N2,..."
    | "product:(SPEC)x(SPEC)" | "table:PATH"

Cayley-table files: the first token is the order n >= 1, then the n^2
indices row by row, in any whitespace layout (usually n lines of n);
identity must be index 0.

Element expressions use the group's canonical generators (a for cyclic,
a and b for dihedral, a1..ak for abelian products), "^" for exponents,
"*" for products and "," between generators; plain comma-separated
integers are read as element indices for any group kind.
"""

from __future__ import annotations

import re
from operator import itemgetter

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

# About how many entries of a table file are parsed at once: enough to
# spread the cost of one split and one lookup call over many entries, few
# enough that the token strings of a large table are never all held.
BLOCK_ENTRIES = 512


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


def _int(text: str, where: str = "") -> int:
    try:
        return int(text.strip())
    except ValueError as exc:
        raise GroupSpecError(
            f"{where}expected an integer, got {text.strip()!r}"
        ) from exc


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

    The header is the first token of the first line that holds one; the
    entries follow it, on its line or later ones, in any layout.  They are
    parsed in one pass, O(n^2), block by block: a block is a run of whole
    lines holding about BLOCK_ENTRIES entries, or one line where a line
    holds more, so that the file's n^2 token strings are never held at
    once.  Each block is one join and split, and one ``itemgetter`` call
    that looks its tokens up in a dict from the plain spellings "0", "1",
    ... to their indices.  The dict stops below n and below the file's
    character count: a file of c characters holds at most c entries, so a
    file with the right entry count spells no plain index the dict lacks.
    A block with a token outside the dict (another spelling int() reads,
    such as "007", "+1", "1_0" or a non-ASCII digit, an out-of-range index
    or a word) is read token by token with int(), and the first token
    int() rejects is named in the error, with the file; `from_table`
    range-checks the values.  The whole rows a block completes are cut
    from it at once: `bytes` rows for a table of order <= 256 until a
    block needs int(), whose values need not fit in a byte, and tuple rows
    after that and for any larger table.  `from_table` takes either kind
    as it is.  The entry count is checked once the text is read.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except UnicodeDecodeError:
        raise GroupSpecError(f"table file {path!r} is not UTF-8 text") from None
    first = next((i for i, line in enumerate(lines) if line.strip()), None)
    if first is None:
        raise GroupSpecError(f"empty table file {path!r}")
    head, *rest = lines[first].split(None, 1)
    del lines[:first]
    lines[0] = rest[0] if rest else ""  # the entries on the header's line
    where = f"table file {path!r}: "
    n = _int(head, where)
    if n < 1:
        raise GroupSpecError(
            f"{where}the header must be a positive order, got {head!r}"
        )
    lookup = {str(i): i for i in range(min(n, sum(map(len, lines))))}
    row, rows, cells = (bytes, [], bytearray()) if n <= 256 else (tuple, [], [])
    # whole lines per block: about BLOCK_ENTRIES entries if the entries
    # are spread evenly over the lines
    step = max(1, BLOCK_ENTRIES * len(lines) // (n * n))
    for i in range(0, len(lines), step):
        tokens = " ".join(lines[i : i + step]).split()
        try:
            if len(tokens) > 1:
                cells.extend(itemgetter(*tokens)(lookup))
            elif tokens:  # itemgetter of one key returns the bare value
                cells.append(lookup[tokens[0]])
        except KeyError:
            row, cells = tuple, list(cells)  # less than one row
            cells += [_int(token, where) for token in tokens]
        cut = len(cells) - len(cells) % n
        rows += [row(cells[j : j + n]) for j in range(0, cut, n)]
        del cells[:cut]
    del lines  # the text is not read again
    count = len(rows) * n + len(cells)
    if count != n * n:
        raise GroupSpecError(f"{where}expected {n * n} entries, got {count}")
    g = from_table(rows)
    if g.identity != 0:
        raise GroupSpecError(f"{where}the identity is index {g.identity}, not index 0")
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
