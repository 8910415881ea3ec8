"""Primary decompositions of abelian groups by backtracking.

Bases are found per prime: candidates of maximal order are tried first and
the search backtracks, so a complete independent generating family is
always found.  A custom scan key yields an alternative basis for the
decomposition-independence tests.
"""

from __future__ import annotations

import itertools

from .errors import CayleyCodesError
from .groups import FiniteGroup


def prime_factorization(n: int) -> dict[int, int]:
    """{p: k} with p^k exactly dividing n, primes ascending, by trial
    division."""
    out = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1
    if n > 1:
        out[n] = 1
    return out


def _is_prime_power(k: int, p: int) -> bool:
    while k % p == 0:
        k //= p
    return k == 1


def _span_product(g: FiniteGroup, span, cyc):
    return frozenset(g.mult[a][b] for b in range(g.order) if cyc >> b & 1 for a in span)


def _p_basis(g: FiniteGroup, elems, scan_key):
    """Independent generators for an abelian p-subgroup given as a set."""
    target = len(elems)
    if target == 1:
        return []

    def extend(span, basis):
        if len(span) == target:
            return basis
        cands = sorted(
            (x for x in elems if x not in span),
            key=lambda x: (-g.element_orders[x], scan_key(x)),
        )
        for x in cands:
            cyc = g.cyclic_spans[x]
            if sum(cyc >> y & 1 for y in span) != 1:
                continue
            found = extend(_span_product(g, span, cyc), basis + [x])
            if found is not None:
                return found
        return None

    result = extend(frozenset({g.identity}), [])
    if result is None:
        raise CayleyCodesError("no basis found; subgroup not abelian?")
    return result


def abelian_basis(g: FiniteGroup, elems=None, scan_key=None):
    """Generators, orders and exponent tables for an abelian subgroup.

    Returns (generators, orders, exponents) where exponents maps every
    subgroup element to its unique exponent tuple over the generators.
    Generators are grouped by ascending prime, orders non-increasing
    within each prime.
    """
    if elems is None:
        elems = frozenset(range(g.order))
    else:
        elems = frozenset(elems)
    for x in elems:
        for y in elems:
            if g.mult[x][y] != g.mult[y][x]:
                raise CayleyCodesError("abelian_basis requires an abelian subgroup")
    if scan_key is None:
        scan_key = lambda x: x
    gens: list[int] = []
    for p in prime_factorization(len(elems)):
        part = frozenset(
            x for x in elems if _is_prime_power(g.element_orders[x], p)
        )
        gens.extend(_p_basis(g, part, scan_key))
    orders = tuple(g.element_orders[x] for x in gens)
    exponents = {}
    for tup in itertools.product(*(range(o) for o in orders)):
        acc = g.identity
        for b, t in zip(gens, tup):
            acc = g.mult[acc][g.power(b, t)]
        exponents[acc] = tup
    if len(exponents) != len(elems) or set(exponents) != elems:
        raise CayleyCodesError("exponent table is not a bijection")
    return tuple(gens), orders, exponents
