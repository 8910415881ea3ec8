"""The small-group corpus used by the verification suites and tests."""

from __future__ import annotations

import itertools

from .basis import prime_factorization
from .groups import (
    FiniteGroup,
    from_table,
    make_abelian,
    make_cyclic,
    make_dihedral,
    metacyclic_table,
)


def symmetric_group(n: int) -> FiniteGroup:
    """S_n as a composition table over itertools.permutations order.

    The identity permutation sorts first, so it sits at index 0.
    (p * q)(x) = p(q(x)).
    """
    perms = list(itertools.permutations(range(n)))
    pos = {p: i for i, p in enumerate(perms)}
    table = [
        [pos[tuple(p[q[x]] for x in range(n))] for q in perms] for p in perms
    ]
    return from_table(table)


def quaternion_group() -> FiniteGroup:
    """Q8 with elements 1, -1, i, -i, j, -j, k, -k at indices 0..7.

    This is the metacyclic (4, 2, 2, 3) with a = i and b = j, whose
    indices 0..7 hold 1, i, -1, -i, j, k, -j, -k; the involution p
    relabels them.
    """
    p = (0, 2, 1, 3, 4, 6, 5, 7)
    table = metacyclic_table(4, 2, 2, 3)
    return from_table([[p[table[x][y]] for y in p] for x in p])


def abelian_types(order: int):
    """Canonical prime-power factor multisets for the abelian groups of a
    given order, excluding the cyclic type (all factors coprime)."""
    per_prime = []
    for p, k in prime_factorization(order).items():
        per_prime.append([[p**part for part in pt] for pt in _partitions(k)])
    out = []
    for combo in itertools.product(*per_prime):
        flat = tuple(sorted(x for group in combo for x in group))
        if all(len(group) == 1 for group in combo):
            continue  # cyclic
        out.append(flat)
    return sorted(set(out))


def _partitions(k: int):
    if k == 0:
        yield []
        return
    for first in range(k, 0, -1):
        for rest in _partitions(k - first):
            if not rest or rest[0] <= first:
                yield [first] + rest


def corpus_groups(max_order: int = 24):
    """The acceptance corpus: every cyclic, dihedral and (non-cyclic)
    abelian-product group of order <= max_order, plus S3 and Q8 when
    max_order allows them.

    Returns a list of (spec_string, group) pairs.
    """
    out = []
    for n in range(1, max_order + 1):
        out.append((f"cyclic:{n}", make_cyclic(n)))
    for n in range(3, max_order // 2 + 1):
        out.append((f"dihedral:{n}", make_dihedral(n)))
    for n in range(4, max_order + 1):
        for typ in abelian_types(n):
            spec = "abelian:" + ",".join(str(m) for m in typ)
            out.append((spec, make_abelian(typ)))
    if max_order >= 6:
        out.append(("table:S3", symmetric_group(3)))
    if max_order >= 8:
        out.append(("table:Q8", quaternion_group()))
    return out
