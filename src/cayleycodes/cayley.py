"""Cayley graphs and the (total) perfect code check.

x and y are adjacent in Cay(G, S) iff y x^-1 in S, so the neighbourhood of
a vertex x is S x.  C is a perfect code when the closed balls (S u {e}) c
partition G, and a total perfect code when the open balls S c do.  With
T = S u {e} or T = S, both say that T C = G with every product tc
distinct, a tiling of G, and for a subgroup C = H that T is a left
transversal of H.  The module tests that tiling in one function,
`group_ring_check_total`; the ball checks, the group-ring checks and the
transversal check are each one line onto it.  An exact-cover
enumeration of all (total) perfect codes on int bitmasks is the one
other body.  A `ConnectionSet` iterates over its elements, so every check
takes it or a plain set of elements alike.
"""

from __future__ import annotations

from collections import namedtuple

from .errors import CayleyCodesError, node_counter
from .groups import FiniteGroup

# search nodes one enumeration may visit: over 600 times the most that any
# golden-corpus command, verify suite or benchmark workload (seeds 0-5)
# needs, 1 555 for an `enumerate abelian:2,2,6` request
ENUMERATION_NODE_BUDGET = 1_000_000


class ConnectionSet:
    """An inverse-closed, identity-free subset of a group.  Sets compare
    and hash by identity, as groups do."""

    group: FiniteGroup
    elements: frozenset[int]

    def __init__(self, group, elements):
        if group.identity in elements:
            raise CayleyCodesError("identity in connection set")
        for s in elements:
            if group.inv[s] not in elements:
                raise CayleyCodesError(
                    f"connection set not inverse-closed: {s} without {group.inv[s]}"
                )
        self.group = group
        self.elements = elements

    def __iter__(self):
        return iter(self.elements)

    def sorted(self) -> tuple[int, ...]:
        return tuple(sorted(self.elements))


CayleyGraph = namedtuple("CayleyGraph", "group conn")


def connection_set(g: FiniteGroup, elements) -> ConnectionSet:
    return ConnectionSet(g, frozenset(elements))


def build_cayley(g: FiniteGroup, s) -> CayleyGraph:
    if not isinstance(s, ConnectionSet):
        s = connection_set(g, s)
    elif s.group is not g:
        raise CayleyCodesError("connection set belongs to a different group")
    return CayleyGraph(g, s)


# ---------------------------------------------------------------------------
# the tiling test, and the code checks onto it


def group_ring_check_total(g: FiniteGroup, s, code) -> bool:
    """True iff indicator(S) * indicator(C) is the all-ones vector: the
    |S||C| products hk (h in S, k in C) are the elements of G, each once.

    This is the tiling equation S C = G with every product distinct; it
    is also `spectral.group_ring_tiling_check` for any two subsets.  Both
    arguments are read as sets, so a repeated element counts once.
    """
    s, code = set(s), set(code)
    if len(s) * len(code) != g.order:
        return False
    mult = g.mult
    return len({mult[h][k] for h in s for k in code}) == g.order


def group_ring_check_perfect(g: FiniteGroup, s, code) -> bool:
    """True iff indicator(S u {e}) * indicator(C) is the all-ones vector."""
    return group_ring_check_total(g, {*s, g.identity}, code)


def is_perfect_code(graph: CayleyGraph, code) -> bool:
    """Do the closed balls around the code vertices partition the graph?

    The code is read as a set: in Cay(Z6, {1, 5}), [0, 0, 3] is the
    perfect code {0, 3}."""
    g = graph.group
    return group_ring_check_total(g, {*graph.conn, g.identity}, code)


def is_total_perfect_code(graph: CayleyGraph, code) -> bool:
    """Does every vertex have exactly one neighbour in the code?"""
    return group_ring_check_total(graph.group, graph.conn, code)


def subgroup_code_transversal_check(
    g: FiniteGroup, h: tuple[int, ...], s, total: bool = False
) -> bool:
    """H is a perfect code in Cay(G,S) iff S u {e} is a left transversal of
    H in G; a total perfect code iff S itself is."""
    return group_ring_check_total(g, s if total else {*s, g.identity}, h)


# ---------------------------------------------------------------------------
# exact-cover enumeration (the universal oracle)


def enumerate_perfect_codes(graph: CayleyGraph, total: bool = False):
    """All (total) perfect codes, by exact cover over closed (open) balls.

    Algorithm X (Knuth, "Dancing Links") on int bitmasks.  With T = S u {e}
    (perfect) or T = S (total), ball[c] is the mask of T c; T is
    inverse-closed, so ball[v] is also the mask of the centres whose balls
    hold v.  A node is (covered, chosen), and nodes wait on an explicit
    stack, so a code of |G| centres needs no recursion.  A node branches
    on the least uncovered vertex v, with one child for each centre c in
    ball[v] whose ball[c] & covered is empty: covered is the union of the
    chosen balls, so that test says exactly that c's ball meets no chosen
    ball, and no node carries a mask of usable centres.  More than
    ENUMERATION_NODE_BUDGET nodes raise BoundExceededError.  Output is
    sorted lexicographically as tuples.  A code's |C| balls of |T|
    elements each partition G, so when |T| does not divide |G| the answer
    is [] without a search.
    """
    g = graph.group
    n = g.order
    t = list(graph.conn.elements) if total else [*graph.conn.elements, g.identity]
    if not t or n % len(t):
        return []  # the code's balls, |T| elements each, cannot tile G
    rows = g.bit_rows
    ball = list(map(sum, zip(*(rows[s] for s in t))))
    full = (1 << n) - 1
    solutions = []
    count = node_counter("enumerate_perfect_codes", ENUMERATION_NODE_BUDGET)

    stack = [(0, ())]
    while stack:
        covered, chosen = stack.pop()
        count()
        if covered == full:
            solutions.append(tuple(sorted(chosen)))
            continue
        # the least uncovered vertex: the lowest clear bit of covered
        cands = ball[(~covered & (covered + 1)).bit_length() - 1]
        while cands:
            low = cands & -cands
            c = low.bit_length() - 1
            if not ball[c] & covered:
                stack.append((covered | ball[c], chosen + (c,)))
            cands ^= low

    solutions.sort()
    return solutions
