"""Cayley graphs and the three equivalent (total) perfect code checks.

x and y are adjacent in Cay(G, S) iff y x^-1 in S, so the neighbourhood of
a vertex x is S x.  The module provides the definitional ball check, the
group-ring check, the transversal check for subgroups, and an
exact-cover enumeration of all (total) perfect codes on int bitmasks.

Each check has one body for both modes.  C is a perfect code when the
closed balls (S u {e}) c partition G, and a total perfect code when the
open balls S c do; so with T = S u {e} or T = S, the ball check counts
either kind of ball in one loop, the group-ring check tests the tiling
equation indicator(T) * indicator(C) = all-ones as the statement that
the |T||C| products tc are the |G| elements, each once, and the
transversal check asks T to be a left transversal of H.  The ball check
shares no code with the group-ring form, so each stays an oracle for the
other.  A `ConnectionSet` iterates over its elements, so every check
takes it or a plain set of elements alike.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from operator import or_

from .errors import CayleyCodesError, node_counter
from .groups import FiniteGroup, coset_labels

# search nodes one enumeration may visit: over 180 times the most (5 461,
# a sampled set of cyclic:24) that any golden-corpus command, verify suite
# or benchmark workload needs
ENUMERATION_NODE_BUDGET = 1_000_000


@dataclass(frozen=True)
class ConnectionSet:
    """An inverse-closed, identity-free subset of a group."""

    group: FiniteGroup
    elements: frozenset[int]

    def __post_init__(self):
        g = self.group
        if g.identity in self.elements:
            raise CayleyCodesError("identity in connection set")
        for s in self.elements:
            if g.inv[s] not in self.elements:
                raise CayleyCodesError(
                    f"connection set not inverse-closed: {s} without {g.inv[s]}"
                )

    def __iter__(self):
        return iter(self.elements)

    def sorted(self) -> tuple[int, ...]:
        return tuple(sorted(self.elements))


@dataclass(frozen=True)
class CayleyGraph:
    group: FiniteGroup
    conn: ConnectionSet

    def neighbours(self, v: int) -> frozenset[int]:
        g = self.group
        return frozenset(g.mult[s][v] for s in self.conn.elements)

    def closed_ball(self, v: int) -> frozenset[int]:
        return self.neighbours(v) | {v}


def connection_set(g: FiniteGroup, elements) -> ConnectionSet:
    return ConnectionSet(g, frozenset(elements))


def build_cayley(g: FiniteGroup, s) -> CayleyGraph:
    if not isinstance(s, ConnectionSet):
        s = connection_set(g, s)
    elif s.group is not g and s.group != g:
        raise CayleyCodesError("connection set belongs to a different group")
    return CayleyGraph(g, s)


def _covered_once(n: int, balls) -> bool:
    """Do the balls cover each of the vertices 0..n-1 exactly once?"""
    count = [0] * n
    for ball in balls:
        for v in ball:
            count[v] += 1
    return all(k == 1 for k in count)


def is_perfect_code(graph: CayleyGraph, code) -> bool:
    """Do the closed balls around the code vertices partition the graph?"""
    return _covered_once(graph.group.order, map(graph.closed_ball, code))


def is_total_perfect_code(graph: CayleyGraph, code) -> bool:
    """Does every vertex have exactly one neighbour in the code?"""
    return _covered_once(graph.group.order, map(graph.neighbours, code))


# ---------------------------------------------------------------------------
# group-ring form


def group_ring_check_total(g: FiniteGroup, s, code) -> bool:
    """True iff indicator(S) * indicator(C) is the all-ones vector: the
    |S||C| products hk (h in S, k in C) are the elements of G, each once.

    This is the tiling equation S C = G with every product distinct; it
    is also `spectral.group_ring_tiling_check` for any two subsets.
    """
    s, code = set(s), set(code)
    if len(s) * len(code) != g.order:
        return False
    mult = g.mult
    return len({mult[h][k] for h in s for k in code}) == g.order


def group_ring_check_perfect(g: FiniteGroup, s, code) -> bool:
    """True iff indicator(S u {e}) * indicator(C) is the all-ones vector."""
    return group_ring_check_total(g, {*s, g.identity}, code)


# ---------------------------------------------------------------------------
# transversal form (for subgroup codes)


def is_left_transversal(g: FiniteGroup, h: tuple[int, ...], subset) -> bool:
    """Does the subset contain exactly one element of each left coset xH?"""
    labels = coset_labels(g, h)
    return sorted(labels[x] for x in set(subset)) == list(range(g.order // len(h)))


def subgroup_code_transversal_check(
    g: FiniteGroup, h: tuple[int, ...], s, total: bool = False
) -> bool:
    """H is a perfect code in Cay(G,S) iff S u {e} is a left transversal of
    H in G; a total perfect code iff S itself is."""
    probe = set(s) if total else {*s, g.identity}
    return is_left_transversal(g, h, probe)


# ---------------------------------------------------------------------------
# exact-cover enumeration (the universal oracle)


def enumerate_perfect_codes(graph: CayleyGraph, total: bool = False):
    """All (total) perfect codes, by exact cover over closed (open) balls.

    Algorithm X (Knuth, "Dancing Links") on int bitmasks.  With T = S u {e}
    (perfect) or T = S (total), ball[c] is the mask of T c; T is
    inverse-closed, so ball[v] is also the mask of the centres whose balls
    hold v.  clash[c] masks the centres whose balls meet c's.  A node is
    (covered, usable, chosen), and nodes wait on an explicit stack, so a
    code of |G| centres needs no recursion.  A node branches on the
    uncovered vertex with the fewest usable centres (the least such vertex
    on a tie), and choosing c covers ball[c] and drops clash[c] from
    usable.  More than ENUMERATION_NODE_BUDGET nodes raise
    BoundExceededError.  Output is sorted lexicographically as tuples.  A
    code's |C| balls of |T| elements each partition G, so when |T| does
    not divide |G| the answer is [] without a search.
    """
    g = graph.group
    n = g.order
    t = list(graph.conn.elements) if total else [*graph.conn.elements, g.identity]
    if not t or n % len(t):
        return []  # the code's balls, |T| elements each, cannot tile G
    rows = g.bit_rows
    ball = list(map(sum, zip(*(rows[s] for s in t))))
    # T c' meets T c iff c' is in T^-1 T c = T T c; and T T is the union
    # of the balls T u for u in T
    tt = reduce(or_, map(ball.__getitem__, t))
    clash = list(map(sum, zip(*(rows[x] for x in range(n) if tt >> x & 1))))
    full = (1 << n) - 1
    solutions = []
    count = node_counter("enumerate_perfect_codes", ENUMERATION_NODE_BUDGET)

    stack = [(0, full, ())]
    while stack:
        covered, usable, chosen = stack.pop()
        count()
        if covered == full:
            solutions.append(tuple(sorted(chosen)))
            continue
        best, fewest = 0, n + 1
        rest = full ^ covered
        while rest:
            low = rest & -rest
            cands = ball[low.bit_length() - 1] & usable
            k = cands.bit_count()
            if k < fewest:
                best, fewest = cands, k
                if not k:
                    break
            rest ^= low
        while best:
            low = best & -best
            c = low.bit_length() - 1
            stack.append((covered | ball[c], usable & ~clash[c], chosen + (c,)))
            best ^= low

    solutions.sort()
    return solutions
