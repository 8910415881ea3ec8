"""Perfect-code-preserving automorphisms: theorem, witness and sweep.

An automorphism is perfect-code-preserving (PCP) when it maps every
perfect code of every Cayley graph of the group to a perfect code of the
same graph; total-PCP likewise.  `preservation_verdicts` decides each
automorphism sigma in both modes, and sweeps only what is left open:

- The identity preserves codes in both modes, and so does every power
  automorphism of an abelian group (Theorem 4(a)).  Such a row is never
  swept: no sweep can refute it.
- When the sweep would be exhaustive and |G| is even, a non-power sigma
  gets a total-mode witness from construction A, else B (below).  A
  witness (S, C) is used only once checked: S is a connection set (once
  per subgroup), C is a total code of Cay(G, S) and sigma(C) is not.
  An exhaustive sweep finds a counterexample whenever one exists, so a
  checked witness gives the verdict the sweep would give.  A sigma with
  no checked witness is swept.
- Every other row goes through `preservation_sweep`, whose first
  counterexample does not depend on the other rows swept with it.

The balls of a total code C of Cay(G, S) are the sets S c, c in C.

One subgroup refutes a non-power sigma in both modes.  Let x be least with
sigma(x) not in H = <x>, c* the least y outside H with sigma(y) in H (one
exists, as sigma^-1(H) != H has |H| elements), and C the right
transversal of H through e and c*.  sigma(C) holds e and sigma(c*) in H.

Perfect mode (`power_witness`).  Take S = H \\ {e}.  The closed balls
(S u {e}) c = Hc are the right cosets, once each, so C is a perfect code;
the balls of e and sigma(c*) are both H, so sigma(C) is not.

Construction A.  Take S = kH, k the least element of N(H) \\ H with k^2
in H.  S misses e as k is not in H, and it is inverse-closed:
(kH)^-1 = k^-1 H, and k^-1 = k k^-2 lies in kH.  As kH = Hk, the ball
S c = H kc, and left multiplication by k permutes the right cosets of H,
so the balls of C are the right cosets, once each: C is a total code.
The balls of e and sigma(c*) are both kH: sigma(C) is not a code.  Such a
k exists exactly when |N(H) : H| is even (kH has order 2 in N(H)/H), so
always in a 2-group, where N(H) > H as H != G.

Construction B, when no such k exists and x is an involution.  Then <x>
is a Sylow 2-subgroup: in a 2-group P > <x>, N_P(<x>) > <x> would make
|N(<x>) : <x>| even.  So x is a product of |G|/2 (odd) 2-cycles in the
regular representation, and the even elements form a subgroup K of index
2 and odd order, without x.  K is the set of squares: a square is even,
and each y in K is (y^m)^2 with |K| = 2m - 1.  Take S = (K \\ {e}) u {x}
and C = {e, x}.  Then S is a connection set, and
S e u S x = (K \\ {e}) u {x} u (Kx \\ {x}) u {e} = G, so C is a total code.
sigma maps squares to squares, so sigma(x) != x lies in Kx too, and x is
in S e and in (K \\ {e}) sigma(x) = Kx \\ {sigma(x)}, a part of
S sigma(x).  B covers D_n with n odd, where a reflection x has
N(<x>) = <x>.  So A or B refutes sigma unless x is not an involution and
|N(<x>) : <x>| is odd.

The sweep takes each sigma to be an automorphism of G, and enumerates only
where a refutation is possible.  Such a sigma is an isomorphism
Cay(G, S) -> Cay(G, sigma(S)), so it maps the codes of Cay(G, S) onto
themselves when sigma(S) = S.  And the |C| balls of a code, |T| elements
each (T = S u {e}, or S for total codes), partition G, so Cay(G, S) has
no code unless |T| divides |G|.  For small groups the sweep lists the
connection sets of those sizes only, lazily, a size class at a time;
beyond that a seeded random sample is used and the sweep says so.
"""

from __future__ import annotations

import random
from itertools import combinations

from .cayley import (
    build_cayley,
    connection_set,
    enumerate_perfect_codes,
    is_perfect_code,
    is_total_perfect_code,
)
from .errors import CayleyCodesError
from .groups import FiniteGroup, all_automorphisms, coset_labels, is_power_automorphism

EXHAUSTIVE_ORDER_BOUND = 12
DEFAULT_SAMPLE_BUDGET = 200
DEFAULT_SEED = 0


def connection_orbits(g: FiniteGroup):
    """Inverse-pair orbits of non-identity elements: involutions singly,
    {x, x^-1} jointly; sorted by least member.  One ascending pass keeps
    each x <= x^-1, the least member of its orbit, so no orbit needs a sort."""
    inv = g.inv
    return [
        (x,) if inv[x] == x else (x, inv[x])
        for x in range(g.order)
        if x != g.identity and inv[x] >= x
    ]


def _orbit_union(orbits, mask) -> tuple[int, ...]:
    """The union of the orbits picked by the bits of mask, sorted."""
    elems = []
    for i, orbit in enumerate(orbits):
        if mask >> i & 1:
            elems.extend(orbit)
    return tuple(sorted(elems))


def sized_connection_sets(g: FiniteGroup, sizes):
    """The connection sets (sorted tuples) of each size k in sizes, ascending,
    lazily: a sorted class of b inverse pairs and k - 2b involutions each."""
    orbits = connection_orbits(g)
    pairs = [orbit for orbit in orbits if len(orbit) == 2]
    involutions = [orbit[0] for orbit in orbits if len(orbit) == 1]
    for k in sizes:
        yield from sorted(
            tuple(sorted(sum(chosen, rest)))
            for b in range(k // 2 + 1)
            for chosen in combinations(pairs, b)
            for rest in combinations(involutions, k - 2 * b)
        )


def all_connection_sets(g: FiniteGroup):
    """Every connection set, as sorted element tuples, in a canonical
    deterministic order (by size, then lexicographically)."""
    return list(sized_connection_sets(g, range(g.order)))


def _sampled_connection_sets(g: FiniteGroup, budget: int, seed: int):
    """The distinct connection sets among `budget` seeded draws, lazily,
    in first-draw order.  A repeat refutes no automorphism its first draw
    did not, so it is skipped, and drawing stops once every one of the
    2^|orbits| sets has been drawn: a budget above that costs no more than
    an exhaustive sweep."""
    orbits = connection_orbits(g)
    rng = random.Random(seed)
    seen = set()
    for _ in range(budget):
        mask = rng.getrandbits(len(orbits))
        if mask not in seen:
            seen.add(mask)
            yield _orbit_union(orbits, mask)
            if len(seen) == 1 << len(orbits):
                return


def _sweep_scope(g: FiniteGroup, budget: int | None) -> str:
    if budget is not None and budget < 1:
        raise CayleyCodesError(f"sample budget must be positive, got {budget}")
    return "exhaustive" if g.order <= EXHAUSTIVE_ORDER_BOUND else "sampled"


def preservation_sweep(
    g: FiniteGroup,
    sigmas,
    total: bool = False,
    budget: int | None = None,
    seed: int = DEFAULT_SEED,
) -> tuple[str, list]:
    """(scope, counterexamples) of one sweep for every automorphism in
    sigmas: scope is "exhaustive" or "sampled", and the counterexample of
    each sigma is an (S, C) whose image under sigma is not a code, or None
    when the sweep found none.

    Every sigma must be an automorphism of g.  A connection set S is
    skipped when |T| does not divide |G| (no code exists), and when every
    sigma not yet refuted fixes S (each maps the codes of Cay(G, S) onto
    themselves).  Otherwise the codes of S are enumerated once and checked
    against the unrefuted sigma that move S, so each counterexample is
    the first (S, C), in set order and then code order, that a sweep of
    that automorphism alone finds.  Exhaustive at small order, else the
    distinct sets among `budget` seeded draws (DEFAULT_SAMPLE_BUDGET if
    None)."""
    scope = _sweep_scope(g, budget)
    counterexample = [None] * len(sigmas)
    if not sigmas:
        return scope, counterexample
    extra = 0 if total else 1  # |T| - |S|
    if scope == "exhaustive":
        sizes = (k for k in range(g.order) if k + extra and g.order % (k + extra) == 0)
        candidates = sized_connection_sets(g, sizes)
    else:
        candidates = _sampled_connection_sets(g, budget or DEFAULT_SAMPLE_BUDGET, seed)
    pending = range(len(sigmas))
    images = [sigma.__getitem__ for sigma in sigmas]
    for s in candidates:
        size = len(s) + extra
        if not size or g.order % size:
            continue  # Cay(G, S) has no code
        members = set(s)
        movers = [i for i in pending if not members.issuperset(map(images[i], s))]
        if not movers:
            continue  # every pending sigma maps the codes of S onto themselves
        graph = build_cayley(g, s)
        codes = enumerate_perfect_codes(graph, total=total)
        known = set(map(frozenset, codes))
        for i in movers:
            image = images[i]
            lost = (c for c in codes if frozenset(map(image, c)) not in known)
            counterexample[i] = next(((s, c) for c in lost), None)
        pending = [i for i in pending if counterexample[i] is None]
        if not pending:
            break  # pull no further set, nor size class
    return scope, counterexample


def preservation_verdicts(
    g: FiniteGroup,
    sigmas,
    powers,
    budget: int | None = None,
    seed: int = DEFAULT_SEED,
) -> tuple[str, list, list]:
    """(scope, perfect counterexamples, total counterexamples) for every
    automorphism in sigmas, powers[i] telling whether sigmas[i] is a power
    automorphism.  The rows that a theorem or a checked witness decides
    (see the module docstring) are not swept.  The scope, the perfect
    counterexamples and which rows have a total one are those of two
    `preservation_sweep` runs over all of sigmas, one per mode; a total
    counterexample may be a witness in place of the sweep's first."""
    scope = _sweep_scope(g, budget)
    perfect, total = [None] * len(sigmas), [None] * len(sigmas)
    identity = tuple(range(g.order))
    open_rows = [
        i for i, (sigma, power) in enumerate(zip(sigmas, powers))
        if sigma != identity and not (power and g.is_abelian)
    ]
    swept = open_rows
    if open_rows and scope == "exhaustive" and g.order % 2 == 0:
        cache = {}
        for i in open_rows:
            witness = None if powers[i] else _total_witness(g, sigmas[i], cache)
            if witness is not None and all(witness_holds(g, sigmas[i], witness, True)):
                total[i] = witness
        swept = [i for i in open_rows if total[i] is None]
    for found, rows, mode in ((perfect, open_rows, False), (total, swept, True)):
        if rows:
            rest = [sigmas[i] for i in rows]
            for i, ce in zip(rows, preservation_sweep(g, rest, mode, budget, seed)[1]):
                found[i] = ce
    return scope, perfect, total


def is_pcp_automorphism(
    g: FiniteGroup,
    sigma: tuple[int, ...],
    budget: int | None = None,
    seed: int = DEFAULT_SEED,
) -> tuple | None:
    """The counterexample of the perfect-code sweep of one automorphism."""
    return preservation_sweep(g, [sigma], False, budget, seed)[1][0]


def is_tpcp_automorphism(
    g: FiniteGroup,
    sigma: tuple[int, ...],
    budget: int | None = None,
    seed: int = DEFAULT_SEED,
) -> tuple | None:
    """The counterexample of the total-perfect-code sweep of one
    automorphism."""
    return preservation_sweep(g, [sigma], True, budget, seed)[1][0]


def all_power_automorphisms(g: FiniteGroup):
    """The automorphisms mapping each x into <x>, a subgroup of Aut(G)."""
    return [s for s in all_automorphisms(g) if is_power_automorphism(g, s)]


def power_witness(g: FiniteGroup, sigma: tuple[int, ...]):
    """(S, C), C a perfect code of Cay(G, S) and sigma(C) not one, on the H
    of the module docstring; None when sigma is a power automorphism."""
    found = _moved_subgroup(g, sigma, {})
    return found and (connection_set(g, found[0] - {g.identity}), found[1])


def _total_witness(g: FiniteGroup, sigma, cache):
    """(S, C) of construction A, else B, on `power_witness`'s <x>, or None
    when sigma is a power automorphism, neither applies or S is invalid."""
    found = _moved_subgroup(g, sigma, cache)
    return found and found[2]


def witness_holds(g: FiniteGroup, sigma, witness, total: bool = False):
    """(C is a (total) perfect code of Cay(G, S), sigma(C) is not) for the
    witness (S, C) of sigma.  S is validated unless it is a ConnectionSet."""
    s, code = witness
    graph = build_cayley(g, s)
    check = is_total_perfect_code if total else is_perfect_code
    return check(graph, code), not check(graph, [sigma[c] for c in code])


def _moved_subgroup(g: FiniteGroup, sigma, cache):
    """(H, C, total) for the H and C of the module docstring, C taking the
    least element of each right coset but those of e and c*, or None when
    sigma is a power automorphism.  total is the (S, C) of construction A
    or B, S a ConnectionSet, or None.  cache keeps each H's data by span."""
    spans = g.cyclic_spans
    x = next((x for x, span in enumerate(spans) if not span >> sigma[x] & 1), None)
    if x is None:
        return None
    if spans[x] not in cache:
        cache[spans[x]] = _subgroup_data(g, x)
    h, labels, least, total = cache[spans[x]]
    c_star = next(y for y in range(g.order) if y not in h and sigma[y] in h)
    code = dict(least)
    for y in (c_star, g.identity):
        code[labels[g.inv[y]]] = y
    code = tuple(sorted(code.values()))
    return h, code, total and (total[0], total[1] or code)


def _subgroup_data(g: FiniteGroup, x):
    """H = <x> as a set, its left coset labels, the least element of each
    right coset Hy (keyed y^-1 H: Hy = (y^-1 H)^-1) and the total above."""
    mult, e = g.mult, g.identity
    h = [y for y in range(g.order) if g.cyclic_spans[x] >> y & 1]
    labels, h, least = coset_labels(g, h), frozenset(h), {}
    for y in range(g.order):
        least.setdefault(labels[g.inv[y]], y)
    k = _normalizing_root(g, x, h)
    if k is not None:
        s, code = [mult[k][y] for y in h], None
    elif mult[x][x] == e:
        squares = {row[y] for y, row in enumerate(mult)}
        s, code = squares - {e} | {x}, tuple(sorted((e, x)))
    else:
        return h, labels, least, None
    try:  # S is validated here, once per H; a sigma with no valid S is swept
        return h, labels, least, (connection_set(g, s), code)
    except CayleyCodesError:
        return h, labels, least, None


def _normalizing_root(g: FiniteGroup, x, h):
    """The least k in N(H) \\ H with k^2 in H, for H = <x> as a set, or
    None; k normalizes the cyclic H when k x k^-1 lies in H."""
    roots = (k for k in range(g.order) if k not in h and g.mult[k][k] in h)
    return next((k for k in roots if g.conjugate(k, x) in h), None)
