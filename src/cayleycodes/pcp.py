"""Perfect-code-preserving automorphisms, by bounded brute force.

An automorphism is perfect-code-preserving (PCP) when it maps every
perfect code of every Cayley graph of the group to a perfect code of the
same graph; total-PCP likewise.  For small groups the sweep over
connection sets is exhaustive (inverse-pair orbits halve the exponent);
beyond that a seeded random sample is used and the sweep says so.

The sweep takes each sigma to be an automorphism of G, and enumerates only
where a refutation is possible.  Such a sigma is an isomorphism
Cay(G, S) -> Cay(G, sigma(S)), so it maps the codes of Cay(G, S) onto
themselves when sigma(S) = S.  And the |C| balls of a code, |T| elements
each (T = S u {e}, or S for total codes), partition G, so Cay(G, S) has
no code unless |T| divides |G|.

For an automorphism that is not a power map, `power_witness` builds
without a sweep a perfect code that it does not carry to a code.
"""

from __future__ import annotations

import random

from .cayley import build_cayley, connection_set, enumerate_perfect_codes
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


def all_connection_sets(g: FiniteGroup):
    """Every connection set, as sorted element tuples, in a canonical
    deterministic order (by size, then lexicographically)."""
    orbits = connection_orbits(g)
    sets = [_orbit_union(orbits, mask) for mask in range(1 << len(orbits))]
    sets.sort(key=lambda t: (len(t), t))
    return sets


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
    if budget is not None and budget < 1:
        raise CayleyCodesError(f"sample budget must be positive, got {budget}")
    if g.order <= EXHAUSTIVE_ORDER_BOUND:
        candidates = all_connection_sets(g)
        scope = "exhaustive"
    else:
        candidates = _sampled_connection_sets(g, budget or DEFAULT_SAMPLE_BUDGET, seed)
        scope = "sampled"
    counterexample = [None] * len(sigmas)
    pending = range(len(sigmas))
    images = [sigma.__getitem__ for sigma in sigmas]
    extra = 0 if total else 1  # |T| - |S|
    for s in candidates:
        if not pending:
            break
        size = len(s) + extra
        if not size or g.order % size:
            continue  # Cay(G, S) has no code
        members = set(s)
        movers = [i for i in pending if not members.issuperset(map(images[i], s))]
        if not movers:
            continue  # every pending sigma maps the codes of S onto themselves
        graph = build_cayley(g, connection_set(g, s))
        codes = enumerate_perfect_codes(graph, total=total)
        known = set(map(frozenset, codes))
        for i in movers:
            image = images[i]
            lost = (c for c in codes if frozenset(map(image, c)) not in known)
            counterexample[i] = next(((s, c) for c in lost), None)
        pending = [i for i in pending if counterexample[i] is None]
    return scope, counterexample


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
    """A perfect code that the automorphism sigma does not carry to a code.

    Returns (S, C), with C a perfect code of Cay(G, S) and sigma(C) not
    one, or None when sigma is a power automorphism.  Let x be least with
    sigma(x) not in H = <x>, and S = H \\ {e}; the closed balls of Cay(G, S)
    are the right cosets Hy, so its perfect codes are the right
    transversals of H.  As sigma(H) != H, some y outside H has sigma(y) in
    H; c* is the least.  C is a right transversal containing e and c*, so
    sigma(C) contains e and sigma(c*), two elements of the coset H.  The
    right cosets are the inverses of the left ones: Hy = (y^-1 H)^-1.
    """
    spans = map(g.cyclic_span, range(g.order))
    h = next((h for x, h in enumerate(spans) if sigma[x] not in h), None)
    if h is None:
        return None
    c_star = next(y for y in range(g.order) if y not in h and sigma[y] in h)
    # Hy is labelled by its inverse y^-1 H; ascending y keeps each right
    # coset's least element unless e or c* is in it
    labels = coset_labels(g, tuple(sorted(h)))
    code = {}
    for y in range(g.order):
        code.setdefault(labels[g.inv[y]], y)
    for y in (c_star, g.identity):
        code[labels[g.inv[y]]] = y
    return connection_set(g, h - {g.identity}), tuple(sorted(code.values()))
