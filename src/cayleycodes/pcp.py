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
"""

from __future__ import annotations

import random

from .cayley import (
    build_cayley,
    connection_set,
    enumerate_perfect_codes,
    is_perfect_code,
)
from .errors import CayleyCodesError
from .groups import (
    FiniteGroup,
    all_automorphisms,
    all_subgroups,
    centre,
    coset_labels,
    inner_automorphism,
    is_power_automorphism,
)

EXHAUSTIVE_ORDER_BOUND = 12
DEFAULT_SAMPLE_BUDGET = 200
DEFAULT_SEED = 0


def connection_orbits(g: FiniteGroup):
    """Inverse-pair orbits of non-identity elements: involutions singly,
    {x, x^-1} jointly; sorted by least member."""
    orbits = []
    seen = set()
    for x in range(g.order):
        if x == g.identity or x in seen:
            continue
        xi = g.inv[x]
        orbit = (x,) if xi == x else (x, xi)
        seen.update(orbit)
        orbits.append(tuple(sorted(orbit)))
    orbits.sort()
    return orbits


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


def prop3_witness(g: FiniteGroup, x: int):
    """A verified non-preservation witness for conjugation by x.

    When conjugation by x is not a power automorphism there is a subgroup H
    and h in H whose conjugate leaves H.  With S = H \\ {e}, perfect codes
    of Cay(G, S) are exactly the right transversals of H.  The returned C
    is a right transversal containing e and c* = x^-1 h x (so that the
    sigma-image contains both e and h, two elements of the coset H).  The
    right cosets are the inverses of the left ones: Hy = (y^-1 H)^-1.
    Returns None when conjugation by x is a power automorphism.
    """
    sigma = inner_automorphism(g, x)
    if is_power_automorphism(g, sigma):
        return None
    xinv = g.inv[x]
    for h in sorted(sub for sub in all_subgroups(g) if len(sub) > 1):
        hs = frozenset(h)
        moved = [k for k in h if g.conjugate(xinv, k) not in hs]
        if not moved:
            continue
        c_star = g.conjugate(xinv, moved[0])
        s = [k for k in h if k != g.identity]
        # Hy is labelled by its inverse y^-1 H; ascending y keeps each
        # right coset's least element unless e or c* is in it
        labels = coset_labels(g, h)
        code = {}
        for y in range(g.order):
            code.setdefault(labels[g.inv[y]], y)
        for y in (c_star, g.identity):
            code[labels[g.inv[y]]] = y
        return connection_set(g, s), tuple(sorted(code.values()))
    raise CayleyCodesError("no subgroup is moved, yet sigma is not a power map")


def verify_trivial_centre_corollary(g: FiniteGroup) -> bool:
    """For a centre-trivial group, no non-identity inner automorphism
    preserves perfect codes.  Verified directly: each non-identity x gets
    a constructed counterexample.  Power automorphisms are central in
    Aut(G) (Cooper, Math. Z. 107, 1968), so when Z(G) = 1 conjugation by
    x is never one and prop3_witness always returns a witness; a missing
    witness counts as a failure."""
    if len(centre(g)) != 1:
        raise CayleyCodesError("group has nontrivial centre")
    for x in range(g.order):
        if x == g.identity:
            continue
        witness = prop3_witness(g, x)
        if witness is None:
            return False
        s, code = witness
        graph = build_cayley(g, s)
        sigma = inner_automorphism(g, x)
        image = [sigma[c] for c in code]
        if not is_perfect_code(graph, code) or is_perfect_code(graph, image):
            return False
    return True
