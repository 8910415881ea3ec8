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
  witness (S, C) is used only once checked: S is a connection set, C is a
  total code of Cay(G, S) and sigma(C) is not.  An exhaustive sweep finds
  a counterexample whenever one exists, so a checked witness gives the
  verdict the sweep would give.  A sigma with no checked witness is swept.
- Every other row goes through `preservation_sweep`, whose first
  counterexample does not depend on the other rows swept with it.

The balls of a total code C of Cay(G, S) are the sets S c, c in C.

Construction A.  Let sigma move a subgroup K, c* be the least y outside K
with sigma(y) in K (one exists, as sigma^-1(K) != K has |K| elements), and
k be in N(K) \\ K with k^2 in K.  Take S = kK and C a right transversal of
K through e and c*.  S misses e as k is not in K, and it is inverse-closed:
(kK)^-1 = k^-1 K, and k^-1 = k k^-2 lies in kK.  As kK = Kk, the ball
S c = K kc, and left multiplication by k permutes the right cosets of K,
so the balls of C are the right cosets, once each: C is a total code.
sigma(C) holds e and sigma(c*) in K, whose balls are both kK: sigma(C) is
not a code.

Construction B.  Let K have index 2 and t outside K be an involution with
sigma(t) != t.  Take S = (K \\ {e}) u {t} and C = {e, t}.  Then S is a
connection set, and S e u S t = (K \\ {e}) u {t} u (Kt \\ {t}) u {e} = G, so
C is a total code.  If sigma(t) is outside K, t is in S e and in
(K \\ {e}) sigma(t) = Kt \\ {sigma(t)}, a part of S sigma(t); if it is in K,
S e and S sigma(t) share K \\ {e, sigma(t)}, which is not empty once
|K| >= 3 (for |K| = 2 the check may reject the witness).  B covers D_n
with n odd, where every non-normal subgroup is self-normalizing, so no
subgroup that sigma moves has such a k.

The sweep takes each sigma to be an automorphism of G, and enumerates only
where a refutation is possible.  For small groups it covers every
connection set (inverse-pair orbits halve the exponent); beyond that a
seeded random sample is used and the sweep says so.  Such a sigma is an
isomorphism Cay(G, S) -> Cay(G, sigma(S)), so it maps the codes of
Cay(G, S) onto themselves when sigma(S) = S.  And the |C| balls of a code,
|T| elements each (T = S u {e}, or S for total codes), partition G, so
Cay(G, S) has no code unless |T| divides |G|.

For an automorphism that is not a power map, `power_witness` builds
without a sweep a perfect code that it does not carry to a code.
"""

from __future__ import annotations

import random

from .cayley import (
    build_cayley,
    connection_set,
    enumerate_perfect_codes,
    group_ring_check_total,
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
    if scope == "exhaustive":
        candidates = all_connection_sets(g)
    else:
        candidates = _sampled_connection_sets(g, budget or DEFAULT_SAMPLE_BUDGET, seed)
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
        data = _witness_subgroups(g)
        for i in open_rows:
            if not powers[i]:
                sigma = sigmas[i]
                total[i] = _checked_witness(g, sigma, _total_witness(g, sigma, data))
        swept = [i for i in open_rows if total[i] is None]
    for found, rows, mode in ((perfect, open_rows, False), (total, swept, True)):
        if rows:
            rest = [sigmas[i] for i in rows]
            for i, ce in zip(rows, preservation_sweep(g, rest, mode, budget, seed)[1]):
                found[i] = ce
    return scope, perfect, total


def _witness_subgroups(g: FiniteGroup):
    """The connection sets of constructions A and B, once per group: for
    each proper K != {e} with a k in N(K) \\ K and k^2 in K, (K, S = kK for
    the least such k, the coset labels of K); and for each K of index 2
    and involution t outside it, (t, S = (K \\ {e}) u {t})."""
    mult, e = g.mult, g.identity
    pairs, halves = [], []
    for h in g.subgroups[1:-1]:
        k_set = frozenset(h)
        outside = [x for x in range(g.order) if x not in k_set]
        k = next(
            (
                x for x in outside
                if mult[x][x] in k_set and all(g.conjugate(x, y) in k_set for y in h)
            ),
            None,
        )
        if k is not None:
            s = tuple(sorted(mult[k][y] for y in h))
            pairs.append((k_set, s, coset_labels(g, h)))
        if 2 * len(h) == g.order:
            involutions = [t for t in outside if mult[t][t] == e]
            halves += [(t, tuple(sorted(k_set - {e} | {t}))) for t in involutions]
    return pairs, halves


def _total_witness(g: FiniteGroup, sigma, data):
    """(S, C) of construction A on the first subgroup that sigma moves,
    else of B on the first involution that sigma moves, or None."""
    pairs, halves = data
    for k_set, s, labels in pairs:
        c_star = _moved_into(g, sigma, k_set)
        if c_star is not None:
            return s, _right_transversal(g, labels, c_star)
    for t, s in halves:
        if sigma[t] != t:
            return s, tuple(sorted((g.identity, t)))
    return None


def _checked_witness(g: FiniteGroup, sigma, witness):
    """The witness (S, C) if S is a connection set, C a total code of
    Cay(G, S) and sigma(C) not one; else None."""
    if witness is None:
        return None
    s, code = witness
    try:
        connection_set(g, s)
    except CayleyCodesError:
        return None
    image = [sigma[c] for c in code]
    if group_ring_check_total(g, s, code) and not group_ring_check_total(g, s, image):
        return witness
    return None


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
    labels = coset_labels(g, tuple(sorted(h)))
    code = _right_transversal(g, labels, _moved_into(g, sigma, h))
    return connection_set(g, h - {g.identity}), code


def _moved_into(g: FiniteGroup, sigma, k_set):
    """The least y outside K with sigma(y) in K, None when sigma(K) = K."""
    moved = (y for y in range(g.order) if y not in k_set and sigma[y] in k_set)
    return next(moved, None)


def _right_transversal(g: FiniteGroup, labels, c_star):
    """The right transversal of K through e and c* (in different cosets)
    that takes each other right coset's least element; labels are K's
    left coset labels.  Ky is labelled by its inverse y^-1 K."""
    code = {}
    for y in range(g.order):
        code.setdefault(labels[g.inv[y]], y)
    for y in (c_star, g.identity):
        code[labels[g.inv[y]]] = y
    return tuple(sorted(code.values()))
