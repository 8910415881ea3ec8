"""Named verification suites, shared by the CLI and the acceptance tests.

Each suite cross-checks one cluster of results over the small-group
corpus and returns a SuiteResult with a check count and a (hopefully
empty) list of failure descriptions.
"""

from __future__ import annotations

import random
import time
from collections.abc import Callable, Iterator
from itertools import compress, repeat

from .basis import abelian_basis
from .cayley import (
    build_cayley,
    enumerate_perfect_codes,
    is_perfect_code,
    is_total_perfect_code,
)
from .corpus import abelian_types, corpus_groups, symmetric_group
from .criteria import (
    abelian_criterion,
    construct_connection_set_normal,
    cyclic_criterion,
    dihedral_construct_sets,
    dihedral_criterion,
    generic_subgroup_code_decision,
    normal_subgroup_code,
    parity_criterion,
    property_one_holds,
)
from .errors import CayleyCodesError
from .groups import (
    all_subgroups,
    centre,
    inner_automorphism,
    is_normal,
    is_power_automorphism,
    make_abelian,
    make_cyclic,
    make_dihedral,
    subgroup_generated,
)
from .pcp import (
    all_connection_sets,
    all_power_automorphisms,
    power_witness,
    witness_holds,
)
from .specparse import parse_element_expr
from .spectral import (
    group_ring_tiling_check,
    spectral_tiling_check,
    vanishing_mask,
)


class SuiteResult:
    name: str
    checks: int
    failures: list[str]
    elapsed: float

    def __init__(self, name, checks=0, failures=None, elapsed=0.0):
        self.name = name
        self.checks = checks
        self.failures = [] if failures is None else failures
        self.elapsed = elapsed

    @property
    def passed(self) -> bool:
        return not self.failures

    def check(self, ok: bool, message: Callable[[], str]):
        """Count one check; on failure record the text `message()` returns,
        so a passing check never formats its message."""
        self.checks += 1
        if not ok:
            self.failures.append(message())

    def same_verdict(self, where: Callable[[], str], got, want):
        """Count one check that verdicts got and want agree on (perfect,
        total); a criterion that declined (got is None) fails it."""
        self.check(
            got is not None and (got.perfect, got.total) == (want.perfect, want.total),
            lambda: f"{where()}: {_verdict_text(got)} != {_verdict_text(want)}",
        )


def _verdict_text(verdict) -> str | None:
    return verdict and f"{verdict.method} {verdict.perfect}/{verdict.total}"


def suite_theorem3(seed: int = 0) -> SuiteResult:
    """Normal-subgroup criterion vs generic search on `corpus_groups(24)`
    and the order-32 Z2 x Z4 x Z4, plus verification of the constructive
    connection sets."""
    res = SuiteResult("theorem3")
    groups = corpus_groups(24) + [("abelian:2,4,4", make_abelian((2, 4, 4)))]
    for spec, g in groups:
        for h in all_subgroups(g):
            if not is_normal(g, h):
                continue
            verdict = normal_subgroup_code(g, h)
            search = generic_subgroup_code_decision(g, h)
            res.same_verdict(lambda: f"{spec} H={h}", verdict, search)
            shortcut = parity_criterion(g, h)
            if shortcut is not None:
                res.same_verdict(lambda: f"{spec} H={h}", shortcut, verdict)
            if verdict.perfect:
                s = construct_connection_set_normal(g, h)
                res.check(
                    is_perfect_code(build_cayley(g, s), h),
                    lambda: f"{spec} H={h}: constructed S fails verification",
                )
            if verdict.perfect and len(h) % 2 == 0:
                r = construct_connection_set_normal(g, h, total=True)
                res.check(
                    is_total_perfect_code(build_cayley(g, r), h),
                    lambda: f"{spec} H={h}: constructed R fails verification",
                )
                hs = frozenset(h)
                res.check(
                    any(
                        x in hs and g.mult[x][x] == g.identity
                        for x in r.elements
                    ),
                    lambda: f"{spec} H={h}: R lacks an involution from H",
                )
    return res


def suite_cor3(seed: int = 0) -> SuiteResult:
    """Cyclic parity formula vs the key-property criterion (and, up to
    order 24, generic search) for every subgroup of Z_n, n = 1..60."""
    res = SuiteResult("cor3")
    for n in range(1, 61):
        g = make_cyclic(n)
        for d in sorted(k for k in range(1, n + 1) if n % k == 0):
            h = subgroup_generated(g, {n // d} if d > 1 else set())
            arith = cyclic_criterion(g, h)
            full = normal_subgroup_code(g, h)
            res.same_verdict(lambda: f"Z{n} |H|={d}", arith, full)
            if n <= 24:
                search = generic_subgroup_code_decision(g, h)
                res.same_verdict(lambda: f"Z{n} |H|={d}", arith, search)
    return res


def suite_dihedral(seed: int = 0) -> SuiteResult:
    """Dihedral classification of D_2n for n = 3..12, with every explicit
    connection-set construction verified definitionally."""
    res = SuiteResult("dihedral")
    for n in range(3, 13):
        g = make_dihedral(n)
        for h in all_subgroups(g):
            if len(h) == g.order:
                continue
            verdict = dihedral_criterion(n, h)
            search = generic_subgroup_code_decision(g, h)
            res.same_verdict(lambda: f"D{2 * n} H={h}", verdict, search)
            if any(x >= n for x in h):
                res.check(
                    verdict.perfect and verdict.total,
                    lambda: f"D{2 * n} H={h}: reflection subgroup not both codes",
                )
        for t in [d for d in range(2, n + 1) if n % d == 0]:
            for s in range(t):
                r_set, s_set = dihedral_construct_sets(n, t, s)
                h = subgroup_generated(g, {t % n, n + s})
                res.check(
                    is_total_perfect_code(build_cayley(g, r_set), h),
                    lambda: f"D{2 * n} t={t} s={s}: R set fails total verification",
                )
                res.check(
                    is_perfect_code(build_cayley(g, s_set), h),
                    lambda: f"D{2 * n} t={t} s={s}: S set fails perfect verification",
                )
    return res


def suite_abelian(seed: int = 0) -> SuiteResult:
    """Projection criterion vs key property on the cyclic subgroups of every
    abelian 2-group of order <= 32, vs the projection read off the
    exponents of two different bases, and the order-32 counterexample."""
    res = SuiteResult("abelian")
    types = [(2**k,) for k in range(1, 6)]
    types += [typ for k in range(1, 6) for typ in abelian_types(2**k)]
    for typ in types:
        g = make_cyclic(typ[0]) if len(typ) == 1 else make_abelian(typ)
        bases = [abelian_basis(g)[2], abelian_basis(g, scan_key=lambda x: -x)[2]]
        # each cyclic subgroup once, in order of its least generator
        for h in dict.fromkeys(subgroup_generated(g, {x}) for x in range(g.order)):
            verdict = abelian_criterion(g, h)  # None fails: H is cyclic
            proj = verdict and (verdict.perfect, verdict.total)
            prop = normal_subgroup_code(g, h)
            res.same_verdict(lambda: f"{typ} H={h}", verdict, prop)
            # H projects onto a cyclic factor iff some exponent is odd
            by_basis = [
                any(e % 2 for y in h for e in exponents[y])
                for exponents in bases
            ]
            res.check(
                all(proj == (len(h) == 1 or p, p) for p in by_basis),
                lambda: f"{typ} H={h}: criterion {proj}"
                f" != basis projections {by_basis}",
            )
    # the order-32 counterexample: H = <a1*a2^2, a1*a3^2>
    g = make_abelian((2, 4, 4))
    gens = [parse_element_expr(g, "a1*a2^2"), parse_element_expr(g, "a1*a3^2")]
    h = subgroup_generated(g, gens)
    ok, witness = property_one_holds(g, h)
    res.check(not ok, lambda: "counterexample subgroup satisfies the key property")
    res.check(
        witness == parse_element_expr(g, "a2*a3"),
        lambda: f"counterexample witness is {witness}, expected a2*a3",
    )
    search = generic_subgroup_code_decision(g, h)
    res.check(
        not search.perfect,
        lambda: "exhaustive search found an inverse-closed transversal",
    )
    return res


def suite_lemma_equivalence(seed: int = 0) -> SuiteResult:
    """Spectral tiling check == group-ring check: exhaustive for |G| <= 8,
    with 50 random pairs per such group, and 500 random pairs per abelian
    group of order 9..24, all drawn in turn from one random.Random(seed).

    A random subset of range(n) is [x for x in range(n) if rng.random() <
    0.5]; `_draw_subsets` draws the same subsets in blocks.  A random()
    call reads two 32-bit words u, v and returns ((u >> 5) * 2^26 +
    (v >> 6)) / 2^53, which is below 1/2 iff u >> 5 < 2^26, that is iff
    bit 31 of u is clear.  getrandbits(64 * m) reads the next 2m words,
    the first least significant, so the little-endian bytes of its value
    hold the u of the x-th of m calls in bytes 8x..8x+3, and that call is
    below 1/2 iff byte 8x + 3 is below 128.  The block reads exactly the
    words the calls read, so it leaves the generator in the same state.
    """
    res = SuiteResult("lemma-equivalence")
    failures = res.failures
    ring_check = group_ring_tiling_check

    def random_pairs(g, rng, count):
        # each set is built once and checked both ways
        spectral_check = spectral_tiling_check
        for start in range(0, count, _PAIR_BLOCK):
            subsets = _draw_subsets(rng, g.order, 2 * min(_PAIR_BLOCK, count - start))
            for a, b in zip(subsets, subsets):
                spectral = spectral_check(g, a, b)
                ring = ring_check(g, a, b)
                if spectral != ring:
                    failures.append(_discrepancy(spectral, ring, a, b))
        res.checks += count

    small = [make_cyclic(n) for n in range(1, 9)]
    small += [make_abelian(t) for n in range(4, 9) for t in abelian_types(n)]
    rng = random.Random(seed)
    for g in small:
        n = g.order
        by_size = [[] for _ in range(n + 1)]
        for bits in range(1 << n):
            sub = [x for x in range(n) if bits >> x & 1]
            by_size[len(sub)].append(sub)
        # Pairs with |A||B| != |G| cannot disagree: both tests require the
        # size identity before anything else.  Run the full dual check on
        # every size-compatible pair, and sample the rest.  The spectral
        # side is each subset's zero mask, computed once per subset; every
        # nontrivial character sums to zero over G, so G's mask has every
        # kernel class.
        full = vanishing_mask(g, range(n))
        sizes = [k for k in range(1, n + 1) if n % k == 0]
        masks = {k: [vanishing_mask(g, sub) for sub in by_size[k]] for k in sizes}
        for ka in sizes:
            kb = n // ka
            for a, mask_a in zip(by_size[ka], masks[ka]):
                for b, mask_b in zip(by_size[kb], masks[kb]):
                    spectral = mask_a | mask_b == full
                    ring = ring_check(g, a, b)
                    if spectral != ring:
                        failures.append(_discrepancy(spectral, ring, a, b))
            res.checks += len(by_size[ka]) * len(by_size[kb])
        random_pairs(g, rng, 50)
    larger = [make_cyclic(n) for n in range(9, 25)]
    larger += [make_abelian(t) for n in range(9, 25) for t in abelian_types(n)]
    for g in larger:
        random_pairs(g, rng, 500)
    return res


# pairs per `_draw_subsets` block: a whole group's 500 pairs in one block
# peak at about 0.4 MB (tracemalloc) at order 24 against 20 KB for 25
_PAIR_BLOCK = 25
# byte -> 1 if below 128 (its draw is below 1/2), else 0
_BELOW_HALF = b"\x01" * 128 + bytes(128)


def _draw_subsets(rng: random.Random, n: int, k: int) -> Iterator[frozenset]:
    """The k sets [x for x in range(n) if rng.random() < 0.5], drawn in
    one block with the generator left in the same state, as an iterator:
    byte 8i + 3 of the block decides element i mod n of set i // n
    (`suite_lemma_equivalence`)."""
    block = rng.getrandbits(64 * n * k).to_bytes(8 * n * k, "little")
    flags = block[3::8].translate(_BELOW_HALF)
    return map(frozenset, map(compress, repeat(range(n)), zip(*[iter(flags)] * n)))


def _discrepancy(spectral, ring, a, b) -> str:
    return (
        f"tiling-check discrepancy: spectral={spectral} ring={ring} "
        f"A={sorted(a)} B={sorted(b)}"
    )


def suite_thm4a(seed: int = 0) -> SuiteResult:
    """Every power automorphism maps every enumerated (total) perfect code
    of every Cayley graph of every abelian group of order <= 12 to
    another code of the same graph."""
    res = SuiteResult("thm4a")
    groups = [make_cyclic(n) for n in range(1, 13)]
    groups += [make_abelian(t) for n in range(4, 13) for t in abelian_types(n)]
    for g in groups:
        sigmas = all_power_automorphisms(g)
        for s in all_connection_sets(g):
            graph = build_cayley(g, s)
            for total in (False, True):
                codes = enumerate_perfect_codes(graph, total=total)
                known = set(codes)
                for c in codes:
                    for sigma in sigmas:
                        image = tuple(sorted(sigma[x] for x in c))
                        res.check(
                            image in known,
                            lambda: f"|G|={g.order} S={s} C={c}: image {image} lost"
                            f" under {sigma} (total={total})",
                        )
    return res


def suite_prop3(seed: int = 0) -> SuiteResult:
    """Constructed witnesses for non-power inner automorphisms of S3, D8,
    D10 and D12, each confirmed by the perfect-code check."""
    res = SuiteResult("prop3")
    groups = [
        ("S3", symmetric_group(3)),
        ("D8", make_dihedral(4)),
        ("D10", make_dihedral(5)),
        ("D12", make_dihedral(6)),
    ]
    for name, g in groups:
        for x in range(g.order):
            sigma = inner_automorphism(g, x)
            if is_power_automorphism(g, sigma):
                continue
            witness = power_witness(g, sigma)
            res.check(witness is not None, lambda: f"{name} g={x}: no witness produced")
            if witness is None:
                continue
            code_ok, image_broken = witness_holds(g, sigma, witness)
            res.check(
                code_ok, lambda: f"{name} g={x}: witness code is not a perfect code"
            )
            res.check(
                image_broken,
                lambda: f"{name} g={x}: sigma-image is still a perfect code",
            )
    return res


def suite_trivial_centre(seed: int = 0) -> SuiteResult:
    """Only the identity inner automorphism of a centre-trivial group
    preserves perfect codes: S3, D10 and S4.

    Power automorphisms are central in Aut(G) (Cooper, Math. Z. 107,
    1968), so when Z(G) = 1 conjugation by x != e is never one, and each
    gets a witness from `power_witness`; a missing witness is a failure."""
    res = SuiteResult("trivial-centre")
    for name, g in [
        ("S3", symmetric_group(3)),
        ("D10", make_dihedral(5)),
        ("S4", symmetric_group(4)),
    ]:
        sigmas = [inner_automorphism(g, x) for x in range(g.order) if x != g.identity]
        witnesses = ((sigma, power_witness(g, sigma)) for sigma in sigmas)
        res.check(
            len(centre(g)) == 1
            and all(
                w is not None and all(witness_holds(g, sigma, w))
                for sigma, w in witnesses
            ),
            lambda: f"{name}: a non-identity inner automorphism preserves codes",
        )
    return res


SUITES = {
    "theorem3": suite_theorem3,
    "cor3": suite_cor3,
    "dihedral": suite_dihedral,
    "abelian": suite_abelian,
    "lemma-equivalence": suite_lemma_equivalence,
    "thm4a": suite_thm4a,
    "prop3": suite_prop3,
    "trivial-centre": suite_trivial_centre,
}


def run_suite(name: str, seed: int = 0) -> SuiteResult:
    """Run one suite over its fixed corpus, timed."""
    if name not in SUITES:
        raise CayleyCodesError(f"unknown suite {name!r}; known: {sorted(SUITES)}")
    start = time.perf_counter()
    result = SUITES[name](seed)
    result.elapsed = time.perf_counter() - start
    return result
