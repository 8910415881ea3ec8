"""Exact cyclotomic arithmetic, characters, and the tiling equivalence."""

from __future__ import annotations

import collections
import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from cayleycodes import (
    CayleyCodesError,
    build_cayley,
    characters,
    enumerate_perfect_codes,
    make_abelian,
    make_cyclic,
    spectral_tiling_check,
)
from cayleycodes import spectral
from cayleycodes.corpus import abelian_types
from cayleycodes.corpus import symmetric_group
from cayleycodes.groups import closure
from cayleycodes.spectral import (
    CyclotomicSum,
    char_sum,
    group_ring_tiling_check,
    vanishing_mask,
)
from cayleycodes.verify import suite_lemma_equivalence
from relabeling import relabeled_fixing_identity

# Every group the lemma-equivalence suite visits at its default bound 24.
LEMMA_GROUPS = [make_cyclic(n) for n in range(1, 25)] + [
    make_abelian(t) for n in range(4, 25) for t in abelian_types(n)
]


# seeded relabelings of abelian groups: they store no decomposition, so
# `characters` refuses them
RELABELED_GROUPS = [
    relabeled_fixing_identity(make_abelian(t), seed)
    for seed, t in enumerate(
        [(2, 2), (2, 4), (2, 2, 2), (3, 3), (2, 6), (2, 2, 4), (4, 4)]
    )
] + [relabeled_fixing_identity(make_cyclic(n), 100 + n) for n in (6, 8, 12)]


def _reference_characters(g):
    """An independent per-element character build from the strides, as
    (m, value_exponents) pairs in the same order: trivial first, then by
    exponent tuple over the stored factors."""
    orders = g.decomposition
    exps = {
        x: tuple((x // s) % m for s, m in zip(g.strides, orders))
        for x in range(g.order)
    }
    m = g.order
    out = []
    for nt in sorted(itertools.product(*(range(o) for o in orders))):
        vals = tuple(
            sum(n * a * (m // o) for n, a, o in zip(nt, exps[x], orders)) % m
            for x in range(g.order)
        )
        out.append((nt, m, vals))
    out.sort(key=lambda c: (any(c[0]), c[0]))
    return [(m, vals) for _, m, vals in out]


class TestCyclotomic:
    def test_zero_detection(self):
        # 1 + zeta_2 = 0; 1 + zeta_4 != 0; sum of all m-th roots = 0
        assert CyclotomicSum(2, (1, 1)).is_zero()
        assert not CyclotomicSum(4, (1, 1, 0, 0)).is_zero()
        for m in (2, 3, 4, 6, 8, 12):
            assert CyclotomicSum(m, (1,) * m).is_zero()

    def test_float_sanity(self):
        rng = random.Random(0)
        for _ in range(1000):
            m = rng.choice((2, 3, 4, 6, 8, 12))
            coeffs = tuple(rng.randrange(-3, 4) for _ in range(m))
            s = CyclotomicSum(m, coeffs)
            approx = abs(s.as_complex())
            if s.is_zero():
                assert approx < 1e-9
            elif approx > 1e-6:
                assert not s.is_zero()

    def test_exhaustive_signed_sums_match_complex_value(self):
        # every c in {-1, 0, 1}^m: vanishing sums measure at most 2e-15
        # and the others at least 0.025, so the float value decides each
        for m in range(1, 11):
            for coeffs in itertools.product((-1, 0, 1), repeat=m):
                s = CyclotomicSum(m, coeffs)
                assert s.is_zero() == (abs(s.as_complex()) < 1e-6), coeffs

    @pytest.mark.parametrize("m", [30, 60, 105, 210])
    def test_sums_of_regular_polygons_at_three_and_four_primes(self, m):
        # a signed sum of rotated regular p-gons, p | m prime, vanishes;
        # adding +-zeta^j to a vanishing sum leaves +-zeta^j, not zero
        primes = [p for p in (2, 3, 5, 7) if m % p == 0]
        rng = random.Random(m)
        for _ in range(500):
            coeffs = [0] * m
            for _ in range(rng.randint(1, 6)):
                p, sign = rng.choice(primes), rng.choice((-1, 1))
                start = rng.randrange(m)
                for j in range(start, start + m, m // p):
                    coeffs[j % m] += sign
            assert CyclotomicSum(m, tuple(coeffs)).is_zero(), coeffs
            coeffs[rng.randrange(m)] += rng.choice((-1, 1))
            assert not CyclotomicSum(m, tuple(coeffs)).is_zero(), coeffs


class TestCharacters:
    def test_counts_and_trivial_first(self):
        for g in (make_cyclic(2), make_cyclic(4), make_abelian((2, 2))):
            chars = characters(g)
            assert len(chars) == g.order
            assert chars[0].order == 1
            assert sum(1 for c in chars if c.order == 1) == 1

    def test_klein_four_real_valued(self):
        g = make_abelian((2, 2))
        for rho in characters(g):
            for x in range(4):
                assert rho.value_exponents[x] in (0, 2)  # values +-1

    def test_trivial_character_sum(self):
        g = make_cyclic(6)
        rho = characters(g)[0]
        s = char_sum(rho, {0, 2, 5})
        assert s.coeffs[0] == 3 and not any(s.coeffs[1:])

    def test_orthogonality(self):
        for g in (make_cyclic(6), make_abelian((2, 4))):
            for rho in characters(g):
                total = char_sum(rho, range(g.order))
                assert total.is_zero() == (rho.order != 1)

    def test_z4_nonvanishing_sum(self):
        g = make_cyclic(4)
        rho = characters(g)[1]  # x -> i^x
        s = char_sum(rho, {0, 1})
        assert s.coeffs == (1, 1, 0, 0)
        assert not s.is_zero()

    def test_multiplicativity(self):
        g = make_abelian((2, 4))
        for rho in characters(g):
            for x in range(g.order):
                for y in range(g.order):
                    lhs = rho.value_exponents[g.mult[x][y]]
                    rhs = rho.value_exponents[x] + rho.value_exponents[y]
                    assert lhs == rhs % rho.m


class TestCharacterTable:
    @pytest.mark.parametrize(
        "g", LEMMA_GROUPS + RELABELED_GROUPS, ids=lambda g: f"{g.kind}{g.order}"
    )
    def test_cached_table_matches_per_call_build(self, g):
        if g.decomposition is None:
            with pytest.raises(CayleyCodesError, match="characters require"):
                characters(g)
            return
        chars = characters(g)
        assert [(c.m, c.value_exponents) for c in chars] == _reference_characters(g)
        for c in chars:
            # the least d > 0 with d * k = 0 mod m for every value exponent k
            d = next(
                d
                for d in range(1, c.m + 1)
                if all(d * k % c.m == 0 for k in c.value_exponents)
            )
            assert c.order == d

    def test_lemma_suite_builds_one_table_per_group(self, monkeypatch):
        built = collections.Counter()
        build = spectral._build_characters

        def counting(orders):
            built[orders] += 1
            return build(orders)

        spectral._kernel_classes.cache_clear()
        monkeypatch.setattr(spectral, "_build_characters", counting)
        result = suite_lemma_equivalence()
        assert result.passed and result.checks == 26093
        assert set(built) <= {g.decomposition for g in LEMMA_GROUPS}
        assert max(built.values()) == 1


# every cyclic and abelian-product group of order <= 32
ABELIAN_32 = [make_cyclic(n) for n in range(1, 33)] + [
    make_abelian(t) for n in range(4, 33) for t in abelian_types(n)
]


class TestKernelClasses:
    @pytest.mark.parametrize("g", ABELIAN_32, ids=lambda g: f"{g.decomposition}")
    def test_each_character_vanishes_with_its_class(self, g):
        rng = random.Random(g.order)
        subsets = [
            [x for x in range(g.order) if rng.random() < 0.5] for _ in range(20)
        ]
        reps = {
            tuple(v == 0 for v in rho.value_exponents): rho
            for rho in spectral._kernel_classes(g.decomposition)
        }
        for rho in characters(g)[1:]:
            rep = reps[tuple(v == 0 for v in rho.value_exponents)]
            for sub in subsets:
                assert char_sum(rho, sub).is_zero() == char_sum(rep, sub).is_zero()

    @pytest.mark.parametrize("g", ABELIAN_32, ids=lambda g: f"{g.decomposition}")
    def test_one_class_per_nontrivial_cyclic_subgroup(self, g):
        spans = {closure(g, {x}) for x in range(g.order)} - {frozenset({g.identity})}
        assert len(spectral._kernel_classes(g.decomposition)) == len(spans)

    @pytest.mark.parametrize("g", ABELIAN_32, ids=lambda g: f"{g.decomposition}")
    def test_mask_of_the_group_and_of_the_identity(self, g):
        classes = len(spectral._kernel_classes(g.decomposition))
        assert vanishing_mask(g, range(g.order)) == (1 << classes) - 1
        assert vanishing_mask(g, {g.identity}) == 0

    def test_non_abelian_group(self):
        g = symmetric_group(3)
        assert not spectral_tiling_check(g, {0, 1}, {0, 1})
        with pytest.raises(CayleyCodesError, match="characters require"):
            spectral_tiling_check(g, {0, 1}, {0, 1, 2})
        with pytest.raises(CayleyCodesError, match="characters require"):
            vanishing_mask(g, {0})


def _full_ring_sum(rho, subset):
    """The character sum stored mod x^m - 1, m = |G|, with no reduction."""
    coeffs = [0] * rho.m
    for x in subset:
        coeffs[rho.value_exponents[x]] += 1
    return CyclotomicSum(rho.m, tuple(coeffs))


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_zero_test_mod_phi_d_matches_phi_m_and_complex(data):
    g = data.draw(st.sampled_from(LEMMA_GROUPS[8:]))
    rho = data.draw(st.sampled_from(characters(g)))
    subset = data.draw(st.sets(st.integers(0, g.order - 1)))
    reduced = char_sum(rho, subset)
    full = _full_ring_sum(rho, subset)
    assert reduced.m == rho.order
    assert reduced.is_zero() == full.is_zero()
    assert abs(reduced.as_complex() - full.as_complex()) < 1e-9
    assert reduced.is_zero() == (abs(full.as_complex()) < 1e-9)


@settings(max_examples=300, deadline=None)
@given(
    d=st.sampled_from([1, 2, 3, 4, 5, 6, 8, 9, 10, 12]),
    k=st.integers(1, 4),
    data=st.data(),
)
def test_zero_test_is_unchanged_by_embedding_into_a_larger_ring(d, k, data):
    # sum_j c_j zeta_d^j equals sum_j c_j zeta_m^(j*m/d) for m = k*d
    coeffs = data.draw(st.lists(st.integers(-4, 4), min_size=d, max_size=d))
    m = k * d
    embedded = [0] * m
    for j, c in enumerate(coeffs):
        embedded[j * k] = c
    small, large = CyclotomicSum(d, tuple(coeffs)), CyclotomicSum(m, tuple(embedded))
    assert small.is_zero() == large.is_zero()
    assert small.is_zero() == (abs(large.as_complex()) < 1e-9)


class TestTiling:
    def test_z4_examples(self):
        g = make_cyclic(4)
        assert spectral_tiling_check(g, {0, 1}, {0, 2})
        assert not spectral_tiling_check(g, {0, 1}, {0, 1})
        assert spectral_tiling_check(g, {0}, range(4))

    def test_group_ring_side(self):
        g = make_cyclic(4)
        assert group_ring_tiling_check(g, {0, 1}, {0, 2})
        assert not group_ring_tiling_check(g, {0, 1}, {0, 1})

    def test_empty_factor(self):
        g = make_cyclic(4)
        assert not spectral_tiling_check(g, set(), range(4))
        assert not group_ring_tiling_check(g, set(), range(4))

    def test_equivalence_random_z12(self):
        g = make_cyclic(12)
        rng = random.Random(7)
        for _ in range(100):
            a = [x for x in range(12) if rng.random() < 0.5]
            b = [x for x in range(12) if rng.random() < 0.5]
            assert spectral_tiling_check(g, a, b) == group_ring_tiling_check(g, a, b)

    def test_equivalence_on_z8_perfect_codes(self):
        g = make_cyclic(8)
        for s in ({1, 7}, {1, 3, 5, 7}, {4}, {2, 4, 6}):
            graph = build_cayley(g, s)
            for code in enumerate_perfect_codes(graph):
                a = set(s) | {0}
                assert spectral_tiling_check(g, a, code)
                assert group_ring_tiling_check(g, a, code)
