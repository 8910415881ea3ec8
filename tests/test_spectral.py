"""Exact cyclotomic arithmetic, characters, and the tiling equivalence."""

from __future__ import annotations

import itertools
import random

import pytest

from cayleycodes import (
    CayleyCodesError,
    CyclotomicSum,
    build_cayley,
    char_sum,
    characters,
    cyclotomic_polynomial,
    enumerate_perfect_codes,
    make_abelian,
    make_cyclic,
    power_automorphism_tiling_transport,
    spectral_tiling_check,
    verify_lemma_equivalence,
)
from cayleycodes.groups import Automorphism
from cayleycodes.spectral import group_ring_tiling_check


class TestCyclotomic:
    def test_small_polynomials(self):
        assert cyclotomic_polynomial(1) == (-1, 1)
        assert cyclotomic_polynomial(2) == (1, 1)
        assert cyclotomic_polynomial(4) == (1, 0, 1)
        assert cyclotomic_polynomial(6) == (1, -1, 1)
        assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)

    def test_prime_polynomials_all_ones(self):
        for p in (3, 5, 7, 11, 13):
            assert cyclotomic_polynomial(p) == (1,) * p

    def test_degree_is_totient(self):
        def totient(m):
            return sum(1 for k in range(1, m + 1) if _gcd(k, m) == 1)

        for m in range(1, 30):
            assert len(cyclotomic_polynomial(m)) - 1 == totient(m)

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


class TestCharacters:
    def test_counts_and_trivial_first(self):
        for g in (make_cyclic(2), make_cyclic(4), make_abelian((2, 2))):
            chars = characters(g)
            assert len(chars) == g.order
            assert chars[0].is_trivial
            assert sum(1 for c in chars if c.is_trivial) == 1

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
                assert total.is_zero() == (not rho.is_trivial)

    def test_z4_nonvanishing_sum(self):
        g = make_cyclic(4)
        rho = next(c for c in characters(g) if c.exponents == (1,))
        s = char_sum(rho, {0, 1})
        assert s.coeffs == (1, 1, 0, 0)
        assert not s.is_zero()

    def test_multiplicativity(self):
        g = make_abelian((2, 4))
        for rho in characters(g):
            for x in range(g.order):
                for y in range(g.order):
                    lhs = rho.value_exponents[g.mul(x, y)]
                    rhs = rho.value_exponents[x] + rho.value_exponents[y]
                    assert lhs == rhs % rho.m


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
            verify_lemma_equivalence(g, a, b)

    def test_equivalence_on_z8_perfect_codes(self):
        g = make_cyclic(8)
        for s in ({1, 7}, {1, 3, 5, 7}, {4}, {2, 4, 6}):
            graph = build_cayley(g, s)
            for code in enumerate_perfect_codes(graph):
                assert verify_lemma_equivalence(g, set(s) | {0}, code)

    def test_discrepancy_raises(self):
        # sabotage one side with a wrong-sized pair forced through:
        # equivalence holds on honest inputs, so exercise the raise via a
        # monkeypatched group-ring check
        g = make_cyclic(4)
        import cayleycodes.spectral as spectral

        original = spectral.group_ring_tiling_check
        spectral_mod = spectral
        try:
            spectral_mod.group_ring_tiling_check = lambda *args: True
            with pytest.raises(CayleyCodesError):
                spectral_mod.verify_lemma_equivalence(g, {0}, {0})
        finally:
            spectral_mod.group_ring_tiling_check = original


class TestTransport:
    def test_identity(self):
        g = make_cyclic(6)
        ident = Automorphism(tuple(range(6)))
        assert power_automorphism_tiling_transport(g, {0, 1, 5}, {0, 3}, ident)

    def test_inversion_on_z6(self):
        g = make_cyclic(6)
        inv = Automorphism(g.inv)
        assert power_automorphism_tiling_transport(g, {0, 1, 5}, {0, 3}, inv)

    def test_cube_map_on_all_z8_tilings(self):
        g = make_cyclic(8)
        cube = Automorphism(tuple(g.power(x, 3) for x in range(8)))
        found = 0
        for ka in (1, 2, 4, 8):
            kb = 8 // ka
            for a in itertools.combinations(range(8), ka):
                for b in itertools.combinations(range(8), kb):
                    if group_ring_tiling_check(g, a, b):
                        found += 1
                        assert power_automorphism_tiling_transport(g, a, b, cube)
        assert found > 0

    def test_preconditions_enforced(self):
        g = make_cyclic(6)
        ident = Automorphism(tuple(range(6)))
        with pytest.raises(CayleyCodesError):
            power_automorphism_tiling_transport(g, {0, 1}, {0, 3}, ident)


def _gcd(a, b):
    while b:
        a, b = b, a % b
    return a
