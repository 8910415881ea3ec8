"""Characters of finite abelian groups and exact cyclotomic tiling tests.

A character value is a power of zeta_m with m = |G| (each factor root
zeta_{m_j} embeds as zeta_m^(m/m_j)); ``value_exponents`` records those
powers.  A character of order d (the least d with chi^d trivial, i.e.
d = m / gcd(m, all value exponents)) takes its values in the d-th roots
of unity, so each sum of its values is an integer coefficient vector
modulo x^d - 1.  The zero test is exact: the sum vanishes iff Phi_d, the
minimal polynomial of zeta_d, divides it.  Testing in Z[x]/Phi_d rather
than Z[x]/Phi_m gives the same answer on the smallest ring that holds the
sum.  Floating point would make the equivalence tests unfalsifiable.

The tiling test needs chi(A) chi(B) = 0 and tests each factor instead.
Reduction mod Phi_d maps Z[x]/(x^d - 1) onto Z[x]/Phi_d, which is
Z[zeta_d], an integral domain (Phi_d is irreducible).  So the image of
the product is zero exactly when the image of one factor is, and
"chi(A) is zero or chi(B) is zero" is as exact as the zero test itself.

Each group's character table is built once and cached (`characters`).
"""

from __future__ import annotations

import cmath
import functools
import itertools
import math
from dataclasses import dataclass

from .cayley import group_ring_check_total as group_ring_tiling_check
from .errors import CayleyCodesError
from .groups import FiniteGroup


@functools.lru_cache(maxsize=None)
def cyclotomic_polynomial(m: int) -> tuple[int, ...]:
    """Coefficients (constant first) of the m-th cyclotomic polynomial.

    Computed by exact integer division of x^m - 1 by the cyclotomic
    polynomials of the proper divisors of m.
    """
    if m < 1:
        raise CayleyCodesError("cyclotomic index must be positive")
    poly = [-1] + [0] * (m - 1) + [1]  # x^m - 1
    for d in range(1, m):
        if m % d == 0:
            poly = _poly_div_exact(poly, list(cyclotomic_polynomial(d)))
    return tuple(poly)


def _poly_div_exact(num, den):
    """Exact division of integer polynomials (den monic up to sign)."""
    num = list(num)
    out = [0] * (len(num) - len(den) + 1)
    lead = den[-1]
    for i in range(len(out) - 1, -1, -1):
        q, r = divmod(num[i + len(den) - 1], lead)
        if r:
            raise CayleyCodesError("non-exact polynomial division")
        out[i] = q
        for j, c in enumerate(den):
            num[i + j] -= q * c
    if any(num):
        raise CayleyCodesError("non-exact polynomial division")
    return out


@functools.lru_cache(maxsize=None)
def _reduction_terms(m: int):
    """The degree k of Phi_m and its nonzero lower terms as (j - k, a_j).

    Phi_m is monic, so mod Phi_m each x^i with i >= k is replaced by
    -sum_j a_j x^(i-k+j), which is long division by Phi_m.
    """
    poly = cyclotomic_polynomial(m)
    k = len(poly) - 1
    return k, tuple((j - k, a) for j, a in enumerate(poly[:k]) if a)


@dataclass(frozen=True)
class CyclotomicSum:
    """An integer combination sum_j c_j zeta_m^j, stored mod x^m - 1."""

    m: int
    coeffs: tuple[int, ...]

    def __post_init__(self):
        if len(self.coeffs) != self.m:
            raise CayleyCodesError("coefficient vector must have length m")

    def is_zero(self) -> bool:
        """Exact vanishing test: Phi_m must divide the coefficient vector."""
        if not any(self.coeffs):
            return True
        k, terms = _reduction_terms(self.m)
        rem = list(self.coeffs)
        for i in range(self.m - 1, k - 1, -1):
            c = rem[i]
            if c:
                for off, a in terms:
                    rem[i + off] -= c * a
        return not any(rem[:k])

    def as_complex(self) -> complex:
        """Floating-point value, for sanity cross-checks only."""
        return sum(
            c * cmath.exp(2j * cmath.pi * j / self.m)
            for j, c in enumerate(self.coeffs)
            if c
        )


@dataclass(frozen=True)
class Character:
    """An irreducible character of an abelian group.

    ``exponents`` are taken relative to a fixed decomposition of the group
    into cyclic factors; ``value_exponents`` precomputes, for every group
    element, the exponent k with value zeta_m^k (m = group order).
    ``order`` is the character's order d, which divides m: every value is
    a d-th root of unity, zeta_m^k = zeta_d^(k*d/m).
    """

    exponents: tuple[int, ...]
    m: int
    value_exponents: tuple[int, ...]
    order: int

    @property
    def is_trivial(self) -> bool:
        return self.order == 1


def _decomposition(g: FiniteGroup):
    """The stored cyclic factor orders of g and the exponents of each
    element over them; only cyclic and abelian-product groups store them."""
    if g.decomposition is None:
        raise CayleyCodesError(
            "characters require a cyclic or abelian-product group"
        )
    orders = g.decomposition
    exps = {
        x: tuple((x // s) % m for s, m in zip(g.strides, orders))
        for x in range(g.order)
    }
    return orders, exps


def characters(g: FiniteGroup):
    """All |G| characters of a cyclic or abelian-product group, trivial
    first, then sorted by exponent tuple over its stored factors.

    The table is built once per group and cached; each call returns a
    fresh list of the cached (immutable) characters.
    """
    return list(_characters_cached(g))


@functools.lru_cache(maxsize=64)
def _characters_cached(g: FiniteGroup):
    return tuple(_build_characters(g))


def _build_characters(g: FiniteGroup):
    orders, exps = _decomposition(g)
    m = g.order
    out = []
    tuples = sorted(itertools.product(*(range(o) for o in orders)))
    for nt in tuples:
        vals = []
        for x in range(g.order):
            ax = exps[x]
            k = sum(n * a * (m // o) for n, a, o in zip(nt, ax, orders)) % m
            vals.append(k)
        d = m // math.gcd(m, *vals)
        out.append(Character(nt, m, tuple(vals), d))
    out.sort(key=lambda c: (not c.is_trivial, c.exponents))
    return out


def char_sum(rho: Character, subset) -> CyclotomicSum:
    """The exact cyclotomic sum of the character over a subset, stored
    mod x^d - 1 with d = rho.order (the value zeta_m^k is zeta_d^(k*d/m))."""
    step = rho.m // rho.order
    values = rho.value_exponents
    coeffs = [0] * rho.order
    for x in subset:
        coeffs[values[x] // step] += 1
    return CyclotomicSum(rho.order, tuple(coeffs))


def spectral_tiling_check(g: FiniteGroup, a, b) -> bool:
    """Fourier form of the tiling equation: |A||B| = |G| at the trivial
    character, and the product of character sums vanishes exactly at every
    nontrivial character, tested as one of the two sums vanishing."""
    a = set(a)
    b = set(b)
    if len(a) * len(b) != g.order:
        return False
    for rho in characters(g):
        if rho.is_trivial:
            continue
        if not (char_sum(rho, a).is_zero() or char_sum(rho, b).is_zero()):
            return False
    return True


def verify_lemma_equivalence(g: FiniteGroup, a, b) -> bool:
    """Both tiling tests must agree; a discrepancy is a defect, not a result."""
    spectral = spectral_tiling_check(g, a, b)
    ring = group_ring_tiling_check(g, a, b)
    if spectral != ring:
        raise CayleyCodesError(
            f"tiling-check discrepancy: spectral={spectral} ring={ring} "
            f"A={sorted(a)} B={sorted(b)}"
        )
    return spectral

