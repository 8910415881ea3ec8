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

One character per kernel suffices.  Characters with the same kernel K are
the faithful characters of the cyclic group G/K, of order d = |G/K|, so
they are the powers chi^k with gcd(k, d) = 1; chi^k(A) = sigma_k(chi(A))
for the Galois automorphism sigma_k: zeta_d -> zeta_d^k of Q(zeta_d), and
their sums over any subset vanish together.  These chi^k are the
generators of the cyclic group <chi> of characters trivial on K, so the
kernel classes correspond to the cyclic subgroups of the dual group, which
is isomorphic to G: the nontrivial classes number the nontrivial cyclic
subgroups of G.  Z24 has 7 classes in place of 23 nontrivial characters,
and Z2 x Z8 has 7 in place of 15.  `vanishing_mask` runs one zero test per
class.

The kernel classes are built once per decomposition and cached
(`vanishing_mask`).
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

    ``value_exponents`` precomputes, for every group element, the
    exponent k with value zeta_m^k (m = group order).  ``order`` is the
    character's order d, which divides m: every value is a d-th root of
    unity, zeta_m^k = zeta_d^(k*d/m).
    """

    m: int
    value_exponents: tuple[int, ...]
    order: int


def characters(g: FiniteGroup):
    """All |G| characters of a cyclic or abelian-product group, indexed
    like the elements: over the stored factor orders m_j, with i_j and x_j
    the digits of i and x, character i sends x to the product of the
    zeta_{m_j}^(i_j*x_j), so character 0 is the trivial one.

    Each call builds the table afresh; the library reads characters only
    through the kernel classes, which are cached by the factor orders.
    """
    return _build_characters(_factor_orders(g))


def _factor_orders(g: FiniteGroup):
    if g.decomposition is None:
        raise CayleyCodesError(
            "characters require a cyclic or abelian-product group"
        )
    return g.decomposition


@functools.lru_cache(maxsize=64)
def _kernel_classes(orders):
    """The first nontrivial character of each kernel, in table order: one
    per nontrivial cyclic subgroup of the group (module docstring)."""
    reps = {}
    for rho in _build_characters(orders)[1:]:
        reps.setdefault(tuple(v == 0 for v in rho.value_exponents), rho)
    return tuple(reps.values())


def _build_characters(orders):
    """The characters over the cyclic factor orders.  Elements are indexed
    mixed-radix, the first factor most significant (`FiniteGroup.strides`),
    so the digit tuples in ascending order are the elements' in index
    order."""
    m = math.prod(orders)
    steps = [m // o for o in orders]
    digits = list(itertools.product(*map(range, orders)))
    out = []
    for nt in digits:
        scaled = [n * step for n, step in zip(nt, steps)]
        vals = tuple(sum(map(int.__mul__, scaled, ax)) % m for ax in digits)
        out.append(Character(m, vals, m // math.gcd(m, *vals)))
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


def vanishing_mask(g: FiniteGroup, subset) -> int:
    """The kernel classes whose character sums over the subset vanish
    exactly, as a bitmask: bit i for the i-th class of `_kernel_classes`.
    The whole group gives every class, the identity alone none."""
    mask = 0
    for bit, rho in enumerate(_kernel_classes(_factor_orders(g))):
        if char_sum(rho, subset).is_zero():
            mask |= 1 << bit
    return mask


def spectral_tiling_check(g: FiniteGroup, a, b) -> bool:
    """Fourier form of the tiling equation: |A||B| = |G| at the trivial
    character, and the product of character sums vanishes exactly at every
    nontrivial character, tested as one of the two sums vanishing at each
    kernel class."""
    a = set(a)
    b = set(b)
    if len(a) * len(b) != g.order:
        return False
    full = (1 << len(_kernel_classes(_factor_orders(g)))) - 1
    return vanishing_mask(g, a) | vanishing_mask(g, b) == full
