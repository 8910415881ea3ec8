"""Characters of finite abelian groups and exact cyclotomic tiling tests.

A character value is a power of zeta_m with m = |G| (each factor root
zeta_{m_j} embeds as zeta_m^(m/m_j)); ``value_exponents`` records those
powers.  A character of order d (the least d with chi^d trivial, i.e.
d = m / gcd(m, all value exponents)) takes its values in the d-th roots
of unity, so each sum of its values is an integer coefficient vector c
modulo x^d - 1 and stands for c(zeta_d).  The zero test is exact.  By the
Chinese remainder theorem Q[x]/(x^d - 1) is the product of the fields
Q(zeta_e) over the divisors e of d, the class of c going to the values
c(zeta_e).  The product of the x^(d/p) - 1 over the primes p | d vanishes
at each zeta_e with e < d, since such an e divides some d/p, and not at
zeta_d.  So c(zeta_d) = 0 iff c times that product is 0 mod x^d - 1
(de Bruijn, Indag. Math. 15 (1953); Lam and Leung, J. Algebra 224
(2000)).  Testing at d rather than at m gives the same answer on the
smallest ring that holds the sum.  Floating point would make the
equivalence tests unfalsifiable.

The tiling test needs chi(A) chi(B) = 0 and tests each factor instead:
both are complex numbers and C is a field, so the product is zero
exactly when one factor is, and "chi(A) is zero or chi(B) is zero" is as
exact as the zero test itself.

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

from .basis import prime_factorization
from .cayley import group_ring_check_total as group_ring_tiling_check
from .errors import CayleyCodesError
from .groups import FiniteGroup


@dataclass(frozen=True)
class CyclotomicSum:
    """An integer combination sum_j c_j zeta_m^j, stored mod x^m - 1."""

    m: int
    coeffs: tuple[int, ...]

    def __post_init__(self):
        if len(self.coeffs) != self.m:
            raise CayleyCodesError("coefficient vector must have length m")

    def is_zero(self) -> bool:
        """Exact vanishing test: c(zeta_m) = 0 iff c times the product of
        the x^(m/p) - 1 over the primes p | m is 0 mod x^m - 1 (module
        docstring).  Multiplying by x^k - 1 is one cyclic shift by k and
        a subtraction."""
        c, m = self.coeffs, self.m
        for p in prime_factorization(m):
            k = m // p
            c = [c[j - k] - c[j] for j in range(m)]
        return not any(c)

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
