"""Mutant gate: each deliberately broken copy of a function must make the
verify suite that relies on it fail.

A mutant is monkeypatched where the suite imports it.  It is caught when
its suite reports failures or raises CayleyCodesError at seed 0; a suite
that still passes would pass whatever that function returns.
"""

from __future__ import annotations

import pytest

from cayleycodes import cayley, criteria, groups, pcp, spectral, verify
from cayleycodes.basis import prime_factorization
from cayleycodes.errors import CayleyCodesError


def _total_is_perfect(g, h):
    """The generic verdict with the total verdict copied from the perfect
    one, ignoring the parity of |H|."""
    verdict = criteria.generic_subgroup_code_decision(g, h)
    return verdict._replace(total=verdict.perfect)


def _any_element(g, h):
    """Any non-identity element of H in place of its least involution."""
    return next((k for k in h if k != g.identity), None)


def _greedy_pass(g, h, involution_rule=True, stuck=None):
    """A copy of the greedy transversal pass.  Without `involution_rule`
    an x may serve its own coset whenever x^-1 lies there; a coset with no
    match takes `stuck(block)` where the pass returns None."""
    inv = g.inv
    labels = groups.coset_labels(g, h)
    blocks = [[] for _ in range(g.order // len(h))]
    for x, label in enumerate(labels):
        blocks[label].append(x)
    chosen = [None] * len(blocks)
    chosen[labels[g.identity]] = g.identity
    for label, block in enumerate(blocks):
        if chosen[label] is not None:
            continue
        for x in block:
            j = labels[inv[x]]
            own = inv[x] == x or not involution_rule
            if chosen[j] is None and (j != label or own):
                break
        else:
            if stuck is None:
                return None
            chosen[label] = stuck(block)
            continue
        chosen[label], chosen[j] = x, inv[x]
    return tuple(sorted(chosen))


def _no_involution_rule(g, h):
    """The pass with any x whose inverse shares its coset taken for it."""
    return _greedy_pass(g, h, involution_rule=False)


def _fills_unmatched_coset(g, h):
    """The pass that gives a coset with no match its least element."""
    return _greedy_pass(g, h, stuck=min)


def _swapped_abelian(g, h):
    """The abelian projection criterion with perfect and total swapped."""
    verdict = criteria.abelian_criterion(g, h)
    return verdict._replace(perfect=verdict.total, total=verdict.perfect)


def _declines_any_involution(g, h):
    """The abelian criterion returning None whenever H holds an
    involution, though it decides every H with one."""
    if any(k != g.identity and g.mult[k][k] == g.identity for k in h):
        return None
    return criteria.abelian_criterion(g, h)


def _covers_only(g, a, b):
    """The group-ring check as "the products ab cover G", with no test
    that each element is hit once."""
    return len({g.mult[x][y] for x in a for y in b}) == g.order


def _open_balls(graph, code):
    """The perfect-code check on the open balls S c in place of the
    closed balls (S u {e}) c."""
    return cayley.group_ring_check_total(graph.group, graph.conn, code)


def _drops_last_code(graph, total=False):
    """The exact-cover enumeration without its last code."""
    return cayley.enumerate_perfect_codes(graph, total=total)[:-1]


_is_zero = spectral.CyclotomicSum.is_zero


def _equal_coefficients(value):
    """The zero test as "all coefficients equal" for order 9 and above,
    which holds at a prime order but misses 1 + zeta^3 + zeta^6 at 9."""
    return _is_zero(value) if value.m < 9 else len(set(value.coeffs)) == 1


def _largest_prime_only(value):
    """The zero test multiplying only by x^(m/p) - 1 for the largest prime
    p | m: it finds the sums with period m/p and misses a regular q-gon
    for a smaller prime q | m."""
    c, m = value.coeffs, value.m
    if m > 1:
        k = m // max(prime_factorization(m))
        c = [c[j - k] - c[j] for j in range(m)]
    return not any(c)


_kernel_classes = spectral._kernel_classes


def _classes_by_order(orders):
    """One character per order in place of one per kernel: of the three
    order-2 characters of Z2 x Z2, only the first is tested."""
    reps = {}
    for rho in spectral._build_characters(orders)[1:]:
        reps.setdefault(rho.order, rho)
    return tuple(reps.values())


def _drops_last_class(orders):
    """The kernel classes without the last one."""
    return _kernel_classes(orders)[:-1]


def _c_star_ignores_sigma(g, sigma):
    """`power_witness` with c* the least y outside H, whatever sigma(y)."""
    spans = [groups.closure(g, {x}) for x in range(g.order)]
    x = next((x for x in range(g.order) if sigma[x] not in spans[x]), None)
    if x is None:
        return None
    h = spans[x]
    c_star = next(y for y in range(g.order) if y not in h)
    labels = groups.coset_labels(g, tuple(sorted(h)))
    code = {}
    for y in range(g.order):
        code.setdefault(labels[g.inv[y]], y)
    for y in (c_star, g.identity):
        code[labels[g.inv[y]]] = y
    return cayley.connection_set(g, h - {g.identity}), tuple(sorted(code.values()))


MUTANTS = [
    ("theorem3", verify, "generic_subgroup_code_decision", _total_is_perfect),
    ("cor3", verify, "generic_subgroup_code_decision", _total_is_perfect),
    ("dihedral", verify, "generic_subgroup_code_decision", _total_is_perfect),
    ("theorem3", criteria, "_least_involution", _any_element),
    ("theorem3", criteria, "_transversal_search", _no_involution_rule),
    ("cor3", criteria, "_transversal_search", _no_involution_rule),
    ("dihedral", criteria, "_transversal_search", _no_involution_rule),
    ("theorem3", criteria, "_transversal_search", _fills_unmatched_coset),
    ("cor3", criteria, "_transversal_search", _fills_unmatched_coset),
    ("dihedral", criteria, "_transversal_search", _fills_unmatched_coset),
    ("abelian", verify, "abelian_criterion", _swapped_abelian),
    ("abelian", verify, "abelian_criterion", _declines_any_involution),
    ("theorem3", verify, "is_perfect_code", _open_balls),
    ("dihedral", verify, "is_perfect_code", _open_balls),
    ("prop3", pcp, "is_perfect_code", _open_balls),
    ("trivial-centre", pcp, "is_perfect_code", _open_balls),
    ("thm4a", verify, "enumerate_perfect_codes", _drops_last_code),
    ("lemma-equivalence", spectral.CyclotomicSum, "is_zero", _equal_coefficients),
    ("lemma-equivalence", spectral.CyclotomicSum, "is_zero", _largest_prime_only),
    ("lemma-equivalence", verify, "group_ring_tiling_check", _covers_only),
    ("lemma-equivalence", spectral, "_kernel_classes", _classes_by_order),
    ("lemma-equivalence", spectral, "_kernel_classes", _drops_last_class),
    ("prop3", verify, "power_witness", _c_star_ignores_sigma),
    ("trivial-centre", verify, "power_witness", _c_star_ignores_sigma),
]


@pytest.mark.parametrize(
    "suite, module, name, mutant",
    MUTANTS,
    ids=[f"{suite}-{mutant.__name__.lstrip('_')}" for suite, _, _, mutant in MUTANTS],
)
def test_suite_catches_mutant(monkeypatch, suite, module, name, mutant):
    monkeypatch.setattr(module, name, mutant)
    try:
        result = verify.run_suite(suite, seed=0)
    except CayleyCodesError:
        return
    assert result.failures, f"{suite} passed with {name} replaced by {mutant.__name__}"


def test_check_formats_its_message_only_on_failure():
    res = verify.SuiteResult("probe")

    def refuse():
        raise AssertionError("a passing check formatted its message")

    res.check(True, refuse)
    res.check(False, lambda: "the returned text")
    assert res.checks == 2 and res.failures == ["the returned text"]
    # a verdict pair: the same (perfect, total) passes whatever the methods,
    # and a criterion that declined (None) fails
    yes = criteria.CriterionVerdict(perfect=True, total=False, method="property1")
    res.same_verdict(refuse, yes, yes._replace(method="generic-search"))
    res.same_verdict(lambda: "Z4 H=(0, 2)", None, yes)
    both = yes._replace(total=True, method="parity")
    res.same_verdict(lambda: "Z4 H=(0, 2)", yes, both)
    assert res.checks == 5 and res.failures[1:] == [
        "Z4 H=(0, 2): None != property1 True/False",
        "Z4 H=(0, 2): property1 True/False != parity True/True",
    ]


# (suite, module, name, mutant, checks, failures, first failure text),
# recorded when every check still formatted its message eagerly
FAILURE_TEXTS = [
    (
        "thm4a",
        verify,
        "enumerate_perfect_codes",
        _drops_last_code,
        7231,
        222,
        "|G|=3 S=(1, 2) C=(1,): image (2,) lost under (0, 2, 1) (total=False)",
    ),
    (
        "lemma-equivalence",
        verify,
        "group_ring_tiling_check",
        _covers_only,
        26093,
        11822,
        "tiling-check discrepancy: spectral=False ring=True A=[0, 1] B=[0, 1]",
    ),
]


@pytest.mark.parametrize(
    "suite, module, name, mutant, checks, failures, first",
    FAILURE_TEXTS,
    ids=[row[0] for row in FAILURE_TEXTS],
)
def test_failure_text_is_unchanged(
    monkeypatch, suite, module, name, mutant, checks, failures, first
):
    monkeypatch.setattr(module, name, mutant)
    result = verify.run_suite(suite, seed=0)
    assert (result.checks, len(result.failures)) == (checks, failures)
    assert result.failures[0] == first
