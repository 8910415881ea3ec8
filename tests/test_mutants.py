"""Mutant gate: each deliberately broken copy of a function must make the
verify suite that relies on it fail.

A mutant is monkeypatched where the suite imports it.  It is caught when
its suite reports failures or raises CayleyCodesError at seed 0; a suite
that still passes would pass whatever that function returns.
"""

from __future__ import annotations

import dataclasses

import pytest

from cayleycodes import cayley, criteria, verify
from cayleycodes.errors import CayleyCodesError


def _total_is_perfect(g, h):
    """The generic verdict with the total verdict copied from the perfect
    one, ignoring the parity of |H|."""
    verdict = criteria.generic_subgroup_code_decision(g, h)
    return dataclasses.replace(verdict, total=verdict.perfect)


def _any_element(g, h):
    """Any non-identity element of H in place of its least involution."""
    return next((k for k in h if k != g.identity), None)


def _swapped_abelian(g, h):
    """The abelian projection criterion with perfect and total swapped."""
    verdict = criteria.abelian_criterion(g, h)
    return dataclasses.replace(verdict, perfect=verdict.total, total=verdict.perfect)


def _drops_last_code(graph, total=False):
    """The exact-cover enumeration without its last code."""
    return cayley.enumerate_perfect_codes(graph, total=total)[:-1]


MUTANTS = [
    ("theorem3", verify, "generic_subgroup_code_decision", _total_is_perfect),
    ("cor3", verify, "generic_subgroup_code_decision", _total_is_perfect),
    ("dihedral", verify, "generic_subgroup_code_decision", _total_is_perfect),
    ("theorem3", criteria, "_least_involution", _any_element),
    ("abelian", verify, "abelian_criterion", _swapped_abelian),
    ("thm4a", verify, "enumerate_perfect_codes", _drops_last_code),
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
