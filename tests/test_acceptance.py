"""Acceptance gate: one check per headline result, one printed line each.

Each test prints "PASS criterion N: ..." (or FAIL) so the gate can be read
off a plain pytest -s run; the assertions carry the same conditions.
"""

from __future__ import annotations

import time

from cayleycodes import (
    generic_subgroup_code_decision,
    make_abelian,
    property_one_holds,
    subgroup_generated,
)
from cayleycodes.corpus import corpus_groups
from cayleycodes.specparse import parse_element_expr
from cayleycodes.verify import run_suite


def _gate(num: int, label: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"{status} criterion {num}: {label}{suffix}")
    assert ok, f"criterion {num}: {label}{suffix}"


def test_criterion_1_normal_criterion_matches_search():
    assert len(corpus_groups(24)) >= 20
    start = time.perf_counter()
    result = run_suite("theorem3")
    elapsed = time.perf_counter() - start
    _gate(
        1,
        "normal-subgroup criterion == generic search over the corpus",
        result.passed and result.checks == 1497 and elapsed <= 60.0,
        f"{result.checks} checks, {elapsed:.1f}s; failures: {result.failures[:3]}",
    )


def test_criterion_2_cyclic_parity_formula():
    result = run_suite("cor3")
    _gate(
        2,
        "cyclic parity formula exact for |G| <= 60 (search-checked <= 24)",
        result.passed and result.checks == 345,
        f"{result.checks} checks; failures: {result.failures[:3]}",
    )


def test_criterion_3_dihedral_classification():
    result = run_suite("dihedral")
    _gate(
        3,
        "dihedral classification and explicit sets for n = 3..12",
        result.passed and result.checks == 484,
        f"{result.checks} checks; failures: {result.failures[:3]}",
    )


def test_criterion_4_counterexample():
    g = make_abelian((2, 4, 4))
    gens = [parse_element_expr(g, "a1*a2^2"), parse_element_expr(g, "a1*a3^2")]
    h = subgroup_generated(g, gens)
    ok, witness = property_one_holds(g, h)
    search = generic_subgroup_code_decision(g, h)
    good = (
        not ok
        and witness == parse_element_expr(g, "a2*a3")
        and not search.perfect
    )
    _gate(
        4,
        "order-32 counterexample: property fails at a2*a3, no transversal",
        good,
        f"witness={witness}, search.perfect={search.perfect}",
    )


def test_criterion_5_abelian_projection():
    result = run_suite("abelian")
    _gate(
        5,
        "projection criterion == key property on abelian 2-groups <= 32,"
        " and the projection over two bases",
        result.passed and result.checks == 403,
        f"{result.checks} checks; failures: {result.failures[:3]}",
    )


def test_criterion_6_spectral_equivalence():
    result = run_suite("lemma-equivalence", seed=0)
    _gate(
        6,
        "exact spectral tiling check == group-ring check",
        result.passed and result.checks == 26093,
        f"{result.checks} checks; failures: {result.failures[:3]}",
    )


def test_criterion_7_power_automorphism_transport():
    start = time.perf_counter()
    result = run_suite("thm4a")
    elapsed = time.perf_counter() - start
    _gate(
        7,
        "power automorphisms transport all enumerated codes, |G| <= 12",
        result.passed and result.checks == 7825 and elapsed <= 300.0,
        f"{result.checks} checks, {elapsed:.1f}s; failures: {result.failures[:3]}",
    )


def test_criterion_8_non_power_inner_witnesses():
    result = run_suite("prop3")
    _gate(
        8,
        "non-power inner automorphisms get verified counterexamples"
        " (S3, D8, D10, D12)",
        result.passed and result.checks == 90,
        f"{result.checks} checks; failures: {result.failures[:3]}",
    )


def test_criterion_9_trivial_centre():
    result = run_suite("trivial-centre")
    _gate(
        9,
        "trivial-centre groups: only the identity inner automorphism"
        " preserves codes (S3, D10, S4)",
        result.passed and result.checks == 3,
        f"{result.checks} checks; failures: {result.failures[:3]}",
    )


def test_criterion_10_constructions_verify():
    # folded into the theorem3 suite, which verifies every constructed S
    # and R definitionally and checks R always carries an involution of H
    result = run_suite("theorem3")
    construction_checks = [f for f in result.failures if "constructed" in f or "involution" in f]
    _gate(
        10,
        "constructive connection sets verify on every eligible (G, H)",
        result.passed and result.checks == 1497 and not construction_checks,
        f"{result.checks} checks; failures: {construction_checks[:3]}",
    )
