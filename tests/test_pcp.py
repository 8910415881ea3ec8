"""Perfect-code-preserving automorphism sweeps and witnesses."""

from __future__ import annotations

import json
import random
from itertools import combinations

import pytest

from cayleycodes import cli, pcp
from cayleycodes import (
    CayleyCodesError,
    all_power_automorphisms,
    build_cayley,
    centre,
    direct_product,
    enumerate_perfect_codes,
    group_ring_check_perfect,
    inner_automorphism,
    is_perfect_code,
    make_abelian,
    make_cyclic,
    make_dihedral,
    power_witness,
    preservation_sweep,
)
from cayleycodes.corpus import corpus_groups, quaternion_group, symmetric_group
from cayleycodes.groups import all_automorphisms, closure, is_power_automorphism
from cayleycodes.cayley import connection_set, is_total_perfect_code
from cayleycodes.pcp import (
    DEFAULT_SAMPLE_BUDGET,
    EXHAUSTIVE_ORDER_BOUND,
    _sampled_connection_sets,
    all_connection_sets,
    connection_orbits,
    is_pcp_automorphism,
    is_tpcp_automorphism,
    sized_connection_sets,
)
from cayleycodes.specparse import parse_group_spec
from relabeling import relabeled
from test_golden import PCP_RUNS, Z2_Z4_Z4, _resolve, _run


def _inverse_closed_subsets(g, sizes):
    """Every inverse-closed subset of G \\ {e} with a size in sizes, by
    brute force over the subsets of each size, sorted by (size, tuple)."""
    rest = [x for x in range(g.order) if x != g.identity]
    subsets = [c for k in sizes for c in combinations(rest, k)]
    return sorted(
        (c for c in subsets if all(g.inv[x] in c for x in c)), key=lambda c: (len(c), c)
    )


def _code_sizes(g, total):
    """The sizes |S| for which |T| divides |G| (T = S, or S u {e})."""
    extra = 0 if total else 1
    return [k for k in range(g.order) if k + extra and g.order % (k + extra) == 0]


LISTER_GROUPS = corpus_groups(12) + [
    (f"{spec}@{seed}", relabeled(g, seed))
    for spec, g in corpus_groups(12)
    if g.order > 1
    for seed in range(2)
]


class TestConnectionSweep:
    def test_orbits(self):
        g = make_cyclic(6)
        assert connection_orbits(g) == [(1, 5), (2, 4), (3,)]

    @pytest.mark.parametrize("seed", range(3))
    def test_orbits_match_definition_on_relabeled_tables(self, seed):
        # with the identity off index 0, x^-1 is no longer -x mod n
        groups = [g for _, g in corpus_groups(16)] + [symmetric_group(4)]
        for g in (relabeled(g, seed) for g in groups if g.order > 1):
            e, inv = g.identity, g.inv
            orbits = {tuple(sorted({x, inv[x]})) for x in range(g.order) if x != e}
            assert connection_orbits(g) == sorted(orbits)

    def test_all_connection_sets(self):
        g = make_cyclic(4)
        sets = all_connection_sets(g)
        assert sets == [(), (2,), (1, 3), (1, 2, 3)]
        for s in sets:
            build_cayley(g, s)  # all valid

    @pytest.mark.parametrize("spec, g", LISTER_GROUPS, ids=[s for s, _ in LISTER_GROUPS])
    def test_sized_sets_match_definition(self, spec, g):
        # the oracle of `_reference_sweep` is `all_connection_sets`, the
        # lister over every size, so this keeps that oracle independent
        assert all_connection_sets(g) == _inverse_closed_subsets(g, range(g.order))
        for sizes in (range(g.order), _code_sizes(g, False), _code_sizes(g, True)):
            assert list(sized_connection_sets(g, sizes)) == _inverse_closed_subsets(g, sizes)

    def test_sized_sets_match_definition_on_s4(self):
        # sizes with at most C(23, 5) = 33 649 subsets of G \ {e} each
        g = symmetric_group(4)
        cheap = [k for k in range(g.order) if k <= 5 or k >= 18]
        admissible = ([k for k in _code_sizes(g, t) if k in cheap] for t in (False, True))
        for sizes in (cheap, *admissible):
            assert list(sized_connection_sets(g, sizes)) == _inverse_closed_subsets(g, sizes)


class TestPreservation:
    def test_identity_preserving(self):
        g = symmetric_group(3)
        identity = tuple(range(6))
        assert preservation_sweep(g, [identity]) == ("exhaustive", [None])
        assert is_pcp_automorphism(g, identity) is None

    def test_inversion_preserving_on_abelian(self):
        for g in (make_cyclic(8), make_abelian((2, 4))):
            assert is_pcp_automorphism(g, g.inv) is None
            assert is_tpcp_automorphism(g, g.inv) is None

    def test_s3_conjugation_not_preserving(self):
        g = symmetric_group(3)
        sigma = inner_automorphism(g, 5)  # conjugation by (13)
        s, code = is_pcp_automorphism(g, sigma)
        graph = build_cayley(g, s)
        image = tuple(sorted(sigma[c] for c in code))
        assert is_perfect_code(graph, code)
        assert group_ring_check_perfect(g, s, code)
        assert not is_perfect_code(graph, image)
        assert not group_ring_check_perfect(g, s, image)

    def test_tpcp_vacuous_on_odd_order(self):
        g = make_cyclic(5)
        for sigma in all_automorphisms(g):
            assert is_tpcp_automorphism(g, sigma) is None

    def test_sampled_scope_beyond_bound(self):
        g = make_cyclic(16)
        assert preservation_sweep(g, [tuple(range(16))], budget=5) == ("sampled", [None])


SWEEP_GROUPS = [(spec, g, None) for spec, g in corpus_groups(12)]
SWEEP_GROUPS += [
    (spec, parse_group_spec(spec), 40)
    for spec in ("cyclic:16", "dihedral:8", "abelian:2,2,4")
]


class TestGroupSweep:
    """One sweep for a list of automorphisms against one sweep each."""

    @pytest.mark.parametrize(
        "spec, g, budget", SWEEP_GROUPS, ids=[spec for spec, _, _ in SWEEP_GROUPS]
    )
    @pytest.mark.parametrize("total", [False, True], ids=["perfect", "total"])
    def test_matches_single_sweeps(self, spec, g, budget, total):
        sigmas = all_automorphisms(g)
        random.Random(spec).shuffle(sigmas)
        scope, found = preservation_sweep(g, sigmas, total, budget, seed=7)
        assert [(scope, [ce]) for ce in found] == [
            preservation_sweep(g, [sigma], total, budget, seed=7)
            for sigma in sigmas
        ]

    def test_empty_list(self):
        assert preservation_sweep(make_cyclic(16), []) == ("sampled", [])

    def test_empty_list_builds_no_candidates(self, monkeypatch):
        def refuse(g, sizes):
            raise AssertionError("connection sets built for no automorphism")

        monkeypatch.setattr(pcp, "sized_connection_sets", refuse)
        assert preservation_sweep(make_dihedral(6), []) == ("exhaustive", [])

    def test_enumerates_each_connection_set_once_per_mode(self, monkeypatch):
        # abelian:2,2,2 has 7 involutions, so 128 connection sets
        g = make_abelian((2, 2, 2))
        calls = []

        def counting(graph, total=False):
            calls.append((graph.conn.sorted(), total))
            return enumerate_perfect_codes(graph, total)

        monkeypatch.setattr(pcp, "enumerate_perfect_codes", counting)
        for total in (False, True):
            preservation_sweep(g, all_automorphisms(g), total)
            sets = [s for s, mode in calls if mode == total]
            assert 1 <= len(sets) == len(set(sets)) <= 128

    def test_budget_past_every_set_costs_one_exhaustive_sweep(
        self, monkeypatch, capsys
    ):
        # abelian:2,8 has 3 involutions and 6 inverse pairs, so 512
        # connection sets, and non-power automorphisms left to sweep
        calls = []

        def counting(graph, total=False):
            calls.append(total)
            return enumerate_perfect_codes(graph, total)

        monkeypatch.setattr(pcp, "enumerate_perfect_codes", counting)
        argv = ["automorphisms", "abelian:2,8", "--pcp", "--budget"]
        assert cli.main([*argv, "10000"]) == 0
        expected = capsys.readouterr().out
        calls.clear()
        assert cli.main([*argv, str(10**12)]) == 0
        assert capsys.readouterr().out == expected
        assert 1 <= calls.count(False) <= 512 and 1 <= calls.count(True) <= 512

    @pytest.mark.parametrize("budget", [0, -1])
    def test_non_positive_budget_raises(self, budget):
        g = make_cyclic(16)
        with pytest.raises(CayleyCodesError):
            preservation_sweep(g, all_automorphisms(g), budget=budget)
        with pytest.raises(CayleyCodesError):
            is_pcp_automorphism(g, tuple(range(16)), budget=budget)


def _reference_sweep(g, sigmas, total=False, budget=None, seed=0):
    """The preservation sweep as it was before it skipped connection sets,
    kept as the oracle for `preservation_sweep`: every candidate S is
    enumerated and its codes checked against every unrefuted sigma."""
    if g.order <= EXHAUSTIVE_ORDER_BOUND:
        candidates = all_connection_sets(g)
        scope = "exhaustive"
    else:
        candidates = _sampled_connection_sets(g, budget or DEFAULT_SAMPLE_BUDGET, seed)
        scope = "sampled"
    counterexample = [None] * len(sigmas)
    pending = range(len(sigmas))
    for s in candidates:
        if not pending:
            break
        graph = build_cayley(g, connection_set(g, s))
        codes = enumerate_perfect_codes(graph, total=total)
        known = set(map(frozenset, codes))
        for i in pending:
            image = sigmas[i].__getitem__
            lost = (c for c in codes if frozenset(map(image, c)) not in known)
            counterexample[i] = next(((s, c) for c in lost), None)
        pending = [i for i in pending if counterexample[i] is None]
    return scope, counterexample


MID_GROUPS = [(spec, g) for spec, g in corpus_groups(24) if g.order >= 13]
MODES = pytest.mark.parametrize("total", [False, True], ids=["perfect", "total"])
FIXING_GROUPS = [
    (spec, g) for spec, g in corpus_groups(12)
    if spec in ("dihedral:4", "abelian:2,2,2", "cyclic:8", "table:Q8")
]


class TestSkippingSweep:
    """The sweep that skips sets where nothing can be refuted, against the
    sweep that enumerates every candidate set."""

    @MODES
    @pytest.mark.parametrize(
        "spec, g, budget", SWEEP_GROUPS, ids=[spec for spec, _, _ in SWEEP_GROUPS]
    )
    def test_matches_reference_on_sweep_groups(self, spec, g, budget, total):
        sigmas = all_automorphisms(g)
        assert preservation_sweep(g, sigmas, total, budget, seed=7) == (
            _reference_sweep(g, sigmas, total, budget, seed=7)
        )

    @MODES
    @pytest.mark.parametrize("spec, g", MID_GROUPS, ids=[s for s, _ in MID_GROUPS])
    def test_matches_reference_on_order_13_to_24(self, spec, g, total):
        sigmas = all_automorphisms(g)
        for budget in (None, 25, 1):
            for seed in (0, 3):
                assert preservation_sweep(g, sigmas, total, budget, seed) == (
                    _reference_sweep(g, sigmas, total, budget, seed)
                ), (budget, seed)

    @pytest.mark.parametrize("spec, g", FIXING_GROUPS, ids=[s for s, _ in FIXING_GROUPS])
    def test_a_sigma_that_fixes_s_maps_codes_to_codes(self, spec, g):
        checks = {False: is_perfect_code, True: is_total_perfect_code}
        fixing = 0
        for s in all_connection_sets(g):
            graph = build_cayley(g, s)
            for sigma in all_automorphisms(g):
                if sorted(sigma[x] for x in s) != list(s):
                    continue
                fixing += 1
                for total, is_code in checks.items():
                    for code in enumerate_perfect_codes(graph, total):
                        assert is_code(graph, [sigma[c] for c in code])
        assert fixing > len(all_connection_sets(g))

    def test_no_enumeration_once_only_the_identity_is_pending(self, monkeypatch):
        g = parse_group_spec("dihedral:6")
        sigmas = all_automorphisms(g)
        sets = all_connection_sets(g)
        enumerated, pulled, listed, lister = [], [], [], pcp.sized_connection_sets

        def recording(graph, total=False):
            enumerated.append(graph.conn.sorted())
            return enumerate_perfect_codes(graph, total)

        def pulling(g, sizes):
            def recorded():
                for k in sizes:
                    pulled.append(k)
                    yield k

            for s in lister(g, recorded()):
                listed.append(s)
                yield s

        monkeypatch.setattr(pcp, "enumerate_perfect_codes", recording)
        _, found = preservation_sweep(g, sigmas)
        assert [ce is None for ce in found] == [s == tuple(range(g.order)) for s in sigmas]
        last_refuted = max(sets.index(ce[0]) for ce in found[1:])
        assert sets.index(enumerated[-1]) == last_refuted
        assert last_refuted < len(sets) - 1
        # without the identity, which no set refutes, nothing is left
        # pending after that set: no further set, nor size class, is listed
        monkeypatch.setattr(pcp, "sized_connection_sets", pulling)
        assert preservation_sweep(g, sigmas[1:])[1] == found[1:]
        assert sets.index(enumerated[-1]) == last_refuted
        assert listed[-1] == enumerated[-1]
        assert pulled == [k for k in _code_sizes(g, False) if k <= len(enumerated[-1])]
        assert pulled[-1] < max(_code_sizes(g, False))

    @MODES
    @pytest.mark.parametrize(
        "spec, g", corpus_groups(12), ids=[s for s, _ in corpus_groups(12)]
    )
    def test_exhaustive_sweep_lists_only_sets_that_can_hold_a_code(
        self, spec, g, total, monkeypatch
    ):
        listed, lister = [], pcp.sized_connection_sets

        def recording(g, sizes):
            for s in lister(g, sizes):
                listed.append(s)
                yield s

        monkeypatch.setattr(pcp, "sized_connection_sets", recording)
        assert preservation_sweep(g, all_automorphisms(g), total)[0] == "exhaustive"
        assert {len(s) for s in listed} <= set(_code_sizes(g, total))


POWER_GROUPS = corpus_groups(16) + [("abelian:2,4,4", make_abelian((2, 4, 4)))]


class TestPowerAutomorphisms:
    def test_counts(self):
        assert len(all_power_automorphisms(make_cyclic(5))) == 4
        assert len(all_power_automorphisms(make_abelian((2, 2)))) == 1
        assert len(all_power_automorphisms(symmetric_group(3))) == 1

    @pytest.mark.parametrize(
        "spec, g", POWER_GROUPS, ids=[spec for spec, _ in POWER_GROUPS]
    )
    def test_closed_under_composition_and_inverse(self, spec, g):
        # the power automorphisms are a subgroup of Aut(G); sigma after tau
        # is x -> sigma(tau(x)), and the inverse of sigma sends sigma(x) to x
        sigmas = all_power_automorphisms(g)
        assert tuple(range(g.order)) in sigmas
        for sigma in sigmas:
            inverse = [0] * g.order
            for x, y in enumerate(sigma):
                inverse[y] = x
            assert tuple(inverse) in sigmas
            for tau in sigmas:
                assert tuple(sigma[y] for y in tau) in sigmas

    def test_cyclic_all_automorphisms_are_power(self):
        g = make_cyclic(12)
        assert len(all_power_automorphisms(g)) == len(all_automorphisms(g))


def _refuted(g, sigma, witness):
    """Is the witness C a perfect code of Cay(G, S) that sigma carries to a
    non-code?"""
    s, code = witness
    graph = build_cayley(g, s)
    image = [sigma[c] for c in code]
    return is_perfect_code(graph, code) and not is_perfect_code(graph, image)


WITNESS_GROUPS = corpus_groups(16) + [("S4", symmetric_group(4))]


class TestWitness:
    def test_abelian_has_no_witness(self):
        g = make_cyclic(6)
        for x in range(6):
            assert power_witness(g, inner_automorphism(g, x)) is None

    def test_s3_witness(self):
        g = symmetric_group(3)
        sigma = inner_automorphism(g, 5)
        assert _refuted(g, sigma, power_witness(g, sigma))

    def test_d8_witness(self):
        g = make_dihedral(4)
        sigma = inner_automorphism(g, 1)  # conjugation by a
        assert _refuted(g, sigma, power_witness(g, sigma))

    @pytest.mark.parametrize(
        "spec, g", WITNESS_GROUPS, ids=[spec for spec, _ in WITNESS_GROUPS]
    )
    def test_every_non_power_automorphism_is_refuted(self, spec, g):
        for sigma in all_automorphisms(g):
            witness = power_witness(g, sigma)
            if is_power_automorphism(g, sigma):
                assert witness is None
            else:
                assert _refuted(g, sigma, witness)

    @pytest.mark.parametrize(
        "spec, g",
        [(spec, g) for spec, g in corpus_groups(24) if not g.is_abelian],
    )
    def test_witness_matches_right_coset_reference(self, spec, g):
        for sigma in all_automorphisms(g):
            expected = _reference_power_witness(g, sigma)
            witness = power_witness(g, sigma)
            if expected is None:
                assert witness is None
            else:
                assert (witness[0].sorted(), witness[1]) == expected


def _reference_power_witness(g, sigma):
    """power_witness with the right cosets Hy listed directly as products
    ky, not as inverted left cosets."""
    moved = [x for x in range(g.order) if sigma[x] not in closure(g, {x})]
    if not moved:
        return None
    h = closure(g, {moved[0]})
    c_star = min(y for y in range(g.order) if y not in h and sigma[y] in h)
    cosets = {frozenset(g.mult[k][y] for k in h) for y in range(g.order)}
    code = []
    for block in cosets:
        if g.identity in block:
            code.append(g.identity)
        elif c_star in block:
            code.append(c_star)
        else:
            code.append(min(block))
    return tuple(sorted(h - {g.identity})), tuple(sorted(code))


class TestCorollaries:
    def test_trivial_centre(self):
        # every non-identity inner automorphism of a centre-trivial group
        # gets a witness
        for g in (symmetric_group(3), make_dihedral(5)):
            assert centre(g) == (g.identity,)
            for x in range(g.order):
                sigma = inner_automorphism(g, x)
                witness = power_witness(g, sigma)
                if x == g.identity:
                    assert witness is None
                else:
                    assert _refuted(g, sigma, witness)


# `automorphisms` exits 3 on Z2 x Z4 x Z4, over its default order bound
ORACLE_RUNS = [run for run in PCP_RUNS if not run.startswith(Z2_Z4_Z4[0])]


def _is_connection_set(g, s):
    return g.identity not in s and all(g.inv[x] in s for x in s)


def _is_total_code(g, s, code):
    """Does every vertex x of Cay(G, S) have exactly one neighbour in C?
    x is a neighbour of c when x = s c for some s in S, that is when
    x c^-1 is in S."""
    s = set(s)
    return all(
        sum(g.mult[x][g.inv[c]] in s for c in code) == 1 for x in range(g.order)
    )


def _certifies(g, sigma, witness):
    """Is S a connection set, C a total code of Cay(G, S) and sigma(C) not
    one?  Checked without the library."""
    s, code = witness
    image = [sigma[c] for c in code]
    return (
        _is_connection_set(g, s)
        and _is_total_code(g, s, code)
        and not _is_total_code(g, s, image)
    )


def _witness_failures(g):
    """The non-power automorphisms of g that get no witness from
    constructions A and B, or one that fails its certificate."""
    cache, failures = {}, []
    for sigma in all_automorphisms(g):
        if is_power_automorphism(g, sigma):
            continue
        witness = pcp._total_witness(g, sigma, cache)
        if witness is None or not _certifies(g, sigma, witness):
            failures.append((sigma, witness))
    return failures


def _no_square_test(g, x, h):
    """`pcp._normalizing_root` taking any k in N(H) \\ H, whether or not
    k^2 lies in H."""
    return next((k for k in range(g.order) if k not in h and g.conjugate(k, x) in h), None)


EVEN_GROUPS = [(spec, g) for spec, g in corpus_groups(12) if g.order % 2 == 0]
EVEN_GROUPS += [("S4", symmetric_group(4)), ("dihedral:12", make_dihedral(12))]
# 21 724 non-power automorphisms, 20 159 of them of Z2^4
COVERAGE_GROUPS = [(spec, g) for spec, g in corpus_groups(24) if g.order % 2 == 0] + [
    ("S4", symmetric_group(4)),
    ("Q8xZ2", direct_product(quaternion_group(), make_cyclic(2))),
    ("S3xS3", direct_product(symmetric_group(3), symmetric_group(3))),
]
TWO_GROUPS = [(spec, g) for spec, g in COVERAGE_GROUPS if g.order & (g.order - 1) == 0]
# swept exhaustively up to order 16; Z2^4, with 20 160 automorphisms, is left out
EXACT_GROUPS = corpus_groups(12) + [
    (spec, g) for spec, g in corpus_groups(16) if g.order > 12 and spec != "abelian:2,2,2,2"
]


class TestVerdicts:
    """Rows decided by theorem or witness, against full sweeps."""

    @pytest.mark.parametrize("run", ORACLE_RUNS)
    def test_cli_rows_match_two_full_sweeps(self, run):
        argv = ["automorphisms", *run.split(), "--format", "json"]
        code, out, _ = _run(argv)
        assert code == 0
        rows = json.loads(out)["results"]
        args = cli.parse_args(argv)
        g = _resolve(args.spec)
        sigmas = all_automorphisms(g)
        scope, perfect = preservation_sweep(g, sigmas, False, args.budget, args.seed)
        _, total = preservation_sweep(g, sigmas, True, args.budget, args.seed)
        assert [row["sigma"] for row in rows] == list(map(list, sigmas))
        assert {row["scope"] for row in rows} == {scope}
        assert [
            (row["preserving"], row["total_preserving"], row["counterexample"])
            for row in rows
        ] == [
            (ce is None, tce is None, ce and {"S": list(ce[0]), "C": list(ce[1])})
            for ce, tce in zip(perfect, total)
        ]

    @pytest.mark.parametrize(
        "spec, g", COVERAGE_GROUPS, ids=[s for s, _ in COVERAGE_GROUPS]
    )
    def test_every_non_power_automorphism_has_a_total_witness(self, spec, g):
        assert _witness_failures(g) == []

    @pytest.mark.parametrize("spec, g", TWO_GROUPS, ids=[s for s, _ in TWO_GROUPS])
    def test_two_groups_take_construction_a(self, spec, g):
        # in a 2-group N(H) > H for every proper H, so some k in N(H) \\ H
        # has k^2 in H, and S = kH is one left coset of H = <x>; B's
        # S = (K \\ {e}) u {x} never is: it holds x, but not e = xx
        spans = [closure(g, {x}) for x in range(g.order)]
        cache = {}
        for sigma in all_automorphisms(g):
            moved = [x for x in range(g.order) if sigma[x] not in spans[x]]
            if moved:
                h = spans[moved[0]]
                s, _ = pcp._total_witness(g, sigma, cache)
                assert len(set(s)) == len(h)
                assert {g.mult[y][z] for y in s for z in h} == set(s)

    @pytest.mark.parametrize("spec, g", EXACT_GROUPS, ids=[s for s, _ in EXACT_GROUPS])
    def test_witness_exactly_where_the_total_sweep_refutes(self, spec, g, monkeypatch):
        monkeypatch.setattr(pcp, "EXHAUSTIVE_ORDER_BOUND", 16)
        sigmas = all_automorphisms(g)
        scope, refuted = preservation_sweep(g, sigmas, total=True)
        assert scope == "exhaustive"
        cache = {}
        witnessed = [pcp._total_witness(g, sigma, cache) is not None for sigma in sigmas]
        assert witnessed == [ce is not None for ce in refuted]

    def test_each_subgroup_checks_its_s_once(self, monkeypatch):
        g = make_abelian((2, 2, 2))
        checked = []

        def counting(g, elements):
            checked.append(tuple(sorted(elements)))
            return connection_set(g, elements)

        monkeypatch.setattr(pcp, "connection_set", counting)
        cache = {}
        witnesses = [pcp._total_witness(g, sigma, cache) for sigma in all_automorphisms(g)]
        assert len(witnesses) == 168 and witnesses.count(None) == 1
        assert len(checked) == len(set(checked)) == len(cache)
        assert {w[0].sorted() for w in witnesses if w} <= set(checked)

    def test_witnesses_without_the_square_test_fail(self, monkeypatch):
        monkeypatch.setattr(pcp, "_normalizing_root", _no_square_test)
        failing = [spec for spec, g in EVEN_GROUPS if _witness_failures(g)]
        assert failing
        # the library's certificate check sends each failing sigma to the
        # sweep, so every counterexample reported still holds
        g = dict(EVEN_GROUPS)[failing[0]]
        sigmas = all_automorphisms(g)
        powers = [is_power_automorphism(g, sigma) for sigma in sigmas]
        _, _, total = pcp.preservation_verdicts(g, sigmas, powers)
        _, refuted = preservation_sweep(g, sigmas, total=True)
        assert [ce is None for ce in total] == [ce is None for ce in refuted]
        for sigma, witness in zip(sigmas, total):
            assert witness is None or _certifies(g, sigma, witness)
