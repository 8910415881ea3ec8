"""Cayley graphs, the tiling test behind every code check, and the
exact-cover enumerator."""

from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from cayleycodes import cayley, cli
from cayleycodes import (
    BoundExceededError,
    CayleyCodesError,
    all_automorphisms,
    build_cayley,
    enumerate_perfect_codes,
    group_ring_check_perfect,
    group_ring_check_total,
    is_perfect_code,
    is_total_perfect_code,
    make_cyclic,
    make_dihedral,
    subgroup_code_transversal_check,
    subgroup_generated,
)
from cayleycodes.cayley import connection_set
from cayleycodes.corpus import corpus_groups, quaternion_group, symmetric_group
from cayleycodes.pcp import _sampled_connection_sets, all_connection_sets
from cayleycodes.specparse import parse_group_spec
from relabeling import relabeled, seeded_relabeling


SMALL_GROUPS = corpus_groups(12)


def definition(g, s, code, total=False):
    """The definition read vertex by vertex, sharing no code with the
    tiling test: each v has exactly one c in the code with v c^-1 in
    S u {e} (in S for a total code)."""
    t = set(s) if total else {*s, g.identity}
    code = set(code)
    return all(
        sum(g.mult[v][g.inv[c]] in t for c in code) == 1 for v in range(g.order)
    )


class TestGraphs:
    def test_connection_set_validation(self):
        g = make_cyclic(6)
        with pytest.raises(CayleyCodesError):
            connection_set(g, {0, 1, 5})
        with pytest.raises(CayleyCodesError):
            connection_set(g, {1})  # inverse 5 missing

    def test_set_of_another_group_object_is_rejected(self):
        # groups compare by identity, so an equal table built again is
        # another group
        g, h = make_cyclic(6), make_cyclic(6)
        s = connection_set(h, {1, 5})
        assert build_cayley(h, s).conn is s
        with pytest.raises(CayleyCodesError, match="different group"):
            build_cayley(g, s)


class TestDefinitionalChecks:
    def test_perfect_six_cycle(self):
        graph = build_cayley(make_cyclic(6), {1, 5})
        assert is_perfect_code(graph, {0, 3})
        assert not is_perfect_code(graph, {0, 2})

    def test_perfect_uncovered_vertex(self):
        graph = build_cayley(make_cyclic(4), {1, 3})
        assert not is_perfect_code(graph, {0})

    def test_repeated_element_counts_once(self):
        # the code is read as a set: [0, 0, 3] is the code {0, 3}
        g = make_cyclic(6)
        graph = build_cayley(g, {1, 5})
        assert is_perfect_code(graph, [0, 0, 3])
        assert group_ring_check_perfect(g, {1, 5}, [0, 0, 3])
        four_cycle = build_cayley(make_cyclic(4), {1, 3})
        assert is_total_perfect_code(four_cycle, [0, 1, 1])

    def test_perfect_isolated_vertices(self):
        graph = build_cayley(make_cyclic(5), set())
        assert is_perfect_code(graph, range(5))

    def test_total_four_cycle(self):
        graph = build_cayley(make_cyclic(4), {1, 3})
        assert is_total_perfect_code(graph, {0, 1})

    def test_total_empty_code(self):
        graph = build_cayley(make_cyclic(4), {1, 3})
        assert not is_total_perfect_code(graph, set())

    def test_total_six_cycle_fails(self):
        graph = build_cayley(make_cyclic(6), {1, 5})
        assert not is_total_perfect_code(graph, {0, 3})

    def test_codes_closed_under_right_translation(self):
        g = make_dihedral(4)
        graph = build_cayley(g, {4, 6})
        for code in enumerate_perfect_codes(graph):
            for t in range(g.order):
                shifted = [g.mult[c][t] for c in code]
                assert is_perfect_code(graph, shifted)


class TestGroupRing:
    def test_z4_product_all_ones(self):
        # {0, 1} + {0, 2} gives each element of Z4 once
        g = make_cyclic(4)
        assert group_ring_check_total(g, [0, 1], [0, 2])
        assert not group_ring_check_total(g, [0, 2], [0, 2])

    def test_noncommutative_in_s3(self):
        # H = {e, (23)} and B = {e, (12), (123)}: B is a right transversal
        # of H but not a left one, so H B tiles S3 and B H does not
        g = symmetric_group(3)
        h, b = {0, 1}, {0, 2, 3}
        assert group_ring_check_total(g, h, b)
        assert not group_ring_check_total(g, b, h)

    def test_connection_set_and_its_elements_agree(self):
        g = make_cyclic(6)
        h = subgroup_generated(g, {3})
        verdicts = set()
        for s in ({1, 5}, {2, 4}, {1, 2, 4, 5}):
            conn = connection_set(g, s)
            for bits in range(1 << g.order):
                code = {x for x in range(g.order) if bits >> x & 1}
                for check in (group_ring_check_perfect, group_ring_check_total):
                    verdict = check(g, conn, code)
                    assert verdict == check(g, s, code)
                    verdicts.add(verdict)
            for total in (False, True):
                assert subgroup_code_transversal_check(
                    g, h, conn, total
                ) == subgroup_code_transversal_check(g, h, s, total)
        assert verdicts == {False, True}

    def test_check_perfect_example(self):
        g = make_cyclic(6)
        assert group_ring_check_perfect(g, {1, 5}, {0, 3})
        assert not group_ring_check_perfect(g, {1, 5}, set())

    def test_check_total_example(self):
        g = make_cyclic(4)
        assert group_ring_check_total(g, {1, 3}, {0, 1})
        assert not group_ring_check_total(g, set(), {0, 1})

    def test_agrees_with_definitional_on_random_pairs(self):
        rng = random.Random(0)
        for spec, g in SMALL_GROUPS:
            pairs = 0
            while pairs < 40:
                s = set()
                for x in range(1, g.order):
                    if rng.random() < 0.4:
                        s.add(x)
                        s.add(g.inv[x])
                s.discard(g.identity)
                c = {x for x in range(g.order) if rng.random() < 0.4}
                graph = build_cayley(g, s)
                assert group_ring_check_perfect(g, s, c) == is_perfect_code(graph, c)
                assert group_ring_check_total(g, s, c) == is_total_perfect_code(
                    graph, c
                )
                assert is_perfect_code(graph, c) == definition(g, s, c)
                assert is_total_perfect_code(graph, c) == definition(g, s, c, True)
                pairs += 1


class TestTransversal:
    def test_z6_transversals(self):
        # the left cosets of H = {0, 3} are {0, 3}, {1, 4} and {2, 5}
        g = make_cyclic(6)
        h = subgroup_generated(g, {3})
        assert subgroup_code_transversal_check(g, h, {1, 2})
        assert subgroup_code_transversal_check(g, h, {0, 1, 2}, total=True)
        assert not subgroup_code_transversal_check(g, h, {1, 4})
        assert not subgroup_code_transversal_check(g, h, {0, 1, 4}, total=True)

    def test_canonical_representatives(self):
        g = make_dihedral(4)
        h = subgroup_generated(g, {4})
        # the least element of each left coset xH; e is the least of H
        reps = {min(g.mult[x][y] for y in h) for x in range(g.order)}
        assert g.identity in reps
        assert subgroup_code_transversal_check(g, h, reps, total=True)
        assert subgroup_code_transversal_check(g, h, reps - {g.identity})
        assert not subgroup_code_transversal_check(g, h, reps - {g.identity}, True)

    def test_d12_paper_sets(self):
        g = make_dihedral(6)
        h = subgroup_generated(g, {2, 6})  # <a^2, b>
        # S = {a^5 b} makes H a perfect code, R = {b, ba} a total one
        assert subgroup_code_transversal_check(g, h, {11})
        assert subgroup_code_transversal_check(g, h, {6, 11}, total=True)
        graph_s = build_cayley(g, {11})
        graph_r = build_cayley(g, {6, 11})
        assert is_perfect_code(graph_s, h)
        assert is_total_perfect_code(graph_r, h)

    def test_whole_group_with_empty_set(self):
        g = make_cyclic(5)
        h = subgroup_generated(g, {1})
        assert subgroup_code_transversal_check(g, h, set())

    def test_matches_definition_on_subgroups(self):
        for spec, g in SMALL_GROUPS:
            from cayleycodes import all_subgroups

            for h in all_subgroups(g):
                for s in ({x for x in range(1, g.order) if g.inv[x] == x},):
                    graph = build_cayley(g, s)
                    assert subgroup_code_transversal_check(
                        g, h, s
                    ) == is_perfect_code(graph, h) == definition(g, s, h)
                    assert subgroup_code_transversal_check(
                        g, h, s, total=True
                    ) == is_total_perfect_code(graph, h) == definition(g, s, h, True)


class TestEnumeration:
    def test_six_cycle_codes(self):
        graph = build_cayley(make_cyclic(6), {1, 5})
        assert enumerate_perfect_codes(graph) == [(0, 3), (1, 4), (2, 5)]

    def test_divisibility_obstruction(self):
        graph = build_cayley(make_cyclic(5), {1, 4})
        assert enumerate_perfect_codes(graph) == []

    def test_four_cycle_total_codes(self):
        graph = build_cayley(make_cyclic(4), {1, 3})
        assert enumerate_perfect_codes(graph, total=True) == [
            (0, 1),
            (0, 3),
            (1, 2),
            (2, 3),
        ]

    def test_size_laws(self):
        for spec, g in SMALL_GROUPS:
            s = {x for x in range(1, g.order) if g.inv[x] == x}
            graph = build_cayley(g, s)
            for code in enumerate_perfect_codes(graph):
                assert len(code) * (len(s) + 1) == g.order
            for code in enumerate_perfect_codes(graph, total=True):
                assert len(code) * len(s) == g.order
                assert len(code) % 2 == 0

    def test_agrees_with_brute_force(self):
        # oracle: filter all subsets at order <= 8
        g = make_dihedral(4)
        s = {4, 6}
        graph = build_cayley(g, s)
        expected = sorted(
            tuple(c)
            for r in range(g.order + 1)
            for c in itertools.combinations(range(g.order), r)
            if is_perfect_code(graph, c)
        )
        assert enumerate_perfect_codes(graph) == expected

    def test_code_of_every_vertex_needs_no_recursion(self):
        # with S empty the only code is G itself: one chosen centre per
        # search level, 1100 levels, far past the interpreter's default
        # recursion limit of 1000
        graph = build_cayley(make_cyclic(1100), ())
        assert enumerate_perfect_codes(graph) == [tuple(range(1100))]


def _mapped(codes, sigma):
    """The codes under the element map sigma, each sorted, in order."""
    return sorted(tuple(sorted(sigma[c] for c in code)) for code in codes)


class TestEquivariance:
    """The exact cover branches on the least uncovered vertex, an
    index-dependent choice; its answer must not depend on the numbering."""

    @pytest.mark.parametrize("spec, g", SMALL_GROUPS, ids=[s for s, _ in SMALL_GROUPS])
    def test_relabeling_and_right_translation(self, spec, g):
        perm = seeded_relabeling(g, g.order)
        h = relabeled(g, g.order)
        assert h.identity == perm[g.identity]
        # x -> x t for each t: C t is a code of the same graph
        rights = [[row[t] for row in g.mult] for t in range(g.order)]
        for s in all_connection_sets(g):
            graph = build_cayley(g, s)
            image = build_cayley(h, [perm[x] for x in s])
            for total in (False, True):
                codes = enumerate_perfect_codes(graph, total)
                assert enumerate_perfect_codes(image, total) == _mapped(codes, perm)
                for right in rights:
                    assert _mapped(codes, right) == codes, (s, total, right)

    @pytest.mark.parametrize("spec", ["dihedral:6", "abelian:2,2,2"])
    def test_automorphisms(self, spec):
        g = parse_group_spec(spec)
        codes = {
            (frozenset(s), total): enumerate_perfect_codes(build_cayley(g, s), total)
            for s in all_connection_sets(g)
            for total in (False, True)
        }
        sigmas = all_automorphisms(g)
        assert len(sigmas) == {"dihedral:6": 12, "abelian:2,2,2": 168}[spec]
        for sigma in sigmas:
            for (s, total), found in codes.items():
                image = frozenset(sigma[x] for x in s)
                assert codes[image, total] == _mapped(found, sigma), (sigma, s)


def _frozenset_search(graph, total=False):
    """The exact cover as it was before the int bitmasks, kept as the
    oracle for `enumerate_perfect_codes`: frozenset balls, and at each node
    the uncovered vertex with the fewest centres whose balls miss every
    covered vertex.  The balls come from the adjacency x ~ v iff
    x v^-1 in S, not from the group-ring products."""
    g = graph.group
    n = g.order
    s = graph.conn.elements
    balls = [
        frozenset(
            x
            for x in range(n)
            if g.mult[x][g.inv[v]] in s or (not total and x == v)
        )
        for v in range(n)
    ]
    full = frozenset(range(n))
    solutions = []

    def search(covered, chosen):
        if covered == full:
            solutions.append(tuple(sorted(chosen)))
            return
        best_cands = None
        for v in range(n):
            if v in covered:
                continue
            cands = [
                c
                for c in range(n)
                if v in balls[c] and balls[c].isdisjoint(covered)
            ]
            if best_cands is None or len(cands) < len(best_cands):
                best_cands = cands
                if not cands:
                    return
        for c in best_cands:
            search(covered | balls[c], chosen + [c])

    search(frozenset(), [])
    solutions.sort()
    return solutions


MID_GROUPS = [(spec, g) for spec, g in corpus_groups(24) if g.order >= 13]
MODES = pytest.mark.parametrize("total", [False, True], ids=["perfect", "total"])


class TestChecksAgainstEnumeration:
    """The tiling test against the bitmask exact cover, which shares no
    code with it: over every connection set of every group of order at
    most 12, a subset of size |G|/|T| passes the check iff the cover
    lists it."""

    @pytest.mark.parametrize(
        "total, subsets, found",
        [(False, 57_892, 3_585), (True, 108_071, 3_740)],
        ids=["perfect", "total"],
    )
    def test_every_subset_of_code_size(self, total, subsets, found):
        check = is_total_perfect_code if total else is_perfect_code
        verdicts = []
        for spec, g in SMALL_GROUPS:
            for s in all_connection_sets(g):
                graph = build_cayley(g, s)
                codes = set(enumerate_perfect_codes(graph, total))
                t = len(s) + (not total)
                if not t or g.order % t:
                    assert not codes, (spec, s)
                    continue
                for c in itertools.combinations(range(g.order), g.order // t):
                    verdict = check(graph, c)
                    assert verdict == (c in codes), (spec, s, c)
                    verdicts.append(verdict)
        assert (len(verdicts), sum(verdicts)) == (subsets, found)


class TestMaskSearchOracle:
    """The bitmask exact cover against the frozenset search it replaced."""

    @MODES
    @pytest.mark.parametrize("spec, g", SMALL_GROUPS, ids=[s for s, _ in SMALL_GROUPS])
    def test_every_connection_set_of_small_groups(self, spec, g, total):
        for s in all_connection_sets(g):
            graph = build_cayley(g, s)
            assert enumerate_perfect_codes(graph, total) == _frozenset_search(
                graph, total
            ), s

    @MODES
    @pytest.mark.parametrize("spec, g", MID_GROUPS, ids=[s for s, _ in MID_GROUPS])
    def test_sampled_connection_sets_of_order_13_to_24(self, spec, g, total):
        for s in _sampled_connection_sets(g, 8, seed=g.order):
            graph = build_cayley(g, s)
            assert enumerate_perfect_codes(graph, total) == _frozenset_search(
                graph, total
            ), s

    def test_z2_to_the_fifth_has_65536_codes(self):
        # S = {e1}: every code holds one element of each coset {x, x e1}
        g = parse_group_spec("abelian:2,2,2,2,2")
        e1 = g.strides[0]
        codes = enumerate_perfect_codes(build_cayley(g, {e1}))
        assert len(codes) == 65536 == len(set(codes))
        cosets = {frozenset((x, g.mult[x][e1])) for x in range(32)}
        for code in codes:
            assert all(len(coset.intersection(code)) == 1 for coset in cosets)


ORACLE_GROUPS = [
    make_cyclic(9), make_cyclic(12), make_dihedral(5), make_dihedral(6),
    symmetric_group(3), quaternion_group(), parse_group_spec("abelian:2,2,4"),
]


@settings(max_examples=150, deadline=None)
@given(g=st.sampled_from(ORACLE_GROUPS), data=st.data(), total=st.booleans())
def test_mask_search_matches_frozenset_search(g, data, total):
    picks = data.draw(st.sets(st.integers(min_value=1, max_value=g.order - 1)))
    s = picks | {g.inv[x] for x in picks}
    graph = build_cayley(g, s)
    assert enumerate_perfect_codes(graph, total) == _frozenset_search(graph, total)


class TestNodeBudget:
    def test_library_raises_past_the_budget(self, monkeypatch):
        graph = build_cayley(make_cyclic(12), {6})  # 64 codes
        assert len(enumerate_perfect_codes(graph)) == 64
        monkeypatch.setattr(cayley, "ENUMERATION_NODE_BUDGET", 50)
        with pytest.raises(BoundExceededError, match="node budget"):
            enumerate_perfect_codes(graph)
        assert enumerate_perfect_codes(build_cayley(make_cyclic(6), {1, 5})) == [
            (0, 3), (1, 4), (2, 5),
        ]

    def test_no_search_unless_the_ball_size_divides_the_order(self, monkeypatch):
        # a zero budget makes any search raise, so [] means no search ran
        monkeypatch.setattr(cayley, "ENUMERATION_NODE_BUDGET", 0)
        g = make_cyclic(6)
        for s, total in [({1, 2, 4, 5}, False), ({1, 3, 5}, False),
                         ((), True), ({1, 2, 4, 5}, True)]:
            assert enumerate_perfect_codes(build_cayley(g, s), total) == []
        for s, total in [({1, 5}, False), ((), False), ({3}, True),
                         ({1, 3, 5}, True), ({1, 5}, True)]:
            with pytest.raises(BoundExceededError, match="node budget"):
                enumerate_perfect_codes(build_cayley(g, s), total)

    def test_cli_exits_3(self, monkeypatch, capsys):
        argv = ["enumerate", "cyclic:12", "--conn", "6"]
        assert cli.main(argv) == 0
        capsys.readouterr()
        monkeypatch.setattr(cayley, "ENUMERATION_NODE_BUDGET", 50)
        assert cli.main(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "node budget exceeded" in captured.err
