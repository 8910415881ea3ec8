"""Subgroup code criteria, explicit constructions, and the dispatcher."""

from __future__ import annotations

import pytest

from cayleycodes import (
    CayleyCodesError,
    abelian_criterion,
    build_cayley,
    construct_connection_set,
    construct_connection_set_normal,
    cyclic_criterion,
    decide_subgroup_code,
    dihedral_construct_sets,
    direct_product,
    dihedral_criterion,
    generic_subgroup_code_decision,
    is_perfect_code,
    is_total_perfect_code,
    make_abelian,
    make_cyclic,
    make_dihedral,
    normal_subgroup_code,
    parity_criterion,
    property_one_holds,
    subgroup_generated,
)
from cayleycodes.basis import abelian_basis
from cayleycodes.corpus import corpus_groups, quaternion_group, symmetric_group
from cayleycodes import criteria
from cayleycodes.criteria import _transversal_search
from cayleycodes.groups import all_automorphisms, all_subgroups, coset_labels, is_normal
from cayleycodes.specparse import parse_element_expr, parse_group_spec
from relabeling import relabeled


class TestPropertyOne:
    def test_whole_group(self):
        g = symmetric_group(3)
        h = subgroup_generated(g, {1, 3})
        assert len(h) == 6
        assert property_one_holds(g, h) == (True, None)

    def test_z12_index3(self):
        g = make_cyclic(12)
        assert property_one_holds(g, subgroup_generated(g, {3})) == (True, None)

    def test_counterexample_witness(self):
        g = make_abelian((2, 4, 4))
        gens = [parse_element_expr(g, "a1*a2^2"), parse_element_expr(g, "a1*a3^2")]
        h = subgroup_generated(g, gens)
        ok, witness = property_one_holds(g, h)
        assert not ok
        assert witness == parse_element_expr(g, "a2*a3")

    def test_agrees_with_brute_force_definition(self):
        # oracle: literal double loop over the quantifiers, for every
        # subgroup, normal or not; the witness is the least failing x
        groups = [
            make_abelian((4, 2)),
            symmetric_group(3),
            quaternion_group(),
            make_dihedral(4),
            symmetric_group(4),
            direct_product(make_dihedral(4), make_abelian((2,))),
            relabeled(symmetric_group(4), 4),
        ]
        for g in groups:
            e = g.identity
            for h in all_subgroups(g):
                mult, hs = g.mult, frozenset(h)
                failing = [
                    x
                    for x in range(g.order)
                    if mult[x][x] in hs
                    and not any(mult[mult[x][k]][mult[x][k]] == e for k in hs)
                ]
                expected = (not failing, failing[0] if failing else None)
                assert property_one_holds(g, h) == expected, (g, h)


class TestNormalCriterion:
    def test_z12_verdicts(self):
        g = make_cyclic(12)
        cases = {
            6: (False, False),  # |H|=2, index 6
            4: (True, False),  # |H|=3
            3: (True, True),  # |H|=4
            2: (False, False),  # |H|=6
            1: (True, True),  # H=G
        }
        for gen, (perfect, total) in cases.items():
            v = normal_subgroup_code(g, subgroup_generated(g, {gen}))
            assert (v.perfect, v.total) == (perfect, total), gen

    def test_requires_normal(self):
        g = symmetric_group(3)
        with pytest.raises(CayleyCodesError):
            normal_subgroup_code(g, subgroup_generated(g, {2}))
        with pytest.raises(CayleyCodesError):
            parity_criterion(g, subgroup_generated(g, {2}))

    def test_parity_shortcut(self):
        g = make_cyclic(12)
        assert parity_criterion(g, subgroup_generated(g, {2})) is None
        v = parity_criterion(g, subgroup_generated(g, {3}))
        assert (v.perfect, v.total) == (True, True)
        v = parity_criterion(g, subgroup_generated(g, {4}))
        assert (v.perfect, v.total) == (True, False)

    def test_odd_order_group(self):
        g = make_cyclic(15)
        for h in all_subgroups(g):
            v = parity_criterion(g, h)
            assert v is not None and v.perfect and not v.total


class TestConstruction:
    def test_z9_perfect(self):
        g = make_cyclic(9)
        h = subgroup_generated(g, {3})
        s = construct_connection_set_normal(g, h)
        assert len(s.elements) == 2
        assert is_perfect_code(build_cayley(g, s), h)

    def test_z12_total_includes_involution(self):
        g = make_cyclic(12)
        h = subgroup_generated(g, {3})
        r = construct_connection_set_normal(g, h, total=True)
        assert len(r.elements) == 3
        assert 6 in r.elements
        assert is_total_perfect_code(build_cayley(g, r), h)

    def test_whole_group_empty_set(self):
        g = make_cyclic(7)
        h = subgroup_generated(g, {1})
        assert construct_connection_set_normal(g, h).sorted() == ()

    def test_failure_reports_witness(self):
        g = make_cyclic(12)
        with pytest.raises(CayleyCodesError):
            construct_connection_set_normal(g, subgroup_generated(g, {2}))

    def test_failure_names_the_least_failing_x(self):
        # the construction's own coset walk finds the key property's least
        # failing x: on every normal subgroup that fails it, over the
        # corpus, S4 and relabelings whose identity is not index 0
        base = [g for _, g in corpus_groups(32)] + [symmetric_group(4)]
        groups = base + [relabeled(g, seed) for seed, g in enumerate(base) if g.order > 1]
        failing = 0
        for g in groups:
            for h in all_subgroups(g):
                ok, x = property_one_holds(g, h)
                if ok or not is_normal(g, h):
                    continue
                failing += 1
                for total in (False, True):
                    with pytest.raises(CayleyCodesError) as err:
                        construct_connection_set_normal(g, h, total=total)
                    assert str(err.value) == f"key property fails at g={x}; no construction"
        assert failing == 236


class TestCyclic:
    def test_z12_formula(self):
        g = make_cyclic(12)
        for d, expected in {2: (False, False), 3: (True, False), 4: (True, True)}.items():
            h = subgroup_generated(g, {12 // d})
            v = cyclic_criterion(g, h)
            assert (v.perfect, v.total) == expected

    def test_rejects_noncyclic(self):
        g = make_abelian((2, 2))
        with pytest.raises(CayleyCodesError):
            cyclic_criterion(g, subgroup_generated(g, set()))


class TestAbelian:
    def test_sylow_reduction(self):
        """H gets the verdict of its Sylow-2 part H n P, the elements of
        2-power order, which the criterion never builds."""
        for g in (make_cyclic(12), make_cyclic(9), make_abelian((2, 4, 6))):
            orders = g.element_orders
            for h in all_subgroups(g):
                hp = tuple(x for x in h if orders[x] & (orders[x] - 1) == 0)
                assert abelian_criterion(g, h) == abelian_criterion(g, hp)
        g = symmetric_group(3)
        with pytest.raises(CayleyCodesError):
            abelian_criterion(g, subgroup_generated(g, set()))

    def test_basis_orders(self):
        assert sorted(abelian_basis(make_abelian((2, 4, 4)))[1]) == [2, 4, 4]
        assert abelian_basis(make_cyclic(8))[1] == (8,)

    def test_matches_projection_over_two_bases(self):
        """On every subgroup with cyclic H n P of every abelian group of
        order <= 64, the squares test equals the projection of H n P onto
        a cyclic factor, read off the exponents of two bases of P; on
        every other subgroup the criterion declines."""
        cases = 0
        for _, g in corpus_groups(64):
            if not g.is_abelian:
                continue
            orders = g.element_orders
            # P: the elements of 2-power order
            p = {x for x in range(g.order) if orders[x] & (orders[x] - 1) == 0}
            bases = [
                abelian_basis(g, p)[2],
                abelian_basis(g, p, scan_key=lambda x: -x)[2],
            ]
            for h in all_subgroups(g):
                hp = [x for x in h if x in p]
                v = abelian_criterion(g, h)
                if len(hp) not in [orders[x] for x in hp]:
                    assert v is None
                    continue
                cases += 1
                for exponents in bases:
                    projects = any(e % 2 for x in hp for e in exponents[x])
                    assert (v.perfect, v.total) == (len(hp) == 1 or projects, projects)
        assert cases == 1256

    def test_trivial_intersection_is_perfect(self):
        g = make_cyclic(12)
        h = subgroup_generated(g, {4})  # order 3, H n P trivial
        v = abelian_criterion(g, h)
        assert v.perfect and not v.total

    def test_projecting_subgroup(self):
        g = make_abelian((4, 2))
        h = subgroup_generated(g, {3})  # (1,1), order 4, projects onto Z4
        assert len(h) == 4
        v = abelian_criterion(g, h)
        assert v.perfect and v.total

    def test_non_projecting_subgroup(self):
        g = make_abelian((4, 4))
        h = subgroup_generated(g, {10})  # (2,2), projects onto neither
        v = abelian_criterion(g, h)
        assert not v.perfect
        ok, witness = property_one_holds(g, h)
        assert not ok and witness == 5  # (1,1)

    def test_requires_cyclic_intersection(self):
        # H n P = Z2^2 is not cyclic: the criterion declines, and the key
        # property must decide
        assert abelian_criterion(make_abelian((2, 2)), (0, 1, 2, 3)) is None


class TestDihedral:
    def test_rotation_formula(self):
        # the rotation subgroup <a^t> of D_2n; a^t has index t
        for n, t, expected in [
            (6, 2, (True, False)),
            (6, 3, (True, True)),
            (4, 2, (False, False)),
        ]:
            h = subgroup_generated(make_dihedral(n), {t})
            v = dihedral_criterion(n, h)
            assert (v.perfect, v.total) == expected, (n, t)

    def test_subgroup_classification(self):
        g = make_dihedral(6)
        for gens, expected in [
            ({2, 6}, (True, True)),  # <a^2, b>
            ({6}, (True, True)),  # <b>
            ({3}, (True, True)),  # <a^3>: t=3 odd, n/t=2 even
        ]:
            h = subgroup_generated(g, gens)
            v = dihedral_criterion(6, h)
            assert (v.perfect, v.total) == expected, gens

    def test_construct_sets_small(self):
        r_set, s_set = dihedral_construct_sets(6, 2, 0)
        assert sorted(r_set) == [6, 11]  # {b, ba}
        assert sorted(s_set) == [11]  # {a^5 b}
        r_set, s_set = dihedral_construct_sets(6, 3, 1)
        assert len(r_set) == 3 and len(s_set) == 2

    def test_construct_sets_verify(self):
        for n in (3, 4, 5, 6):
            g = make_dihedral(n)
            for t in (d for d in range(2, n + 1) if n % d == 0):
                for s in range(t):
                    r_set, s_set = dihedral_construct_sets(n, t, s)
                    h = subgroup_generated(g, {t % n, n + s})
                    assert is_total_perfect_code(build_cayley(g, r_set), h)
                    assert is_perfect_code(build_cayley(g, s_set), h)

    def test_construct_sets_match_table_products(self):
        # the index arithmetic against products read off the table:
        # R = {b a^i : 0 <= i < t}, S = {a^(s-j) b : 1 <= j < t}
        for n in range(3, 13):
            g = make_dihedral(n)
            a, b = 1, n
            for t in (d for d in range(2, n + 1) if n % d == 0):
                for s in range(t):
                    r_set, s_set = dihedral_construct_sets(n, t, s)
                    assert r_set == [g.mult[b][g.power(a, i)] for i in range(t)]
                    assert s_set == [
                        g.mult[g.power(a, s - j)][b] for j in range(1, t)
                    ]


class TestGeneric:
    def test_s3_odd_subgroup(self):
        g = symmetric_group(3)
        h = subgroup_generated(g, {3})  # the 3-cycle subgroup
        v = generic_subgroup_code_decision(g, h)
        assert v.perfect and not v.total

    def test_whole_group(self):
        for n in (4, 5, 6):
            g = make_cyclic(n)
            h = subgroup_generated(g, {1})
            v = generic_subgroup_code_decision(g, h)
            assert v.perfect
            assert v.total == (n % 2 == 0)

    def test_counterexample_no_transversal(self):
        g = make_abelian((2, 4, 4))
        gens = [parse_element_expr(g, "a1*a2^2"), parse_element_expr(g, "a1*a3^2")]
        h = subgroup_generated(g, gens)
        v = generic_subgroup_code_decision(g, h)
        assert not v.perfect

    def test_construct_verifies_exactly_where_search_finds_a_set(self):
        # S4 is not dihedral, so construct_connection_set takes every
        # non-normal subgroup to the generic search
        g = symmetric_group(4)
        for h in all_subgroups(g):
            if is_normal(g, h):
                continue
            verdict = generic_subgroup_code_decision(g, h)
            for total, found in ((False, verdict.perfect), (True, verdict.total)):
                if not found:
                    with pytest.raises(CayleyCodesError):
                        construct_connection_set(g, h, total=total)
                    continue
                s = construct_connection_set(g, h, total=total)
                is_code = is_total_perfect_code if total else is_perfect_code
                assert is_code(build_cayley(g, s), h)
                if not total:
                    assert verdict.witness["value"] == list(s.sorted())

    def test_construct_reads_the_generic_decision(self, monkeypatch):
        # a non-normal subgroup of even order is constructed, or refused,
        # by one generic decision in each mode, and its S is the witness
        g = symmetric_group(4)
        calls = []

        def counted(g, h):
            calls.append(h)
            return generic_subgroup_code_decision(g, h)

        monkeypatch.setattr(criteria, "generic_subgroup_code_decision", counted)
        built = 0
        for h in all_subgroups(g):
            if is_normal(g, h) or len(h) % 2:
                continue
            verdict = generic_subgroup_code_decision(g, h)
            for total in (False, True):
                calls.clear()
                if not verdict.perfect:
                    with pytest.raises(CayleyCodesError):
                        construct_connection_set(g, h, total=total)
                else:
                    s = construct_connection_set(g, h, total=total)
                    assert set(verdict.witness["value"]) <= set(s.elements)
                    built += 1
                assert calls == [h]
        assert built > 0

    def test_one_coset_labels_call_per_decision(self, monkeypatch):
        # one search decides both modes, so the coset labels of H are
        # computed once per generic decision
        g = direct_product(symmetric_group(3), make_cyclic(2))
        h = subgroup_generated(g, {2})
        calls = []

        def counted(g, h):
            calls.append(h)
            return coset_labels(g, h)

        monkeypatch.setattr(criteria, "coset_labels", counted)
        verdict = generic_subgroup_code_decision(g, h)
        assert calls == [h]
        assert (verdict.perfect, verdict.total) == (True, True)

    def test_one_search_per_decision(self, monkeypatch):
        # the total verdict is derived from the perfect search: no second
        # search, whatever the parity of |H|
        g = symmetric_group(4)
        calls = []

        def counted(g, h):
            calls.append(h)
            return _transversal_search(g, h)

        monkeypatch.setattr(criteria, "_transversal_search", counted)
        for h in all_subgroups(g):
            calls.clear()
            generic_subgroup_code_decision(g, h)
            assert calls == [h]


def _whole_coset_search(g, h, total):
    """The transversal search over all cosets at once, as it was before
    the search split into double-coset pairs: the lowest coset without a
    representative is always the next to branch on."""
    index = g.order // len(h)
    labels = coset_labels(g, h)
    blocks = [[] for _ in range(index)]
    for x, label in enumerate(labels):
        blocks[label].append(x)
    chosen = [None] * index
    if not total:
        chosen[labels[g.identity]] = g.identity

    def backtrack():
        bi = next((i for i in range(index) if chosen[i] is None), None)
        if bi is None:
            return True
        for x in blocks[bi]:
            if x == g.identity:
                continue
            xi = g.inv[x]
            bj = labels[xi]
            if chosen[bj] is not None and chosen[bj] != xi:
                continue
            if bj == bi and xi != x:
                continue
            fresh = chosen[bj] is None
            chosen[bi] = x
            chosen[bj] = xi
            if backtrack():
                return True
            chosen[bi] = None
            if fresh:
                chosen[bj] = None
        return False

    return tuple(sorted(chosen)) if backtrack() else None


# corpus_groups(32) holds abelian:2,4,4; in the relabeled groups the
# identity is not index 0, so H's own coset is not always searched first
REFERENCE_GROUPS = [
    *corpus_groups(32),
    ("table:S4", symmetric_group(4)),
    ("D16xZ2", parse_group_spec("product:(dihedral:16)x(abelian:2)")),
    ("D4xD4", parse_group_spec("product:(dihedral:4)x(dihedral:4)")),
    ("Q8xQ8", direct_product(quaternion_group(), quaternion_group())),
    ("S4xZ2", direct_product(symmetric_group(4), make_cyclic(2))),
    ("S4@relabeled", relabeled(symmetric_group(4), 4)),
    (
        "S4xZ2@relabeled",
        relabeled(direct_product(symmetric_group(4), make_cyclic(2)), 5),
    ),
]


@pytest.mark.parametrize(
    "g", [g for _, g in REFERENCE_GROUPS], ids=[spec for spec, _ in REFERENCE_GROUPS]
)
def test_pairwise_search_finds_the_whole_coset_transversal(g):
    # the greedy pass makes the first choices of the backtracking search,
    # and the whole-coset search in total mode finds the perfect
    # transversal with e replaced by the least involution of H
    e = g.identity
    for h in all_subgroups(g):
        found = _transversal_search(g, h)
        assert found == _whole_coset_search(g, h, False), h
        h0 = min((k for k in h if k != e and g.mult[k][k] == e), default=None)
        total = None
        if found is not None and h0 is not None:
            total = tuple(sorted(h0 if x == e else x for x in found))
        assert total == _whole_coset_search(g, h, True), h


def _mask(elements):
    return sum(1 << x for x in set(elements))


def _inverse(g, mask):
    return _mask(g.inv[y] for y in range(g.order) if mask >> y & 1)


def _squares_e(g):
    """The mask of the x with x^2 = e, e included."""
    return _mask(x for x in range(g.order) if g.mult[x][x] == g.identity)


def _double_cosets(g, h):
    """The double cosets HxH of H, each as (D, its left cosets, its right
    cosets), all as int masks."""
    mult, out, seen = g.mult, [], 0
    for x in range(g.order):
        if seen >> x & 1:
            continue
        d = _mask(mult[mult[k][x]][j] for k in h for j in h)
        seen |= d
        members = [y for y in range(g.order) if d >> y & 1]
        lefts = {_mask(mult[y][k] for k in h) for y in members}
        rights = {_mask(mult[k][y] for k in h) for y in members}
        out.append((d, lefts, rights))
    return out


@pytest.mark.parametrize(
    "g", [g for _, g in REFERENCE_GROUPS], ids=[spec for spec, _ in REFERENCE_GROUPS]
)
def test_double_coset_lemmas(g):
    # (1) every left coset of D = HxH meets every right coset of D, and the
    # right cosets of D are the inverses of the left cosets of D^-1;
    # (2) an x with x^2 = e in D forces D = D^-1, and every left coset of D
    # holds one
    squares_e = _squares_e(g)
    for h in all_subgroups(g):
        cosets = _double_cosets(g, h)
        lefts_of = {d: lefts for d, lefts, _ in cosets}
        for d, lefts, rights in cosets:
            assert all(a & b for a in lefts for b in rights), h
            inverses = {_inverse(g, c) for c in lefts_of[_inverse(g, d)]}
            assert inverses == rights, h
            if d & squares_e:
                assert _inverse(g, d) == d, h
                assert all(c & squares_e for c in lefts), h


def _no_transversal(g, h):
    """Some self-inverse HxH != H is an odd number of left cosets of H
    and holds no x with x^2 = e."""
    squares_e, own = _squares_e(g), _mask(h)
    return any(
        d != own and _inverse(g, d) == d and len(lefts) % 2 == 1 and not d & squares_e
        for d, lefts, _ in _double_cosets(g, h)
    )


S5 = symmetric_group(5)
CRITERION_GROUPS = [
    *corpus_groups(32),
    ("table:S4", symmetric_group(4)),
    ("table:S5", S5),
    ("S5@relabeled", relabeled(S5, 6)),
]


@pytest.mark.parametrize(
    "g",
    [g for _, g in CRITERION_GROUPS],
    ids=[spec for spec, _ in CRITERION_GROUPS],
)
def test_search_fails_exactly_on_the_double_coset_criterion(g):
    refuted = 0
    for h in all_subgroups(g):
        found = _transversal_search(g, h)
        assert (found is None) == _no_transversal(g, h), h
        if found is None:
            refuted += 1
            continue
        cosets = {_mask(g.mult[x][k] for k in h) for x in found}
        assert len(cosets) == len(found) == g.order // len(h), h
        assert g.identity in found, h
        assert sorted(g.inv[x] for x in found) == list(found), h
    if g.order == 120:
        # 31 of the 156 subgroups of S5 are not perfect codes
        assert refuted == 31


class TestDispatcher:
    def test_methods(self):
        z12 = make_cyclic(12)
        assert decide_subgroup_code(z12, subgroup_generated(z12, {3})).method == "cyclic"
        d12 = make_dihedral(6)
        assert (
            decide_subgroup_code(d12, subgroup_generated(d12, {6})).method
            == "dihedral"
        )

    def test_oracle_agreement_small_corpus(self):
        # every specialized verdict must match the exhaustive search
        for spec, g in corpus_groups(16):
            for h in all_subgroups(g):
                v = decide_subgroup_code(g, h)
                s = generic_subgroup_code_decision(g, h)
                assert (v.perfect, v.total) == (s.perfect, s.total), (
                    spec,
                    h,
                    v.method,
                )

    def test_specials_agreement(self):
        from cayleycodes.corpus import quaternion_group

        g = quaternion_group()
        for h in all_subgroups(g):
            v = decide_subgroup_code(g, h)
            s = generic_subgroup_code_decision(g, h)
            assert (v.perfect, v.total) == (s.perfect, s.total)
            if is_normal(g, h):
                n = normal_subgroup_code(g, h)
                assert (v.perfect, v.total) == (n.perfect, n.total)


def _constructed(g, h, total):
    try:
        return construct_connection_set(g, h, total)
    except CayleyCodesError:
        return None


SMALL_GROUPS = corpus_groups(12)


@pytest.mark.parametrize("spec, g", SMALL_GROUPS, ids=[s for s, _ in SMALL_GROUPS])
def test_automorphisms_map_verdicts_and_constructions(spec, g):
    # an automorphism sigma maps Cay(G, S) onto Cay(G, sigma S), so H and
    # sigma(H) get the same verdict, and sigma carries a connection set
    # that makes H a code to one that makes sigma(H) a code
    check = {False: is_perfect_code, True: is_total_perfect_code}
    for h in all_subgroups(g):
        verdict = decide_subgroup_code(g, h, is_normal(g, h))
        sets = {total: _constructed(g, h, total) for total in check}
        for sigma in all_automorphisms(g):
            image = tuple(sorted(sigma[x] for x in h))
            found = decide_subgroup_code(g, image, is_normal(g, image))
            assert (found.perfect, found.total) == (verdict.perfect, verdict.total)
            for total, s in sets.items():
                assert (_constructed(g, image, total) is None) == (s is None)
                if s is not None:
                    graph = build_cayley(g, [sigma[x] for x in s])
                    assert check[total](graph, image), (h, sigma, total)
