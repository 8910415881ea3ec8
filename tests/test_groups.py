"""Group table constructors, validation, subgroups and automorphisms."""

from __future__ import annotations

import collections
import itertools
import random
import tracemalloc
import weakref

import pytest
from hypothesis import given, settings, strategies as st

from cayleycodes import groups, specparse
from cayleycodes import (
    BoundExceededError,
    GroupTableError,
    all_automorphisms,
    all_subgroups,
    centre,
    characters,
    coset_labels,
    direct_product,
    from_table,
    inner_automorphism,
    is_normal,
    is_power_automorphism,
    make_abelian,
    make_cyclic,
    make_dihedral,
    subgroup_generated,
)
from cayleycodes.groups import (
    _inverses_from_table,
    closure,
    generating_set,
    is_automorphism,
    is_subgroup,
    metacyclic_table,
)
from cayleycodes.corpus import (
    abelian_types,
    corpus_groups,
    quaternion_group,
    symmetric_group,
)
from cayleycodes.errors import GroupSpecError, node_counter
from cayleycodes.specparse import load_table_file
from relabeling import relabel, relabeled, seeded_relabeling

# the order-32 group of the paper's counterexample
Z2_Z4_Z4 = ("abelian:2,4,4", make_abelian((2, 4, 4)))

# S3 element indices under the sorted-permutations convention:
# 0=e, 1=(23), 2=(12), 3=(012), 4=(021), 5=(13)
S3_SWAP01 = 2
S3_SWAP02 = 5
S3_SWAP12 = 1
S3_CYCLE = 3


class TestConstructors:
    def test_trivial_cyclic(self):
        g = make_cyclic(1)
        assert g.order == 1 and g.identity == 0

    def test_cyclic_inverses(self):
        g = make_cyclic(6)
        assert g.inv[1] == 5
        assert g.inv[3] == 3

    def test_cyclic_element_order(self):
        g = make_cyclic(12)
        # oracle: repeated multiplication, 3+3+3+3 = 12 = 0 mod 12
        assert g.element_orders[3] == 4

    def test_dihedral_relation(self):
        g = make_dihedral(3)
        assert g.order == 6
        a, b = 1, 3
        # b a = a^2 b, rewritten from (ab)^2 = e
        a2b = g.mult[g.mult[a][a]][b]
        assert g.mult[b][a] == a2b

    def test_dihedral_central_involution(self):
        g = make_dihedral(6)
        z = centre(g)
        rotations = [x for x in z if 0 < x < 6]
        assert rotations == [3]
        assert g.element_orders[3] == 2

    def test_dihedral_reflections_are_involutions(self):
        g = make_dihedral(4)
        ab = g.mult[1][4]
        assert g.inv[ab] == ab
        for x in range(4, 8):
            assert g.mult[x][x] == g.identity

    def test_abelian_product_orders(self):
        assert make_abelian((2, 4, 4)).order == 32
        assert make_abelian((2,)).order == 2

    def test_abelian_coprime_is_cyclic(self):
        g = make_abelian((2, 3))
        h = make_cyclic(6)
        # abelian groups with the same element-order multiset are isomorphic
        assert g.is_abelian and h.is_abelian
        assert sorted(g.element_orders) == sorted(h.element_orders)

    def test_direct_product_with_trivial(self):
        h = make_cyclic(5)
        g = direct_product(make_cyclic(1), h)
        assert g.mult == h.mult and g.inv == h.inv and g.identity == h.identity

    def test_klein_four_involutions(self):
        g = direct_product(make_cyclic(2), make_cyclic(2))
        assert sum(1 for x in range(4) if g.element_orders[x] == 2) == 3

    def test_z3_times_s3(self):
        g = direct_product(make_cyclic(3), symmetric_group(3))
        assert g.order == 18
        assert len(centre(g)) == 3

    def test_is_abelian_matches_full_scan(self):
        # cyclic and abelian-product groups answer without scanning; the
        # corpus has no "product" kind, so two products are added
        products = [
            ("Z2xZ3", direct_product(make_cyclic(2), make_cyclic(3))),
            ("Z2xD3", direct_product(make_cyclic(2), make_dihedral(3))),
        ]
        for spec, g in corpus_groups(64) + products:
            n = g.order
            scan = all(g.mult[i][j] == g.mult[j][i] for i in range(n) for j in range(n))
            assert g.is_abelian == scan, spec


class TestFromTable:
    def test_trivial_table(self):
        g = from_table([[0]])
        assert g.order == 1 and g.identity == 0

    def test_s3_table_accepted(self):
        s3 = symmetric_group(3)
        g = from_table([list(row) for row in s3.mult])
        assert not g.is_abelian
        assert g.identity == 0

    def test_nonassociative_loop_rejected(self):
        # an order-5 loop with two-sided inverses but no associativity
        loop = [
            [0, 1, 2, 3, 4],
            [1, 0, 3, 4, 2],
            [2, 4, 0, 1, 3],
            [3, 2, 4, 0, 1],
            [4, 3, 1, 2, 0],
        ]
        with pytest.raises(GroupTableError) as err:
            from_table(loop)
        assert err.value.reason == "non-associative"
        assert err.value.witness == (1, 1, 2)

    def test_bad_index_rejected(self):
        with pytest.raises(GroupTableError) as err:
            from_table([[0, 1], [1, 7]])
        assert err.value.reason == "bad-index"

    def test_no_identity_rejected(self):
        # subtraction mod 3: a Latin square without a two-sided identity
        table = [[(i - j) % 3 for j in range(3)] for i in range(3)]
        with pytest.raises(GroupTableError) as err:
            from_table(table)
        assert err.value.reason == "no-identity"

    def test_not_latin_rejected(self):
        with pytest.raises(GroupTableError) as err:
            from_table([[0, 1], [1, 1]])
        assert err.value.reason == "not-latin-square"

    def test_rows_of_mixed_types(self):
        # the table loader hands over bytes rows until a block needs int(),
        # and tuple rows after it
        g = make_dihedral(4)
        kinds = (bytes, tuple, list)
        rows = [kinds[i % 3](row) for i, row in enumerate(g.mult)]
        h = from_table(rows)
        assert (h.mult, h.inv, h.identity, h.generators) == (
            g.mult, g.inv, g.identity, g.generators)
        for v in (8, 300):
            rows = [bytes(row) for row in g.mult[:3]] + [tuple(row) for row in g.mult[3:]]
            rows[5] = rows[5][:2] + (v,) + rows[5][3:]
            with pytest.raises(GroupTableError) as err:
                from_table(rows)
            assert (err.value.reason, err.value.witness) == ("bad-index", (5, 2))


class TestSubgroups:
    def test_empty_generators(self):
        g = make_cyclic(12)
        h = subgroup_generated(g, set())
        assert h == (0,)

    def test_cyclic_closure(self):
        g = make_cyclic(12)
        assert subgroup_generated(g, {3}) == (0, 3, 6, 9)

    def test_dihedral_closure(self):
        g = make_dihedral(6)
        h = subgroup_generated(g, {2, 6})  # <a^2, b>
        assert h == (0, 2, 4, 6, 8, 10)

    def test_subgroup_counts(self):
        assert len(all_subgroups(make_cyclic(12))) == 6
        assert len(all_subgroups(symmetric_group(3))) == 6
        assert len(all_subgroups(make_dihedral(6))) == 16
        assert len(all_subgroups(make_dihedral(4))) == 10
        assert len(all_subgroups(quaternion_group())) == 6

    def test_is_subgroup(self):
        g = symmetric_group(3)
        assert is_subgroup(g, {0, S3_CYCLE, 4})
        assert not is_subgroup(g, {0, S3_SWAP01, S3_SWAP02})

    def test_normality(self):
        g = symmetric_group(3)
        assert is_normal(g, subgroup_generated(g, set()))
        assert not is_normal(g, subgroup_generated(g, {S3_SWAP01}))
        d = make_dihedral(6)
        assert is_normal(d, subgroup_generated(d, {1}))  # index 2

    def test_left_cosets(self):
        g = make_cyclic(6)
        h = subgroup_generated(g, {3})
        assert coset_labels(g, h) == [0, 1, 2, 0, 1, 2]
        full = subgroup_generated(g, {1})
        assert coset_labels(g, full) == [0] * 6

    def test_s3_cosets(self):
        g = symmetric_group(3)
        h = subgroup_generated(g, {S3_SWAP01})
        labels = coset_labels(g, h)
        blocks = {tuple(x for x in range(6) if labels[x] == k) for k in range(3)}
        assert all(len(b) == 2 for b in blocks)
        # for this non-normal H the left and right decompositions differ;
        # the right cosets Hx are the inverted left cosets (x^-1 H)^-1
        right = {tuple(sorted(g.inv[y] for y in b)) for b in blocks}
        assert right == {
            tuple(sorted(g.mult[y][x] for y in h)) for x in range(6)
        }
        assert blocks != right

    def test_coset_labels_number_left_cosets(self):
        # the elements labelled like x are exactly xH = {x h : h in H}, for
        # every subgroup, normal or not, and the labels 0..|G:H|-1 first
        # appear in ascending order
        for _, g in corpus_groups(12) + [Z2_Z4_Z4]:
            for h in all_subgroups(g):
                labels = coset_labels(g, h)
                for x in range(g.order):
                    xh = {g.mult[x][y] for y in h}
                    assert {y for y in range(g.order) if labels[y] == labels[x]} == xh
                firsts = [labels.index(k) for k in range(g.order // len(h))]
                assert firsts == sorted(firsts)

    def test_sylow_two(self):
        def sylow_two(g):
            orders = g.element_orders
            return tuple(x for x in range(g.order) if orders[x] & (orders[x] - 1) == 0)

        assert sylow_two(make_cyclic(12)) == (0, 3, 6, 9)
        assert sylow_two(make_cyclic(9)) == (0,)
        assert len(sylow_two(make_abelian((2, 4, 4)))) == 32
        assert len(sylow_two(make_abelian((2, 3, 4)))) == 8

    def test_generating_set_spans(self):
        g = make_dihedral(5)
        gens = generating_set(g)
        assert len(subgroup_generated(g, gens)) == g.order


def _reference_closure(g, seed):
    """Pairwise worklist closure: every new element is multiplied both ways
    by everything already present."""
    out = {g.identity}
    queue = list(seed)
    while queue:
        z = queue.pop()
        if z in out:
            continue
        out.add(z)
        for k in list(out):
            for p in (g.mult[z][k], g.mult[k][z]):
                if p not in out:
                    queue.append(p)
    return frozenset(out)


def _reference_lattice(g):
    """Breadth-first lattice: close H | {x} for every known H and every x
    outside it; each subgroup as its ascending elements, sorted by
    (order, elements)."""
    trivial = frozenset({g.identity})
    found = {trivial}
    frontier = [trivial]
    while frontier:
        fresh = []
        for h in frontier:
            for x in range(g.order):
                if x not in h:
                    k = _reference_closure(g, h | {x})
                    if k not in found:
                        found.add(k)
                        fresh.append(k)
        frontier = fresh
    return sorted((tuple(sorted(k)) for k in found), key=lambda h: (len(h), h))


ORACLE_GROUPS = corpus_groups(32)


# the canonical order of the lattice search depends on the indices
LATTICE_GROUPS = ORACLE_GROUPS + [
    (f"{spec}@relabeled", relabeled(g, spec)) for spec, g in ORACLE_GROUPS if g.order > 1
]


class TestLatticeOracle:
    """The canonical-augmentation lattice against the pairwise-worklist
    reference, on the corpus and on relabelings whose identity is not
    index 0."""

    @pytest.mark.parametrize("spec, g", LATTICE_GROUPS, ids=[s for s, _ in LATTICE_GROUPS])
    def test_all_subgroups_match_reference(self, spec, g):
        assert all_subgroups(g) == _reference_lattice(g)

    @pytest.mark.parametrize("spec, g", LATTICE_GROUPS, ids=[s for s, _ in LATTICE_GROUPS])
    def test_cyclic_spans_match_closure(self, spec, g):
        spans = [closure(g, {x}) for x in range(g.order)]
        assert g.cyclic_spans == tuple(sum(1 << y for y in h) for h in spans)

    @pytest.mark.parametrize("k, count", enumerate([1, 2, 5, 16, 67, 374, 2825]))
    def test_elementary_abelian_counts(self, k, count):
        # OEIS A006116: the number of subspaces of GF(2)^k
        g = make_abelian((2,) * k) if k else make_cyclic(1)
        assert len(all_subgroups(g)) == count

    def test_one_join_per_subgroup(self, monkeypatch):
        # in Z2^k every join is kept, so the search joins once for each
        # subgroup other than {e}
        joins = []
        join = groups._join

        def counted(*args):
            joins.append(args)
            return join(*args)

        monkeypatch.setattr(groups, "_join", counted)
        subs = all_subgroups(make_abelian((2,) * 6))
        assert len(subs) == 2825 and len(joins) == 2824

    @pytest.mark.parametrize("spec, g", LATTICE_GROUPS, ids=[s for s, _ in LATTICE_GROUPS])
    def test_joins_only_least_coset_elements(self, spec, g, monkeypatch):
        # every join adds to H an x = gens[-1] outside H, above the previous
        # generator and least in its right coset Hx
        calls = []
        join = groups._join

        def checked(mult, bit_columns, h, kmask, gens):
            x = gens[-1]
            assert x not in h
            assert len(gens) == 1 or x > gens[-2]
            assert x == min(mult[k][x] for k in h)
            calls.append(gens)
            return join(mult, bit_columns, h, kmask, gens)

        monkeypatch.setattr(groups, "_join", checked)
        # the lattice cached on g may already be built; build it afresh
        lattice = groups._build_subgroups(g)
        assert len(calls) >= len(lattice) - 1

    @pytest.mark.parametrize(
        "g, count",
        [
            (make_abelian((2,) * 6), 2825),
            (direct_product(make_dihedral(4), make_abelian((2, 2, 2))), 937),
        ],
        ids=["Z2^6", "D4xZ2^3"],
    )
    def test_order_64_lattice_does_not_depend_on_labels(self, g, count):
        source = {frozenset(h) for h in all_subgroups(g)}
        assert len(source) == count
        for seed in range(2):
            perm = seeded_relabeling(g, seed)
            assert perm[g.identity] != 0
            back = {y: x for x, y in enumerate(perm)}
            lattice = all_subgroups(from_table(relabel(g.mult, perm)))
            assert len(lattice) == count
            assert {frozenset(map(back.__getitem__, h)) for h in lattice} == source, seed

    def test_second_call_on_a_group_makes_no_join(self, monkeypatch):
        g = make_abelian((2, 2, 4))
        first = all_subgroups(g)
        first.clear()

        def refuse(*args):
            raise AssertionError("the lattice was built again")

        monkeypatch.setattr(groups, "_join", refuse)
        assert all_subgroups(g) == _reference_lattice(g)

    def test_group_is_freed_with_its_tables(self):
        # the lattice lives on its group and the character table is cached
        # by factor orders, so no cache keeps the group alive
        g = make_abelian((2, 6))
        assert all_subgroups(g) and characters(g)
        ref = weakref.ref(g)
        del g
        assert ref() is None

    @pytest.mark.parametrize(
        "spec, g",
        [(s, g) for s, g in LATTICE_GROUPS if not g.is_abelian],
        ids=[s for s, g in LATTICE_GROUPS if not g.is_abelian],
    )
    def test_is_normal_matches_all_conjugates(self, spec, g):
        for h in all_subgroups(g):
            hs = frozenset(h)
            definitional = all(
                g.conjugate(x, y) in hs for x in range(g.order) for y in h
            )
            assert is_normal(g, h) == definitional, h

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_closure_matches_reference(self, data):
        spec, g = data.draw(st.sampled_from(LATTICE_GROUPS))
        seed = data.draw(st.lists(st.integers(0, g.order - 1), max_size=4))
        assert closure(g, seed) == _reference_closure(g, seed)

    def test_generating_set_is_greedy(self):
        for spec, g in LATTICE_GROUPS:
            span, want = frozenset({g.identity}), []
            for x in range(g.order):
                if x not in span:
                    want.append(x)
                    span = _reference_closure(g, span | {x})
            assert generating_set(g) == tuple(want) == g.generators, spec


def _reference_from_table(table):
    """Per-cell validation with the O(n^3) associativity scan."""
    n = len(table)
    if n == 0:
        raise GroupTableError("not-square")
    for i, row in enumerate(table):
        if len(row) != n:
            raise GroupTableError("not-square", (i,))
        for j, v in enumerate(row):
            if not isinstance(v, int) or not 0 <= v < n:
                raise GroupTableError("bad-index", (i, j))
    mult = tuple(tuple(row) for row in table)
    identity = None
    for e in range(n):
        if all(mult[e][x] == x and mult[x][e] == x for x in range(n)):
            identity = e
            break
    if identity is None:
        raise GroupTableError("no-identity")
    full = set(range(n))
    for i in range(n):
        if set(mult[i]) != full:
            raise GroupTableError("not-latin-square", ("row", i))
    for j in range(n):
        if {mult[i][j] for i in range(n)} != full:
            raise GroupTableError("not-latin-square", ("column", j))
    inv = [None] * n
    for i in range(n):
        for j in range(n):
            if mult[i][j] == identity and mult[j][i] == identity:
                inv[i] = j
                break
        if inv[i] is None:
            raise GroupTableError("missing-inverse", (i,))
    for x in range(n):
        for y in range(n):
            for z in range(n):
                if mult[mult[x][y]][z] != mult[x][mult[y][z]]:
                    raise GroupTableError("non-associative", (x, y, z))
    return mult, tuple(inv), identity


def _outcome(validate, table):
    try:
        result = validate(table)
    except GroupTableError as err:
        return ("rejected", err.reason, err.witness)
    if isinstance(result, tuple):
        return ("accepted",) + result
    return ("accepted", result.mult, result.inv, result.identity)


def _assert_from_table_outcome(table, want):
    """`from_table` gives ``want`` on ``table``, and on its rows as `bytes`
    when every entry fits in a byte."""
    assert _outcome(from_table, table) == want
    if all(isinstance(v, int) and 0 <= v < 256 for row in table for v in row):
        assert _outcome(from_table, [bytes(row) for row in table]) == want


def _assert_same_outcome(table):
    want = _outcome(_reference_from_table, table)
    _assert_from_table_outcome(table, want)
    return want


def _assert_same_file_outcome(table, path):
    """`load_table_file` on ``table`` written to ``path`` agrees with the
    reference on the entries as int() reads them back; a file that reads
    as no n x n table of ints, or whose identity is not index 0, is a
    GroupSpecError."""
    n = len(table)
    with open(path, "w") as fh:
        fh.write(f"{n}\n")
        fh.writelines(" ".join(map(str, row)) + "\n" for row in table)
    want = None
    try:
        cells = [int(str(v)) for row in table for v in row]
    except ValueError:
        cells = None
    if cells is not None and len(cells) == n * n:
        want = _outcome(_reference_from_table, [cells[i * n : (i + 1) * n] for i in range(n)])
        if want[0] == "accepted" and want[3] != 0:
            want = None
    try:
        got = _outcome(load_table_file, path)
    except GroupSpecError:
        got = None
    assert got == want
    return want


def _table_product(a, b):
    m = len(b)
    size = len(a) * m
    return [
        [a[i // m][j // m] * m + b[i % m][j % m] for j in range(size)]
        for i in range(size)
    ]


def _intercalates(mult):
    """2x2 subsquares [[a, b], [b, a]] at rows and columns other than 0."""
    n = len(mult)
    pos = [{v: j for j, v in enumerate(row)} for row in mult]
    for r1 in range(1, n):
        for r2 in range(r1 + 1, n):
            for c1 in range(1, n):
                c2 = pos[r2][mult[r1][c1]]
                if c2 > c1 and mult[r1][c2] == mult[r2][c1]:
                    yield r1, r2, c1, c2


# an order-5 loop with identity 0 and two-sided inverses: (1*1)*2 != 1*(1*2)
LOOP5 = [
    [0, 1, 2, 3, 4],
    [1, 0, 3, 4, 2],
    [2, 4, 0, 1, 3],
    [3, 2, 4, 0, 1],
    [4, 3, 1, 2, 0],
]


class TestTableOracle:
    """`from_table` (Light's test) against the per-cell O(n^3) reference."""

    @pytest.mark.parametrize("spec, g", ORACLE_GROUPS, ids=[s for s, _ in ORACLE_GROUPS])
    def test_corpus_tables_and_relabelings(self, spec, g, tmp_path):
        path = tmp_path / "table.txt"
        tables = [[list(row) for row in g.mult]]
        rng = random.Random(spec)
        for _ in range(2):
            perm = [0] + rng.sample(range(1, g.order), g.order - 1)
            tables.append(relabel(g.mult, perm))
        for table in tables:
            assert _assert_same_outcome(table)[0] == "accepted"
            assert _assert_same_file_outcome(table, path)[0] == "accepted"

    def test_loops_and_their_products(self):
        tables = [LOOP5]
        for h in (make_cyclic(2), make_cyclic(3), symmetric_group(3), make_abelian((2, 2))):
            tables += [_table_product(LOOP5, h.mult), _table_product(h.mult, LOOP5)]
        rng = random.Random(5)
        for table in list(tables):
            n = len(table)
            tables.append(relabel(table, [0] + rng.sample(range(1, n), n - 1)))
        outcomes = [_assert_same_outcome(table) for table in tables]
        assert all(o[:2] == ("rejected", "non-associative") for o in outcomes)
        assert outcomes[0][2] == (1, 1, 2)

    @pytest.mark.parametrize("m", [51, 52], ids=["order255", "order260"])
    def test_loop_products_either_side_of_the_byte_cut(self, m):
        # tables of order <= 256 take Light's test on bytes rows, larger
        # ones on tuples; both reject with the scan's first witness
        table = _table_product(LOOP5, make_cyclic(m).mult)
        _assert_from_table_outcome(
            table, ("rejected", "non-associative", groups._first_non_associative(table)))

    @pytest.mark.parametrize(
        "g, perm",
        [
            (make_abelian((2,) * 8), [0] + random.Random(256).sample(range(1, 256), 255)),
            (make_dihedral(129), list(range(258))),
        ],
        ids=["Z2^8-relabeled", "D129"],
    )
    def test_groups_either_side_of_the_byte_cut(self, g, perm):
        table = relabel(g.mult, perm)
        inv = [0] * g.order
        for x, y in enumerate(g.inv):
            inv[perm[x]] = perm[y]
        _assert_from_table_outcome(
            table, ("accepted", tuple(map(tuple, table)), tuple(inv), perm[g.identity]))

    def test_intercalate_swaps(self):
        rng = random.Random(7)
        reasons = collections.Counter()
        for spec, g in corpus_groups(16) + [Z2_Z4_Z4]:
            squares = list(_intercalates(g.mult))
            for r1, r2, c1, c2 in rng.sample(squares, min(3, len(squares))):
                table = [list(row) for row in g.mult]
                a, b = table[r1][c1], table[r1][c2]
                table[r1][c1] = table[r2][c2] = b
                table[r1][c2] = table[r2][c1] = a
                reasons[_assert_same_outcome(table)[1]] += 1
        assert reasons["non-associative"] > 40 and reasons["missing-inverse"] > 0

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_mutated_tables(self, data, tmp_path_factory):
        spec, g = data.draw(st.sampled_from(corpus_groups(12) + [Z2_Z4_Z4]))
        n = g.order
        perm = data.draw(st.permutations(range(n)))
        table = relabel(g.mult, perm)
        cell = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
        value = st.one_of(st.integers(-1, n), st.sampled_from(["0", 1.0, True, None]))
        for i, j in data.draw(st.lists(cell, max_size=3)):
            table[i][j] = data.draw(value)
        if data.draw(st.booleans()):
            table[data.draw(st.integers(0, n - 1))].pop()
        _assert_same_outcome(table)
        _assert_same_file_outcome(table, tmp_path_factory.getbasetemp() / "mutated.txt")

    def test_rejection_reasons(self):
        assert _assert_same_outcome([]) == ("rejected", "not-square", None)
        assert _assert_same_outcome([[0, 1], [1, 7]]) == ("rejected", "bad-index", (1, 1))
        assert _assert_same_outcome([[0, 1], [1]]) == ("rejected", "not-square", (1,))
        assert _assert_same_outcome([[0, "1"], [1]])[1] == "bad-index"
        sub = [[(i - j) % 3 for j in range(3)] for i in range(3)]
        assert _assert_same_outcome(sub)[1] == "no-identity"
        assert _assert_same_outcome([[0, 1], [1, 1]])[1:] == (
            "not-latin-square", ("row", 1))
        # a Latin square with identity 0 where 1*2 = 0 but 2*1 = 3
        no_inverse = [[0, 1, 2, 3, 4], [1, 2, 0, 4, 3], [2, 3, 4, 0, 1],
                      [3, 4, 1, 2, 0], [4, 0, 3, 1, 2]]
        assert _assert_same_outcome(no_inverse) == ("rejected", "missing-inverse", (1,))

    def test_latin_failures_found_after_a_later_check_fails(self):
        # identity 0, but row 1 holds no 0, so no inverse of 1 can be read off it
        assert _assert_same_outcome([[0, 1, 2], [1, 1, 1], [2, 0, 1]]) == (
            "rejected", "not-latin-square", ("row", 1))
        # Latin rows; column 1 repeats 0 and 2*1 = 0 but 1*2 = 2
        assert _assert_same_outcome([[0, 1, 2], [1, 0, 2], [2, 0, 1]]) == (
            "rejected", "not-latin-square", ("column", 1))
        # Latin rows; column 1 repeats 1, every inverse is two-sided, and
        # (1*2)*1 = 1 but 1*(2*1) = 0
        non_associative = [[0, 1, 2, 3], [1, 0, 2, 3], [2, 1, 0, 3], [3, 1, 2, 0]]
        assert _assert_same_outcome(non_associative) == (
            "rejected", "not-latin-square", ("column", 1))

    @pytest.mark.parametrize(
        "g",
        [
            direct_product(quaternion_group(), make_dihedral(4)),
            direct_product(make_dihedral(16), make_abelian((2, 2))),
        ],
        ids=["Q8xD4", "D16xV4"],
    )
    def test_one_cell_mutations_of_large_tables(self, g):
        n = g.order
        rng = random.Random(n)
        perm = rng.sample(range(n), n)
        e = perm[g.identity]
        cells = [(rng.randrange(n), rng.randrange(n)) for _ in range(12)]
        cells += [(e, rng.randrange(n)), (rng.randrange(n), e)]
        reasons = collections.Counter()
        for i, j in cells:
            table = relabel(g.mult, perm)
            table[i][j] = rng.choice([v for v in range(n) if v != table[i][j]])
            reasons[_assert_same_outcome(table)[1]] += 1
        assert reasons["not-latin-square"] >= 10 and reasons["no-identity"] >= 2


def _reference_abelian(orders):
    """The abelian product built cell by cell from mixed-radix digits."""
    n = 1
    for m in orders:
        n *= m
    strides, acc = [], n
    for m in orders:
        acc //= m
        strides.append(acc)

    def decode(i):
        return tuple((i // s) % m for s, m in zip(strides, orders))

    def encode(t):
        return sum((x % m) * s for x, s, m in zip(t, strides, orders))

    mult = tuple(
        tuple(encode(tuple(x + y for x, y in zip(decode(i), decode(j)))) for j in range(n))
        for i in range(n)
    )
    inv = tuple(encode(tuple(-x for x in decode(i))) for i in range(n))
    return mult, inv


# groups of the orders around the cuts of the table loader: one block,
# several rows per block, rows that fit in a byte, and larger ones
_LAYOUT_GROUPS = {
    1: lambda: make_cyclic(1),
    2: lambda: make_cyclic(2),
    8: quaternion_group,
    128: lambda: direct_product(make_dihedral(16), make_abelian((2, 2))),
    255: lambda: make_cyclic(255),
    256: lambda: make_abelian((2,) * 8),
    257: lambda: make_cyclic(257),
}

_LAYOUTS = ("rows", "header-line", "one-per-line", "crlf", "tabs", "blank-lines")


def _layout_text(table, layout):
    """A table file for ``table`` with its entries laid out as named:
    one row per line, every entry on the header's line, one entry per
    line, CRLF line ends, tabs and runs of spaces between entries, or
    blank lines before the header and between rows."""
    n = len(table)
    rows = [" ".join(map(str, row)) for row in table]
    if layout == "rows":
        return "\n".join([str(n)] + rows) + "\n"
    if layout == "header-line":
        return " ".join([str(n)] + rows) + "\n"
    if layout == "one-per-line":
        return "\n".join([str(n)] + [str(v) for row in table for v in row]) + "\n"
    if layout == "crlf":
        return "\r\n".join([str(n)] + rows) + "\r\n"
    if layout == "tabs":
        rows = ["\t " + " \t  ".join(map(str, row)) + "  " for row in table]
        return "\n".join([f" {n}\t"] + rows) + "\n"
    assert layout == "blank-lines"
    return "\n \n\t\n" + "\n\n".join([str(n)] + rows) + "\n\n"


def _block_edges(n, per_line):
    """Flat positions of the first and last entries of the loader's
    first three blocks and its last, in a file that holds ``per_line``
    entries on each line after the header's: a block is a run of whole
    lines, about BLOCK_ENTRIES entries in all, and the header's line is
    the first line of the first block."""
    lines = n * n // per_line + 1
    step = max(1, specparse.BLOCK_ENTRIES * lines // (n * n))
    starts = list(range(0, lines, step))
    firsts = [max(0, s - 1) * per_line for s in starts[:4] + starts[-1:]]
    edges = set(firsts) | {f - 1 for f in firsts if f} | {n * n - 1}
    return sorted(edges)


# (m, n, s, r) of <a, b | a^m, b^n = a^s, bab^-1 = a^r>: Dic3, Q16, SD16,
# M16, Z4:Z4, Dic5, Z5:Z4, Z7:Z3 and Q8, then small cyclic and dihedral
# groups, Z1 among them (m = 1, where every power of r is 0 mod m)
METACYCLIC = [
    (6, 2, 3, 5), (8, 2, 4, 7), (8, 2, 0, 3), (8, 2, 0, 5), (4, 4, 0, 3),
    (10, 2, 5, 9), (5, 4, 0, 2), (7, 3, 0, 2), (4, 2, 2, 3),
    *[(k, 1, 0, 1) for k in range(1, 13)],
    *[(k, 2, 0, k - 1) for k in range(3, 13)],
]


def _word_table(m, n, s, r):
    """The table of <a, b | a^m, b^n = a^s, bab^-1 = a^r> on a^i b^j at
    i + m*j, by multiplying words: the letters of a^k b^l are appended to
    a^i b^j one at a time and the result rewritten into a normal form
    a^x b^y with x < m and y < n.  An a moves left past the b's one at a
    time (ba = a^r b), and b^n folds into a^s."""

    def times(x, y, letter):
        if letter == "b":
            return (x, y + 1) if y + 1 < n else ((x + s) % m, 0)
        k = 1
        for _ in range(y):
            k = k * r % m
        return (x + k) % m, y

    table = []
    for i, j in ((i, j) for j in range(n) for i in range(m)):
        row = []
        for k, l in ((k, l) for l in range(n) for k in range(m)):
            x, y = i, j
            for letter in "a" * k + "b" * l:
                x, y = times(x, y, letter)
            row.append(x + m * y)
        table.append(tuple(row))
    return tuple(table)


def _dihedral_rows(n):
    """D_2n with rotations a^i at 0..n-1 and reflections a^i b at n..2n-1."""
    rows = []
    for i in range(n):
        # a^i . a^j = a^(i+j) ; a^i . a^j b = a^(i+j) b
        r = [(i + j) % n for j in range(n)]
        rows.append(tuple(r + [k + n for k in r]))
    for i in range(n):
        # a^i b . a^j = a^(i-j) b ; a^i b . a^j b = a^(i-j)
        r = [(i - j) % n for j in range(n)]
        rows.append(tuple([k + n for k in r] + r))
    return tuple(rows)


def _hamilton_table():
    """Q8 on 1, -1, i, -i, j, -j, k, -k by the Hamilton product of signed
    units."""
    units = ["1", "i", "j", "k"]

    def mul(a, b):
        (sa, ua), (sb, ub) = a, b
        if ua == "1":
            return sa * sb, ub
        if ub == "1":
            return sa * sb, ua
        if ua == ub:
            return -sa * sb, "1"
        ia, ib = "ijk".index(ua), "ijk".index(ub)
        sign = 1 if (ib - ia) % 3 == 1 else -1
        return sa * sb * sign, "ijk"[3 - ia - ib]

    elems = [(s, u) for u in units for s in (1, -1)]
    pos = {e: i for i, e in enumerate(elems)}
    return tuple(tuple(pos[mul(a, b)] for b in elems) for a in elems)


class TestTableConstruction:
    @pytest.mark.parametrize(
        "orders",
        [t for n in range(4, 65) for t in abelian_types(n)]
        + [(2,), (5,), (3, 2), (2, 6, 4), (4, 2, 2, 3)],
        ids=str,
    )
    def test_make_abelian_matches_reference(self, orders):
        g = make_abelian(orders)
        assert (g.mult, g.inv) == _reference_abelian(orders)
        assert (g.identity, g.kind, g.decomposition) == (0, "abelian-product", orders)

    @pytest.mark.parametrize(
        "m, n, s, r", METACYCLIC, ids=[",".join(map(str, p)) for p in METACYCLIC]
    )
    def test_metacyclic_table_matches_word_products(self, m, n, s, r):
        # a group, by `from_table` and by the brute-force reference alike
        table = metacyclic_table(m, n, s, r)
        assert table == _word_table(m, n, s, r)
        outcome = _assert_same_outcome(table)
        assert outcome[0] == "accepted" and outcome[3] == 0

    @pytest.mark.parametrize("n", [*range(1, 65), 2048])
    def test_make_cyclic_matches_formula(self, n):
        g = make_cyclic(n)
        assert g.mult == tuple(tuple([(i + j) % n for j in range(n)]) for i in range(n))
        assert g.inv == tuple((-i) % n for i in range(n))
        assert (g.order, g.identity, g.kind, g.decomposition) == (n, 0, "cyclic", (n,))

    @pytest.mark.parametrize("n", [*range(3, 65), 1024])
    def test_make_dihedral_matches_formula(self, n):
        g = make_dihedral(n)
        assert g.mult == _dihedral_rows(n)
        assert g.inv == tuple((-i) % n for i in range(n)) + tuple(range(n, 2 * n))
        # the closed-form inverses against the row scan `from_table` uses
        assert g.inv == _inverses_from_table(g.mult, 0)
        assert (g.order, g.identity, g.kind, g.decomposition) == (2 * n, 0, "dihedral", None)

    def test_quaternion_group_matches_hamilton_product(self):
        g = quaternion_group()
        assert g.mult == _hamilton_table()
        assert g.inv == (0, 1, 3, 2, 5, 4, 7, 6)
        assert (g.order, g.identity, g.kind, g.decomposition) == (8, 0, "table", None)

    def test_load_table_file_round_trips(self, tmp_path):
        for k, (spec, g) in enumerate(ORACLE_GROUPS):
            path = tmp_path / f"g{k}.txt"
            rows = "\n".join(" ".join(map(str, row)) for row in g.mult)
            path.write_text(f"{g.order}\n{rows}\n")
            h = load_table_file(str(path))
            assert (h.mult, h.inv, h.identity) == (g.mult, g.inv, 0), spec

    def test_load_table_file_reads_every_integer_spelling(self, tmp_path):
        g = make_dihedral(6)
        spelled = {0: "-0", 1: "+1", 3: "٣", 7: "007", 10: "1_0"}
        for name, spell in (("plain", str), ("spelled", lambda v: spelled.get(v, str(v)))):
            rows = "\n".join(" ".join(map(spell, row)) for row in g.mult)
            (tmp_path / name).write_text(f"{g.order}\n{rows}\n")
        plain = load_table_file(str(tmp_path / "plain"))
        h = load_table_file(str(tmp_path / "spelled"))
        assert (h.mult, h.inv) == (plain.mult, plain.inv) == (g.mult, g.inv)

    @pytest.mark.parametrize("token", ["4", "-1", "+4", "04", "1_2"])
    def test_load_table_file_out_of_range_token(self, tmp_path, token):
        path = tmp_path / "z4.txt"
        path.write_text(f"4\n0 1 2 3\n1 2 3 0\n2 {token} 0 1\n3 0 1 2\n")
        with pytest.raises(GroupTableError) as err:
            load_table_file(str(path))
        assert (err.value.reason, err.value.witness) == ("bad-index", (2, 1))

    def test_load_table_file_names_first_bad_token(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("3\n0 1 2\n1 y 0\n2 0 z\n")
        with pytest.raises(GroupSpecError) as err:
            load_table_file(str(path))
        assert str(err.value) == f"table file {str(path)!r}: expected an integer, got 'y'"

    def test_load_table_file_reports_errors_in_file_order(self, tmp_path):
        # a word is reported where the read reaches it, before the count
        path = tmp_path / "short.txt"
        path.write_text("3\n0 1 2\n1 y 0\n2 0\n")
        with pytest.raises(GroupSpecError) as err:
            load_table_file(str(path))
        assert str(err.value) == f"table file {str(path)!r}: expected an integer, got 'y'"
        # the range check comes after the count
        path.write_text("3\n0 1 2\n1 9 0\n2 0\n")
        with pytest.raises(GroupSpecError) as err:
            load_table_file(str(path))
        assert str(err.value) == f"table file {str(path)!r}: expected 9 entries, got 8"

    def test_load_table_file_memory_does_not_depend_on_spelling(self, tmp_path):
        # an entry that int() reads but the plain lookup misses is read in
        # its own block, so the rest of the file costs no more than plain
        table = make_dihedral(256).mult
        peaks = []
        for first in ("0", "000"):
            path = tmp_path / f"d256-{first}.txt"
            rows = [" ".join(map(str, row)) for row in table]
            path.write_text("\n".join(["512", first + rows[0][1:]] + rows[1:]) + "\n")
            tracemalloc.start()
            try:
                g = load_table_file(str(path))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert g.mult == table
            del g
        plain, spelled = peaks
        assert spelled <= 1.25 * plain, (plain, spelled)

    @pytest.mark.parametrize("n", [1, 2, 8, 128, 255, 256, 257])
    def test_load_table_file_layouts(self, tmp_path, n):
        g = _LAYOUT_GROUPS[n]()
        table = relabel(g.mult, [0] + random.Random(n).sample(range(1, n), n - 1))
        want = None
        for layout in _LAYOUTS:
            path = tmp_path / f"{layout}.txt"
            path.write_bytes(_layout_text(table, layout).encode())
            h = load_table_file(str(path))
            want = want or (h.mult, h.inv)
            assert (h.mult, h.inv) == want, layout
        assert want[0] == tuple(map(tuple, table))

    @pytest.mark.parametrize("n", [8, 128, 256, 257])
    @pytest.mark.parametrize("layout", ["rows", "one-per-line"])
    def test_load_table_file_bad_token_at_block_edges(self, tmp_path, n, layout):
        g = _LAYOUT_GROUPS[n]()
        path = tmp_path / "bad.txt"
        per_line = n if layout == "rows" else 1
        path.write_bytes(_layout_text(g.mult, layout).encode())
        plain = load_table_file(str(path))
        for pos in _block_edges(n, per_line):
            # a word, an out-of-range index, and the entry's own value
            # spelled with a leading zero, which int() reads
            for token in ("y", str(n), f"0{g.mult[pos // n][pos % n]}"):
                table = [list(row) for row in g.mult]
                table[pos // n][pos % n] = token
                path.write_bytes(_layout_text(table, layout).encode())
                if token == "y":
                    with pytest.raises(GroupSpecError) as err:
                        load_table_file(str(path))
                    assert str(err.value) == (
                        f"table file {str(path)!r}: expected an integer, got 'y'")
                elif token.startswith("0"):
                    h = load_table_file(str(path))
                    assert (h.mult, h.inv) == (plain.mult, plain.inv), pos
                else:
                    with pytest.raises(GroupTableError) as err:
                        load_table_file(str(path))
                    assert (err.value.reason, err.value.witness) == (
                        "bad-index", (pos // n, pos % n))

    def test_corpus_spec_names_unique(self):
        specs = [spec for spec, _ in corpus_groups(64)]
        assert len(specs) == len(set(specs))
        assert "abelian:2,4,4" in specs


def _extend(g, images):
    """The map with sigma(e) = e and sigma(xs) = sigma(x) t for each
    generator s with image t, walked along right multiplication from e;
    None at the first edge x -> xs whose image disagrees with one already
    assigned."""
    image = {g.identity: g.identity}
    stack = [g.identity]
    while stack:
        x = stack.pop()
        for s, t in zip(g.generators, images):
            y, fy = g.mult[x][s], g.mult[image[x]][t]
            if y not in image:
                image[y] = fy
                stack.append(y)
            elif image[y] != fy:
                return None
    return [image[x] for x in range(g.order)]


def _product_automorphisms(g):
    """`all_automorphisms` as it was before it pruned images inside the span
    of the earlier ones, kept as its oracle: every choice of generator
    images of matching element orders, from itertools.product, each
    extended edge by edge."""
    orders = g.element_orders
    candidates = [
        [y for y in range(g.order) if orders[y] == orders[x]] for x in g.generators
    ]
    out = []
    for images in itertools.product(*candidates):
        image = _extend(g, images)
        if image is not None and len(set(image)) == g.order:
            out.append(tuple(image))
    out.sort()
    return out


AUTOMORPHISM_GROUPS = corpus_groups(24)
RELABELED_GROUPS = [(spec, g) for spec, g in corpus_groups(12) if g.order > 1] + [
    ("table:S4", symmetric_group(4))
]


class TestAutomorphisms:
    def test_identity_is_power(self):
        g = symmetric_group(3)
        ident = tuple(range(g.order))
        assert is_automorphism(g, ident)
        assert is_power_automorphism(g, ident)

    def test_inversion_is_power(self):
        g = make_cyclic(7)
        invmap = g.inv
        assert is_automorphism(g, invmap)
        assert is_power_automorphism(g, invmap)

    def test_s3_conjugation_not_power(self):
        g = symmetric_group(3)
        sigma = inner_automorphism(g, S3_SWAP01)
        assert is_automorphism(g, sigma)
        # (12)(13)(12) = (23), which is outside <(13)>
        assert sigma[S3_SWAP02] == S3_SWAP12
        assert not is_power_automorphism(g, sigma)

    def test_inner_automorphism_trivial_cases(self):
        g = symmetric_group(3)
        assert inner_automorphism(g, g.identity) == tuple(range(6))
        a = make_cyclic(8)
        for x in range(8):
            assert inner_automorphism(a, x) == tuple(range(8))

    def test_automorphism_counts(self):
        assert len(all_automorphisms(make_cyclic(2))) == 1
        assert len(all_automorphisms(make_cyclic(5))) == 4
        s3 = symmetric_group(3)
        auts = all_automorphisms(s3)
        assert len(auts) == 6
        inner = {inner_automorphism(s3, x) for x in range(6)}
        assert set(auts) == inner

    def test_all_automorphisms_pass_oracle(self):
        for spec, g in corpus_groups(12) + [Z2_Z4_Z4]:
            for sigma in all_automorphisms(g):
                assert is_automorphism(g, sigma), (spec, sigma)

    @pytest.mark.parametrize(
        "spec, g", AUTOMORPHISM_GROUPS, ids=[s for s, _ in AUTOMORPHISM_GROUPS]
    )
    def test_pruned_search_matches_product_search(self, spec, g):
        assert all_automorphisms(g) == _product_automorphisms(g)

    def test_search_raises_past_the_node_budget(self, monkeypatch):
        # Z2^3 takes 1 + 7 + 7*6 + 7*6*4 = 218 nodes for its 168 automorphisms
        g = make_abelian((2, 2, 2))
        assert len(all_automorphisms(g)) == 168
        monkeypatch.setattr(groups, "AUTOMORPHISM_NODE_BUDGET", 217)
        with pytest.raises(BoundExceededError, match="node budget"):
            all_automorphisms(g)
        monkeypatch.setattr(groups, "AUTOMORPHISM_NODE_BUDGET", 218)
        assert len(all_automorphisms(g)) == 168

    @pytest.mark.parametrize(
        "spec, g", RELABELED_GROUPS, ids=[s for s, _ in RELABELED_GROUPS]
    )
    def test_relabeled_listing_starts_at_the_identity(self, spec, g):
        # the walk and the fill start at g.identity, here off index 0; a
        # relabeling also changes the greedy generators, and on some seeds
        # (dihedral:6 at 6, abelian:2,2,3 at 2) they satisfy relations that
        # the injective fill of some choice of images breaks, which only the
        # composition check rejects
        auts = _product_automorphisms(g)
        for seed in range(8):
            perm = seeded_relabeling(g, seed)
            h = from_table(relabel(g.mult, perm))
            assert h.identity == perm[g.identity] != 0
            back = sorted(range(g.order), key=perm.__getitem__)
            expected = sorted(tuple(perm[sigma[x]] for x in back) for sigma in auts)
            assert all_automorphisms(h) == expected, seed

    def test_z2_to_the_fourth_extends_only_independent_images(self, monkeypatch):
        # images of e1..e4 outside the span of the earlier ones are exactly
        # the 20 160 bases of Z2^4, against 15^4 choices of involutions;
        # the search calls `closure` once per inner node, so the full
        # choices are the nodes less the closure calls
        g = make_abelian((2, 2, 2, 2))
        assert len(g.generators) == 4
        nodes, closures = [], []

        def counter(search, budget):
            count = node_counter(search, budget)

            def counting():
                nodes.append(search)
                count()

            return counting

        def counting_closure(g, seed):
            closures.append(seed)
            return closure(g, seed)

        monkeypatch.setattr(groups, "node_counter", counter)
        monkeypatch.setattr(groups, "closure", counting_closure)
        assert len(all_automorphisms(g)) == len(nodes) - len(closures) == 20160

    def test_counterexample_group_isomorphic_to_product(self):
        g = make_abelian((2, 4, 4))
        h = direct_product(make_cyclic(2), direct_product(make_cyclic(4), make_cyclic(4)))
        assert g.mult == h.mult
