"""Randomized property tests tying the independent checks together."""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from cayleycodes import (
    build_cayley,
    group_ring_check_perfect,
    group_ring_check_total,
    is_perfect_code,
    is_total_perfect_code,
    make_cyclic,
    make_dihedral,
)
from cayleycodes.corpus import quaternion_group, symmetric_group
from cayleycodes.spectral import CyclotomicSum
from test_cayley import definition


def _group(kind: str, n: int):
    return make_dihedral(max(n, 3)) if kind == "dihedral" else make_cyclic(n)


@settings(max_examples=150, deadline=None)
@given(
    kind=st.sampled_from(["cyclic", "dihedral"]),
    n=st.integers(min_value=1, max_value=10),
    seed_s=st.sets(st.integers(min_value=0, max_value=19)),
    code=st.sets(st.integers(min_value=0, max_value=19)),
)
def test_group_ring_matches_definition(kind, n, seed_s, code):
    g = _group(kind, n)
    s = set()
    for x in seed_s:
        x %= g.order
        if x != g.identity:
            s.add(x)
            s.add(g.inv[x])
    c = {x % g.order for x in code}
    graph = build_cayley(g, s)
    assert group_ring_check_perfect(g, s, c) == is_perfect_code(graph, c)
    assert group_ring_check_total(g, s, c) == is_total_perfect_code(graph, c)
    assert is_perfect_code(graph, c) == definition(g, s, c)
    assert is_total_perfect_code(graph, c) == definition(g, s, c, True)


@settings(max_examples=150, deadline=None)
@given(
    m=st.sampled_from([1, 2, 3, 4, 6, 8, 9, 12]),
    data=st.data(),
)
def test_cyclotomic_zero_test_matches_float(m, data):
    coeffs = tuple(
        data.draw(st.integers(min_value=-4, max_value=4)) for _ in range(m)
    )
    s = CyclotomicSum(m, coeffs)
    approx = abs(s.as_complex())
    if s.is_zero():
        assert approx < 1e-9
    else:
        assert approx > 1e-9


@settings(max_examples=100, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=20),
    shift=st.integers(min_value=0, max_value=19),
)
def test_perfect_codes_translate(n, shift):
    g = make_cyclic(n)
    s = {x for x in range(1, n) if x in (1, n - 1)}
    graph = build_cayley(g, s)
    from cayleycodes import enumerate_perfect_codes

    for c in enumerate_perfect_codes(graph):
        moved = [g.mult[x][shift % n] for x in c]
        assert is_perfect_code(graph, moved)


def _reference_group_ring_product(g, u, v):
    """The group-ring product by its definition: the coefficient of x is
    the sum of u(h) v(k) over the pairs with hk = x."""
    out = [0] * g.order
    for h, uh in enumerate(u):
        if uh == 0:
            continue
        row = g.mult[h]
        for k, vk in enumerate(v):
            if vk:
                out[row[k]] += uh * vk
    return out


PRODUCT_GROUPS = [
    make_cyclic(1), make_cyclic(7), make_cyclic(12), make_dihedral(5),
    symmetric_group(3), quaternion_group(),
]


@settings(max_examples=200, deadline=None)
@given(g=st.sampled_from(PRODUCT_GROUPS), data=st.data())
def test_group_ring_check_matches_reference_product(g, data):
    elements = st.integers(min_value=0, max_value=g.order - 1)
    a = data.draw(st.sets(elements))
    # a B of the size that could tile with A, when there is one, half the time
    size = g.order // len(a) if a and g.order % len(a) == 0 else None
    if size and data.draw(st.booleans()):
        b = data.draw(st.sets(elements, min_size=size, max_size=size))
    else:
        b = data.draw(st.sets(elements))
    indicator_a = [int(x in a) for x in range(g.order)]
    indicator_b = [int(x in b) for x in range(g.order)]
    product = _reference_group_ring_product(g, indicator_a, indicator_b)
    assert group_ring_check_total(g, a, b) == (product == [1] * g.order)
