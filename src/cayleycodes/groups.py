"""Finite groups as dense multiplication tables.

Elements are indices 0..n-1 into an n x n table; there are no symbolic
words.  Constructors exist for cyclic, dihedral and abelian-product groups,
direct products, and arbitrary validated tables.  The cyclic, dihedral and
Q8 (`corpus.quaternion_group`) tables come from one presentation,
`metacyclic_table`, which cuts every block of the table as a slice of
one doubled tuple by the same rule.  Everything downstream (Cayley
graphs, criteria, characters) consumes these types.
"""

from __future__ import annotations

import math
from functools import cached_property, reduce
from itertools import compress
from operator import gt, itemgetter, or_

from .errors import CayleyCodesError, GroupTableError, node_counter

# search nodes one automorphism listing may visit: over 4 times the most
# (22 906, Z2^4) of any group in corpus_groups(24) or S4
AUTOMORPHISM_NODE_BUDGET = 100_000


class FiniteGroup:
    """A finite group given by its complete multiplication table.

    ``mult[i][j]`` is the index of the product of element i by element j.
    ``kind`` tags how the group was built: one of "cyclic", "dihedral",
    "abelian-product", "product", "table".  ``decomposition`` records the
    canonical cyclic factor orders of a cyclic or abelian-product group
    (used by the character machinery and the generator-expression grammar)
    and is None for every other kind.  Groups compare and hash by identity:
    two groups built separately are distinct, whatever their tables.
    """

    order: int
    mult: tuple[tuple[int, ...], ...]
    identity: int
    inv: tuple[int, ...]
    kind: str
    decomposition: tuple[int, ...] | None

    def __init__(self, order, mult, identity, inv, kind="table", decomposition=None):
        self.order = order
        self.mult = mult
        self.identity = identity
        self.inv = inv
        self.kind = kind
        self.decomposition = decomposition

    def power(self, i: int, k: int) -> int:
        """i^k for any integer k.  Since i^|G| = e, k is taken mod |G|
        first, which also turns a negative k into a positive one."""
        acc = self.identity
        for _ in range(k % self.order):
            acc = self.mult[acc][i]
        return acc

    def conjugate(self, g: int, x: int) -> int:
        """g x g^-1."""
        return self.mult[self.mult[g][x]][self.inv[g]]

    @cached_property
    def is_abelian(self) -> bool:
        if self.kind in ("cyclic", "abelian-product"):
            return True  # abelian by construction; skip the O(n^2) scan
        n = self.order
        return all(
            self.mult[i][j] == self.mult[j][i]
            for i in range(n)
            for j in range(i + 1, n)
        )

    @cached_property
    def bit_rows(self) -> tuple[list[int], ...]:
        """``bit_rows[s][c]`` is ``1 << mult[s][c]``: the rows of the table
        as one-bit masks, so that a ball T c is the sum of rows s in T at
        column c.  Built once per group and shared by every connection set."""
        return tuple([1 << v for v in row] for row in self.mult)

    @cached_property
    def bits(self) -> tuple[int, ...]:
        """``bits[i]`` is ``1 << i``."""
        return tuple(1 << i for i in range(self.order))

    @cached_property
    def square_roots(self) -> tuple[int, ...]:
        """``square_roots[y]`` is the mask of the x with x^2 = y, so that
        ``square_roots[identity]`` is the mask of e and the involutions.
        O(n)."""
        roots = [0] * self.order
        for x, row in enumerate(self.mult):
            roots[row[x]] |= 1 << x
        return tuple(roots)

    @cached_property
    def cyclic_spans(self) -> tuple[int, ...]:
        """``cyclic_spans[x]`` is the mask of <x>.  Each cyclic subgroup is
        walked once and its mask shared by all of its generators."""
        e, spans = self.identity, [0] * self.order
        for x, row in enumerate(self.mult):
            if spans[x]:
                continue
            powers, acc = [e], x
            while acc != e:
                powers.append(acc)
                acc = row[acc]
            mask = sum(map(self.bits.__getitem__, powers))
            for j, y in enumerate(powers):
                if math.gcd(j, len(powers)) == 1:
                    spans[y] = mask
        return tuple(spans)

    @cached_property
    def element_orders(self) -> tuple[int, ...]:
        return tuple(span.bit_count() for span in self.cyclic_spans)

    @cached_property
    def is_cyclic(self) -> bool:
        """Does some element have order |G|?"""
        return self.order in self.element_orders

    @cached_property
    def generators(self) -> tuple[int, ...]:
        """The greedy generating set of the whole group (`generating_set`)."""
        return generating_set(self)

    @cached_property
    def subgroups(self) -> tuple[tuple[int, ...], ...]:
        """Every subgroup, sorted by (order, elements) (`all_subgroups`)."""
        return _build_subgroups(self)

    @cached_property
    def strides(self) -> tuple[int, ...]:
        """Mixed-radix place values of the ``decomposition`` factors, the
        first factor most significant: element x has i-th digit
        (x // strides[i]) % decomposition[i].  In an abelian-product group
        strides[i] is also the index of the i-th canonical generator."""
        out = []
        acc = self.order
        for m in self.decomposition:
            acc //= m
            out.append(acc)
        return tuple(out)

    def __repr__(self):
        return f"FiniteGroup(order={self.order}, kind={self.kind!r})"


# ---------------------------------------------------------------------------
# constructors


def _inverses_from_table(mult, identity):
    """Two-sided inverses of a table whose rows are permutations.

    Row i holds the identity once, at j = row.index(identity); j is i's
    inverse when mult[j][i] is the identity too, and otherwise i has no
    two-sided inverse ("missing-inverse", witness (i,)).  O(n^2), with one
    C-level `index` scan per row.  A row without the identity raises the
    ValueError of `index`.
    """
    inv = []
    for i, row in enumerate(mult):
        j = row.index(identity)
        if mult[j][i] != identity:
            raise GroupTableError("missing-inverse", (i,))
        inv.append(j)
    return tuple(inv)


def constructed_order(kind: str, param) -> int:
    """|G| of the group ``make_<kind>(param)`` builds, without building it.

    ``kind`` is "cyclic", "dihedral" or "abelian".  A parameter the
    constructor rejects raises its CayleyCodesError here.
    """
    if kind == "cyclic":
        if param < 1:
            raise CayleyCodesError("cyclic order must be >= 1")
        return param
    if kind == "dihedral":
        if param < 3:
            raise CayleyCodesError("dihedral parameter must be >= 3")
        return 2 * param
    if not param:
        raise CayleyCodesError("abelian product needs at least one factor")
    if any(m < 2 for m in param):
        raise CayleyCodesError("abelian factor orders must be >= 2")
    return math.prod(param)


def metacyclic_table(m: int, n: int, s: int, r: int):
    """The table of <a, b | a^m = e, b^n = a^s, bab^-1 = a^r> with a^i b^j
    at index i + m*j: (a^i b^j)(a^k b^l) = a^(i + r^j*k) b^(j+l), times a^s
    when j + l >= n.  A group of order m*n when r^n = 1 and s*(r - 1) = 0
    (mod m), which is not checked.

    Every block is cut by one rule.  Under the columns a^k b^l, row
    a^i b^j holds a^(i + t + c*k) b^q for k = 0..m-1, where c = r^j,
    q = j + l mod n, and t = s when j + l >= n, else 0.  As r^n = 1
    (mod m), r and so c are units mod m.  So with u the m-tuple
    (c*k mod m + q*m) written twice and p = (i + t)*c^-1 mod m,
    u[p + k] = (i + t + c*k mod m) + q*m: that part of the row is the
    slice u[p:p + m].
    """
    s %= m
    rows = []
    for j in range(n):
        c = pow(r, j, m)
        c_inv = pow(c, -1, m)
        starts = [i * c_inv % m for i in range(m)] * 2
        blocks = []
        for l in range(n):
            q, t = (j + l, 0) if j + l < n else (j + l - n, s)
            u = tuple([c * k % m + q * m for k in range(m)]) * 2
            blocks.append([u[p:p + m] for p in starts[t:t + m]])
        rows += blocks[0] if n == 1 else [sum(parts, ()) for parts in zip(*blocks)]
    return tuple(rows)


def make_cyclic(n: int) -> FiniteGroup:
    """Cyclic group of order n, the metacyclic (n, 1, 0, 1), so that
    mult(i, j) = (i + j) mod n."""
    constructed_order("cyclic", n)
    inv = tuple((-i) % n for i in range(n))
    return FiniteGroup(n, metacyclic_table(n, 1, 0, 1), 0, inv, "cyclic", (n,))


def make_dihedral(n: int) -> FiniteGroup:
    """Dihedral group of order 2n, the metacyclic (n, 2, 0, n - 1): rotations
    a^i at 0..n-1, then reflections a^i b at n..2n-1.  The inverse of a^i
    is a^(-i), and every reflection is its own."""
    size = constructed_order("dihedral", n)
    inv = (0, *range(n - 1, 0, -1), *range(n, size))
    return FiniteGroup(size, metacyclic_table(n, 2, 0, n - 1), 0, inv, "dihedral")


def make_abelian(orders) -> FiniteGroup:
    """Direct product of cyclic groups of the given orders (each >= 2).

    Element indices are mixed-radix over the orders, the first factor most
    significant, which is the indexing of the `direct_product` of the
    cyclic factors taken left to right; the table is built that way, row
    by row, in O(n^2).  The decomposition is stored for the character
    machinery.
    """
    orders = tuple(int(m) for m in orders)
    n = constructed_order("abelian", orders)
    product = reduce(direct_product, map(make_cyclic, orders))
    return FiniteGroup(n, product.mult, 0, product.inv, "abelian-product", orders)


def from_table(table) -> FiniteGroup:
    """Validate an arbitrary n x n index matrix as a group table.

    Rejections report the first failing witness under a lexicographic scan,
    with one reason per check, in this order: shape ("not-square",
    "bad-index"), "no-identity", "not-latin-square" (rows, then columns),
    "missing-inverse", "non-associative".

    Associativity is Light's test on the middle nucleus
    N = {a : (xa)y = x(ay) for all x, y}.  N holds the identity and is
    closed under products: for a, b in N,
    (x(ab))y = ((xa)b)y = (xa)(by) = x(a(by)) = x((ab)y).
    The greedy `generating_set` reaches every element as a product of
    generators (its right-multiplication closure from the identity), so
    the table is associative once N holds those generators.  For a
    generator s, row x composed with row s is x(sy) over all y, which is
    compared with the row of xs, (xs)y: one C-level composition of n
    entries per (row, generator), O(n^2*|gens|) in all.  For n <= 256 the
    rows are held as `bytes`, since a byte holds any index 0..255, and
    ``rows[s].translate(maps[x])`` composes the two, where ``maps[x]`` is
    row x padded with zeros to the 256 bytes `translate` reads.  An input
    row of type `bytes` is used as given; a row of any other type is
    encoded once from its validated tuple.  A larger table cannot be held
    in bytes; there ``itemgetter(*mult[s])`` maps row x to x(sy) as an
    n-tuple.  Only a table that fails the test pays the O(n^3)
    lexicographic scan for the (x, y, z) witness.

    The range check on a row of type `bytes` is one
    ``row.translate(None, indices)``: deleting every byte below n leaves
    nothing iff every entry is below n.  On a row of any other type it
    scans the entries' types and values.  Each row is checked and encoded
    by its own type, so one table may mix them: `load_table_file` hands
    over `bytes` rows for a table of order <= 256 until a block of its
    file needs int(), and tuple rows after that.

    A table with a two-sided identity, two-sided inverses and an
    associative product is a group, whose rows and columns are
    permutations.  So the Latin-square scans wait until a later check
    fails (a row without the identity, a one-sided inverse or Light's
    test); they run then, before that failure is reported, so that every
    table gets the reason of the first check in the order above.
    """
    n = len(table)
    if n == 0:
        raise GroupTableError("not-square")
    indices = frozenset(range(n))
    byte_indices = bytes(range(min(n, 256)))
    for i, row in enumerate(table):
        if len(row) != n:
            raise GroupTableError("not-square", (i,))
        if type(row) is bytes and not row.translate(None, byte_indices):
            continue
        if set(map(type, row)) == {int} and indices.issuperset(row):
            continue
        for j, v in enumerate(row):
            if not isinstance(v, int) or not 0 <= v < n:
                raise GroupTableError("bad-index", (i, j))
    mult = tuple(map(tuple, table))

    base = tuple(range(n))
    identity = next((e for e in base if mult[e] == base
                     and tuple(map(itemgetter(e), mult)) == base), None)
    if identity is None:
        raise GroupTableError("no-identity")

    try:
        inv = _inverses_from_table(mult, identity)
    except (GroupTableError, ValueError):
        # ValueError: a row without the identity, which no Latin row is
        _check_latin_square(mult)
        raise
    g = FiniteGroup(n, mult, identity, inv, "table")

    if not _light_test(table, mult, g.generators):
        _check_latin_square(mult)
        raise GroupTableError("non-associative", _first_non_associative(mult))
    return g


def _light_test(table, mult, gens):
    """Does (xs)y = x(sy) hold for every generator s and all x, y?

    ``table`` holds the input rows and ``mult`` the same rows as tuples.
    """
    n = len(mult)
    if n <= 256:
        rows = [r if type(r) is bytes else bytes(m) for r, m in zip(table, mult)]
        maps = [row + bytes(256 - n) for row in rows]
        return all(
            list(map(rows[s].translate, maps)) == [rows[row[s]] for row in mult]
            for s in gens
        )
    for s in gens:
        compose = itemgetter(*mult[s])
        for row in mult:
            if compose(row) != mult[row[s]]:
                return False
    return True


def _check_latin_square(mult):
    """Reject the first row, then the first column, that is not a
    permutation."""
    n = len(mult)
    for i, row in enumerate(mult):
        if len(set(row)) != n:
            raise GroupTableError("not-latin-square", ("row", i))
    for j, column in enumerate(zip(*mult)):
        if len(set(column)) != n:
            raise GroupTableError("not-latin-square", ("column", j))


def _first_non_associative(mult):
    """The first (x, y, z) with (xy)z != x(yz), by a lexicographic scan."""
    n = len(mult)
    return next(
        (x, y, z)
        for x in range(n)
        for y in range(n)
        for z in range(n)
        if mult[mult[x][y]][z] != mult[x][mult[y][z]]
    )


def direct_product(g: FiniteGroup, h: FiniteGroup) -> FiniteGroup:
    """Componentwise product on pairs, indexed i * |H| + j."""
    n, m = g.order, h.order
    size = n * m
    mult = tuple(
        tuple([x + y for x in scaled for y in hrow])
        for scaled in ([v * m for v in grow] for grow in g.mult)
        for hrow in h.mult
    )
    identity = g.identity * m + h.identity
    inv = tuple(x * m + y for x in g.inv for y in h.inv)
    return FiniteGroup(size, mult, identity, inv, "product")


# ---------------------------------------------------------------------------
# subgroups and cosets
#
# A subgroup H is the ascending tuple of its element indices.


def closure(g: FiniteGroup, seed) -> frozenset[int]:
    """The subgroup K generated by the seed elements, as a set.

    Search from the identity, multiplying on the right by seed elements
    only.  In a finite group every inverse is a positive power, so the
    elements reached are exactly <seed>.  O(|K|*|seed|).
    """
    mult = g.mult
    gens = tuple(set(seed))
    out = {g.identity}
    stack = [g.identity]
    while stack:
        row = mult[stack.pop()]
        for s in gens:
            r = row[s]
            if r not in out:
                out.add(r)
                stack.append(r)
    return frozenset(out)


def subgroup_generated(g: FiniteGroup, gens) -> tuple[int, ...]:
    return tuple(sorted(closure(g, gens)))


def generating_set(g: FiniteGroup) -> tuple[int, ...]:
    """A small generating set of G, chosen greedily by ascending index.

    Each element outside the current span is added and the span recomputed
    from the generators chosen so far, so a call costs at most |gens|
    closures of O(|G|*|gens|) each.
    """
    gens = []
    span = frozenset({g.identity})
    for x in range(g.order):
        if x not in span:
            gens.append(x)
            span = closure(g, gens)
            if len(span) == g.order:
                break
    return tuple(gens)


def all_subgroups(g: FiniteGroup):
    """Every subgroup exactly once, sorted by (order, elements).

    Canonical augmentation on int masks.  Every subgroup K != {e} has one
    greedy ascending generating sequence g1 < ... < gk, each gi the least
    element of K outside <g1, ..., g(i-1)>.  K is built once, from its
    parent H = <g1, ..., g(k-1)> and x = gk: H is joined only with an
    x > g(k-1) that is the least element of its right coset Hx, and
    K = <H, x> is kept only if x = min(K \\ H).

    H's candidates x are read off masks, with no coset listed.
    ``above[h]`` is the mask of the x with hx < x, so x is the least
    element of Hx exactly when no h in H has x in ``above[h]``.  The OR of
    ``above[h]`` over H rides on the search stack; a kept join ORs in
    ``above[y]`` for the new elements y of K \\ H only.  The candidates are
    then the bits outside H and that OR, above g(k-1).  Per lattice this
    costs one O(|G|^2) table of ``above`` masks, beside the O(|G|^2) table
    of column masks whose sums give right cosets.  A coset is summed only
    for a join: Hx once, and each further coset of K once, so a join
    (`_join`) costs O(|K| + |K:H|*k).  On Z2^k every join is kept and
    |K:H| = 2: Z2^6 takes 2 824 joins for its 2 825 subgroups, and Z2^7
    29 211 joins, and as many coset sums, for its 29 212.

    Each subgroup is returned as its ascending element tuple.  The lattice
    is kept on its group (`FiniteGroup.subgroups`) and freed with it; each
    call returns a fresh list.
    """
    return list(g.subgroups)


def _build_subgroups(g: FiniteGroup):
    bits = g.bits
    columns = tuple(zip(*g.mult))
    # the right coset Hy is the sum of bit_columns[y] over the elements of H
    bit_columns = [list(map(bits.__getitem__, col)) for col in columns]
    # above[h] is the mask of the x with hx < x; bad, the OR of above[h]
    # over H, masks the x that are not the least element of Hx
    above = [sum(compress(bits, map(gt, range(g.order), row))) for row in g.mult]
    trivial = (g.identity,)
    found = [trivial]
    stack = [(trivial, bits[g.identity], 0, ())]
    while stack:
        h, hmask, bad, gens = stack.pop()
        # outside H and bad, and above gens[-1] so K's generators ascend
        free = ((1 << g.order) - (2 << gens[-1] if gens else 1)) & ~(hmask | bad)
        while free:
            x = (free & -free).bit_length() - 1
            free &= free - 1
            coset = sum(map(bit_columns[x].__getitem__, h))
            joined = _join(g.mult, bit_columns, h, hmask | coset, gens + (x,))
            if joined is not None:
                kmask, reps = joined
                new = []
                for r in reps:
                    new += map(columns[r].__getitem__, h)
                k = tuple(sorted(h + tuple(new)))
                found.append(k)
                bad_k = reduce(or_, map(above.__getitem__, new), bad)
                stack.append((k, kmask, bad_k, gens + (x,)))
    found.sort(key=lambda h: (len(h), h))
    return tuple(found)


def _join(mult, bit_columns, h, kmask, gens):
    """K = <gens> as (mask, right-coset representatives other than H), or
    None unless x = min(K \\ H), where x = gens[-1] and H (elements h) is
    generated by the others.

    ``kmask`` starts as the mask of H u Hx.  Once each representative's
    products with the generators lie in the union of the cosets found,
    the union is closed under right multiplication by the generators, so
    it is K.  The join stops at the first coset that holds an element
    below x.  O(|K| + |K:H|*|gens|).
    """
    x = gens[-1]
    below = (1 << x) - 1
    reps = [x]
    stack = [x]
    while stack:
        row = mult[stack.pop()]
        for s in gens:
            y = row[s]
            if not kmask >> y & 1:
                coset = sum(map(bit_columns[y].__getitem__, h))
                if coset & below:
                    return None
                kmask |= coset
                reps.append(y)
                stack.append(y)
    return kmask, reps


def is_subgroup(g: FiniteGroup, elems) -> bool:
    s = frozenset(elems)
    if g.identity not in s:
        return False
    return all(g.mult[x][y] in s for x in s for y in s)


def is_normal(g: FiniteGroup, h: tuple[int, ...]) -> bool:
    """Is H closed under conjugation by G?

    Conjugation by a generating set of G suffices: if xHx^-1 lies in H for
    each generator x it equals H (same size), and so it does for every
    product of generators.  True at once for abelian G.  Cost
    O(|gens|*|H|) per call once the group's generators are cached.
    """
    if g.is_abelian:
        return True
    hs = frozenset(h)
    return all(g.conjugate(x, y) in hs for x in g.generators for y in h)


def coset_labels(g: FiniteGroup, h: tuple[int, ...]) -> list[int]:
    """Entry x is the number of the left coset xH; cosets are numbered
    0..|G:H|-1 in order of their least element.  O(n)."""
    labels = [-1] * g.order
    count = 0
    for x, row in enumerate(g.mult):
        if labels[x] < 0:
            for y in h:
                labels[row[y]] = count
            count += 1
    return labels


def centre(g: FiniteGroup) -> tuple[int, ...]:
    return tuple(
        x
        for x in range(g.order)
        if all(g.mult[x][y] == g.mult[y][x] for y in range(g.order))
    )


# ---------------------------------------------------------------------------
# automorphisms
#
# An automorphism sigma is a permutation of the element indices, stored as
# the tuple whose entry x is sigma(x).


def is_automorphism(g: FiniteGroup, sigma: tuple[int, ...]) -> bool:
    if sorted(sigma) != list(range(g.order)):
        return False
    if sigma[g.identity] != g.identity:
        return False
    return all(
        sigma[g.mult[x][y]] == g.mult[sigma[x]][sigma[y]]
        for x in range(g.order)
        for y in range(g.order)
    )


def inner_automorphism(g: FiniteGroup, x: int) -> tuple[int, ...]:
    """Conjugation y -> x y x^-1."""
    return tuple(g.conjugate(x, y) for y in range(g.order))


def is_power_automorphism(g: FiniteGroup, sigma: tuple[int, ...]) -> bool:
    """True iff sigma(x) lies in <x> for every x."""
    return all(span >> y & 1 for span, y in zip(g.cyclic_spans, sigma))


def all_automorphisms(g: FiniteGroup):
    """The full automorphism group in ascending tuple order, by
    generator-image backtracking.

    The greedy generators (`generating_set`) each lie outside the span of
    the earlier ones, and an automorphism keeps that, so each generator's
    image is chosen among the elements of its order outside the span of
    the earlier images.  A homomorphism is fixed by its generator images:
    sigma(e) = e and sigma(xs) = sigma(x)t for each generator s with
    image t.  So the walk is recorded once per call, as (y, x, k) with
    y = x*gens[k] in the order that right multiplication by the generators
    first reaches each y from e, and each full choice fills sigma along it
    in one flat loop.  The map is kept when it is injective and, for each
    generator s with image t, ``itemgetter(*column_s)(sigma)`` equals
    ``itemgetter(*sigma)(column_t)``, i.e. sigma(xs) = sigma(x)t for every
    x: one C-level composition of n entries per generator.
    More than AUTOMORPHISM_NODE_BUDGET choices, partial or full, raise
    BoundExceededError: |Aut(Z2^5)| alone is 9 999 360.
    """
    n, mult, e = g.order, g.mult, g.identity
    gens, orders = g.generators, g.element_orders
    candidates = [[y for y in range(n) if orders[y] == orders[x]] for x in gens]
    walk = []
    stack = [e]
    seen = {e}
    while stack:
        x = stack.pop()
        for k, y in enumerate(map(mult[x].__getitem__, gens)):
            if y not in seen:
                seen.add(y)
                walk.append((y, x, k))
                stack.append(y)
    columns = tuple(zip(*mult))
    right = [itemgetter(*columns[s]) for s in gens]
    out = []
    count = node_counter("all_automorphisms", AUTOMORPHISM_NODE_BUDGET)

    def choose(images):
        count()
        if len(images) == len(gens):
            image = [e] * n
            for y, x, k in walk:
                image[y] = mult[image[x]][images[k]]
            if len(set(image)) == n:
                sigma = itemgetter(*image)
                if all(r(image) == sigma(columns[t]) for r, t in zip(right, images)):
                    out.append(tuple(image))
            return
        span = closure(g, images)
        for y in candidates[len(images)]:
            if y not in span:
                choose(images + [y])

    choose([])
    out.sort()
    return out
