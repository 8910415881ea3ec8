"""Subgroup (total) perfect code criteria and explicit constructions.

Implements the key property for normal subgroups -- for every g with
g^2 in H there is h in H with (gh)^2 = e -- together with the parity
shortcut, the cyclic and dihedral classifications, the abelian projection
criterion (read off the involutions and squares of H, with no Sylow
subgroup built), the constructive connection sets, and for arbitrary
subgroups a greedy pass that builds an inverse-closed left transversal,
or proves there is none.
"""

from __future__ import annotations

from collections import namedtuple

from .cayley import ConnectionSet, connection_set
from .errors import CayleyCodesError
from .groups import FiniteGroup, coset_labels, is_normal


# Outcome of a subgroup-code decision.  ``witness`` is None, or
# {"type": "failing_g", "value": g}, or
# {"type": "connection_set", "value": [indices]}.
CriterionVerdict = namedtuple(
    "CriterionVerdict", "perfect total method witness", defaults=(None,)
)


# ---------------------------------------------------------------------------
# the key property and normal-subgroup criterion


def property_one_holds(g: FiniteGroup, h: tuple[int, ...]):
    """For every x with x^2 in H, is there k in H with (xk)^2 = e?

    That is, does every left coset xH with x^2 in H hold some y with
    y^2 = e?  Returns (True, None) or (False, least failing x).  The mask
    of {x : x^2 in H} is the sum of the group's `square_roots` masks over
    H; an x with x^2 = e passes at once (k = e).  The left cosets of the
    other x are walked by least remaining x, one mask each, so the first
    coset that misses the involutions gives the least failing x.  O(|H|)
    per coset walked, O(n) at most.
    """
    roots, bits = g.square_roots, g.bits
    involutions = roots[g.identity]
    pending = sum(map(roots.__getitem__, h)) & ~involutions
    while pending:
        x = (pending & -pending).bit_length() - 1
        coset = sum(map(bits.__getitem__, map(g.mult[x].__getitem__, h)))
        if not coset & involutions:
            return False, x
        pending &= ~coset
    return True, None


def normal_subgroup_code(g: FiniteGroup, h: tuple[int, ...]) -> CriterionVerdict:
    """Perfect iff the key property holds; total additionally needs |H| even."""
    if not is_normal(g, h):
        raise CayleyCodesError("normal_subgroup_code requires a normal subgroup")
    return _normal_subgroup_code(g, h)


def _normal_subgroup_code(g: FiniteGroup, h: tuple[int, ...]) -> CriterionVerdict:
    ok, bad = property_one_holds(g, h)
    witness = None if ok else {"type": "failing_g", "value": bad}
    return CriterionVerdict(
        perfect=ok, total=ok and len(h) % 2 == 0, method="property1", witness=witness
    )


def parity_criterion(g: FiniteGroup, h: tuple[int, ...]) -> CriterionVerdict | None:
    """Sufficient-only shortcut: odd |H| or odd index settles the question.

    Returns None when both |H| and [G:H] are even (the full criterion must
    decide).  Odd |H| forces total=False since total perfect codes have
    even size.
    """
    if not is_normal(g, h):
        raise CayleyCodesError("parity_criterion requires a normal subgroup")
    return _parity_criterion(g, h)


def _parity_criterion(
    g: FiniteGroup, h: tuple[int, ...]
) -> CriterionVerdict | None:
    index = g.order // len(h)
    if len(h) % 2 == 1:
        return CriterionVerdict(perfect=True, total=False, method="parity")
    if index % 2 == 1:
        return CriterionVerdict(perfect=True, total=True, method="parity")
    return None


# ---------------------------------------------------------------------------
# constructive connection sets (normal case)


def _least_involution(g: FiniteGroup, h: tuple[int, ...]) -> int | None:
    """The least involution h0 of H, or None when |H| is odd.  If H is a
    perfect code of Cay(G, S), it is a total one of Cay(G, S u {h0}); if it
    is a total one of Cay(G, R), the one element of R in H is an involution.
    So H is total perfect for some R iff perfect for some S and |H| even."""
    mult, e = g.mult, g.identity
    return next((k for k in h if k != e and mult[k][k] == e), None)


def construct_connection_set_normal(
    g: FiniteGroup, h: tuple[int, ...], total: bool = False
) -> ConnectionSet:
    """Build S (or R) realizing a normal subgroup as a (total) perfect code.

    Quotient cosets whose square is H contribute one involution y_i = x_i h_i
    with (x_i h_i)^2 = e; the remaining cosets are paired with their inverse
    cosets and contribute {g_j, g_j^-1}.  The total case appends the least
    involution h_0 of H.  Representatives and fixers are least-index, so
    the output is deterministic.  The walk tests the key property too: x^2
    in H depends only on xH (H is normal), so the first coset with square H
    and no involution starts at the least failing x (`property_one_holds`).
    """
    if not is_normal(g, h):
        raise CayleyCodesError("construction requires a normal subgroup")
    mult, e, hs = g.mult, g.identity, frozenset(h)
    labels = coset_labels(g, h)
    out = []
    done = {labels[e]}
    # ascending x meets each coset first at its least element, its rep
    for x, label in enumerate(labels):
        if label in done:
            continue
        done.add(label)
        row = mult[x]
        if row[x] in hs:
            # involution in G/H: replace the representative by x_i h_i
            k = next((k for k in h if mult[row[k]][row[k]] == e), None)
            if k is None:
                raise CayleyCodesError(f"key property fails at g={x}; no construction")
            out.append(row[k])
        else:
            rinv = g.inv[x]
            out.extend([x, rinv])
            done.add(labels[rinv])
    if total:
        h0 = _least_involution(g, h)
        if h0 is None:
            raise CayleyCodesError("total construction requires |H| even")
        out.append(h0)
    return connection_set(g, out)


# ---------------------------------------------------------------------------
# cyclic, abelian and dihedral specializations


def cyclic_criterion(g: FiniteGroup, h: tuple[int, ...]) -> CriterionVerdict:
    """Pure arithmetic on |H| and [G:H] for cyclic G."""
    if not g.is_cyclic:
        raise CayleyCodesError("cyclic_criterion requires a cyclic group")
    index = g.order // len(h)
    perfect = len(h) % 2 == 1 or index % 2 == 1
    total = len(h) % 2 == 0 and index % 2 == 1
    return CriterionVerdict(perfect=perfect, total=total, method="cyclic")


def abelian_criterion(
    g: FiniteGroup, h: tuple[int, ...]
) -> CriterionVerdict | None:
    """Projection criterion for abelian G, read off H alone.

    With P the Sylow 2-subgroup of G, the paper's criterion for cyclic
    H n P reads: perfect iff H n P is trivial or projects onto some cyclic
    factor of a decomposition of P; total iff it projects (which forces
    |H| even).  Each clause is a fact about H:
    - H n P is cyclic iff it holds at most one involution (an abelian
      2-group with one involution is cyclic), and every involution of H
      lies in H n P; so this returns None when H holds two or more, and
      `normal_subgroup_code` must decide, as for `parity_criterion`;
    - H n P is trivial iff |H| is odd;
    - an element of P projects onto some factor iff one of its exponents
      is odd, iff it is not a square in P, and an element x of P is a
      square in G iff it is a square in P: split a root y = y2*y' with y2
      in P and y' of odd order; then y'^2 = x*y2^-2 lies in P and has odd
      order, so it is e and x = y2^2.  An element of odd order is a
      square, so the 2-part of a non-square of G is a non-square too;
      hence H n P projects iff some element of H is not y^2 for any y in
      G.
    """
    if not g.is_abelian:
        raise CayleyCodesError("abelian_criterion requires an abelian group")
    if list(map(g.element_orders.__getitem__, h)).count(2) > 1:
        return None
    projects = not all(map(g.square_roots.__getitem__, h))
    perfect = len(h) % 2 == 1 or projects
    return CriterionVerdict(
        perfect=perfect, total=projects, method="abelian-projection"
    )


def dihedral_criterion(n: int, h: tuple[int, ...]) -> CriterionVerdict:
    """Classify a proper subgroup of the order-2n dihedral group.

    Subgroups not inside the rotation subgroup <a> are always both perfect
    and total perfect.  A rotation subgroup is <a^t> with t = n/|H|: it is
    perfect iff t or |H| is odd, and total perfect iff t is odd and |H|
    even.  Uses the rotations-then-reflections element indexing.
    """
    if len(h) >= 2 * n:
        raise CayleyCodesError("dihedral_criterion requires a proper subgroup")
    if not all(x < n for x in h):
        return CriterionVerdict(perfect=True, total=True, method="dihedral")
    t_odd, h_odd = (n // len(h)) % 2 == 1, len(h) % 2 == 1
    return CriterionVerdict(
        perfect=t_odd or h_odd, total=t_odd and not h_odd, method="dihedral"
    )


def dihedral_construct_sets(n: int, t: int, s: int):
    """The explicit reflection connection sets for H = <a^t, a^s b>.

    R = {b, ba, ..., ba^(t-1)} makes H a total perfect code; the size-(t-1)
    set {a^(s-1)b, ..., a^(s-t+1)b} makes H a perfect code.  Every element
    is a reflection, hence an involution, so both sets are inverse-closed.
    Returns (R, S) as element-index lists in the indexing of
    `make_dihedral(n)`, where a^k b is n + k and b a^i = a^(-i) b.
    """
    if n < 3 or t <= 1 or n % t != 0 or not 0 <= s <= t - 1:
        raise CayleyCodesError("need t | n with t > 1 and 0 <= s <= t-1")
    r_set = [n + (-i) % n for i in range(t)]  # b a^i
    s_set = [n + (s - j) % n for j in range(1, t)]  # a^(s-j) b
    return r_set, s_set


# ---------------------------------------------------------------------------
# generic decision: the greedy inverse-closed transversal


def _transversal_search(g: FiniteGroup, h: tuple[int, ...]):
    """An inverse-closed left transversal of H containing e, as a sorted
    tuple, or None.

    One pass over the left cosets in label order: each coset still open
    takes its least x such that the coset of x^-1 is open too, and that
    coset takes x^-1; x may serve its own coset only when x^2 = e.  (For
    non-normal H the inverse of a left coset need not be a left coset.)
    A coset of D = HxH pairs with one of Hx^-1H = D^-1, so each pair
    {D, D^-1} is matched on its own, and the pass never needs to undo a
    choice:
    (1) every left coset k1xH of D meets every right coset Hxk2 of D, at
        k1xk2, and the right cosets of D are the inverses of the left
        cosets of D^-1; so an open coset of D can be matched with any
        open coset of D^-1 (other than itself, when D = D^-1);
    (2) an involution in D forces D = D^-1, and conjugation by H fixes D
        and permutes its left cosets transitively, so it carries that
        involution into every left coset of D.
    When D != D^-1 each choice closes one coset of D and one of D^-1, so
    an open coset always has a partner.  When D = D^-1 != H, only the last
    open coset of D can lack one, and by (2) it holds an involution unless
    D holds none.  So the pass returns None exactly when some self-inverse
    D != H has an odd number of left cosets and no involution; then every
    choice in D closes two cosets, and no transversal exists.
    """
    inv = g.inv
    labels = coset_labels(g, h)
    blocks = [[] for _ in range(g.order // len(h))]
    for x, label in enumerate(labels):
        blocks[label].append(x)
    chosen: list[int | None] = [None] * len(blocks)
    chosen[labels[g.identity]] = g.identity
    for label, block in enumerate(blocks):
        if chosen[label] is not None:
            continue
        for x in block:
            j = labels[inv[x]]
            if chosen[j] is None and (j != label or inv[x] == x):
                break
        else:
            return None
        chosen[label], chosen[j] = x, inv[x]
    return tuple(sorted(chosen))


def generic_subgroup_code_decision(
    g: FiniteGroup, h: tuple[int, ...]
) -> CriterionVerdict:
    """Decide by the greedy transversal pass, which finds a transversal
    whenever one exists; H is total perfect iff it is perfect and |H| is
    even (see `_least_involution`).  The witness is the connection set S
    of a perfect code."""
    found = _transversal_search(g, h)
    if found is None:
        return CriterionVerdict(perfect=False, total=False, method="generic-search")
    s = [x for x in found if x != g.identity]
    return CriterionVerdict(
        perfect=True,
        total=len(h) % 2 == 0,
        method="generic-search",
        witness={"type": "connection_set", "value": s},
    )


# ---------------------------------------------------------------------------
# dispatcher


def decide_subgroup_code(
    g: FiniteGroup, h: tuple[int, ...], normal: bool | None = None
) -> CriterionVerdict:
    """Fastest-first dispatch, in this order: the cyclic criterion when G
    is cyclic; the parity shortcut, tried only for a normal H; the abelian
    criterion (the normal-subgroup criterion when it has no answer) when
    G is abelian; the dihedral criterion for a proper H of a dihedral G;
    the normal-subgroup criterion for any other normal H; and the generic
    transversal pass for the rest.  ``normal`` is `is_normal(g, h)` when
    the caller has it already; otherwise it is computed here, once, after
    the cyclic test."""
    if g.is_cyclic:
        return cyclic_criterion(g, h)
    if normal is None:
        normal = is_normal(g, h)
    if normal:
        verdict = _parity_criterion(g, h)
        if verdict is not None:
            return verdict
    if g.is_abelian:
        return abelian_criterion(g, h) or _normal_subgroup_code(g, h)
    if g.kind == "dihedral" and len(h) < g.order:
        return dihedral_criterion(g.order // 2, h)
    if normal:
        return _normal_subgroup_code(g, h)
    return generic_subgroup_code_decision(g, h)


def construct_connection_set(
    g: FiniteGroup, h: tuple[int, ...], total: bool = False
) -> ConnectionSet:
    """A connection set realizing H as a (total) perfect code.

    Dihedral subgroups <a^t, a^s b> get the explicit reflection sets,
    normal subgroups the key-property construction, and any other
    subgroup the witness S of `generic_subgroup_code_decision` (perfect)
    or S with the least involution of H added (total).
    Raises CayleyCodesError when there is none; an odd-order H needs no
    pass for that.
    """
    if (
        g.kind == "dihedral"
        and len(h) < g.order
        and any(x >= g.order // 2 for x in h)
    ):
        # H = <a^t, a^s b>: the explicit reflection sets apply
        n = g.order // 2
        rotations = [x for x in h if x < n and x != g.identity]
        t = min(rotations) if rotations else n
        s = min(x - n for x in h if x >= n)
        r_set, s_set = dihedral_construct_sets(n, t, s)
        return connection_set(g, r_set if total else s_set)
    if is_normal(g, h):
        return construct_connection_set_normal(g, h, total=total)
    h0 = _least_involution(g, h)
    verdict = None if total and h0 is None else generic_subgroup_code_decision(g, h)
    if verdict is None or not verdict.perfect:
        raise CayleyCodesError("no construction available for this subgroup")
    s = verdict.witness["value"]
    return connection_set(g, s + [h0] if total else s)
