"""Seeded relabelings of group tables, shared by the test modules.

A relabeling renames element x to perm[x] throughout the table; the group
is the same, but every index-dependent choice (greedy generators, least
elements, canonical orders) may change.
"""

from __future__ import annotations

import random

from cayleycodes import from_table


def relabel(mult, perm):
    """The table of the same operation with element x renamed perm[x]."""
    out = [[0] * len(mult) for _ in mult]
    for i, row in enumerate(mult):
        for j, v in enumerate(row):
            out[perm[i]][perm[j]] = perm[v]
    return out


def seeded_relabeling(g, seed):
    """A seeded relabeling x -> perm[x] of all of g's elements that moves
    the identity off index 0."""
    perm = list(range(g.order))
    random.Random(seed).shuffle(perm)
    if perm[g.identity] == 0:
        k = (g.identity + 1) % g.order
        perm[g.identity], perm[k] = perm[k], perm[g.identity]
    return perm


def relabeled(g, seed):
    """g as a validated table under `seeded_relabeling`."""
    return from_table(relabel(g.mult, seeded_relabeling(g, seed)))


def relabeled_fixing_identity(g, seed):
    """g, whose identity is 0, as a validated table under a seeded
    relabeling that keeps the identity at 0."""
    perm = [0] + random.Random(seed).sample(range(1, g.order), g.order - 1)
    return from_table(relabel(g.mult, perm))
