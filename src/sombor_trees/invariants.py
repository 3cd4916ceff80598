"""Degree- and independence-based tree invariants.

The independence number has two routes on purpose: the kernel, run on the
tree's canonical level sequence (pure: n minus a greedy maximum matching,
by König's theorem; compiled: the rooted incl/excl DP), and a subset-sweep
oracle kept as its independent check in the tests.  ``sombor_index`` sums the
paper's edge formula directly and is the per-tree reference for the kernel's
Sombor value.
"""

from __future__ import annotations

import math

from . import _kernels
from .errors import SizeLimitError
from .tree import Tree, canonical_levels, distances_from

INDEPENDENCE_ORACLE_MAX = 24


def sombor_index(t: Tree) -> float:
    """Sum over edges uv of sqrt(deg(u)^2 + deg(v)^2)."""
    deg = t.degrees
    total = 0.0
    for u in range(t.order):
        du = deg[u]
        for v in t.adjacency[u]:
            if v > u:
                dv = deg[v]
                total += math.sqrt(du * du + dv * dv)
    return total


def independence_number(t: Tree) -> int:
    """Size of a maximum independent set, by the kernel's stats."""
    return _kernels.tree_stats_from_levels(canonical_levels(t))[1]


def independence_number_oracle(t: Tree) -> int:
    """Ground truth: examine every vertex subset for internal edges.

    Exponential; refuses orders beyond INDEPENDENCE_ORACLE_MAX.
    """
    n = t.order
    if n > INDEPENDENCE_ORACLE_MAX:
        raise SizeLimitError(
            f"subset oracle limited to order <= {INDEPENDENCE_ORACLE_MAX}, got {n}"
        )
    nbr_mask = [0] * n
    for u, v in t.edges():
        nbr_mask[u] |= 1 << v
        nbr_mask[v] |= 1 << u
    independent = bytearray(1 << n)
    independent[0] = 1
    best = 0
    for mask in range(1, 1 << n):
        v = (mask & -mask).bit_length() - 1
        rest = mask ^ (1 << v)
        if independent[rest] and not (nbr_mask[v] & rest):
            independent[mask] = 1
            size = mask.bit_count()
            if size > best:
                best = size
    return best


def pendant_inclusive_mis(t: Tree) -> frozenset[int]:
    """A maximum independent set that contains every pendant vertex, or {0}
    on the single edge, whose two pendants are adjacent.

    One pass, deepest vertices first, from a root of degree >= 2 (vertex 1 on
    the single edge): a vertex joins when none of its deeper neighbors has.
    Every leaf joins, and on a tree this greedy choice is optimal.
    """
    if t.order < 2:
        raise ValueError("defined for trees with at least 2 vertices")
    root = next((v for v in range(t.order) if t.degrees[v] >= 2), 1)
    depth = distances_from(t, root)
    members: set[int] = set()
    for v in sorted(range(t.order), key=depth.__getitem__, reverse=True):
        if members.isdisjoint(t.adjacency[v]):  # its parent comes later
            members.add(v)
    return frozenset(members)
