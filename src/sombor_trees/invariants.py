"""Degree- and independence-based tree invariants.

The independence number has two routes on purpose: the kernel's linear-time
rooted DP, run on a preorder level sequence of the tree, and a subset-sweep
oracle kept as its independent check in the tests.  ``sombor_index`` sums the
paper's edge formula directly and is the per-tree reference for the kernel's
Sombor value.
"""

from __future__ import annotations

import math

from . import _kernels
from .errors import SizeLimitError
from .tree import Tree, preorder_levels

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
    """Size of a maximum independent set, by the kernel's rooted DP."""
    return _kernels.tree_stats_from_levels(preorder_levels(t))[1]


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
    """Maximum independent set built by leaf peeling, so it keeps every pendant.

    Rounds: snapshot the degree<=1 vertices of the surviving forest, take them
    in ascending id order (skipping ones a previous pick already deleted), and
    remove each pick together with its remaining neighbor.  Isolated survivors
    count as pendants of their one-vertex component.  The only tree whose
    pendants cannot all be kept is the single edge, where the two pendants are
    adjacent and the procedure keeps vertex 0.
    """
    if t.order < 2:
        raise ValueError("defined for trees with at least 2 vertices")
    n = t.order
    alive = bytearray([1]) * n
    deg = list(t.degrees)
    members: set[int] = set()
    remaining = n
    while remaining:
        snapshot = [v for v in range(n) if alive[v] and deg[v] <= 1]
        for v in snapshot:
            if not alive[v]:
                continue
            members.add(v)
            support = [u for u in t.adjacency[v] if alive[u]]
            alive[v] = 0
            remaining -= 1
            for u in support:
                deg[u] -= 1
            for u in support:
                alive[u] = 0
                remaining -= 1
                for w in t.adjacency[u]:
                    if alive[w]:
                        deg[w] -= 1
    return frozenset(members)
