"""The paper's two invariants of a labeled tree: the Sombor index and the
independence number.

``independence_number`` runs the kernel on the tree's canonical level
sequence (pure: n minus a greedy maximum matching, by König's theorem;
compiled: the rooted incl/excl DP); the tests hold it to a subset sweep.
``sombor_index`` sums the paper's edge formula directly and is the per-tree
reference for the kernel's Sombor value.
"""

from __future__ import annotations

import math

from . import _kernels
from .tree import Tree, canonical_levels


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
