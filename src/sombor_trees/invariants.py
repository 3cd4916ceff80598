"""Degree- and independence-based tree invariants.

The independence number has two routes on purpose: a linear-time rooted DP
used everywhere, and a subset-sweep oracle kept as ground truth for tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import SizeLimitError, TreeStructureError
from .tree import Tree

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
    """Size of a maximum independent set, by the two-state rooted DP."""
    n = t.order
    if n == 1:
        return 1
    parent = [-2] * n
    parent[0] = -1
    order = [0]
    stack = [0]
    while stack:
        v = stack.pop()
        for u in t.adjacency[v]:
            if parent[u] == -2:
                parent[u] = v
                order.append(u)
                stack.append(u)
    incl = [1] * n
    excl = [0] * n
    for v in reversed(order):
        if v == 0:
            break
        p = parent[v]
        incl[p] += excl[v]
        excl[p] += max(incl[v], excl[v])
    return max(incl[0], excl[0])


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


@dataclass(frozen=True)
class IndependentSet:
    """A pairwise non-adjacent vertex set tied to the order of its host tree."""

    members: frozenset[int]
    host_order: int

    @classmethod
    def checked(cls, tree: Tree, members) -> "IndependentSet":
        ms = frozenset(members)
        for v in ms:
            tree._check_vertex(v)
            for u in tree.adjacency[v]:
                if u > v and u in ms:
                    raise TreeStructureError(
                        f"vertices {v} and {u} are adjacent; set is not independent"
                    )
        return cls(ms, tree.order)

    def __len__(self) -> int:
        return len(self.members)


def pendant_inclusive_mis(t: Tree) -> IndependentSet:
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
    return IndependentSet.checked(t, members)
