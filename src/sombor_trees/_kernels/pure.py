"""Pure-Python level-sequence kernels.

A tree is encoded by its preorder depth sequence ("level sequence") with the
root at level 0 and children laid out in non-increasing lexicographic order
of their subsequences.  Canonical rooted sequences are generated in strictly
decreasing lexicographic order by the classic chop-and-replicate successor;
free (unrooted) trees keep exactly one center-rooted representative per
isomorphism class.  Invalid blocks are skipped by forcing the successor at
the end of the first root subtree and, when that leaves the root a single
deep child, by resetting the tail to a path (Wright, Richmond, Odlyzko &
McKay, "Constant time generation of free trees", SIAM J. Comput. 15(2),
1986).  About 1.04 to 1.14 sequences are visited per tree for n = 12..18.

The compiled backend mirrors this module function for function, including the
floating-point accumulation order, so both produce bit-identical results.  Its
generator still forces the successor without the tail reset (ROADMAP D6
rewrites it), so it visits more sequences to yield the same stream.
"""

from __future__ import annotations

import math
from typing import Iterator, Sequence

BACKEND = "pure"


def iter_rooted_level_sequences(n: int) -> Iterator[tuple[int, ...]]:
    """All canonical rooted trees on n vertices, decreasing lexicographic."""
    if n < 1:
        raise ValueError("order must be >= 1")
    L = list(range(n))
    while True:
        yield tuple(L)
        if not _successor(L, None):
            return


def _free_check(L: Sequence[int]) -> tuple[bool, int]:
    """Is this rooted sequence the canonical representative of its free tree?

    Returns (valid, m) where m is the index where the second root subtree
    starts (len(L) if the root has a single subtree).  Valid means the first
    subtree is no taller than the rest of the tree, with size-then-lex
    tie-breaks so exactly one rooting survives per isomorphism class.
    """
    n = len(L)
    m = n
    for i in range(2, n):
        if L[i] == 1:
            m = i
            break
    h_left = 0
    for i in range(1, m):
        v = L[i] - 1
        if v > h_left:
            h_left = v
    h_rest = 0
    for i in range(m, n):
        if L[i] > h_rest:
            h_rest = L[i]
    if h_rest > h_left:
        return True, m
    if h_rest < h_left:
        return False, m
    len_left = m - 1
    len_rest = n - m + 1
    if len_left > len_rest:
        return False, m
    if len_left < len_rest:
        return True, m
    for i in range(1, len_left):
        a = L[1 + i] - 1
        b = L[m + i - 1]
        if a != b:
            return a < b, m
    return True, m


def _successor(L: list[int], p: int | None) -> bool:
    """Advance L in place to the next canonical rooted sequence.

    p forces the change at that index; None, or a forced index already at
    level 1, takes the natural chop at the last entry above level 1.  Returns
    False, leaving L untouched, when the stream is exhausted.
    """
    n = len(L)
    if p is not None and p <= 0:
        return False
    if p is None or L[p] < 2:
        p = n - 1
        while p > 0 and L[p] == 1:
            p -= 1
        if p <= 0:
            return False
    q = p - 1
    while L[q] != L[p] - 1:
        q -= 1
    d = p - q
    for i in range(p, n):
        L[i] = L[i - d]
    return True


def iter_level_sequences(n: int, use_jump: bool = True) -> Iterator[tuple[int, ...]]:
    """One canonical level sequence per free tree on n vertices.

    use_jump=False disables the block-skipping acceleration and filters the
    full rooted stream instead; both modes must yield identical sequences.
    """
    if n < 1:
        raise ValueError("order must be >= 1")
    if n == 1:
        yield (0,)
        return
    if n == 2:
        yield (0, 1)
        return
    L = list(range(n // 2 + 1)) + list(range(1, (n + 1) // 2))
    while True:
        valid, m = _free_check(L)
        if valid:
            yield tuple(L)
        elif use_jump:
            deep = L[m - 1] > 2
            if not _successor(L, m - 1):
                return
            if deep:
                # Tail reset of Wright, Richmond, Odlyzko & McKay (1986).  The
                # forced successor copied a subtree at level >= 2 to the end,
                # so the root has one child; let h + 1 be the tree's height.
                # L is still below the start, the center-rooted path, so
                # h + 1 < n // 2 and the first chain 0, 1, ..., h + 1 ends
                # before index n - h - 1.  Every sequence skipped, down to the
                # tail 1, 2, ..., h + 1, keeps L[:n - h - 1]: its first root
                # subtree reaches level h + 1, and its second starts after
                # index n - h - 1.  With at most h vertices that one reaches
                # level h only as a path, and then it is the smaller side, so
                # none of them is valid.  The reset sequence is canonical: its
                # first subtree starts with the chain and outlasts the path.
                h = max(L) - 1
                L[n - h - 1:] = range(1, h + 2)
            continue
        if not _successor(L, None):
            return


def tree_stats_from_levels(levels: Sequence[int]) -> tuple[float, int]:
    """(Sombor index, independence number) of the encoded tree."""
    n = len(levels)
    parent = [0] * n
    last_at = [0] * (n + 1)
    for i in range(1, n):
        li = levels[i]
        parent[i] = last_at[li - 1]
        last_at[li] = i
    deg = [0] * n
    for i in range(1, n):
        deg[i] += 1
        deg[parent[i]] += 1
    incl = [1] * n
    excl = [0] * n
    for i in range(n - 1, 0, -1):
        p = parent[i]
        ii = incl[i]
        ei = excl[i]
        excl[p] += ii if ii > ei else ei
        incl[p] += ei
    alpha = incl[0] if incl[0] > excl[0] else excl[0]
    so = 0.0
    for i in range(1, n):
        du = deg[i]
        dv = deg[parent[i]]
        so += math.sqrt(du * du + dv * dv)
    return so, alpha
