"""Pure-Python level-sequence kernels.

A tree is encoded by its preorder depth sequence ("level sequence") with the
root at level 0 and children laid out in non-increasing lexicographic order
of their subsequences.  Canonical rooted sequences are generated in strictly
decreasing lexicographic order by the classic chop-and-replicate successor
(``iter_rooted_level_sequences``); a free tree keeps the one center-rooted
representative that ``_free_check`` accepts.  The one walk, ``_walk``, skips
invalid blocks by forcing the successor at the end of the first root subtree
and, when that leaves the root a single deep child, by resetting the tail to
a path (Wright, Richmond, Odlyzko & McKay, "Constant time generation of free
trees", SIAM J. Comput. 15(2), 1986): about 1.04 to 1.14 sequences visited
per tree for n = 12..18.  The filtered rooted stream is its test reference.

``order_fold`` runs ``_stats`` over the walk, as ``tree_stats_from_levels``
does on one sequence, but redoes parents and degrees only from the first
index the walk changed, and copies a sequence only when it sets a new best.

The compiled backend mirrors the generator and the stats function for
function, including the floating-point accumulation order, so both produce
bit-identical results.  It folds through ``_kernels._stream_fold`` until
ROADMAP D6 exports an all-C fold.  Its generator still lacks the tail reset,
so it visits more sequences for the same stream; its filter mode
(``use_jump=False``) is held to the same reference.
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


def _successor(L: list[int], p: int | None) -> int:
    """Advance L in place to the next canonical rooted sequence.

    p >= 1 forces the change at that index; None, or a forced index already at
    level 1, takes the natural chop at the last entry above level 1.  Returns
    the first index rewritten, or 0, leaving L untouched, when the stream is
    exhausted.
    """
    n = len(L)
    if p is None or L[p] < 2:
        p = n - 1
        while p > 0 and L[p] == 1:
            p -= 1
        if p <= 0:
            return 0
    q = p - 1
    while L[q] != L[p] - 1:
        q -= 1
    d = p - q
    for i in range(p, n):
        L[i] = L[i - d]
    return p


def _walk(n: int) -> Iterator[tuple[list[int], int]]:
    """Walk the free-tree stream: yield (L, lo) once per free tree.

    L is the live sequence, rewritten in place after each yield, and lo is the
    first index that changed since the previous yield.  L[0] is 0 throughout,
    so the first yield reports lo = 1.
    """
    L = list(range(n // 2 + 1)) + list(range(1, (n + 1) // 2))
    lo = 1
    while True:
        valid, m = _free_check(L)
        if valid:
            yield L, lo
            lo = n
            p = _successor(L, None)
        else:
            deep = L[m - 1] > 2
            p = _successor(L, m - 1)
            if deep:  # forced at level >= 3, so p = m - 1 >= 1
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
                p = min(p, n - h - 1)
        if not p:
            return
        lo = min(lo, p)


def iter_level_sequences(n: int) -> Iterator[tuple[int, ...]]:
    """One canonical level sequence per free tree on n vertices."""
    if n < 1:
        raise ValueError("order must be >= 1")
    for L, _ in _walk(n):
        yield tuple(L)


def _stats(parent: Sequence[int], deg: Sequence[int], roots) -> tuple[float, int]:
    """(Sombor index, independence number) of the tree given by its preorder
    parents and degrees; roots[a][b] must equal math.sqrt(a * a + b * b).

    Children come after their parent in preorder, so a greedy matching of each
    unmatched vertex to its unmatched parent, taken in reverse preorder, is a
    maximum matching nu, and alpha = n - nu by König's theorem.
    """
    n = len(parent)
    matched = [0] * n
    nu = 0
    for i in range(n - 1, 0, -1):
        if not matched[i]:
            p = parent[i]
            if not matched[p]:
                matched[p] = 1
                nu += 1
    so = 0.0
    for i in range(1, n):
        so += roots[deg[i]][deg[parent[i]]]
    return so, n - nu


def order_fold(n: int) -> dict:
    """Fold the whole order-n stream into every alpha cell in one walk.

    Returns the same cells as the shared ``_kernels._stream_fold``.  Parents
    and degrees follow the walk: only the entries from the first changed index
    on are redone for each tree.
    """
    if n < 1:
        raise ValueError("order must be >= 1")
    stats = _stats
    roots = [[math.sqrt(a * a + b * b) for b in range(n)] for a in range(n)]
    parent = [0] * n
    deg = [n - 1] + [1] * (n - 1)  # the star; the first tree redoes L[1:]
    count = [0] * (n + 1)
    best = [float("-inf")] * (n + 1)
    runner = [float("-inf")] * (n + 1)
    ties = [0] * (n + 1)
    first = [None] * (n + 1)
    for L, lo in _walk(n):
        for i in range(lo, n):
            # parent of i: the first of i - 1 and its ancestors below L[i]
            deg[parent[i]] -= 1
            li = L[i]
            p = i - 1
            while L[p] >= li:
                p = parent[p]
            parent[i] = p
            deg[p] += 1
        so, a = stats(parent, deg, roots)
        count[a] += 1
        b = best[a]
        if so > b:
            runner[a] = b
            best[a] = so
            ties[a] = 1
            first[a] = tuple(L)
        elif so == b:
            ties[a] += 1
        elif so > runner[a]:
            runner[a] = so
    return {
        a: (count[a], best[a], runner[a], ties[a], first[a])
        for a in range(n + 1)
        if count[a]
    }


def tree_stats_from_levels(levels: Sequence[int]) -> tuple[float, int]:
    """(Sombor index, independence number) of the encoded tree."""
    n = len(levels)
    if n < 1:
        raise ValueError("empty level sequence")
    parent = [0] * n
    last_at = [0] * (n + 1)
    deg = [0] * n
    for i in range(1, n):
        li = levels[i]
        p = parent[i] = last_at[li - 1]
        last_at[li] = i
        deg[i] += 1
        deg[p] += 1
    # at most 2 * sqrt(n) distinct degrees, so this table stays O(n)
    ds = set(deg)
    roots = {a: {b: math.sqrt(a * a + b * b) for b in ds} for a in ds}
    return _stats(parent, deg, roots)
