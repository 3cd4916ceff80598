"""Pure-Python level-sequence kernels.

A tree is encoded by its preorder depth sequence ("level sequence") with the
root at level 0 and children laid out in non-increasing lexicographic order
of their subsequences.  Canonical rooted sequences follow one another in
strictly decreasing lexicographic order by the classic chop-and-replicate
successor, ``_successor``, which rewrites the parent array along with the
sequence; a free tree keeps the one center-rooted representative that
``tree._free_check`` accepts.  The one walk, ``_trees``, skips invalid
blocks by forcing the successor at the end of the first root subtree and,
when that leaves the root a single deep child, by resetting the tail to a
path (Wright, Richmond, Odlyzko & McKay, "Constant time generation of free
trees", SIAM J. Comput. 15(2), 1986): about 1.04 to 1.14 sequences visited
per tree for n = 12..18.  The walk reaches ``_free_check``'s verdict from
state it keeps across sequences and redoes only from the first index a step
rewrote; its reference, in the tests, is a rooted stream with its own
successor, filtered by the full-scan ``_free_check``.

The caller owns the walk's lists: ``_start(n)`` builds the sequence and its
parent array, and ``_trees(L, P, deg, count, thr)`` rewrites them and the
degrees in place.  It counts each tree into count[alpha] and, only when
(n - 1) * F >= thr[alpha], yields the first index changed since the previous
yield, alpha and F = sum of deg**3, kept across trees and redone from the
first changed index on: a tree is decoded once, in the walk, and one that no
view can use never leaves it.  Suffix loops that average about 2 vertices
are ``while`` loops, which cost less here than building a ``range``.
``order_fold`` and ``enumeration.enumerate_family`` consume ``_trees``;
``iter_level_sequences`` only drains it.

The edges' radicands d_u**2 + d_v**2 add up to F, so by Cauchy-Schwarz
SO <= sqrt((n - 1) * F).  ``order_fold`` sums the Sombor index, in full and
in vertex order, only when that bound, widened by the float sum's rounding
bound gamma_{n+4} of ``verify._float_error``, reaches the cell's runner-up;
the walk only counts the other trees, which provably cannot change the cell
(the argument is in ``order_fold``).  It copies a sequence only when it sets a
new best.  ``tree_stats_from_levels`` computes the same two numbers from
scratch for one sequence.  It and ``_start`` decode through
``_level_parents``, the one checked decoder, which ``Tree.from_level_sequence``
also uses; this module imports nothing from ``tree``.

The compiled backend mirrors ``iter_level_sequences`` and the stats function
for function, including the floating-point accumulation order, so both
produce bit-identical results.  It folds through ``_kernels._stream_fold``
until ROADMAP D6 exports an all-C fold; no subcommand reaches the pure
``iter_level_sequences``, which the tests keep as that generator's mirror
until then.  The compiled generator still lacks the tail reset, so it visits
more sequences for the same stream; its filter mode (``use_jump=False``) is
held to the same reference.
"""

from __future__ import annotations

import math
from typing import Iterator, Sequence

BACKEND = "pure"


def _successor(L: list[int], P: list[int], p: int) -> None:
    """The walk's forced step: advance L and its parent array P in place to
    the next canonical rooted sequence that differs from L at index p, always
    at level >= 2.  The walk forces only m - 1 of a rejected sequence, and a
    first root subtree that is the single vertex 1 is never rejected.  Its
    natural steps, the last-leaf move and the chop at the last entry above
    level 1, are inline in ``_trees``.
    """
    n = len(L)
    q = P[p]
    d = p - q
    lq = L[q]
    pq = P[q]
    i = p
    while i < n:  # copies of q's subtree, each a new child of P[q]
        li = L[i - d]
        L[i] = li
        P[i] = P[i - d] + d if li > lq else pq
        i += 1


def _level_parents(levels: Sequence[int]) -> list[int]:
    """Parent of each vertex of a preorder depth sequence starting at level 0;
    the root's entry is -1.  Every parent precedes its children.  The one
    checked decoder: ``_start``, ``tree_stats_from_levels`` and
    ``Tree.from_level_sequence`` decode through it."""
    n = len(levels)
    if n < 1:
        raise ValueError("empty level sequence")
    if levels[0] != 0:
        raise ValueError("level sequence must start with 0")
    parents = [-1] * n
    last_at = [0] * (n + 1)
    for i in range(1, n):
        li = levels[i]
        if not 1 <= li <= levels[i - 1] + 1:
            raise ValueError(f"level jump at position {i}")
        parents[i] = last_at[li - 1]
        last_at[li] = i
    return parents


def _start(n: int) -> tuple[list[int], list[int]]:
    """The walk's first sequence, the center-rooted path, and its parent
    array, P[0] = -1, as fresh lists for the caller to own.  Raises
    ValueError for n < 1."""
    if n < 1:
        raise ValueError("order must be >= 1")
    L = list(range(n // 2 + 1)) + list(range(1, (n + 1) // 2))
    return L, _level_parents(L)


def _trees(
    L: list[int], P: list[int], deg: list[int], count: list[int], thr: list[float]
) -> Iterator[tuple[int, int, int]]:
    """Walk the free-tree stream from ``_start(len(L))``: add 1 to
    count[alpha] for every free tree, and yield (lo, alpha, F) for those with
    (n - 1) * F >= thr[alpha], alpha the independence number and F the sum of
    deg**3; a threshold of 0.0 passes every tree, +inf none.

    L and P from ``_start``, with P[0] = -1 for the root, deg, a list of
    len(L), and count and thr, indexed by alpha = 0..len(L), belong to the
    caller, who reads the tree from L, P and deg (deg[v] is v's degree) at a
    yield and may raise thr there: the walk reads it afresh for each tree.  lo
    is the first index at which L or P changed since the previous yield; L[0]
    is 0 throughout, so the first yield reports lo = 1.

    Over half the steps move only the last vertex: when a tree's last vertex
    sits above level 1 (53% of the trees at n = 16), the natural successor
    chops at n - 1 and copies q = P[n - 1] there, moving that leaf up to
    r = P[q].  The walk chops in place; only a forced step calls
    ``_successor``.

    The walk decides ``_free_check`` on every sequence it visits, but keeps
    the check's state across them and redoes it only from the first index the
    last step rewrote: m, the start of the second root subtree; top[i], the
    maximum of L[:i + 1] for i < m; and rest[i], the maximum of L[m:i + 1]
    for i >= m.

    Kept across trees, degrees and alpha follow the parents P.  After the
    last-leaf step they settle the leaf alone: one degree and one free count
    move from q to r, F follows, q is settled, and the climb starts at r and
    stops at the first flag that keeps its value.  Otherwise one reverse pass
    over lo..n - 1 undoes each vertex's old edge, adds its new one from P and
    settles the vertex, whose children all come later in preorder and so are
    settled already.  Then the ancestors of lo - 1, the only earlier vertices
    whose children changed, are settled up to the root, 2.5 steps a tree at
    n = 16.  On this general path, stopping at the first ancestor that keeps
    its flag once it is at or above every changed parent would skip at most
    1.4% of those steps at n = 16 and 17; when every tree climbed this way it
    skipped up to 17% and still measured slower than climbing to the root,
    so only the last-leaf climb stops early.

    Children come after their parent in preorder, so a greedy matching of each
    unmatched vertex to its unmatched parent, taken in reverse preorder, is a
    maximum matching, and alpha = n - nu by König's theorem, nu its size.  In
    DP form a vertex is matched from below when any of its children is left
    unmatched by its own subtree; free[v] counts those children of v, and nu
    is the number of vertices matched from below.  F follows the degrees: a
    degree going from d - 1 to d adds cube[d] = 3d**2 - 3d + 1, and going back
    takes it away again.
    """
    n = len(L)
    cube = [3 * d * d - 3 * d + 1 for d in range(n)]  # d**3 - (d - 1)**3
    edges = n - 1
    # the star; the first tree redoes L[1:]
    parent = [0] * n
    deg[:] = [edges] + [1] * edges
    F = edges**3 + edges
    free = [edges] + [0] * edges
    below = [False] * n
    nu = 0  # vertices other than the root matched from below
    if n == 1:  # the single vertex: nothing to check and no successor
        count[1] += 1
        if 0 >= thr[1]:
            yield 1, 1, 0
        return
    top = [0, 1] + [0] * (n - 2)
    rest = [0] * n
    m = n
    lo = low = 1
    p = 2  # the first sequence is checked in full; L[1] = 1 always
    while True:
        if p <= m:  # the rewrite reached the first root subtree: find m again
            x = top[p - 1]
            while p < n and L[p] != 1:
                if L[p] > x:
                    x = L[p]
                top[p] = x
                p += 1
            m = p
            h_left = x - 1
            h_rest = 0
        else:
            h_rest = rest[p - 1]
        while p < n:
            if L[p] > h_rest:
                h_rest = L[p]
            rest[p] = h_rest
            p += 1
        # _free_check's verdict, read off the state
        if h_rest != h_left:
            valid = h_rest > h_left
        elif 2 * m != n + 2:  # the sides differ in size: m - 1 against n - m + 1
            valid = 2 * m < n + 2
        else:  # the first subtree, one level up, against the rest
            valid = True
            for a, b in zip(L[2:m], L[m:]):
                if a - 1 != b:
                    valid = a - 1 < b
                    break
        if valid:
            if lo < n:
                i = n - 1
                while i >= lo:  # not range: the suffix averages about 2 vertices
                    # undo i's old edge, add its new one, then settle i
                    q = parent[i]
                    d = deg[q]
                    F -= cube[d]
                    deg[q] = d - 1
                    if below[i]:
                        nu -= 1
                    else:
                        free[q] -= 1
                    q = P[i]
                    parent[i] = q
                    d = deg[q] + 1
                    deg[q] = d
                    F += cube[d]
                    if free[i]:
                        below[i] = True
                        nu += 1
                    else:
                        below[i] = False
                        free[q] += 1
                    i -= 1
                v = lo - 1
                if lo < low:
                    low = lo
            else:  # the last-leaf step moved leaf n - 1 from q up to r = P[q]
                q = parent[n - 1]
                v = parent[n - 1] = P[n - 1]
                F += cube[deg[v] + 1] - cube[deg[q]]
                deg[q] -= 1
                deg[v] += 1
                free[q] -= 1
                if free[q]:
                    free[v] += 1  # the leaf, unmatched
                else:  # and q, settled: its last unmatched child left
                    below[q] = False
                    nu -= 1
                    free[v] += 2
            while v:
                b = free[v] > 0
                if b != below[v]:
                    below[v] = b
                    if b:
                        nu += 1
                        free[parent[v]] -= 1
                    else:
                        nu -= 1
                        free[parent[v]] += 1
                elif lo == n:  # only the last-leaf climb stops early
                    break
                v = parent[v]
            a = n - nu - (free[0] > 0)
            count[a] += 1
            if edges * F >= thr[a]:
                yield low, a, F
                low = n - 1
            lo = n  # nothing changed since this tree yet
            q = P[n - 1]
            if q:  # the last vertex sits above level 1: move it up in place
                L[n - 1] = L[q]
                P[n - 1] = P[q]
                p = n - 1
                continue
            p = n - 2  # the natural chop, at the last vertex above level 1
            while L[p] == 1:
                p -= 1
            if not p:
                return
            q = P[p]
            d = p - q
            lq = L[q]
            pq = P[q]
            i = p
            while i < n:  # copies of q's subtree, each a new child of P[q]
                li = L[i - d]
                L[i] = li
                P[i] = P[i - d] + d if li > lq else pq
                i += 1
        else:
            p = m - 1
            deep = L[p] > 2
            _successor(L, P, p)
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
                P[n - h - 1:] = [0, *range(n - h - 1, n - 1)]
                # m - 1 < n - h - 1 at every order tried, so this has never
                # lowered p; the argument above places the chain, not m,
                # before n - h - 1, so the guard keeps p the first change
                p = min(p, n - h - 1)
        if p < lo:
            lo = p


def iter_level_sequences(n: int) -> Iterator[tuple[int, ...]]:
    """One canonical level sequence per free tree on n vertices."""
    L, P = _start(n)
    for _ in _trees(L, P, [0] * n, [0] * (n + 1), [0.0] * (n + 1)):
        yield tuple(L)


def order_fold(n: int) -> dict:
    """Fold the whole order-n stream into every alpha cell in one walk.

    Returns the same cells as the shared ``_kernels._stream_fold``.  The walk,
    ``_trees``, counts every tree into its cell and yields, with its degrees
    and alpha, only the trees that pass the Cauchy-Schwarz test below against
    their cell's thr[a], which the fold raises.  The fold keeps only the
    Sombor sum, in full and in vertex order, as the compiled backend sums it;
    a tree the walk holds back cannot change anything but its cell's count.

    Each edge's radicand d_u**2 + d_v**2 gives every endpoint's d**2 once per
    incident edge, so the radicands add up to F, and Cauchy-Schwarz over the
    n - 1 edges gives SO <= sqrt((n - 1) * F).  With u = 2**-53 and gamma =
    gamma_{n+4} = (n + 4)u / (1 - (n + 4)u) as in ``verify._float_error``,
    the float sum so, n - 1 correctly rounded roots of exact radicands added
    in vertex order, satisfies so <= SO * (1 + gamma), and
    1 / (1 + gamma) = 1 - (n + 4)u.  Whenever runner[a] = r > 0 changes,
    thr[a] = y * y with y = r * shrink and shrink = 1 - (n + 6)u, a float
    held exactly.  Two round-to-nearest products give thr <= r**2 * shrink**2
    * (1 + u)**3 < (r * (1 - (n + 4)u))**2, since (1 - (n + 6)u) * (1 + u)**1.5
    <= (1 - (n + 6)u) * (1 + 2u) < 1 - (n + 4)u.  Python compares the int
    (n - 1) * F with the float thr exactly, so a skipped tree has
    SO <= sqrt((n - 1) * F) < sqrt(thr) < r / (1 + gamma), and so < r: its
    float SO lies strictly below the runner-up, itself below the best.  It
    cannot change best, ties, runner or first, and no exact tie, with the
    best or with the runner-up, is ever skipped.  Before a cell has a
    runner-up thr[a] is 0.0, which no (n - 1) * F >= 0 lies below.
    """
    L, P = _start(n)
    deg = [0] * n
    roots = [[math.sqrt(a * a + b * b) for b in range(n)] for a in range(n)]
    shrink = 1.0 - (n + 6) * 2.0**-53
    count = [0] * (n + 1)
    best = [float("-inf")] * (n + 1)
    runner = [float("-inf")] * (n + 1)
    thr = [0.0] * (n + 1)
    ties = [0] * (n + 1)
    first = [None] * (n + 1)
    for _, a, _ in _trees(L, P, deg, count, thr):
        so = 0.0
        for i in range(1, n):
            so += roots[deg[i]][deg[P[i]]]
        b = best[a]
        if so > b:
            runner[a] = b
            best[a] = so
            ties[a] = 1
            first[a] = tuple(L)
            if b > 0:  # else the cell's first tree leaves no runner-up
                y = b * shrink
                thr[a] = y * y
        elif so == b:
            ties[a] += 1
        elif so > runner[a]:
            runner[a] = so
            y = so * shrink
            thr[a] = y * y
    return {
        a: (count[a], best[a], runner[a], ties[a], first[a])
        for a in range(n + 1)
        if count[a]
    }


def tree_stats_from_levels(levels: Sequence[int]) -> tuple[float, int]:
    """(Sombor index, independence number) of the encoded tree, by the same
    greedy matching and vertex-order sum as ``order_fold``.  Decodes through
    ``_level_parents``, so raises its ValueError unless levels is a
    preorder depth sequence starting at level 0."""
    parent = _level_parents(levels)
    n = len(parent)
    deg = [0] + [1] * (n - 1)
    for i in range(1, n):
        deg[parent[i]] += 1
    matched = [False] * n
    nu = 0
    for i in range(n - 1, 0, -1):
        if not matched[i]:
            p = parent[i]
            if not matched[p]:
                matched[p] = True
                nu += 1
    so = 0.0
    for i in range(1, n):
        du = deg[i]
        dv = deg[parent[i]]
        so += math.sqrt(du * du + dv * dv)
    return so, n - nu
