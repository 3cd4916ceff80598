"""Streaming enumeration of non-isomorphic trees.

The stream is the pure walk, ``pure._trees``: exactly one representative
per isomorphism class, in a deterministic order (decreasing lexicographic on
the canonical level sequence).  Its independent reference routes, Prüfer
decoding of every labeled tree and random labeled trees, live with the
tests.
"""

from __future__ import annotations

import math
from typing import Iterator

from ._kernels.pure import _start, _trees
from .errors import OrderRangeError, SizeLimitError

DEFAULT_ORDER_CAP = 20


def enumerate_family(n: int, alpha: int | None = None) -> Iterator[str]:
    """The edge list of each tree of the order-n stream with independence
    number alpha (all of them when alpha is None), in stream order:
    ``format_edge_list(Tree.from_level_sequence(L))`` for each canonical
    level sequence L, without the Trees.  An alpha that no order-n tree has
    produces an empty stream without the walk: every tree of order n >= 2
    has ceil(n/2) <= alpha <= n-1, and the one vertex of order 1 has 1.

    ``pure._trees`` yields only the trees of that alpha, its threshold 0.0
    and every other alpha's +inf, with the walk's parents P live.  Each edge
    line "p i" is filed under its parent p, in a bucket per parent.
    ``Tree.edges()`` lists the edges by their smaller end, then the larger;
    every parent precedes its children, so that is by parent, and vertices are
    filed in increasing order, so each bucket already holds its children in
    increasing order.  Joining the buckets in parent order gives those bytes
    with no sort.  The buckets carry over from one record to the next: with
    lo the first index the walk changed since the last record, each vertex
    i >= lo takes its line back out (``cut[i]`` is its bucket's length just
    before the line went in), and vertices lo..n-1 are filed again from P.
    Each bucket is a string grown by concatenation, so a vertex of degree d
    costs O(d^2) character copies, negligible at orders up to the cap.
    """
    if n < 1:
        raise OrderRangeError(f"order must be >= 1, got {n}")
    if n > DEFAULT_ORDER_CAP:
        raise SizeLimitError(
            f"order {n} exceeds the enumeration cap {DEFAULT_ORDER_CAP}"
        )
    if alpha is not None and alpha not in range((n + 1) // 2, max(n, 2)):
        return
    sp = [f"{i} " for i in range(n)]
    nl = [f"{i}\n" for i in range(n + 1)]
    lines = [nl[n]] + [""] * n  # lines[p + 1] is p's bucket
    parent = [0] * n
    cut = [0] * n
    L, P = _start(n)
    thr = [0.0 if alpha in (None, a) else math.inf for a in range(n + 1)]
    for lo, _, _ in _trees(L, P, [0] * n, [0] * (n + 1), thr):
        i = n - 1
        while i >= lo:  # not range: the suffix averages 2 to 3 vertices
            q = parent[i] + 1
            lines[q] = lines[q][: cut[i]]
            i -= 1
        while i < n - 1:
            i += 1
            p = P[i]
            parent[i] = p
            b = lines[p + 1]
            cut[i] = len(b)
            lines[p + 1] = b + (sp[p] + nl[i])
        yield "".join(lines)
