"""Streaming enumeration of non-isomorphic trees.

The stream is the pure walk, ``pure._trees``: exactly one representative
per isomorphism class, in a deterministic order (decreasing lexicographic on
the canonical level sequence).  Its independent reference routes, Prüfer
decoding of every labeled tree and random labeled trees, live with the
tests.
"""

from __future__ import annotations

from typing import Iterator

from ._kernels.pure import _start, _trees
from .errors import OrderRangeError, SizeLimitError
from .tree import _numerals

DEFAULT_ORDER_CAP = 20


def enumerate_family(n: int, alpha: int | None = None) -> Iterator[str]:
    """The edge list of each tree of the order-n stream with independence
    number alpha (all of them when alpha is None), in stream order:
    ``format_edge_list(Tree.from_level_sequence(L))`` for each canonical
    level sequence L, without the Trees.  Infeasible alphas simply produce an
    empty stream.

    ``pure._trees`` gives each tree's alpha with the walk's parents P live;
    the degrees and F it keeps alongside go unread.
    Each edge line "p i" is filed under its parent p, in a bucket per parent.
    ``Tree.edges()`` lists the edges by their smaller end, then the larger;
    every parent precedes its children, so that is by parent, and vertices are
    filed in increasing order, so each bucket already holds its children in
    increasing order.  Joining the buckets in parent order gives those bytes
    with no sort.  The buckets carry over from one record to the next: with
    low the smallest index the walk changed since the last record, each
    vertex i >= low takes its line back out (``cut[i]`` is its bucket's
    length just before the line went in), and vertices low..n-1 are filed
    again from P.  Each bucket is a string grown by concatenation, so a
    vertex of degree d costs O(d^2) character copies, negligible at orders up
    to the cap.
    """
    if n < 1:
        raise OrderRangeError(f"order must be >= 1, got {n}")
    if n > DEFAULT_ORDER_CAP:
        raise SizeLimitError(
            f"order {n} exceeds the enumeration cap {DEFAULT_ORDER_CAP}"
        )
    sp, nl = _numerals(n)
    lines = [nl[n]] + [""] * n  # lines[p + 1] is p's bucket
    parent = [0] * n
    cut = [0] * n
    L, P = _start(n)
    low = n
    for lo, a, _ in _trees(L, P, [0] * n):
        if lo < low:
            low = lo
        if a != alpha and alpha is not None:
            continue
        i = n - 1
        while i >= low:  # not range: the suffix averages 2 to 3 vertices
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
        low = n
        yield "".join(lines)
