"""Streaming enumeration of non-isomorphic trees.

The stream comes from the level-sequence kernels: exactly one representative
per isomorphism class, in a deterministic order (decreasing lexicographic on
the canonical level sequence).  Its independent reference routes, Prüfer
decoding of every labeled tree and random labeled trees, live with the tests.
"""

from __future__ import annotations

from typing import Iterator

from . import _kernels
from .errors import OrderRangeError, SizeLimitError

DEFAULT_ORDER_CAP = 20


def enumerate_family(n: int, alpha: int | None = None) -> Iterator[tuple[int, ...]]:
    """The canonical level sequences of the order-n stream with independence
    number alpha (all of them when alpha is None).

    The kernel decides alpha from the level sequence, and no Tree is built;
    ``tree.format_levels_edge_lists`` prints the stream as edge lists,
    redoing per sequence only the suffix that changed since the last.
    Infeasible alphas simply produce an empty stream.
    """
    if n < 1:
        raise OrderRangeError(f"order must be >= 1, got {n}")
    if n > DEFAULT_ORDER_CAP:
        raise SizeLimitError(
            f"order {n} exceeds the enumeration cap {DEFAULT_ORDER_CAP}"
        )
    for levels in _kernels.iter_level_sequences(n):
        if alpha is None or _kernels.tree_stats_from_levels(levels)[1] == alpha:
            yield levels
