"""Streaming enumeration of non-isomorphic trees, plus labeled-tree utilities.

The stream comes from the level-sequence kernels: exactly one representative
per isomorphism class, in a deterministic order (decreasing lexicographic on
the canonical level sequence).  The Prüfer helpers exist as the independent
reference route: decoding every sequence and deduplicating by
``tree.canonical_levels`` must reproduce the stream's sequences, and uniform
random Prüfer sequences drive the property tests.
"""

from __future__ import annotations

import heapq
import random
from typing import Iterator, Sequence

from . import _kernels
from .errors import OrderRangeError, SizeLimitError
from .tree import Tree

DEFAULT_ORDER_CAP = 20


def enumerate_free_trees(n: int) -> Iterator[Tree]:
    """Yield one tree per isomorphism class of order n, deterministically."""
    return map(Tree.from_level_sequence, enumerate_family(n))


def enumerate_family(n: int, alpha: int | None = None) -> Iterator[tuple[int, ...]]:
    """The canonical level sequences of the order-n stream with independence
    number alpha (all of them when alpha is None).

    The kernel decides alpha from the level sequence, and no Tree is built;
    ``tree.format_levels_edge_list`` prints a sequence as an edge list.
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


def prufer_to_tree(seq: Sequence[int], order: int) -> Tree:
    """Decode a Prüfer sequence over 0..order-1 into the labeled tree."""
    if order < 2:
        raise ValueError("Prüfer decoding needs order >= 2")
    if len(seq) != order - 2:
        raise ValueError(f"sequence length must be {order - 2}, got {len(seq)}")
    deg = [1] * order
    for s in seq:
        if not 0 <= s < order:
            raise ValueError(f"label {s} out of range")
        deg[s] += 1
    leaves = [v for v in range(order) if deg[v] == 1]
    heapq.heapify(leaves)
    edges = []
    for s in seq:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, s))
        deg[s] -= 1
        if deg[s] == 1:
            heapq.heappush(leaves, s)
    edges.append((heapq.heappop(leaves), heapq.heappop(leaves)))
    return Tree.from_edges(order, edges)


def random_tree(order: int, rng: random.Random) -> Tree:
    """Uniform over labeled trees (random Prüfer sequence)."""
    if order == 1:
        return Tree.from_edges(1, [])
    seq = [rng.randrange(order) for _ in range(order - 2)]
    return prufer_to_tree(seq, order)
