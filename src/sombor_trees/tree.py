"""Immutable trees on integer vertices: structural queries, edge-list I/O,
and the canonical level sequence that names a tree's isomorphism class.

Vertices are always 0..order-1.  ``Tree.from_edges`` is the one judge of
tree-ness; the edge-list parser and the rewirings in ``transforms`` take its
verdict.  ``canonical_levels`` gives the sequence the free-tree stream yields
for the tree's class, so two trees get the same sequence exactly when they
are isomorphic, and it doubles as a dedup key.
"""

from __future__ import annotations

import functools
from typing import Iterable, Iterator, Sequence

from .errors import EdgeListParseError, TreeStructureError


def _level_parents(levels: Sequence[int]) -> list[int]:
    """Parent of each vertex of a preorder depth sequence starting at level 0;
    the root's entry is -1.  Every parent precedes its children.
    ``format_levels_edge_lists`` makes the same checks, with the same
    messages, in its own pass."""
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


def _walk(
    adjacency: Sequence[Sequence[int]], root: int
) -> tuple[list[int], list[int], list[int]]:
    """The one traversal: a preorder DFS from root (last neighbor first, marked
    when pushed) giving (order, parent, depth).  order holds the vertices
    reached; parent (-1 at the root) and depth are by vertex, -1 if unreached."""
    parent = [-1] * len(adjacency)
    depth = [-1] * len(adjacency)
    depth[root] = 0
    order = []
    stack = [root]
    while stack:
        v = stack.pop()
        order.append(v)
        d = depth[v] + 1
        for u in adjacency[v]:
            if depth[u] < 0:
                depth[u] = d
                parent[u] = v
                stack.append(u)
    return order, parent, depth


class Tree:
    """Undirected tree stored as a tuple of sorted neighbor tuples.

    Instances are value objects: equality and hashing follow the labeled
    adjacency, and nothing mutates after construction.  T*'s builder and the
    rewirings go through the checked ``from_edges``; ``from_level_sequence``
    builds trees by construction and skips it.
    """

    __slots__ = ("order", "adjacency", "degrees")

    def __init__(self, order: int, adjacency: tuple[tuple[int, ...], ...]):
        self.order = order
        self.adjacency = adjacency
        self.degrees = tuple(len(nbrs) for nbrs in adjacency)

    @classmethod
    def from_edges(cls, order: int, edges: Iterable[tuple[int, int]]) -> "Tree":
        """The one judge of tree-ness: exactly order-1 distinct, loop-free
        edges on 0..order-1 forming a connected graph.  A range, self-loop or
        duplicate error records the edge's 0-based position as ``.edge``."""
        if order < 1:
            raise TreeStructureError(f"order must be positive, got {order}")
        adj: list[list[int]] = [[] for _ in range(order)]
        seen: set[tuple[int, int]] = set()
        for i, (u, v) in enumerate(edges):
            if not (0 <= u < order and 0 <= v < order):
                raise TreeStructureError(
                    f"edge ({u}, {v}) out of range for order {order}", i
                )
            if u == v:
                raise TreeStructureError(f"self-loop at vertex {u}", i)
            key = (u, v) if u < v else (v, u)
            if key in seen:
                raise TreeStructureError(f"duplicate edge {u} {v}", i)
            seen.add(key)
            adj[u].append(v)
            adj[v].append(u)
        if len(seen) != order - 1:
            raise TreeStructureError(
                f"a tree on {order} vertices needs {order - 1} edges, got {len(seen)}"
            )
        # connected + n-1 edges => acyclic
        if len(_walk(adj, 0)[0]) != order:
            raise TreeStructureError("edge list is disconnected")
        return cls(order, tuple(tuple(sorted(nbrs)) for nbrs in adj))

    @classmethod
    def from_level_sequence(cls, levels: Sequence[int]) -> "Tree":
        """Build from a preorder depth sequence starting at level 0."""
        parents = _level_parents(levels)
        n = len(parents)
        adj: list[list[int]] = [[] for _ in range(n)]
        for i in range(1, n):
            p = parents[i]
            adj[p].append(i)
            adj[i].append(p)
        return cls(n, tuple(tuple(sorted(nbrs)) for nbrs in adj))

    def edges(self) -> Iterator[tuple[int, int]]:
        """Yield each edge once as (u, v) with u < v, in sorted order."""
        for u in range(self.order):
            for v in self.adjacency[u]:
                if v > u:
                    yield (u, v)

    def _check_vertex(self, v: int) -> None:
        if not 0 <= v < self.order:
            raise ValueError(f"vertex {v} out of range for order {self.order}")

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Tree)
            and self.order == other.order
            and self.adjacency == other.adjacency
        )

    def __hash__(self) -> int:
        return hash((self.order, self.adjacency))

    def __repr__(self) -> str:
        return f"Tree(order={self.order}, edges={list(self.edges())})"


def core_split(t: Tree) -> dict[int, tuple[tuple[int, ...], tuple[int, ...]]]:
    """{w: (pendants, core neighbors)} for every core vertex w, the vertices of
    degree >= 2; both tuples in increasing order.  The core is the subtree
    left by stripping the pendants; it is empty at order <= 2."""
    deg = t.degrees
    return {
        w: (
            tuple(z for z in t.adjacency[w] if deg[z] == 1),
            tuple(z for z in t.adjacency[w] if deg[z] >= 2),
        )
        for w in range(t.order)
        if deg[w] >= 2
    }


def tree_centers(t: Tree) -> list[int]:
    """The 1 or 2 middle vertices of a longest path.  Double sweep: a vertex
    farthest from 0 ends a longest path; the vertex farthest from it, the other."""
    depth = _walk(t.adjacency, 0)[2]
    _, parent, depth = _walk(t.adjacency, depth.index(max(depth)))
    d = max(depth)
    mid = depth.index(d)
    for _ in range(d // 2):
        mid = parent[mid]
    return [mid] if d % 2 == 0 else sorted((mid, parent[mid]))


def canonical_levels(t: Tree) -> tuple[int, ...]:
    """The canonical level sequence of t's class, the one the free-tree stream
    yields.  Bottom up, each vertex's list is its depth followed by its
    children's lists in decreasing order; siblings share a depth, so they
    compare unshifted.  The walk roots t at its first center.  A second center
    heads the tallest root subtree, which comes first, ``seq[1:m]``; when
    ``_free_check`` rejects this rooting, the stream roots t at that second
    center, so the sequence is rotated across the central edge."""
    root = tree_centers(t)[0]
    order, parent, depth = _walk(t.adjacency, root)
    kids: list[list[list[int]] | None] = [[] for _ in order]
    for v in reversed(order):  # children before parents
        seq = [depth[v]]
        if kids[v]:
            kids[v].sort(reverse=True)
            for s in kids[v]:
                seq += s
            kids[v] = None  # drop the joined lists, or a long path keeps O(n^2)
        if v != root:
            kids[parent[v]].append(seq)
    valid, m = _free_check(seq)
    if not valid:
        seq = [0, 1] + [x + 1 for x in seq[m:]] + [x - 1 for x in seq[2:m]]
    return tuple(seq)


def parse_edge_list(text: str) -> Tree:
    """Parse the plain edge-list format: first line n, then n-1 lines "u v".

    It checks only the text, before any O(n) work; ``Tree.from_edges`` judges
    the edges, and its range, self-loop and duplicate errors come back as
    EdgeListParseError at the edge's 1-based line.
    """
    lines = text.split("\n")
    if not lines[0].strip():
        raise EdgeListParseError("line 1: expected the vertex count", line=1)
    try:
        n = int(lines[0].strip())
    except ValueError:
        raise EdgeListParseError(
            f"line 1: vertex count must be an integer, got {lines[0]!r}", line=1
        ) from None
    if n < 1:
        raise EdgeListParseError(f"line 1: vertex count must be positive, got {n}", line=1)
    edges: list[tuple[int, int]] = []
    for k in range(n - 1):
        lineno = k + 2
        if k + 1 >= len(lines):
            raise EdgeListParseError(
                f"line {lineno}: missing edge line ({n - 1} required)", line=lineno
            )
        parts = lines[k + 1].split()
        if len(parts) != 2:
            raise EdgeListParseError(
                f"line {lineno}: expected 'u v', got {lines[k + 1]!r}", line=lineno
            )
        try:
            edges.append((int(parts[0]), int(parts[1])))
        except ValueError:
            raise EdgeListParseError(
                f"line {lineno}: vertex ids must be integers, got {lines[k + 1]!r}",
                line=lineno,
            ) from None
    for extra in range(n, len(lines)):
        if lines[extra].strip():
            raise EdgeListParseError(
                f"line {extra + 1}: unexpected content after {n - 1} edges",
                line=extra + 1,
            )
    try:
        return Tree.from_edges(n, edges)
    except TreeStructureError as exc:
        if exc.edge is None:
            raise
        line = exc.edge + 2
        raise EdgeListParseError(f"line {line}: {exc}", line=line) from None


@functools.lru_cache(maxsize=1)
def _numerals(n: int) -> tuple[list[str], list[str]]:
    r"""The two edge-list formatters' numeral tables: "i " and "i\n", i = 0..n.
    Only the latest order's tables are kept; a run prints one order."""
    return [f"{i} " for i in range(n + 1)], [f"{i}\n" for i in range(n + 1)]


def format_edge_list(t: Tree) -> str:
    """Render the edge-list format, edges sorted, LF-terminated, joined from
    the numeral tables."""
    sp, nl = _numerals(t.order)
    return nl[t.order] + "".join([sp[u] + nl[v] for u, v in t.edges()])


def format_levels_edge_lists(seqs: Iterable[Sequence[int]]) -> Iterator[str]:
    """``format_edge_list(Tree.from_level_sequence(L))`` for each L of seqs,
    in order, without the Trees.

    Each edge line "p i" is filed under its parent p, in a bucket per parent.
    ``Tree.edges()`` lists the edges by their smaller end, then the larger;
    every parent precedes its children, so that is by parent, and vertices are
    met in increasing order, so each bucket already holds its children in
    increasing order.  Joining the buckets in parent order gives those bytes
    with no sort.

    Consecutive sequences of the free-tree stream differ only in a short
    suffix, so the buckets carry over from one sequence to the next: with lo
    the first index where L differs from the previous sequence, each vertex
    i >= lo takes its line back out (``cut[i]`` is its bucket's length just
    before the line went in), and vertices lo..n-1 are filed again.  A vertex
    finds its parent by climbing from i - 1, checked as ``_level_parents``
    checks, with the same messages.  A change of order starts afresh.  Each
    bucket is a string grown by concatenation, so a vertex of degree d costs
    O(d^2) character copies, negligible at the stream's orders.

    Each L is copied to a tuple first, so a list the caller rewrites in place
    cannot alias the previous sequence.  After a ValueError the generator is
    finished, so no partial state is reused.
    """
    prev: tuple[int, ...] = ()
    for levels in seqs:
        levels = tuple(levels)
        n = len(levels)
        if n < 1:
            raise ValueError("empty level sequence")
        if levels[0] != 0:
            raise ValueError("level sequence must start with 0")
        if n != len(prev):
            sp, nl = _numerals(n)
            lines = [nl[n]] + [""] * n  # lines[p + 1] is p's bucket
            parent = [0] * n
            cut = [0] * n
            lo = 1
        else:
            # lo is the first index where levels and prev differ; the probe
            # stops at a k with equal prefixes, k <= lo, and the scan goes on
            k = n - 2
            while k > 1 and levels[:k] != prev[:k]:
                k -= 3
            k = max(k, 1)
            while k < n and levels[k] == prev[k]:
                k += 1
            lo = k
            i = n - 1
            while i >= lo:  # not range: the suffix averages 2 to 3 vertices
                q = parent[i] + 1
                lines[q] = lines[q][: cut[i]]
                i -= 1
        last = levels[lo - 1]
        i = lo
        while i < n:
            li = levels[i]
            if not 1 <= li <= last + 1:
                raise ValueError(f"level jump at position {i}")
            p = i - 1
            while levels[p] >= li:
                p = parent[p]
            parent[i] = p
            b = lines[p + 1]
            cut[i] = len(b)
            lines[p + 1] = b + (sp[p] + nl[i])
            last = li
            i += 1
        prev = levels
        yield "".join(lines)
