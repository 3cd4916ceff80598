"""Shared helpers: the compiled-backend fixture and backend binding, cached
enumeration sweeps, the free-tree stream's reference (the rooted stream
filtered by the free check), the labeled-tree reference oracle (Prüfer
decoding + isomorphism-class interning), and tree automorphism counts for the
exact Cayley cross-check."""

import heapq
import importlib.util
import itertools
import math
import random
import sys
from functools import lru_cache
from pathlib import Path

import pytest

from sombor_trees import _kernels
from sombor_trees._kernels import pure
from sombor_trees.enumeration import enumerate_free_trees, random_tree
from sombor_trees.tree import Tree

ROOT = Path(__file__).resolve().parent.parent


def perfbench_build():
    """Import perfbench/build.py without writing bytecode next to it."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_build", ROOT / "perfbench" / "build.py"
    )
    build = importlib.util.module_from_spec(spec)
    with pytest.MonkeyPatch.context() as mp:
        mp.setitem(sys.modules, spec.name, build)  # dataclasses look it up
        mp.setattr(sys, "dont_write_bytecode", True)
        spec.loader.exec_module(build)
    return build


@pytest.fixture(scope="session")
def compiled(tmp_path_factory):
    """The compiled backend module.  Without an installed extension, the
    committed ``_speedups.c`` is compiled into a temporary directory and
    loaded from there."""
    try:
        from sombor_trees._kernels import _speedups

        return _speedups
    except ImportError:
        pass
    build = perfbench_build()
    out = tmp_path_factory.mktemp("speedups")
    _, error = build._compile(build.KERNELS / "_speedups.c", out)
    if error is not None:
        pytest.skip(f"compiled backend could not be built: {error}")
    (path,) = out.glob("_speedups*")
    spec = importlib.util.spec_from_file_location(
        "sombor_trees._kernels._speedups", path
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def bind_backend(monkeypatch, mod):
    """Bind mod's generator and stats in ``_kernels``, where ``_stream_fold``
    and ``enumerate_family`` look them up; monkeypatch restores them.  The pure
    backend's fused ``order_fold`` walks on its own and ignores them; the
    compiled backend folds through ``_stream_fold`` until ROADMAP D6."""
    monkeypatch.setattr(_kernels, "iter_level_sequences", mod.iter_level_sequences)
    monkeypatch.setattr(_kernels, "tree_stats_from_levels", mod.tree_stats_from_levels)


@lru_cache(maxsize=None)
def filtered_rooted_stream(n):
    """The free-tree stream's reference: every canonical rooted sequence of
    order n that the free check accepts, in rooted-stream order.  Both
    generators and the compiled filter mode must yield exactly this."""
    return [L for L in pure.iter_rooted_level_sequences(n) if pure._free_check(L)[0]]


@lru_cache(maxsize=None)
def trees_of_order(n):
    """Materialized enumeration stream, cached across tests."""
    return tuple(enumerate_free_trees(n))


@lru_cache(maxsize=None)
def query_sweep():
    """Every tree with n <= 10 plus one random relabeling of each, then 30
    random labeled trees per order 11..40: the sweep for the path, distance
    and center queries."""
    rng = random.Random(20261018)
    trees = []
    for n in range(1, 11):
        for t in trees_of_order(n):
            perm = list(range(n))
            rng.shuffle(perm)
            trees += (t, t.relabel(perm))
    for n in range(11, 41):
        trees.extend(random_tree(n, rng) for _ in range(30))
    return tuple(trees)


def decode_prufer_adjacency(seq, n):
    """Prüfer decode straight to an adjacency list (no validation overhead)."""
    deg = [1] * n
    for s in seq:
        deg[s] += 1
    adj = [[] for _ in range(n)]
    leaves = [v for v in range(n) if deg[v] == 1]
    heapq.heapify(leaves)
    for s in seq:
        leaf = heapq.heappop(leaves)
        adj[leaf].append(s)
        adj[s].append(leaf)
        deg[s] -= 1
        if deg[s] == 1:
            heapq.heappush(leaves, s)
    u = heapq.heappop(leaves)
    v = heapq.heappop(leaves)
    adj[u].append(v)
    adj[v].append(u)
    return adj


def _centers_of_adjacency(adj):
    n = len(adj)
    if n <= 2:
        return list(range(n))
    deg = [len(a) for a in adj]
    layer = [v for v in range(n) if deg[v] == 1]
    alive = n
    while alive > 2:
        alive -= len(layer)
        nxt = []
        for v in layer:
            for u in adj[v]:
                deg[u] -= 1
                if deg[u] == 1:
                    nxt.append(u)
            deg[v] = 0
        layer = nxt
    return layer


class IsoClassInterner:
    """Maps trees to small integers, equal exactly for isomorphic trees.

    Independent of the production identity, ``tree.canonical_levels``:
    integer-interned AHU codes over raw adjacency lists, rooted at the 1- or
    2-vertex center.
    """

    def __init__(self):
        self._codes = {}

    def _rooted(self, adj, root):
        n = len(adj)
        parent = [-1] * n
        seen = bytearray(n)
        seen[root] = 1
        order = [root]
        stack = [root]
        while stack:
            v = stack.pop()
            for u in adj[v]:
                if not seen[u]:
                    seen[u] = 1
                    parent[u] = v
                    order.append(u)
                    stack.append(u)
        kids = [[] for _ in range(n)]
        codes = self._codes
        for v in reversed(order):
            key = tuple(sorted(kids[v]))
            code = codes.setdefault(key, len(codes))
            if v == root:
                return code
            kids[parent[v]].append(code)
        raise AssertionError

    def class_id(self, adj):
        return min(self._rooted(adj, c) for c in _centers_of_adjacency(adj))

    def class_id_of_tree(self, t: Tree):
        return self.class_id([list(nbrs) for nbrs in t.adjacency])


def prufer_iso_classes(n, interner=None):
    """Set of interner class ids over all labeled trees, plus the interner."""
    if interner is None:
        interner = IsoClassInterner()
    ids = set()
    if n == 1:
        ids.add(interner.class_id([[]]))
    elif n == 2:
        ids.add(interner.class_id([[1], [0]]))
    else:
        for seq in itertools.product(range(n), repeat=n - 2):
            ids.add(interner.class_id(decode_prufer_adjacency(seq, n)))
    return ids, interner


def _rooted_code_and_aut(adj, root, skip=-1):
    """Interned-free rooted AHU code plus rooted automorphism count.

    skip removes one neighbor of root (used to split a bicentral tree at its
    central edge).
    """
    n = len(adj)
    parent = [-1] * n
    seen = bytearray(n)
    seen[root] = 1
    if skip >= 0:
        seen[skip] = 1
    order = [root]
    stack = [root]
    while stack:
        v = stack.pop()
        for u in adj[v]:
            if not seen[u]:
                seen[u] = 1
                parent[u] = v
                order.append(u)
                stack.append(u)
    kids = [[] for _ in range(n)]
    auts = [1] * n
    for v in reversed(order):
        children = sorted(kids[v])
        aut = auts[v]
        run = 1
        for i in range(1, len(children)):
            if children[i] == children[i - 1]:
                run += 1
            else:
                aut *= math.factorial(run)
                run = 1
        if children:
            aut *= math.factorial(run)
        code = "(" + "".join(children) + ")"
        if v == root:
            return code, aut
        kids[parent[v]].append(code)
        auts[parent[v]] *= aut
    raise AssertionError


def tree_automorphism_count(t: Tree) -> int:
    """|Aut(T)| for a free tree: rooted count at the unique center, or the
    split-edge product (doubled when the halves match) for two centers."""
    adj = [list(nbrs) for nbrs in t.adjacency]
    centers = _centers_of_adjacency(adj)
    if len(centers) == 1:
        return _rooted_code_and_aut(adj, centers[0])[1]
    c1, c2 = centers
    code1, a1 = _rooted_code_and_aut(adj, c1, skip=c2)
    code2, a2 = _rooted_code_and_aut(adj, c2, skip=c1)
    return a1 * a2 * (2 if code1 == code2 else 1)


def labeled_tree_total(trees):
    """Sum of n!/|Aut(T)| over the given order-n trees (orbit sizes under
    relabeling); equals Cayley's n^(n-2) exactly when the collection holds
    one representative of every isomorphism class."""
    total = 0
    for t in trees:
        total += math.factorial(t.order) // tree_automorphism_count(t)
    return total


def grow_by_leaf(trees):
    """Every order n+1 tree arises from an order-n tree plus one leaf; dedupe
    by ``canonical_levels``, the returned dict's keys.  Structural-induction
    cross-check."""
    from sombor_trees.tree import canonical_levels

    seen = {}
    for t in trees:
        n = t.order
        for v in range(n):
            edges = list(t.edges()) + [(v, n)]
            grown = Tree.from_edges(n + 1, edges)
            levels = canonical_levels(grown)
            if levels not in seen:
                seen[levels] = grown
    return seen
