"""Shared helpers: the compiled-backend fixture and backend binding, the
path, the star and relabeling, built through ``Tree.from_edges``, cached
enumeration sweeps, and the independent references the package leaves to the
tests: the rooted stream and its free-check filter, the path and distance
queries, Prüfer decoding, the isomorphism-class interner with automorphism
counts, the paper's two invariants of a labeled tree and the subset-sweep
independence oracle, and the paper's test-only trees, sets and
inequalities."""

import heapq
import importlib.util
import itertools
import math
import random
import sys
from collections import Counter
from functools import lru_cache
from pathlib import Path

import pytest

from sombor_trees import _kernels
from sombor_trees.enumeration import enumerate_family
from sombor_trees.errors import InfeasibleParamsError, SizeLimitError
from sombor_trees.extremal import _star_with_pendants, check_feasible
from sombor_trees.tree import (
    Tree,
    _free_check,
    _walk,
    canonical_levels,
    parse_edge_list,
)

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
    looks them up, and ``compute`` the stats; monkeypatch restores them.  The
    pure backend's fused ``order_fold`` and ``enumerate_family`` run the pure
    walk and ignore them; the compiled backend folds through ``_stream_fold``
    until ROADMAP D6."""
    monkeypatch.setattr(_kernels, "iter_level_sequences", mod.iter_level_sequences)
    monkeypatch.setattr(_kernels, "tree_stats_from_levels", mod.tree_stats_from_levels)


def iter_rooted_level_sequences(n):
    """All canonical rooted trees on n vertices, decreasing lexicographic:
    the chop-and-replicate successor run from the path rooted at an end.  It
    scans back for the parent q of the last entry p above level 1, so it
    shares no code with the walk, which carries its parents."""
    L = list(range(n))
    while True:
        yield tuple(L)
        p = n - 1
        while p > 0 and L[p] == 1:
            p -= 1
        if p <= 0:
            return
        q = p - 1
        while L[q] != L[p] - 1:
            q -= 1
        for i in range(p, n):
            L[i] = L[i - (p - q)]


@lru_cache(maxsize=None)
def filtered_rooted_stream(n):
    """The free-tree stream's reference: every canonical rooted sequence of
    order n that the free check accepts, in rooted-stream order.  Both
    generators and the compiled filter mode must yield exactly this."""
    return [L for L in iter_rooted_level_sequences(n) if _free_check(L)[0]]


def path_of_order(n):
    """The path 0 - 1 - ... - (n - 1)."""
    return Tree.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def star_of_order(n):
    """The star with hub 0."""
    return Tree.from_edges(n, [(0, i) for i in range(1, n)])


def relabel(t, perm):
    """t with vertex v renamed to perm[v], judged by ``Tree.from_edges``: at
    order >= 2, a perm that is not a permutation of 0..order-1 maps some edge
    to a loop, a duplicate or an out-of-range vertex, or leaves a vertex
    isolated."""
    return Tree.from_edges(t.order, [(perm[u], perm[v]) for u, v in t.edges()])


@lru_cache(maxsize=None)
def trees_of_order(n):
    """Materialized enumeration stream, each record read back through
    ``parse_edge_list``, cached across tests."""
    return tuple(map(parse_edge_list, enumerate_family(n)))


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
            trees += (t, relabel(t, perm))
    for n in range(11, 41):
        trees.extend(random_tree(n, rng) for _ in range(30))
    return tuple(trees)


def decode_prufer_adjacency(seq, n):
    """Prüfer decode straight to an adjacency list (no validation overhead);
    the one heap decoder, behind ``prufer_to_tree`` and ``random_tree`` too."""
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
    u, v = leaves
    adj[u].append(v)
    adj[v].append(u)
    return adj


def prufer_to_tree(seq, order):
    """Decode a Prüfer sequence over 0..order-1 into the labeled tree."""
    if order < 2:
        raise ValueError("Prüfer decoding needs order >= 2")
    if len(seq) != order - 2 or not all(0 <= s < order for s in seq):
        raise ValueError(f"not a Prüfer sequence over 0..{order - 1}: {seq}")
    adj = decode_prufer_adjacency(seq, order)
    return Tree._of(adj)


def random_tree(order, rng):
    """Uniform over labeled trees (random Prüfer sequence)."""
    if order == 1:
        return Tree.from_edges(1, [])
    return prufer_to_tree([rng.randrange(order) for _ in range(order - 2)], order)


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
    """Maps trees to small integers, equal exactly for isomorphic trees, and
    counts automorphisms.

    Independent of the production identity, ``tree.canonical_levels``:
    integer-interned AHU codes over raw adjacency lists, rooted at the 1- or
    2-vertex center.  Each rooted code keeps its automorphism count, worked
    out once when the code is first interned: the children's counts times
    k! for every k equal children.
    """

    def __init__(self):
        self._codes = {}
        self._auts = []

    def rooted(self, adj, root, skip=-1):
        """(code, automorphism count) of adj rooted at root; skip removes one
        neighbor of root, to split a bicentral tree at its central edge."""
        n = len(adj)
        parent = [-1] * n
        seen = bytearray(n)
        seen[root] = 1
        if skip >= 0:
            seen[skip] = 1
        order = [root]
        for v in order:  # breadth first: parents before their children
            for u in adj[v]:
                if not seen[u]:
                    seen[u] = 1
                    parent[u] = v
                    order.append(u)
        kids = [[] for _ in range(n)]
        codes, auts = self._codes, self._auts
        for v in reversed(order):
            key = tuple(sorted(kids[v]))
            code = codes.get(key)
            if code is None:
                code = codes[key] = len(auts)
                aut = 1
                for child, k in Counter(key).items():
                    aut *= auts[child] ** k * math.factorial(k)
                auts.append(aut)
            if v == root:
                return code, auts[code]
            kids[parent[v]].append(code)
        raise AssertionError

    def class_id(self, adj):
        return min(self.rooted(adj, c)[0] for c in _centers_of_adjacency(adj))

    def class_id_of_tree(self, t: Tree):
        return self.class_id([list(nbrs) for nbrs in t.adjacency])


def prufer_iso_classes(n):
    """Set of interner class ids over all labeled trees of order n >= 2, plus
    the interner."""
    interner = IsoClassInterner()
    seqs = itertools.product(range(n), repeat=n - 2)
    return {interner.class_id(decode_prufer_adjacency(s, n)) for s in seqs}, interner


def tree_automorphism_count(t: Tree) -> int:
    """|Aut(T)| for a free tree: rooted count at the unique center, or the
    split-edge product (doubled when the halves match) for two centers."""
    adj = [list(nbrs) for nbrs in t.adjacency]
    interner = IsoClassInterner()
    centers = _centers_of_adjacency(adj)
    if len(centers) == 1:
        return interner.rooted(adj, centers[0])[1]
    c1, c2 = centers
    code1, a1 = interner.rooted(adj, c1, skip=c2)
    code2, a2 = interner.rooted(adj, c2, skip=c1)
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


def sombor_index(t: Tree) -> float:
    """The paper's edge formula, summed directly: over edges uv,
    sqrt(deg(u)^2 + deg(v)^2).  The per-tree reference for the kernel's SO."""
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
    """Size of a maximum independent set, by the bound kernel's stats on the
    tree's canonical level sequence."""
    return _kernels.tree_stats_from_levels(canonical_levels(t))[1]


INDEPENDENCE_ORACLE_MAX = 24


def independence_number_oracle(t: Tree) -> int:
    """Ground truth: examine every vertex subset for internal edges.

    Exponential; refuses orders beyond INDEPENDENCE_ORACLE_MAX.
    """
    n = t.order
    if n > INDEPENDENCE_ORACLE_MAX:
        raise SizeLimitError(
            f"subset oracle limited to order <= {INDEPENDENCE_ORACLE_MAX}, got {n}"
        )
    nbr_mask = [sum(1 << u for u in t.adjacency[v]) for v in range(n)]
    independent = bytearray(1 << n)
    independent[0] = 1
    best = 0
    for mask in range(1, 1 << n):
        v = (mask & -mask).bit_length() - 1
        rest = mask ^ (1 << v)
        if independent[rest] and not (nbr_mask[v] & rest):
            independent[mask] = 1
            best = max(best, mask.bit_count())
    return best


def pendant_inclusive_mis(t: Tree) -> frozenset[int]:
    """A maximum independent set that contains every pendant vertex, or {0}
    on the single edge, whose two pendants are adjacent.

    One pass, deepest vertices first, from a root of degree >= 2 (vertex 1 on
    the single edge): a vertex joins when none of its deeper neighbors has.
    Every leaf joins, and on a tree this greedy choice is optimal.
    """
    if t.order < 2:
        raise ValueError("defined for trees with at least 2 vertices")
    root = next((v for v in range(t.order) if t.degrees[v] >= 2), 1)
    depth = distances_from(t, root)
    members: set[int] = set()
    for v in sorted(range(t.order), key=depth.__getitem__, reverse=True):
        if members.isdisjoint(t.adjacency[v]):  # its parent comes later
            members.add(v)
    return frozenset(members)


def _pendant_distributions(total: int, parts: int, cap=math.inf):
    """Non-increasing compositions of total into exactly `parts` parts >= 1,
    none above cap."""
    if parts == 1:
        if 1 <= total <= cap:
            yield (total,)
        return
    for first in range(min(cap, total - parts + 1), 0, -1):
        for rest in _pendant_distributions(total - first, parts - 1, first):
            yield (first,) + rest


def t1_members(order: int, alpha: int):
    """All trees built from the star on order-alpha vertices by hanging at
    least one pendant on every core vertex, alpha pendants in total.  One
    representative per isomorphism class, built as ``construct_t_star``
    builds the maximizer."""
    check_feasible(order, alpha)
    s = order - alpha
    if s < 2:
        raise InfeasibleParamsError(f"the T1 family needs order - alpha >= 2, got {s}")
    for hub_count in range(1, alpha - (s - 1) + 1):
        for leaf_counts in _pendant_distributions(alpha - hub_count, s - 1):
            if s == 2 and hub_count > leaf_counts[0]:
                continue  # a two-vertex core with its ends swapped: seen already
            yield _star_with_pendants(s, hub_count, leaf_counts)


def t2_members(order: int, alpha: int):
    """All trees built from the star on order-alpha+1 vertices by hanging
    pendants on every non-hub core vertex only, alpha-1 pendants in total.
    Empty when 2*alpha < order + 1; undefined at alpha = n/2."""
    check_feasible(order, alpha)
    if 2 * alpha == order:
        raise InfeasibleParamsError("the T2 family is not defined at alpha = n/2")
    for leaf_counts in _pendant_distributions(alpha - 1, order - alpha):
        yield _star_with_pendants(order - alpha + 1, 0, leaf_counts)


def lemma1_f(x: float, c: int, d: int) -> float:
    """sqrt((x+c)^2 + d^2) - sqrt(x^2 + d^2); strictly increasing in x >= 1."""
    if c < 1 or d < 1:
        raise ValueError("c and d must be positive integers")
    return math.sqrt((x + c) ** 2 + d * d) - math.sqrt(x * x + d * d)


def lemma2_g(x: float, c: int, d: int) -> float:
    """sqrt(c^2 + x^2) - sqrt(d^2 + x^2) with c > d; strictly decreasing in x >= 1."""
    if c < 1 or d < 1:
        raise ValueError("c and d must be positive integers")
    if c <= d:
        raise ValueError(f"requires c > d, got c={c}, d={d}")
    return math.sqrt(c * c + x * x) - math.sqrt(d * d + x * x)


def star_shift_inequality(n_minus_alpha: int, k: int) -> bool:
    """(s+k)^2 + 1 >= s^2 + (k+1)^2 for s = n-alpha >= 2, k >= 1 (exact)."""
    s = n_minus_alpha
    return (s + k) ** 2 + 1 >= s * s + (k + 1) ** 2


def theorem_shift_inequality(l: int, k: int) -> bool:
    """(l+k)^2 + 4 >= (l+1)^2 + (k+1)^2 for l, k >= 1 (exact)."""
    return (l + k) ** 2 + 4 >= (l + 1) ** 2 + (k + 1) ** 2


def pendant_vertices(t: Tree) -> set[int]:
    """All degree-1 vertices; empty for the order-1 tree."""
    return {v for v in range(t.order) if t.degrees[v] == 1}


def tree_path(t: Tree, u: int, v: int) -> list[int]:
    """Vertex sequence of the unique u-v path (inclusive)."""
    t._check_vertex(u)
    t._check_vertex(v)
    parent = _walk(t.adjacency, v)[1]
    path = [u]
    while u != v:
        u = parent[u]
        path.append(u)
    return path


def distances_from(t: Tree, u: int) -> list[int]:
    """Edge count of the path from u to each vertex, indexed by vertex."""
    t._check_vertex(u)
    return _walk(t.adjacency, u)[2]


def distance(t: Tree, u: int, v: int) -> int:
    """Edge count of the unique u-v path."""
    dist = distances_from(t, u)
    t._check_vertex(v)
    return dist[v]
