"""Tree construction, structural queries, canonical levels, edge-list I/O."""

import itertools
import random
import tracemalloc

import pytest

from sombor_trees._kernels import pure
from sombor_trees.enumeration import enumerate_family
from sombor_trees.errors import EdgeListParseError, TreeStructureError
from sombor_trees.extremal import construct_t_star, feasible_alpha_range, t_star_levels
from sombor_trees.tree import (
    Tree,
    canonical_levels,
    core_split,
    format_edge_list,
    parse_edge_list,
    tree_centers,
)

from conftest import (
    IsoClassInterner,
    distance,
    distances_from,
    path_of_order,
    pendant_vertices,
    prufer_to_tree,
    query_sweep,
    random_tree,
    relabel,
    star_of_order,
    tree_path,
    trees_of_order,
)


class TestConstruction:
    def test_path_and_star(self):
        p = path_of_order(4)
        assert list(p.edges()) == [(0, 1), (1, 2), (2, 3)]
        s = star_of_order(5)
        assert s.degrees == (4, 1, 1, 1, 1)

    def test_every_constructed_tree_has_n_minus_1_edges(self):
        for n in range(1, 11):
            for t in trees_of_order(n):
                assert sum(t.degrees) == 2 * (n - 1)
                assert len(list(t.edges())) == n - 1

    def test_adjacency_is_symmetric(self):
        for t in trees_of_order(8):
            for u in range(t.order):
                for v in t.adjacency[u]:
                    assert u in t.adjacency[v]

    def test_rejects_self_loop(self):
        with pytest.raises(TreeStructureError, match="self-loop"):
            Tree.from_edges(3, [(0, 1), (2, 2)])

    def test_rejects_duplicate_edge(self):
        with pytest.raises(TreeStructureError, match="duplicate"):
            Tree.from_edges(3, [(0, 1), (1, 0)])

    def test_rejects_cycle(self):
        with pytest.raises(TreeStructureError):
            Tree.from_edges(3, [(0, 1), (1, 2), (2, 0)])

    def test_rejects_disconnected(self):
        # right edge count, but a triangle plus an isolated vertex
        with pytest.raises(TreeStructureError, match="disconnected"):
            Tree.from_edges(4, [(0, 1), (1, 2), (2, 0)])

    def test_rejects_nonpositive_order(self):
        with pytest.raises(TreeStructureError, match="order must be positive, got 0"):
            Tree.from_edges(0, [])

    def test_rejects_out_of_range_edge(self):
        with pytest.raises(TreeStructureError, match=r"edge \(0, 3\) out of range"):
            Tree.from_edges(3, [(0, 1), (0, 3)])

    @pytest.mark.parametrize(
        "order, edges, edge",
        [
            (4, [(0, 1), (1, 2), (2, 9)], 2),
            (4, [(0, 1), (3, 3), (1, 2)], 1),
            (4, [(0, 1), (1, 2), (2, 1)], 2),
            (0, [], None),
            (4, [(0, 1), (1, 2)], None),
            (3, [(0, 1), (1, 2), (2, 0)], None),
            (4, [(0, 1), (1, 2), (2, 0)], None),
        ],
        ids=["range", "loop", "duplicate", "order", "count", "cycle", "disconnected"],
    )
    def test_error_records_the_bad_edge(self, order, edges, edge):
        with pytest.raises(TreeStructureError) as info:
            Tree.from_edges(order, edges)
        assert info.value.edge == edge

    def test_equal_trees_hash_equal(self):
        a = Tree.from_edges(4, [(0, 1), (1, 2), (2, 3)])
        b = Tree.from_edges(4, [(3, 2), (2, 1), (1, 0)])
        assert a == b and a is not b
        assert hash(a) == hash(b)
        assert len({a, b, path_of_order(4)}) == 1

    def test_rejects_wrong_edge_count(self):
        with pytest.raises(TreeStructureError, match="needs"):
            Tree.from_edges(4, [(0, 1), (1, 2)])

    def test_from_level_sequence_round_trip(self):
        t = Tree.from_level_sequence((0, 1, 2, 1))
        assert list(t.edges()) == [(0, 1), (0, 3), (1, 2)]

    def test_relabel_requires_permutation(self):
        with pytest.raises(ValueError):
            relabel(path_of_order(3), [0, 0, 1])


class TestDegreeAndPendants:
    def test_star_center_degree(self):
        assert star_of_order(5).degrees[0] == 4

    def test_single_vertex_degree(self):
        assert Tree.from_edges(1, []).degrees[0] == 0

    def test_path_interior_degree(self):
        assert path_of_order(4).degrees[1] == 2

    def test_star_pendants(self):
        assert pendant_vertices(star_of_order(6)) == {1, 2, 3, 4, 5}

    def test_two_path_pendants(self):
        assert pendant_vertices(path_of_order(2)) == {0, 1}

    def test_t_star_pendants(self):
        # hub 0, core leaf 1, arm pendant 2, hub pendants 3..5
        t = construct_t_star(6, 4)
        assert pendant_vertices(t) == {2, 3, 4, 5}

    def test_order_one_tree_has_no_pendants(self):
        assert pendant_vertices(Tree.from_edges(1, [])) == set()


class TestDistance:
    def test_identity(self):
        assert distance(path_of_order(5), 2, 2) == 0

    def test_path_ends(self):
        assert distance(path_of_order(4), 0, 3) == 3

    def test_arm_pendants_of_t_star(self):
        # arm pendants 3 and 4 of T*(7,4) sit 4 apart (through the hub)
        t = construct_t_star(7, 4)
        assert distance(t, 3, 4) == 4

    def test_symmetry(self):
        rng = random.Random(7)
        for _ in range(20):
            t = random_tree(9, rng)
            u, v = rng.randrange(9), rng.randrange(9)
            assert distance(t, u, v) == distance(t, v, u)

    def test_path_endpoints_recovered(self):
        t = path_of_order(6)
        assert tree_path(t, 1, 4) == [1, 2, 3, 4]


def _bfs_distances(adj, source):
    """Edge count from source to each vertex, by a BFS over the adjacency."""
    dist = [-1] * len(adj)
    dist[source] = 0
    frontier = [source]
    while frontier:
        nxt = []
        for w in frontier:
            for z in adj[w]:
                if dist[z] < 0:
                    dist[z] = dist[w] + 1
                    nxt.append(z)
        frontier = nxt
    return dist


class TestWalkQueries:
    """The path, distance and center queries over query_sweep's trees."""

    def test_distances_from_matches_bfs(self):
        for t in query_sweep():
            for u in range(t.order):
                assert distances_from(t, u) == _bfs_distances(t.adjacency, u)

    def test_centers_are_the_minimum_eccentricity_vertices(self):
        for t in query_sweep():
            ecc = [max(_bfs_distances(t.adjacency, u)) for u in range(t.order)]
            expected = [v for v in range(t.order) if ecc[v] == min(ecc)]
            assert tree_centers(t) == expected, t

    def test_paths_are_simple_and_agree_with_distances(self):
        rng = random.Random(11)
        for t in query_sweep():
            n = t.order
            if n <= 10:
                pairs = itertools.product(range(n), repeat=2)
            else:
                pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(10)]
            for u, v in pairs:
                path = tree_path(t, u, v)
                assert (path[0], path[-1]) == (u, v)
                assert len(set(path)) == len(path)
                assert all(b in t.adjacency[a] for a, b in zip(path, path[1:]))
                assert distance(t, u, v) == len(path) - 1 == distances_from(t, u)[v]

    def test_vertex_out_of_range(self):
        t = path_of_order(4)
        for query in (lambda: distance(t, 0, -1), lambda: distances_from(t, 4),
                      lambda: tree_path(t, 4, 0)):
            with pytest.raises(ValueError, match="out of range"):
                query()


class TestStripPendants:
    """The pendant-stripped core as core_split reads it: each vertex of degree
    >= 2 with its pendants and its core neighbors."""

    def test_path4_strips_to_path2(self):
        assert core_split(path_of_order(4)) == {1: ((0,), (2,)), 2: ((3,), (1,))}

    def test_star_strips_to_center(self):
        assert core_split(star_of_order(5)) == {0: ((1, 2, 3, 4), ())}

    def test_t_star_strips_to_star(self):
        # T* numbers the hub 0, core leaves 1..s-1, their pendants s..2s-2
        # and the hub's pendants last: the core is a star on s = n - alpha
        for n in range(4, 13):
            for alpha in range((n + 1) // 2, n - 1):
                s = n - alpha
                expected = {0: (tuple(range(2 * s - 1, n)), tuple(range(1, s)))}
                expected.update({i: ((s - 1 + i,), (0,)) for i in range(1, s)})
                assert core_split(construct_t_star(n, alpha)) == expected

    def test_too_small_to_strip(self):
        assert core_split(Tree.from_edges(1, [])) == {}
        assert core_split(path_of_order(2)) == {}

    def test_split_partitions_the_neighbors(self):
        for t in query_sweep():
            split = core_split(t)
            assert sorted(split) == [w for w in range(t.order) if t.degrees[w] >= 2]
            for w, (pendants, core) in split.items():
                assert list(pendants) == sorted(pendants)
                assert list(core) == sorted(core)
                assert sorted(pendants + core) == list(t.adjacency[w])
                assert all(t.degrees[z] == 1 for z in pendants)
                assert all(z in split and w in split[z][1] for z in core)


class TestCanonicalCode:
    """Relabeling invariance of the canonical code, ``canonical_levels``."""

    def test_relabelings_of_p4_agree(self):
        base = path_of_order(4)
        codes = {
            canonical_levels(relabel(base, list(perm)))
            for perm in itertools.permutations(range(4))
        }
        assert codes == {(0, 1, 2, 1)}

    def test_p4_and_s4_differ(self):
        assert canonical_levels(path_of_order(4)) != canonical_levels(star_of_order(4))

    def test_all_labeled_trees_on_4_vertices_give_2_codes(self):
        codes = set()
        for seq in itertools.product(range(4), repeat=2):
            codes.add(canonical_levels(prufer_to_tree(seq, 4)))
        assert len(codes) == 2

    def test_labeled_dedupe_recovers_free_counts_to_8(self):
        expected = [1, 1, 1, 2, 3, 6, 11, 23]
        for n in range(1, 9):
            if n == 1:
                codes = {canonical_levels(Tree.from_edges(1, []))}
            else:
                codes = {canonical_levels(prufer_to_tree(seq, n))
                         for seq in itertools.product(range(n), repeat=n - 2)}
            assert len(codes) == expected[n - 1]
            assert codes == set(pure.iter_level_sequences(n)), n

    def test_random_relabeling_invariance(self):
        rng = random.Random(20240811)
        for _ in range(100):
            n = rng.randrange(2, 15)
            t = random_tree(n, rng)
            code = canonical_levels(t)
            for _ in range(10):
                perm = list(range(n))
                rng.shuffle(perm)
                assert canonical_levels(relabel(t, perm)) == code

    def test_centers_of_paths(self):
        assert tree_centers(path_of_order(5)) == [2]
        assert tree_centers(path_of_order(6)) == [2, 3]


def _move_a_leaf(t, rng):
    """t with one random leaf cut off and hung on another random vertex."""
    leaf = rng.choice([v for v in range(t.order) if t.degrees[v] == 1])
    w = rng.choice([v for v in range(t.order) if v != leaf])
    edges = [e for e in t.edges() if leaf not in e] + [(leaf, w)]
    return Tree.from_edges(t.order, edges)


class TestCanonicalLevels:
    """canonical_levels names a labeled tree by the free-tree stream's own
    sequence for its isomorphism class."""

    def test_relabeled_stream_trees_give_their_sequence(self):
        rng = random.Random(16)
        for n in range(1, 13):
            for levels in pure.iter_level_sequences(n):
                perm = list(range(n))
                rng.shuffle(perm)
                t = relabel(Tree.from_level_sequence(levels), perm)
                assert canonical_levels(t) == levels

    def test_equal_exactly_when_isomorphic(self):
        # IsoClassInterner is the independent route; the second tree of a
        # pair is a relabeling, a near miss (one leaf moved) or a fresh tree
        rng = random.Random(60)
        interner = IsoClassInterner()
        outcomes = set()
        for case in range(900):
            n = rng.randrange(2, 61)
            a = random_tree(n, rng)
            perm = list(range(n))
            rng.shuffle(perm)
            b = (relabel(a, perm), relabel(_move_a_leaf(a, rng), perm),
                 random_tree(n, rng))[case % 3]
            same = canonical_levels(a) == canonical_levels(b)
            assert same == (interner.class_id_of_tree(a) == interner.class_id_of_tree(b))
            outcomes.add((case % 3, same))
        assert outcomes >= {(0, True), (1, True), (1, False), (2, False)}

    def test_bicentral_trees(self):
        assert canonical_levels(path_of_order(2)) == (0, 1)
        assert canonical_levels(path_of_order(6)) == (0, 1, 2, 3, 1, 2)
        # centers 0 and 1: 0's half {0, 2, 3, 4} outweighs 1's half {1, 5, 6}
        # at equal height, so the stream roots the tree at 0; swapping the
        # labels 0 and 1 makes the first center the one to reject
        t = Tree.from_edges(7, [(0, 1), (0, 2), (2, 3), (0, 4), (1, 5), (5, 6)])
        levels = (0, 1, 2, 3, 1, 2, 1)
        assert levels in pure.iter_level_sequences(7)
        assert canonical_levels(t) == levels
        assert canonical_levels(relabel(t, [1, 0, 2, 3, 4, 5, 6])) == levels

    def test_t_star_is_its_closed_form_sequence(self):
        for n in range(2, 15):
            for alpha in feasible_alpha_range(n):
                assert canonical_levels(construct_t_star(n, alpha)) == t_star_levels(n, alpha)

    def test_long_path_stays_linear_in_memory(self):
        # a path keeps every vertex's joined lists alive unless they are
        # dropped once joined: about 130 MB here
        t = path_of_order(8000)
        tracemalloc.start()
        try:
            levels = canonical_levels(t)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert levels == tuple(range(4001)) + tuple(range(1, 4000))
        assert peak <= 4 * 2**20, peak


class TestEdgeListFormat:
    def test_round_trip(self):
        t = construct_t_star(8, 5)
        assert parse_edge_list(format_edge_list(t)) == t

    def test_star_rendering(self):
        assert format_edge_list(star_of_order(6)) == "6\n0 1\n0 2\n0 3\n0 4\n0 5\n"

    def test_order_one_rendering(self):
        assert format_edge_list(Tree.from_edges(1, [])) == "1\n"

    def test_levels_rendering_matches_tree_rendering(self):
        # every record of the generator is the edge list of its tree: whole
        # streams up to 14, and every family up to 12, filtered by the
        # standalone stats over the reference generator
        for n in range(1, 15):
            seqs = list(pure.iter_level_sequences(n))
            texts = [format_edge_list(Tree.from_level_sequence(L)) for L in seqs]
            assert list(enumerate_family(n)) == texts, n
            if n <= 12:
                alphas = [pure.tree_stats_from_levels(L)[1] for L in seqs]
                for alpha in range(n + 2):
                    assert list(enumerate_family(n, alpha)) == [
                        text for text, a in zip(texts, alphas) if a == alpha
                    ], (n, alpha)
        assert list(enumerate_family(1)) == ["1\n"]
        assert list(enumerate_family(2, 1)) == ["2\n0 1\n"]

    @pytest.mark.parametrize(
        "levels",
        [(), (1, 0), (0, 2), (1,), (0, 0), (0, -1), (0, 1, 3), (0, 1, 2, 1, 3)],
    )
    def test_bad_level_sequence_rejected(self, levels):
        # every checked decode goes through _level_parents: all must agree on
        # the message
        messages = set()
        for decode in (
            pure._level_parents,
            Tree.from_level_sequence,
            pure.tree_stats_from_levels,
        ):
            with pytest.raises(ValueError) as info:
                decode(levels)
            messages.add(str(info.value))
        assert len(messages) == 1, messages

    def test_self_loop_reports_line(self):
        with pytest.raises(EdgeListParseError, match="line 2: self-loop") as info:
            parse_edge_list("3\n1 1\n0 2\n")
        assert info.value.line == 2

    def test_bad_count_line(self):
        with pytest.raises(EdgeListParseError, match="line 1"):
            parse_edge_list("x\n0 1\n")

    def test_missing_edge_line(self):
        with pytest.raises(EdgeListParseError, match="line 3"):
            parse_edge_list("3\n0 1\n")

    def test_out_of_range_vertex(self):
        with pytest.raises(EdgeListParseError, match="line 2"):
            parse_edge_list("3\n0 7\n1 2\n")

    @pytest.mark.parametrize(
        "text, line, message",
        [
            ("", 1, "expected the vertex count"),
            ("0\n", 1, "vertex count must be positive, got 0"),
            ("-2\n", 1, "vertex count must be positive, got -2"),
            ("3\n0 1 2\n1 2\n", 2, "expected 'u v'"),
            ("3\n0 1\n1\n", 3, "expected 'u v'"),
            ("3\n0 1\n1 y\n", 3, "vertex ids must be integers"),
            ("3\n0 1\n1 0\n", 3, "duplicate edge 1 0"),
            ("3\n0 1\n1 2\n\n0 2\n", 5, "unexpected content after 2 edges"),
        ],
        ids=["empty", "zero", "negative", "three-fields", "one-field",
             "non-integer", "duplicate", "trailing"],
    )
    def test_rejections_report_their_line(self, text, line, message):
        with pytest.raises(EdgeListParseError, match=f"line {line}: {message}") as info:
            parse_edge_list(text)
        assert info.value.line == line

    def test_cycle_is_a_structural_error(self):
        with pytest.raises(TreeStructureError):
            parse_edge_list("4\n0 1\n1 2\n2 0\n")
