"""Sombor index, independence number (DP vs subset oracle), and the
pendant-keeping maximum independent set."""

import math
import random

import pytest

from sombor_trees.errors import SizeLimitError
from sombor_trees.extremal import construct_t_star
from sombor_trees.tree import Tree

from conftest import (
    independence_number,
    independence_number_oracle,
    path_of_order,
    pendant_inclusive_mis,
    pendant_vertices,
    random_tree,
    relabel,
    sombor_index,
    star_of_order,
    trees_of_order,
)


class TestSomborIndex:
    def test_single_edge(self):
        assert sombor_index(path_of_order(2)) == pytest.approx(math.sqrt(2), abs=1e-12)

    def test_star_5(self):
        # (n-1) sqrt((n-1)^2 + 1) with n = 5
        assert sombor_index(star_of_order(5)) == pytest.approx(4 * math.sqrt(17), abs=1e-9)

    def test_path_4(self):
        expected = 2 * math.sqrt(5) + 2 * math.sqrt(2)
        assert sombor_index(path_of_order(4)) == pytest.approx(expected, abs=1e-9)

    def test_single_vertex_is_zero(self):
        assert sombor_index(Tree.from_edges(1, [])) == 0.0

    def test_relabeling_invariance(self):
        rng = random.Random(5150)
        for _ in range(50):
            n = rng.randrange(2, 14)
            t = random_tree(n, rng)
            perm = list(range(n))
            rng.shuffle(perm)
            assert sombor_index(relabel(t, perm)) == pytest.approx(
                sombor_index(t), abs=1e-9
            )

    def test_adding_a_pendant_strictly_increases(self):
        rng = random.Random(99)
        for _ in range(30):
            n = rng.randrange(1, 12)
            t = random_tree(n, rng)
            for v in range(n):
                grown = Tree.from_edges(n + 1, list(t.edges()) + [(v, n)])
                assert sombor_index(grown) > sombor_index(t) + 1e-6


class TestIndependenceNumber:
    def test_star_6(self):
        assert independence_number(star_of_order(6)) == 5

    def test_path_4(self):
        assert independence_number(path_of_order(4)) == 2

    def test_t_star_8_5(self):
        t = construct_t_star(8, 5)
        assert independence_number(t) == 5
        assert independence_number_oracle(t) == 5

    def test_oracle_trivial_cases(self):
        assert independence_number_oracle(Tree.from_edges(1, [])) == 1
        assert independence_number_oracle(star_of_order(4)) == 3

    def test_oracle_refuses_large_orders(self):
        with pytest.raises(SizeLimitError):
            independence_number_oracle(path_of_order(25))

    def test_dp_equals_oracle_exhaustively_to_10(self):
        for n in range(1, 11):
            for t in trees_of_order(n):
                assert independence_number(t) == independence_number_oracle(t)

    def test_dp_equals_oracle_sampled_to_16(self):
        rng = random.Random(424242)
        for n in range(11, 17):
            pool = trees_of_order(n)
            for t in rng.sample(pool, 6):
                # a relabeled copy is not already numbered in preorder
                u = relabel(t, rng.sample(range(n), n))
                alpha = independence_number_oracle(t)
                assert independence_number(t) == alpha == independence_number(u)

    def test_bipartite_bounds(self):
        for n in range(2, 12):
            for t in trees_of_order(n):
                alpha = independence_number(t)
                assert math.ceil(n / 2) <= alpha <= n - 1


class TestPendantInclusiveMis:
    def test_star_keeps_all_leaves(self):
        assert pendant_inclusive_mis(star_of_order(5)) == {1, 2, 3, 4}

    def test_path4_keeps_both_ends(self):
        assert pendant_inclusive_mis(path_of_order(4)) == {0, 3}

    def test_t_star_6_4_keeps_the_four_pendants(self):
        t = construct_t_star(6, 4)
        assert pendant_inclusive_mis(t) == {2, 3, 4, 5}

    def test_rejects_single_vertex(self):
        with pytest.raises(ValueError):
            pendant_inclusive_mis(Tree.from_edges(1, []))

    def test_single_edge_degenerate(self):
        # both vertices are pendants and adjacent; the set keeps exactly one
        mis = pendant_inclusive_mis(path_of_order(2))
        assert len(mis) == 1 == independence_number(path_of_order(2))
        assert mis == {0}

    def test_property_sweep_to_12(self):
        for n in range(3, 13):
            for t in trees_of_order(n):
                mis = pendant_inclusive_mis(t)
                assert pendant_vertices(t) <= mis
                assert not any(u in mis for v in mis for u in t.adjacency[v])
                assert len(mis) == independence_number(t)

    def test_relabeled_sweep_to_12(self):
        # the pass roots at the first vertex of degree >= 2, so labels matter
        rng = random.Random(12)
        for n in range(3, 13):
            for t in trees_of_order(n):
                perm = list(range(n))
                rng.shuffle(perm)
                r = relabel(t, perm)
                mis = pendant_inclusive_mis(r)
                assert pendant_vertices(r) <= mis
                assert not any(u in mis for v in mis for u in r.adjacency[v])
                assert len(mis) == independence_number_oracle(r)
