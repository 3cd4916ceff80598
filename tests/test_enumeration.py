"""Free-tree enumeration: counts, isomorphism-exactness, determinism, and
agreement with the independent reference routes."""

import random

import pytest

from sombor_trees._kernels import pure
from sombor_trees.enumeration import enumerate_family
from sombor_trees.errors import OrderRangeError, SizeLimitError
from sombor_trees.tree import Tree, canonical_levels, parse_edge_list

from conftest import (
    filtered_rooted_stream,
    grow_by_leaf,
    independence_number,
    independence_number_oracle,
    iter_rooted_level_sequences,
    path_of_order,
    prufer_to_tree,
    random_tree,
    star_of_order,
    trees_of_order,
)

# A000055: non-isomorphic trees by order
FREE_TREE_COUNTS = [1, 1, 1, 2, 3, 6, 11, 23, 47, 106, 235, 551, 1301, 3159]
# A000081: rooted trees by order
ROOTED_TREE_COUNTS = [1, 1, 2, 4, 9, 20, 48, 115, 286, 719, 1842]


class TestCounts:
    def test_known_free_tree_counts(self):
        for n, expected in enumerate(FREE_TREE_COUNTS, start=1):
            assert len(trees_of_order(n)) == expected

    def test_known_rooted_tree_counts(self):
        for n, expected in enumerate(ROOTED_TREE_COUNTS, start=1):
            assert sum(1 for _ in iter_rooted_level_sequences(n)) == expected

    def test_order_4_is_path_and_star(self):
        codes = {canonical_levels(t) for t in trees_of_order(4)}
        assert codes == {canonical_levels(path_of_order(4)), canonical_levels(star_of_order(4))}

    def test_cap_enforced(self):
        with pytest.raises(SizeLimitError):
            list(enumerate_family(21))
        with pytest.raises(SizeLimitError):
            list(enumerate_family(21, 11))
        with pytest.raises(OrderRangeError):
            list(enumerate_family(0, 1))


class TestIsomorphismExactness:
    def test_codes_pairwise_distinct(self):
        for n in range(1, 12):
            codes = [canonical_levels(t) for t in trees_of_order(n)]
            assert len(codes) == len(set(codes))

    def test_structural_induction_cross_check_10_to_12(self):
        # every order n+1 tree is an order-n tree plus a leaf
        for n in (10, 11, 12):
            grown = grow_by_leaf(trees_of_order(n - 1))
            assert len(grown) == FREE_TREE_COUNTS[n - 1]
            assert set(grown) == set(pure.iter_level_sequences(n))

    def test_walk_equals_the_filtered_rooted_stream(self):
        # the walk skips blocks of the rooted stream that the free check
        # would reject; what it yields must be exactly what the check keeps
        for n in range(1, 17):
            assert list(pure.iter_level_sequences(n)) == filtered_rooted_stream(n), n


class TestDeterminism:
    def test_stream_order_is_reproducible(self):
        first = [canonical_levels(parse_edge_list(text)) for text in enumerate_family(9)]
        second = [canonical_levels(parse_edge_list(text)) for text in enumerate_family(9)]
        assert first == second == list(pure.iter_level_sequences(9))


class TestFamilies:
    def test_alpha_n_minus_1_is_the_star(self):
        family = list(enumerate_family(6, 5))
        assert family == ["6\n0 1\n0 2\n0 3\n0 4\n0 5\n"]
        assert parse_edge_list(family[0]).degrees.count(5) == 1

    def test_infeasible_alpha_is_empty(self):
        assert list(enumerate_family(6, 2)) == []

    def test_family_7_4_has_6_members(self):
        assert len(list(enumerate_family(7, 4))) == 6

    def test_filter_matches_library_dp(self):
        # the walk's alpha decides membership; the subset oracle must agree
        for n in range(1, 12):
            stream = list(enumerate_family(n))
            alphas = [independence_number_oracle(parse_edge_list(text)) for text in stream]
            for alpha in range(1, n + 1):
                expected = [
                    text for text, a in zip(stream, alphas) if a == alpha
                ]
                assert list(enumerate_family(n, alpha)) == expected, (n, alpha)

    def test_family_sizes_partition_the_order(self):
        import math

        for n in range(2, 13):
            sizes = {}
            for t in trees_of_order(n):
                a = independence_number(t)
                sizes[a] = sizes.get(a, 0) + 1
            assert sum(sizes.values()) == FREE_TREE_COUNTS[n - 1]
            assert min(sizes) >= math.ceil(n / 2)
            assert max(sizes) == n - 1


class TestPrufer:
    def test_decode_star(self):
        t = prufer_to_tree((0, 0), 4)
        assert t.degrees == (3, 1, 1, 1)

    def test_decode_validates(self):
        with pytest.raises(ValueError):
            prufer_to_tree((0,), 4)
        with pytest.raises(ValueError):
            prufer_to_tree((5, 0), 4)

    @pytest.mark.parametrize("order", [0, 1])
    def test_decode_needs_order_2(self, order):
        with pytest.raises(ValueError, match="needs order >= 2"):
            prufer_to_tree((), order)

    def test_random_tree_of_order_1(self):
        assert random_tree(1, random.Random(5)) == Tree.from_edges(1, [])
