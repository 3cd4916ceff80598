"""Rewiring moves: hand-built fixtures for every case shape, plus the
exhaustive alpha-preservation / index-increase sweep at small orders."""

from itertools import combinations

import pytest

from sombor_trees import transforms
from sombor_trees import tree as tree_module
from sombor_trees.errors import PreconditionError, TreeStructureError
from sombor_trees.extremal import (
    TreeClass,
    classify,
    construct_t_star,
    t_star_levels,
)
from sombor_trees.transforms import (
    _support_pair,
    apply_lemma1_case,
    apply_lemma2_step,
    apply_theorem_step,
    lemma1_case_tag,
    select_support_pair,
    shift_neighbors,
    swap_endpoints,
)
from sombor_trees.tree import Tree, canonical_levels, core_split

from conftest import (
    distance,
    independence_number,
    path_of_order,
    query_sweep,
    sombor_index,
    star_of_order,
    t1_members,
    tree_path,
    trees_of_order,
)


def double_star():
    return Tree.from_edges(6, [(0, 1), (0, 2), (0, 3), (1, 4), (1, 5)])


def spider_222():
    return Tree.from_edges(7, [(0, 1), (0, 2), (0, 3), (1, 4), (2, 5), (3, 6)])


def caterpillar_case_11():
    # spine 0-1-2-3-4 with pendants 5 on 0, 6 on 4, 7 on 1, 8 on 3:
    # support pair (1, 3) shares the path neighbor 2, both carry one pendant
    return Tree.from_edges(
        9, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 5), (4, 6), (1, 7), (3, 8)]
    )


def caterpillar_case_11_two_pendants():
    # as above with a second pendant on each of 1 and 3 (8 on 1, 9 and 10 on
    # 3): v = 3 keeps y = 2 and its first pendant 9, and 4 and 10 move to 1
    return Tree.from_edges(
        11,
        [(0, 1), (1, 2), (2, 3), (3, 4), (0, 5), (4, 6), (1, 7), (1, 8), (3, 9), (3, 10)],
    )


def adjacent_case_12():
    # spine 0-1-2-3 with pendants 4 on 0, 5 on 3, 6,7,8 on 1, 9 on 2:
    # the pair (1, 2) is adjacent, d(y)=5 > d(x)=3, the endpoint swap degenerates
    return Tree.from_edges(
        10,
        [(0, 1), (1, 2), (2, 3), (0, 4), (3, 5), (1, 6), (1, 7), (1, 8), (2, 9)],
    )


def separated_case_12():
    # spine 0-1-2-3-4-5, pendants 6 on 0, 7 on 5, 8 on 1, 9 on 4, 10 on 3:
    # pair (1, 4) with distinct path neighbors x=2, y=3 and d(y)=3 > d(x)=2
    return Tree.from_edges(
        11,
        [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 6), (5, 7), (1, 8), (4, 9), (3, 10)],
    )


def double_spider_case_3():
    # supports 0 and 6 with no pendant neighbors: their heavy neighbors carry
    # the pendants, and the shared path vertex is 5
    return Tree.from_edges(
        11,
        [(0, 1), (1, 2), (0, 3), (3, 4), (0, 5), (5, 6), (6, 7), (7, 8), (6, 9), (9, 10)],
    )


def spider_321_case_2():
    # legs 0-1-2-3, 0-4-5 and 0-6 from the hub 0: the adjacent pair (0, 1)
    # has a pendant on 0 only, so 1 donates its heavy neighbor 2 to 0
    return Tree.from_edges(7, [(0, 1), (1, 2), (2, 3), (0, 4), (4, 5), (0, 6)])


def t1_8_5_one_loaded_leaf():
    # star core 0-{1,2}; leaf 1 carries two pendants, leaf 2 and hub the rest
    return Tree.from_edges(
        8, [(0, 1), (0, 2), (1, 3), (1, 4), (2, 5), (0, 6), (0, 7)]
    )


class TestShiftNeighbors:
    def test_path_move_builds_a_star(self):
        t = path_of_order(4)
        out = shift_neighbors(t, donor=2, receiver=1, moved=(3,))
        assert sorted(out.degrees) == [1, 1, 1, 3]
        assert out.degrees[1] == 3

    def test_empty_move_is_identity(self):
        t = path_of_order(5)
        assert shift_neighbors(t, 2, 3, ()) == t

    def test_degree_bookkeeping(self):
        t = spider_222()
        out = shift_neighbors(t, donor=1, receiver=0, moved=(4,))
        assert out.degrees[0] == t.degrees[0] + 1
        assert out.degrees[1] == t.degrees[1] - 1

    def test_rejects_moving_the_path_edge(self):
        t = path_of_order(4)
        with pytest.raises(TreeStructureError, match="detach"):
            shift_neighbors(t, donor=2, receiver=0, moved=(1,))

    def test_rejects_non_neighbor(self):
        with pytest.raises(TreeStructureError, match="not adjacent"):
            shift_neighbors(path_of_order(4), 0, 2, (3,))

    def test_rejects_receiver_in_moved(self):
        with pytest.raises(TreeStructureError, match="receiver"):
            shift_neighbors(path_of_order(4), 1, 2, (2,))

    def test_rejects_donor_as_receiver(self):
        with pytest.raises(TreeStructureError, match="donor and receiver must be distinct"):
            shift_neighbors(star_of_order(4), 0, 0, (1,))

    def test_rejects_repeated_moved_vertex(self):
        with pytest.raises(TreeStructureError, match="moved vertices must be distinct"):
            shift_neighbors(spider_222(), 0, 1, (2, 2))


class TestSwapEndpoints:
    def test_path_swap_keeps_degrees(self):
        t = path_of_order(6)
        out = swap_endpoints(t, 1, 2, 4, 3)
        assert sorted(out.degrees) == sorted(t.degrees)
        assert (1, 3) in list(out.edges()) and (2, 4) in list(out.edges())

    def test_random_valid_swaps_preserve_degree_multiset(self):
        t = separated_case_12()
        out = swap_endpoints(t, 1, 2, 4, 3)
        assert sorted(out.degrees) == sorted(t.degrees)

    def test_rejects_non_edges(self):
        with pytest.raises(TreeStructureError, match="not adjacent"):
            swap_endpoints(path_of_order(6), 0, 2, 4, 3)

    def test_rejects_absent_second_edge(self):
        with pytest.raises(TreeStructureError, match="5 and 3 are not adjacent"):
            swap_endpoints(path_of_order(6), 1, 2, 5, 3)

    def test_rejects_disconnecting_swap(self):
        # swapping within one branch cuts the other off
        t = path_of_order(6)
        with pytest.raises(TreeStructureError):
            swap_endpoints(t, 0, 1, 2, 3)

    def test_rejects_repeated_vertices(self):
        with pytest.raises(TreeStructureError, match="distinct"):
            swap_endpoints(path_of_order(6), 1, 2, 1, 0)


class TestSelectSupportPair:
    @pytest.mark.parametrize("order", [1, 2])
    def test_rejects_order_below_3(self, order):
        with pytest.raises(ValueError, match="needs a tree of order >= 3"):
            select_support_pair(path_of_order(order))

    def test_double_star_centers(self):
        assert select_support_pair(double_star()) == (0, 1)

    def test_spider_has_no_pair(self):
        with pytest.raises(PreconditionError):
            select_support_pair(spider_222())

    def test_caterpillar_spine_extremes(self):
        assert select_support_pair(adjacent_case_12()) == (1, 2)
        assert select_support_pair(separated_case_12()) == (1, 4)

    def test_deterministic_tie_break(self):
        t = caterpillar_case_11()
        assert select_support_pair(t) == (1, 3)

    def test_matches_the_pairwise_reference(self):
        # reference: the stripped core built on its own, and one distance
        # query in it per pair of its support vertices
        for t in query_sweep():
            if t.order < 3:
                continue
            old_of = [w for w in range(t.order) if t.degrees[w] >= 2]
            new_of = {w: i for i, w in enumerate(old_of)}
            core = Tree.from_edges(
                len(old_of),
                [(new_of[u], new_of[v]) for u, v in t.edges()
                 if u in new_of and v in new_of],
            )
            supports = sorted(
                {core.adjacency[p][0] for p in range(core.order)
                 if core.degrees[p] == 1}
            )
            if len(supports) < 2:
                with pytest.raises(PreconditionError):
                    select_support_pair(t)
                continue
            _, u, v = min(
                (-distance(core, a, b), old_of[a], old_of[b])
                for a, b in combinations(supports, 2)
            )
            assert select_support_pair(t) == (u, v), t
            path = tree_path(t, u, v)  # x and y, read off the walk from u
            assert _support_pair(t, core_split(t)) == (u, v, path[1], path[-2]), t


class TestCaseMoves:
    def test_case_11_on_the_9_vertex_caterpillar(self):
        t = caterpillar_case_11()
        assert classify(t) is TreeClass.OTHER
        assert lemma1_case_tag(t) == "1.1"
        out = apply_lemma1_case(t)
        assert independence_number(out) == independence_number(t)
        assert sombor_index(out) - sombor_index(t) > 1e-6

    def test_case_12_adjacent_pair(self):
        t = adjacent_case_12()
        assert lemma1_case_tag(t) == "1.2"
        out = apply_lemma1_case(t)
        assert independence_number(out) == independence_number(t)
        assert sombor_index(out) - sombor_index(t) > 1e-6

    def test_case_12_separated_pair(self):
        t = separated_case_12()
        assert lemma1_case_tag(t) == "1.2"
        out = apply_lemma1_case(t)
        assert independence_number(out) == independence_number(t)
        assert sombor_index(out) - sombor_index(t) > 1e-6

    def test_case_3_double_spider(self):
        t = double_spider_case_3()
        assert lemma1_case_tag(t) == "3"
        out = apply_lemma1_case(t)
        assert independence_number(out) == independence_number(t)
        assert sombor_index(out) - sombor_index(t) > 1e-6

    @pytest.mark.parametrize(
        "make, tag, edges",
        [
            (
                caterpillar_case_11,
                "1.1",
                [(0, 1), (0, 5), (1, 2), (1, 4), (1, 7), (2, 3), (3, 8), (4, 6)],
            ),
            (
                caterpillar_case_11_two_pendants,
                "1.1",
                [(0, 1), (0, 5), (1, 2), (1, 4), (1, 7), (1, 8), (1, 10), (2, 3),
                 (3, 9), (4, 6)],
            ),
            (
                adjacent_case_12,
                "1.2",
                [(0, 1), (0, 4), (1, 2), (1, 3), (1, 6), (1, 7), (1, 8), (2, 9), (3, 5)],
            ),
            (
                separated_case_12,
                "1.2",
                [(0, 1), (0, 6), (1, 3), (1, 5), (1, 8), (2, 3), (2, 4), (3, 10),
                 (4, 9), (5, 7)],
            ),
            (spider_321_case_2, "2", [(0, 1), (0, 2), (0, 4), (0, 6), (2, 3), (4, 5)]),
            (
                double_spider_case_3,
                "3",
                [(0, 5), (1, 2), (1, 6), (3, 4), (3, 6), (5, 6), (6, 7), (6, 9),
                 (7, 8), (9, 10)],
            ),
        ],
        ids=["1.1", "1.1-two-pendants", "1.2-adjacent", "1.2-separated", "2", "3"],
    )
    def test_move_gives_the_pinned_tree(self, make, tag, edges):
        t = make()
        assert lemma1_case_tag(t) == tag
        assert list(apply_lemma1_case(t).edges()) == edges

    def test_t1_input_is_rejected(self):
        with pytest.raises(PreconditionError, match="T1"):
            apply_lemma1_case(double_star())


class TestLemma2Step:
    def test_spider_moves_into_t1(self):
        t = spider_222()
        out = apply_lemma2_step(t)
        assert classify(out) in (TreeClass.T1, TreeClass.TSTAR)
        assert independence_number(out) == independence_number(t)
        assert sombor_index(out) - sombor_index(t) > 1e-6

    def test_rejects_non_t2(self):
        with pytest.raises(PreconditionError):
            apply_lemma2_step(double_star())


class TestTheoremStep:
    def test_single_step_reaches_the_maximizer(self):
        t = t1_8_5_one_loaded_leaf()
        assert classify(t) is TreeClass.T1
        out = apply_theorem_step(t)
        assert canonical_levels(out) == t_star_levels(8, 5)

    def test_maximizer_is_a_fixed_point(self):
        assert apply_theorem_step(construct_t_star(8, 5)) is None

    def test_two_vertex_core_hub_is_the_heavier_end(self):
        # equal pendant counts: the smaller id is the hub and keeps the surplus
        assert apply_theorem_step(double_star()) == Tree.from_edges(
            6, [(0, 1), (0, 2), (0, 3), (0, 5), (1, 4)]
        )
        # vertex 1 carries three pendants to vertex 0's two: 1 is the hub
        t = Tree.from_edges(7, [(0, 1), (0, 2), (0, 3), (1, 4), (1, 5), (1, 6)])
        assert apply_theorem_step(t) == Tree.from_edges(
            7, [(0, 1), (0, 2), (1, 3), (1, 4), (1, 5), (1, 6)]
        )

    def test_rejects_other_trees(self):
        with pytest.raises(PreconditionError):
            apply_theorem_step(path_of_order(7))

    def test_every_t1_10_6_member_converges(self):
        target = t_star_levels(10, 6)
        for t in t1_members(10, 6):
            cur = t
            steps = 0
            while True:
                nxt = apply_theorem_step(cur)
                if nxt is None:
                    break
                assert independence_number(nxt) == 6
                assert sombor_index(nxt) > sombor_index(cur) + 1e-6
                cur = nxt
                steps += 1
                assert steps <= 10
            assert canonical_levels(cur) == target


class TestExhaustiveSweep:
    def test_every_applicable_move_preserves_alpha_and_raises_so(self):
        checked = 0
        for n in range(2, 12):
            for t in trees_of_order(n):
                label = classify(t)
                alpha = independence_number(t)
                so = sombor_index(t)
                if label is TreeClass.OTHER:
                    out = apply_lemma1_case(t)
                elif label is TreeClass.T2:
                    out = apply_lemma2_step(t)
                    assert classify(out) in (TreeClass.T1, TreeClass.TSTAR)
                elif label is TreeClass.T1:
                    out = apply_theorem_step(t)
                else:
                    continue
                assert independence_number(out) == alpha, (n, t)
                assert sombor_index(out) - so > 1e-6, (n, t)
                checked += 1
        assert checked > 300

    def test_theorem_iteration_terminates_everywhere(self):
        for n in range(2, 12):
            for t in trees_of_order(n):
                if classify(t) not in (TreeClass.T1, TreeClass.TSTAR):
                    continue
                alpha = independence_number(t)
                target = t_star_levels(n, alpha)
                cur = t
                steps = 0
                while (nxt := apply_theorem_step(cur)) is not None:
                    cur = nxt
                    steps += 1
                    assert steps <= n
                assert canonical_levels(cur) == target


class TestCoreReads:
    def test_each_call_reads_the_core_once(self, monkeypatch):
        # classify, the case moves and the unload steps take the split from
        # one core_split call, however many readers the move has
        trees = [caterpillar_case_11(), spider_222(), t1_8_5_one_loaded_leaf(),
                 construct_t_star(8, 5)]
        assert [classify(t) for t in trees] == [
            TreeClass.OTHER, TreeClass.T2, TreeClass.T1, TreeClass.TSTAR
        ]
        other, t2, t1, t_star = trees
        calls = 0

        def counted(t):
            nonlocal calls
            calls += 1
            return core_split(t)

        # extremal imports core_split from tree when it runs
        for module in (tree_module, transforms):
            monkeypatch.setattr(module, "core_split", counted)
        runs = [(apply_lemma1_case, other), (lemma1_case_tag, other),
                (apply_lemma2_step, t2), (apply_theorem_step, t1),
                (apply_theorem_step, t_star)] + [(classify, t) for t in trees]
        for move, t in runs:
            calls = 0
            move(t)
            assert calls == 1, (move.__name__, t)
