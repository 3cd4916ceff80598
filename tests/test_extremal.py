"""Extremal construction, closed form, family classifier, scalar lemmas."""

import math
import random
from collections import Counter

import pytest

from sombor_trees import extremal
from sombor_trees._kernels import pure
from sombor_trees._kernels.pure import _level_parents
from sombor_trees.errors import InfeasibleParamsError
from sombor_trees.extremal import (
    TreeClass,
    check_feasible,
    classify,
    closed_form_max,
    construct_t_star,
    feasible_alpha_range,
    t_star_levels,
)
from sombor_trees.tree import Tree, canonical_levels

from conftest import (
    IsoClassInterner,
    independence_number,
    independence_number_oracle,
    lemma1_f,
    lemma2_g,
    path_of_order,
    pendant_vertices,
    relabel,
    sombor_index,
    star_of_order,
    star_shift_inequality,
    t1_members,
    t2_members,
    theorem_shift_inequality,
)


class TestParams:
    def test_feasible_ranges(self):
        assert list(feasible_alpha_range(6)) == [3, 4, 5]
        assert list(feasible_alpha_range(7)) == [4, 5, 6]
        assert list(feasible_alpha_range(2)) == [1]

    def test_rejects_out_of_range(self):
        for alpha in feasible_alpha_range(6):
            check_feasible(6, alpha)
        with pytest.raises(InfeasibleParamsError, match=r"alpha must be in \[3, 5\]"):
            check_feasible(6, 2)
        with pytest.raises(InfeasibleParamsError):
            check_feasible(6, 6)
        with pytest.raises(InfeasibleParamsError) as exc:
            check_feasible(1, 0)
        assert str(exc.value) == "order 1 has no feasible alpha, got alpha=0"
        with pytest.raises(InfeasibleParamsError) as exc:
            check_feasible(0, 0)
        assert str(exc.value) == "order 0 has no feasible alpha, got alpha=0"


class TestConstruction:
    def test_alpha_n_minus_1_gives_the_star(self):
        t = construct_t_star(6, 5)
        assert canonical_levels(t) == canonical_levels(star_of_order(6))

    def test_6_4_shape(self):
        # hub of degree 4 with three pendants and one length-2 arm
        t = construct_t_star(6, 4)
        assert sorted(t.degrees) == [1, 1, 1, 1, 2, 4]
        assert t.degrees[0] == 4
        assert independence_number_oracle(t) == 4

    def test_6_3_shape(self):
        # hub of degree 3: one hub pendant plus two length-2 arms
        t = construct_t_star(6, 3)
        assert sorted(t.degrees) == [1, 1, 1, 2, 2, 3]
        assert independence_number_oracle(t) == 3

    def test_hub_degree_and_pendant_counts(self):
        for n in range(2, 17):
            for alpha in feasible_alpha_range(n):
                t = construct_t_star(n, alpha)
                assert t.order == n
                assert t.degrees[0] == alpha
                if n >= 3:  # the single edge has two pendants
                    assert len(pendant_vertices(t)) == alpha
                arms = n - alpha - 1
                assert all(t.degrees[i] == 2 for i in range(1, arms + 1))
                assert all(t.degrees[i] == 1 for i in range(arms + 1, n))
                # the promised numbering: arm i carries pendant arms + i
                assert all(t.adjacency[i] == (0, arms + i) for i in range(1, arms + 1))
                assert independence_number(t) == alpha

    def test_alpha_matches_oracle_to_12(self):
        for n in range(2, 13):
            for alpha in feasible_alpha_range(n):
                t = construct_t_star(n, alpha)
                assert independence_number_oracle(t) == alpha


class TestTStarLevels:
    def test_is_the_streams_sequence_for_t_star(self):
        # IsoClassInterner is the independent route: the one stream sequence
        # isomorphic to the constructed tree is the closed-form sequence
        for n in range(2, 15):
            interner = IsoClassInterner()
            classes = {}
            for levels in pure.iter_level_sequences(n):
                t = Tree.from_level_sequence(levels)
                classes.setdefault(interner.class_id_of_tree(t), []).append(levels)
            for alpha in feasible_alpha_range(n):
                t = construct_t_star(n, alpha)
                assert classes[interner.class_id_of_tree(t)] == [t_star_levels(n, alpha)]

    def test_small_cases(self):
        assert t_star_levels(2, 1) == (0, 1)
        assert t_star_levels(6, 5) == (0, 1, 1, 1, 1, 1)
        assert t_star_levels(6, 4) == (0, 1, 2, 1, 1, 1)
        assert t_star_levels(6, 3) == (0, 1, 2, 1, 2, 1)

    def test_rejects_out_of_range(self):
        for alpha in feasible_alpha_range(6):
            check_feasible(6, alpha)
        for order, alpha in ((6, 2), (6, 6), (1, 0), (0, 0), (7, 3)):
            with pytest.raises(InfeasibleParamsError):
                t_star_levels(order, alpha)


class TestClosedForm:
    def test_star_values(self):
        for n in (2, 6, 9):
            expected = (n - 1) * math.sqrt((n - 1) ** 2 + 1)
            assert closed_form_max(n, n - 1) == pytest.approx(expected, abs=1e-12)

    def test_6_4_value(self):
        expected = 3 * math.sqrt(17) + math.sqrt(20) + math.sqrt(5)
        assert closed_form_max(6, 4) == pytest.approx(expected, abs=1e-12)

    def test_6_3_value(self):
        expected = math.sqrt(10) + 2 * (math.sqrt(13) + math.sqrt(5))
        assert closed_form_max(6, 3) == pytest.approx(expected, abs=1e-12)

    def test_formula_matches_the_construction_to_32(self):
        for n in range(2, 33):
            for alpha in feasible_alpha_range(n):
                built = sombor_index(construct_t_star(n, alpha))
                assert abs(built - closed_form_max(n, alpha)) <= 1e-9

    def test_infeasible_params_rejected(self):
        with pytest.raises(InfeasibleParamsError):
            closed_form_max(6, 2)

    def test_closed_form_terms_are_t_star_radicands_to_40(self):
        # exact in integers: the closed form is T*'s Sombor sum term by term,
        # so verify's formula check only tests float consistency
        for n in range(2, 41):
            for a in feasible_alpha_range(n):
                parents = _level_parents(t_star_levels(n, a))
                deg = Counter(parents[1:]) + Counter(range(1, n))
                radicands = Counter(deg[v] ** 2 + deg[parents[v]] ** 2 for v in range(1, n))
                terms = (
                    Counter({a * a + 1: 2 * a - n + 1})
                    + Counter({a * a + 4: n - a - 1})
                    + Counter({5: n - a - 1})
                )
                assert radicands == terms, (n, a)


class TestClassify:
    def test_t_star_members(self):
        assert classify(construct_t_star(9, 6)) is TreeClass.TSTAR
        for n in range(4, 14):
            for alpha in feasible_alpha_range(n):
                expected = TreeClass.STAR if alpha == n - 1 else TreeClass.TSTAR
                assert classify(construct_t_star(n, alpha)) is expected

    def test_stars(self):
        for n in (2, 3, 5, 9):
            assert classify(star_of_order(n)) is TreeClass.STAR

    @pytest.mark.parametrize("order", [1, 2])
    def test_orders_below_3_classify_as_star(self, order):
        assert extremal._classified(path_of_order(order)) == (TreeClass.STAR, -1, {})
        assert classify(path_of_order(order)) is TreeClass.STAR

    def test_path_6_is_other(self):
        assert classify(path_of_order(6)) is TreeClass.OTHER

    def test_spider_with_bare_hub_is_t2(self):
        # star S4 with one extra pendant on each of the 3 leaves (n=7, alpha=4)
        t = Tree.from_edges(7, [(0, 1), (0, 2), (0, 3), (1, 4), (2, 5), (3, 6)])
        assert independence_number_oracle(t) == 4
        assert classify(t) is TreeClass.T2

    def test_generated_t1_members_classify_back(self):
        for n in range(4, 13):
            in_t1 = {}  # alpha -> the stream sequences classify puts in T1
            for levels in pure.iter_level_sequences(n):
                t = Tree.from_level_sequence(levels)
                if classify(t) in (TreeClass.T1, TreeClass.TSTAR):
                    in_t1.setdefault(independence_number(t), []).append(levels)
            for alpha in feasible_alpha_range(n):
                if n - alpha < 2:
                    continue
                members = list(t1_members(n, alpha))
                # one member per class, and every class the stream holds
                assert sorted(canonical_levels(t) for t in members) == sorted(in_t1[alpha])
                assert members, (n, alpha)
                star_levels = t_star_levels(n, alpha)
                for t in members:
                    assert independence_number(t) == alpha
                    label = classify(t)
                    assert label in (TreeClass.T1, TreeClass.TSTAR)
                    assert (label is TreeClass.TSTAR) == (
                        canonical_levels(t) == star_levels
                    )

    @pytest.mark.parametrize("order", [3, 6, 9])
    def test_t1_needs_a_core_edge(self, order):
        # at alpha = n-1 the core is the hub alone: the star, not a T1 tree
        with pytest.raises(InfeasibleParamsError, match="order - alpha >= 2, got 1"):
            list(t1_members(order, order - 1))

    def test_t2_trees_have_alpha_above_half_n(self):
        # a bare hub on a star core of s vertices has a pendant on each of the
        # other s - 1, so n >= 2s - 1 and alpha = n - s + 1 > n/2: classify
        # needs no alpha = n/2 case
        rng = random.Random(12)
        seen = 0
        for n in range(3, 13):
            for levels in pure.iter_level_sequences(n):
                t = Tree.from_level_sequence(levels)
                perm = list(range(n))
                rng.shuffle(perm)
                for u in (t, relabel(t, perm)):
                    if classify(u) is TreeClass.T2:
                        seen += 1
                        assert 2 * independence_number_oracle(u) > n, levels
        assert seen > 0

    def test_generated_t2_members_classify_back(self):
        for n in range(4, 13):
            for alpha in feasible_alpha_range(n):
                if n - alpha < 2 or 2 * alpha == n:
                    continue
                for t in t2_members(n, alpha):
                    assert independence_number(t) == alpha
                    assert classify(t) is TreeClass.T2

    def test_t2_rejected_at_alpha_half_n(self):
        with pytest.raises(InfeasibleParamsError):
            list(t2_members(8, 4))


class TestScalarLemmas:
    def test_f_values(self):
        assert lemma1_f(1, 1, 1) == pytest.approx(math.sqrt(5) - math.sqrt(2), abs=1e-12)
        f2 = lemma1_f(2, 1, 1)
        assert f2 == pytest.approx(math.sqrt(10) - math.sqrt(5), abs=1e-12)
        assert f2 > lemma1_f(1, 1, 1)

    def test_f_asymptote(self):
        for c in (1, 2, 5):
            assert abs(lemma1_f(1e6, c, 3) - c) < 1e-3

    def test_f_monotone_randomized(self):
        rng = random.Random(1729)
        for _ in range(1000):
            x = rng.uniform(1, 100)
            c = rng.randrange(1, 10)
            d = rng.randrange(1, 10)
            for delta in (0.5, 1.0, 2.0):
                assert lemma1_f(x + delta, c, d) > lemma1_f(x, c, d)

    def test_g_values(self):
        assert lemma2_g(1, 2, 1) == pytest.approx(math.sqrt(5) - math.sqrt(2), abs=1e-12)
        g2 = lemma2_g(2, 2, 1)
        assert g2 == pytest.approx(math.sqrt(8) - math.sqrt(5), abs=1e-12)
        assert g2 < lemma2_g(1, 2, 1)

    def test_g_asymptote_and_positivity(self):
        assert lemma2_g(1e6, 4, 1) < 1e-3
        assert lemma2_g(1e6, 4, 1) > 0

    @pytest.mark.parametrize("c, d", [(0, 1), (1, 0), (-2, 3), (3, -1)])
    def test_lemmas_require_positive_c_and_d(self, c, d):
        for f in (lemma1_f, lemma2_g):
            with pytest.raises(ValueError, match="c and d must be positive integers"):
                f(1.0, c, d)

    def test_g_requires_c_greater_than_d(self):
        with pytest.raises(ValueError, match="c > d"):
            lemma2_g(1.0, 1, 2)

    def test_g_antitone_randomized(self):
        rng = random.Random(4104)
        for _ in range(1000):
            x = rng.uniform(1, 100)
            d = rng.randrange(1, 9)
            c = d + rng.randrange(1, 9)
            for delta in (0.5, 1.0, 2.0):
                assert lemma2_g(x + delta, c, d) < lemma2_g(x, c, d)

    def test_star_shift_examples(self):
        assert star_shift_inequality(2, 1)
        assert star_shift_inequality(2, 5)
        assert star_shift_inequality(3, 1)

    def test_theorem_shift_examples(self):
        # boundary equalities
        assert (1 + 1) ** 2 + 4 == (1 + 1) ** 2 + (1 + 1) ** 2
        assert theorem_shift_inequality(1, 1)
        assert theorem_shift_inequality(1, 2)
        assert theorem_shift_inequality(3, 4)

    def test_shift_inequalities_on_the_full_grid(self):
        for k in range(1, 201):
            for s in range(2, 201):
                assert star_shift_inequality(s, k)
            for l in range(1, 201):
                assert theorem_shift_inequality(l, k)
