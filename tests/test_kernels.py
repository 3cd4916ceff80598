"""Backend parity: the compiled kernels must match the pure backend bit for
bit, and both must agree with the adjacency-based library routines.  The
one-pass order fold must equal a separate fold per alpha."""

import importlib.util
import math
import sys
from pathlib import Path

import pytest

from sombor_trees import _kernels
from sombor_trees._kernels import order_fold, pure
from sombor_trees.invariants import SO_TOL, independence_number, sombor_index
from sombor_trees.tree import Tree

try:
    from sombor_trees._kernels import _speedups as compiled
except ImportError:
    compiled = None

needs_compiled = pytest.mark.skipif(
    compiled is None, reason="compiled backend not built"
)


class TestPureKernels:
    def test_stats_match_library_routines(self):
        for n in range(1, 11):
            for levels in pure.iter_level_sequences(n):
                t = Tree.from_level_sequence(levels)
                so, alpha = pure.tree_stats_from_levels(levels)
                assert so == pytest.approx(sombor_index(t), abs=1e-12)
                assert alpha == independence_number(t)

    def test_order_fold_sizes_partition_the_stream(self):
        # family sizes across alpha partition the order-9 stream
        fold = order_fold(9, kern=pure)
        assert sorted(fold) == [5, 6, 7, 8]
        total = 0
        for count, best, runner, maximizers in fold.values():
            assert maximizers and best >= runner
            total += count
        assert total == 47

    def test_order_fold_trivial_orders(self):
        ((alpha, (count, best, runner, maximizers)),) = order_fold(1, kern=pure).items()
        assert alpha == 1
        assert (count, best) == (1, 0.0) and maximizers == [(0,)]
        ((alpha, (count, best, runner, maximizers)),) = order_fold(2, kern=pure).items()
        assert alpha == 1
        assert count == 1 and best == pytest.approx(math.sqrt(2))
        assert maximizers == [(0, 1)]

    def test_order_fold_equals_one_fold_per_alpha(self):
        for n in range(1, 12):
            fold = order_fold(n, kern=pure)
            for alpha in range(1, n + 1):
                expected = _fold_one_alpha(n, alpha)
                assert fold.get(alpha, (0, -math.inf, -math.inf, [])) == expected

    def test_rejects_bad_order(self):
        with pytest.raises(ValueError):
            list(pure.iter_level_sequences(0))
        with pytest.raises(ValueError):
            order_fold(0, kern=pure)


def _fold_one_alpha(n, alpha):
    """Reference: walk the stream for one alpha, band within SO_TOL of the best."""
    count, best, runner, maximizers = 0, -math.inf, -math.inf, []
    for levels in pure.iter_level_sequences(n):
        so, a = pure.tree_stats_from_levels(levels)
        if a != alpha:
            continue
        count += 1
        if so > best + SO_TOL:
            runner = max(runner, best)
            best, maximizers = so, [levels]
        elif so >= best - SO_TOL:
            maximizers.append(levels)
            best = max(best, so)
        else:
            runner = max(runner, so)
    return count, best, runner, maximizers


@needs_compiled
class TestCompiledParity:
    def test_streams_identical(self):
        for n in range(1, 13):
            assert list(compiled.iter_level_sequences(n)) == list(
                pure.iter_level_sequences(n)
            )

    def test_no_jump_mode_matches(self):
        for n in range(3, 11):
            assert list(compiled.iter_level_sequences(n, use_jump=False)) == list(
                pure.iter_level_sequences(n, use_jump=False)
            )

    def test_stats_bit_identical(self):
        for n in range(1, 12):
            for levels in pure.iter_level_sequences(n):
                assert compiled.tree_stats_from_levels(levels) == (
                    pure.tree_stats_from_levels(levels)
                )

    def test_order_fold_bit_identical(self):
        for n in range(1, 13):
            assert order_fold(n, kern=compiled) == order_fold(n, kern=pure)

    def test_rooted_streams_identical(self):
        for n in range(1, 10):
            assert list(compiled.iter_rooted_level_sequences(n)) == list(
                pure.iter_rooted_level_sequences(n)
            )


class TestBackendSelection:
    def test_active_backend_exposes_the_api(self):
        assert _kernels.BACKEND in ("pure", "compiled")
        assert callable(_kernels.iter_level_sequences)
        assert callable(_kernels.tree_stats_from_levels)
        assert callable(_kernels.order_fold)
        assert "family_sweep" not in _kernels.__all__


class TestGeneratedSource:
    def test_committed_c_matches_the_pyx(self, monkeypatch):
        # the benchmark compiles the committed .c and refuses it when stale;
        # an edit to the .pyx needs a regenerated .c in the same change
        root = Path(__file__).resolve().parent.parent
        spec = importlib.util.spec_from_file_location(
            "perfbench_build", root / "perfbench" / "build.py"
        )
        build = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, spec.name, build)  # dataclasses look it up
        monkeypatch.setattr(sys, "dont_write_bytecode", True)  # read-only import
        spec.loader.exec_module(build)
        checked, stale = build.stale_markers(
            build.KERNELS / "_speedups.c", build.KERNELS / "_speedups.pyx"
        )
        assert checked > 0
        assert stale == []
