"""Backend parity: the compiled kernels must match the pure backend bit for
bit, and both must agree with the adjacency-based library routines.  The
one-pass order fold must equal a separate fold per alpha.  The ``compiled``
fixture lives in conftest.py."""

import math
import os
import subprocess
import sys
from types import SimpleNamespace

import pytest

from sombor_trees import _kernels
from sombor_trees._kernels import order_fold, pure
from sombor_trees.invariants import independence_number_oracle, sombor_index
from sombor_trees.tree import Tree

from conftest import ROOT, bind_backend, perfbench_build


class TestPureKernels:
    def test_stats_match_library_routines(self):
        for n in range(1, 11):
            for levels in pure.iter_level_sequences(n):
                t = Tree.from_level_sequence(levels)
                so, alpha = pure.tree_stats_from_levels(levels)
                assert so == pytest.approx(sombor_index(t), abs=1e-12)
                assert alpha == independence_number_oracle(t)

    def test_order_fold_sizes_partition_the_stream(self, monkeypatch):
        # family sizes across alpha partition the order-9 stream
        bind_backend(monkeypatch, pure)
        fold = order_fold(9)
        assert sorted(fold) == [5, 6, 7, 8]
        total = 0
        for count, best, runner, ties, first in fold.values():
            assert ties >= 1 and len(first) == 9 and best > runner
            total += count
        assert total == 47

    def test_order_fold_trivial_orders(self, monkeypatch):
        bind_backend(monkeypatch, pure)
        assert order_fold(1) == {1: (1, 0.0, -math.inf, 1, (0,))}
        ((alpha, (count, best, runner, ties, first)),) = order_fold(2).items()
        assert alpha == 1
        assert count == 1 and best == pytest.approx(math.sqrt(2))
        assert (runner, ties, first) == (-math.inf, 1, (0, 1))

    def test_order_fold_counts_exact_ties_only(self, monkeypatch):
        # a scripted stream, levels -> (so, alpha), in stream order
        stream = {
            (0, 1): (2.0, 1),
            (0, 2): (3.0, 1),
            (0, 3): (3.0 - 1e-12, 1),
            (0, 4): (3.0, 1),
            (0, 5): (1.0, 2),
        }
        scripted = SimpleNamespace(
            iter_level_sequences=lambda n: iter(stream),
            tree_stats_from_levels=stream.__getitem__,
        )
        bind_backend(monkeypatch, scripted)
        assert order_fold(2) == {
            1: (4, 3.0, 3.0 - 1e-12, 2, (0, 2)),
            2: (1, 1.0, -math.inf, 1, (0, 5)),
        }

    def test_order_fold_equals_one_fold_per_alpha(self, monkeypatch):
        bind_backend(monkeypatch, pure)
        for n in range(1, 12):
            fold = order_fold(n)
            for alpha in range(1, n + 1):
                assert fold.get(alpha) == _fold_one_alpha(n, alpha)

    def test_jump_visits_few_rejected_sequences(self, monkeypatch):
        # the generator checks every sequence it visits, once
        visited = 0

        def counting(L):
            nonlocal visited
            visited += 1
            return free_check(L)

        free_check = pure._free_check
        monkeypatch.setattr(pure, "_free_check", counting)
        for n in range(12, 19):
            visited = 0
            accepted = sum(1 for _ in pure.iter_level_sequences(n))
            assert visited / accepted <= 1.5, (n, visited, accepted)

    def test_rejects_bad_order(self, monkeypatch):
        with pytest.raises(ValueError):
            list(pure.iter_level_sequences(0))
        bind_backend(monkeypatch, pure)
        with pytest.raises(ValueError):
            order_fold(0)


def _fold_one_alpha(n, alpha):
    """Reference: collect one alpha's (so, levels), then read the cell off it."""
    cell = []
    for levels in pure.iter_level_sequences(n):
        so, a = pure.tree_stats_from_levels(levels)
        if a == alpha:
            cell.append((so, levels))
    if not cell:
        return None
    best = max(so for so, _ in cell)
    ties = [levels for so, levels in cell if so == best]
    runner = max((so for so, _ in cell if so < best), default=-math.inf)
    return len(cell), best, runner, len(ties), ties[0]


class TestCompiledParity:
    def test_streams_identical(self, compiled):
        # the compiled generator does not reset the tail: another path, same stream
        for n in range(1, 17):
            assert list(compiled.iter_level_sequences(n)) == list(
                pure.iter_level_sequences(n)
            )

    def test_no_jump_mode_matches(self, compiled):
        for n in range(3, 11):
            assert list(compiled.iter_level_sequences(n, use_jump=False)) == list(
                pure.iter_level_sequences(n, use_jump=False)
            )

    def test_stats_bit_identical(self, compiled):
        for n in range(1, 12):
            for levels in pure.iter_level_sequences(n):
                assert compiled.tree_stats_from_levels(levels) == (
                    pure.tree_stats_from_levels(levels)
                )

    def test_order_fold_bit_identical(self, compiled, monkeypatch):
        for n in range(1, 13):
            bind_backend(monkeypatch, compiled)
            fold = order_fold(n)
            bind_backend(monkeypatch, pure)
            assert fold == order_fold(n)

    def test_rooted_streams_identical(self, compiled):
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

    def test_unknown_backend_is_an_import_error(self):
        env = dict(os.environ, SOMBOR_TREES_BACKEND="bogus")
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
        )
        done = subprocess.run(
            [sys.executable, "-c", "import sombor_trees"],
            capture_output=True,
            env=env,
            timeout=60,
        )
        assert done.returncode != 0
        assert b"ImportError" in done.stderr
        assert b"'pure'" in done.stderr and b"'compiled'" in done.stderr


class TestGeneratedSource:
    def test_committed_c_matches_the_pyx(self):
        # the benchmark compiles the committed .c and refuses it when stale;
        # an edit to the .pyx needs a regenerated .c in the same change
        build = perfbench_build()
        checked, stale = build.stale_markers(
            build.KERNELS / "_speedups.c", build.KERNELS / "_speedups.pyx"
        )
        assert checked > 0
        assert stale == []
