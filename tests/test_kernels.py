"""Backend parity: the compiled kernels must match the pure backend bit for
bit, and both must agree with the adjacency-based library routines.  The
one-pass order fold must equal a separate fold per alpha, and the pure
backend's fused fold must equal the shared stream fold over either backend.
The ``compiled`` fixture lives in conftest.py."""

import math
import os
import shutil
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from types import SimpleNamespace

import pytest

from sombor_trees import _kernels
from sombor_trees._kernels import _stream_fold, pure
from sombor_trees.tree import Tree, _free_check, _level_parents

from conftest import (
    ROOT,
    bind_backend,
    filtered_rooted_stream,
    independence_number_oracle,
    iter_rooted_level_sequences,
    perfbench_build,
    sombor_index,
)


class TestPureKernels:
    def test_stats_match_library_routines(self):
        for n in range(1, 11):
            for levels in pure.iter_level_sequences(n):
                t = Tree.from_level_sequence(levels)
                so, alpha = pure.tree_stats_from_levels(levels)
                assert so == pytest.approx(sombor_index(t), abs=1e-12)
                assert alpha == independence_number_oracle(t)

    def test_standalone_stats_stay_linear_in_memory(self):
        # the fold's n x n table of roots would take about 200 MB here
        n = 5000
        star = (0,) + (1,) * (n - 1)
        tracemalloc.start()
        try:
            so, alpha = pure.tree_stats_from_levels(star)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert alpha == n - 1
        assert math.isclose(so, (n - 1) * math.sqrt((n - 1) ** 2 + 1))
        assert peak < 2**22, peak

    def test_order_fold_sizes_partition_the_stream(self):
        # family sizes across alpha partition the order-9 stream
        fold = pure.order_fold(9)
        assert sorted(fold) == [5, 6, 7, 8]
        total = 0
        for count, best, runner, ties, first in fold.values():
            assert ties >= 1 and len(first) == 9 and best > runner
            total += count
        assert total == 47

    def test_order_fold_trivial_orders(self):
        assert pure.order_fold(1) == {1: (1, 0.0, -math.inf, 1, (0,))}
        ((alpha, (count, best, runner, ties, first)),) = pure.order_fold(2).items()
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
        assert _stream_fold(2) == {
            1: (4, 3.0, 3.0 - 1e-12, 2, (0, 2)),
            2: (1, 1.0, -math.inf, 1, (0, 5)),
        }

    def test_fused_fold_counts_exact_ties_only(self, monkeypatch):
        # a scripted order-10 walk over real trees, out of stream order: y1
        # and y2 tie exactly at alpha 6, and x lies a few ulps below them
        low = (0, 1, 2, 3, 1, 2, 3, 1, 2, 3)
        y1 = (0, 1, 2, 3, 4, 3, 1, 2, 3, 3)
        x = (0, 1, 2, 3, 4, 1, 2, 3, 3, 1)
        y2 = (0, 1, 2, 3, 4, 2, 1, 2, 3, 3)
        big, small = (0, 1, 2, 2, 1, 2, 2, 1, 2, 2), (0, 1, 2, 3, 3, 1, 2, 3, 3, 1)
        script = [low, y1, x, y2, big, small]
        stats = {L: pure.tree_stats_from_levels(L) for L in script}
        so = {L: value for L, (value, _) in stats.items()}
        assert [a for _, a in stats.values()] == [6, 6, 6, 6, 7, 7]
        assert so[low] < so[x] < so[y1] == so[y2] and 0 < so[y1] - so[x] < 1e-12
        assert so[small] < so[big]

        monkeypatch.setattr(pure, "_trees", _scripted_trees(script))
        assert pure.order_fold(10) == {
            6: (4, so[y1], so[x], 2, y1),
            7: (2, so[big], so[small], 1, big),
        }

    def test_fused_fold_skips_only_trees_below_the_runner_up(self, monkeypatch):
        # a scripted order-10 walk at alpha 6: x lies a few ulps above r, the
        # runner-up when x comes, the three low trees meet the Cauchy-Schwarz
        # skip against x by a wide margin, and y2 then ties y1 exactly
        r = (0, 1, 2, 3, 4, 1, 2, 3, 3, 1)
        x = (0, 1, 2, 3, 4, 2, 1, 2, 3, 3)
        y1 = (0, 1, 2, 2, 2, 1, 2, 1, 2, 1)
        y2 = (0, 1, 2, 3, 2, 2, 1, 2, 1, 1)
        low = [
            (0, 1, 2, 3, 4, 4, 1, 2, 3, 4),
            (0, 1, 2, 3, 4, 2, 1, 2, 3, 4),
            (0, 1, 2, 3, 1, 2, 3, 1, 2, 3),
        ]
        script = [r, y1, x, *low, y2]
        stats = {L: pure.tree_stats_from_levels(L) for L in script}
        so = {L: value for L, (value, _) in stats.items()}
        assert {a for _, a in stats.values()} == {6}
        assert so[r] < so[x] < so[y1] == so[y2]
        assert so[x] - so[r] <= 4 * math.ulp(so[r])
        for L in low:
            assert 9 * sum(d**3 for d in _degrees(L)[1]) < 0.99 * so[x] ** 2

        monkeypatch.setattr(pure, "_trees", _scripted_trees(script))
        assert pure.order_fold(10) == {6: (7, so[y1], so[x], 2, y1)}

    def test_sombor_sum_meets_the_cauchy_schwarz_bound(self):
        # the fold skips the sum when (n - 1) * F, F the sum of deg**3, is
        # below its cell's runner-up: the radicands add up to F, and the
        # float sum exceeds sqrt((n - 1) * F) by at most a factor
        # 1 + gamma_{n+4}, checked in exact rationals
        for n in range(2, 15):
            gamma = Fraction(n + 4, 2**53 - (n + 4))
            for levels in pure.iter_level_sequences(n):
                parent, deg = _degrees(levels)
                F = sum(d**3 for d in deg)
                assert sum(deg[i] ** 2 + deg[parent[i]] ** 2 for i in range(1, n)) == F
                so, _ = pure.tree_stats_from_levels(levels)
                assert (Fraction(so) / (1 + gamma)) ** 2 <= (n - 1) * F, levels

    def test_the_star_meets_the_bound_with_equality(self):
        # one radicand r on every edge: SO**2 = (n - 1)**2 * r = (n - 1) * F
        for n in range(2, 41):
            parent, deg = _degrees((0,) + (1,) * (n - 1))
            (r,) = {deg[i] ** 2 + deg[parent[i]] ** 2 for i in range(1, n)}
            assert (n - 1) ** 2 * r == (n - 1) * sum(d**3 for d in deg)

    def test_order_fold_equals_one_fold_per_alpha(self):
        for n in range(1, 12):
            fold = pure.order_fold(n)
            for alpha in range(1, n + 1):
                assert fold.get(alpha) == _fold_one_alpha(n, alpha)

    def test_fused_fold_equals_the_stream_fold(self, monkeypatch):
        bind_backend(monkeypatch, pure)
        for n in range(1, 17):
            assert pure.order_fold(n) == _stream_fold(n)

    def test_walk_reports_the_first_changed_index(self):
        # the fused fold takes the walk's parents and redoes the tree from lo
        # on, and only there; the degrees, F and alpha it keeps across trees
        # equal the tree's own, decoded from scratch
        for n in range(1, 14):
            prev = None
            L, P = pure._start(n)
            deg = [0] * n
            for lo, alpha, F in pure._trees(L, P, deg):
                assert P[1:] == _level_parents(L)[1:], (n, L, P)
                if prev is None:
                    assert lo == 1
                else:
                    changed = [i for i in range(n) if (L[i], P[i]) != prev[i]]
                    assert lo == changed[0], (n, prev, L, P)
                prev = list(zip(L, P))
                assert deg == _degrees(L)[1], (n, L, deg)
                assert F == sum(d**3 for d in deg), (n, L, F)
                assert alpha == pure.tree_stats_from_levels(L)[1], (n, L, alpha)

    def test_jump_visits_few_rejected_sequences(self, monkeypatch):
        # the walk advances once from every sequence it visits, under the
        # generator and under the fused fold alike: from a sequence its
        # suffix-following check accepts, it yields and then steps naturally,
        # by its own last-leaf step or through _successor; from any other it
        # calls _successor forced at m - 1.  So the visits are the yields
        # plus the forced calls, and the full-scan _free_check must agree
        # with the walk at every one of them.  _successor has no fallback for
        # a forced index at level 1: a first root subtree of one vertex is
        # always accepted, so the walk never forces one there
        visited = 0

        def counting(L, P, p):
            nonlocal visited
            valid, m = _free_check(L)
            if p is None:  # the natural step after a yield, counted there
                assert valid, L
            else:
                visited += 1
                assert not valid and p == m - 1, (L, p, valid, m)
                assert L[p] >= 2, (L, p)
            return successor(L, P, p)

        def yielding(L, P, deg):
            nonlocal visited
            for tree in trees(L, P, deg):
                visited += 1
                assert _free_check(L)[0], L
                yield tree

        successor, trees = pure._successor, pure._trees
        monkeypatch.setattr(pure, "_successor", counting)
        monkeypatch.setattr(pure, "_trees", yielding)
        # the walk reads 1.14 at n = 12 down to 1.04 at n = 18; a reset that
        # fires only at level >= 4, or resets one level short, reads 1.27 or
        # more at n = 12 and 1.09 or more at n = 18, above every bound here
        bound = {12: 1.2, 13: 1.17, 14: 1.14, 15: 1.12, 16: 1.1, 17: 1.08, 18: 1.07}
        for n in range(12, 19):
            visited = 0
            accepted = sum(1 for _ in pure.iter_level_sequences(n))
            assert visited / accepted <= bound[n], (n, visited, accepted)
            visited = 0
            folded = sum(cell[0] for cell in pure.order_fold(n).values())
            assert folded == accepted
            assert visited / folded <= bound[n], (n, visited, folded)

    def test_malformed_level_sequences_are_errors(self):
        # pure only: the compiled kernel reads such input unchecked (ROADMAP D6)
        for bad, message in [
            ((1,), "must start with 0"),
            ((0, -1), "level jump at position 1"),
            ((0, 0), "level jump at position 1"),
            ((0, 2), "level jump at position 1"),
            ((0, 1, 2, 1, 3), "level jump at position 4"),
        ]:
            with pytest.raises(ValueError, match=message):
                pure.tree_stats_from_levels(bad)

    def test_rejects_bad_order(self, monkeypatch):
        with pytest.raises(ValueError):
            list(pure.iter_level_sequences(0))
        with pytest.raises(ValueError):
            pure.order_fold(0)
        bind_backend(monkeypatch, pure)
        with pytest.raises(ValueError):
            _stream_fold(0)


def _scripted_trees(script):
    """A stand-in for pure._trees that walks the given level sequences."""

    def trees(L, P, deg):
        # each tree written into the caller's lists, its parents and degrees
        # with it, and the first index it changed, as _trees reports it, with
        # alpha and F computed from scratch
        prev = (0,) + (1,) * (len(L) - 1)
        for levels in script:
            lo = next(i for i in range(1, len(L)) if levels[i] != prev[i])
            L[:] = levels
            P[:], deg[:] = _degrees(levels)
            yield lo, pure.tree_stats_from_levels(levels)[1], sum(d**3 for d in deg)
            prev = levels

    return trees


def _degrees(levels):
    """(parent, degree) lists of the encoded tree."""
    parent = _level_parents(levels)
    deg = [0] + [1] * (len(parent) - 1)
    for p in parent[1:]:
        deg[p] += 1
    return parent, deg


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
        # the compiled generator keeps a filter mode; pure keeps only the walk
        for n in range(3, 11):
            assert list(compiled.iter_level_sequences(n, use_jump=False)) == (
                filtered_rooted_stream(n)
            )

    def test_stats_bit_identical(self, compiled):
        for n in range(1, 12):
            for levels in pure.iter_level_sequences(n):
                assert compiled.tree_stats_from_levels(levels) == (
                    pure.tree_stats_from_levels(levels)
                )

    def test_empty_level_sequence_is_an_error(self, compiled):
        for mod in (pure, compiled):
            with pytest.raises(ValueError, match="empty level sequence"):
                mod.tree_stats_from_levels(())

    def test_order_fold_bit_identical(self, compiled, monkeypatch):
        # the compiled backend folds through _stream_fold
        bind_backend(monkeypatch, compiled)
        for n in range(1, 14):
            assert _stream_fold(n) == pure.order_fold(n)

    def test_rooted_streams_identical(self, compiled):
        for n in range(1, 10):
            assert list(compiled.iter_rooted_level_sequences(n)) == list(
                iter_rooted_level_sequences(n)
            )


class TestBackendSelection:
    def test_active_backend_exposes_the_api(self):
        assert _kernels.BACKEND in ("pure", "compiled")
        assert callable(_kernels.iter_level_sequences)
        assert callable(_kernels.tree_stats_from_levels)
        fused = pure.order_fold if _kernels.BACKEND == "pure" else _stream_fold
        assert _kernels.order_fold is fused
        assert "family_sweep" not in _kernels.__all__

    def test_unknown_backend_is_an_import_error(self):
        done = _import_package("bogus", ROOT / "src")
        assert done.returncode != 0
        assert b"ImportError" in done.stderr
        assert b"'pure'" in done.stderr and b"'compiled'" in done.stderr

    def test_compiled_without_the_build_names_the_setting(self, tmp_path):
        shutil.copytree(
            ROOT / "src" / "sombor_trees",
            tmp_path / "sombor_trees",
            ignore=shutil.ignore_patterns("*.so", "*.pyd", "__pycache__"),
        )
        done = _import_package("compiled", tmp_path)
        assert done.returncode != 0
        last = done.stderr.strip().splitlines()[-1]
        assert last.startswith(b"ImportError: SOMBOR_TREES_BACKEND=compiled")
        assert b"python setup.py build_ext --inplace" in last

    def test_failed_build_only_warns_and_leaves_the_pure_backend(self, tmp_path):
        for name in ("setup.py", "pyproject.toml"):
            shutil.copy(ROOT / name, tmp_path / name)
        shutil.copytree(
            ROOT / "src",
            tmp_path / "src",
            ignore=shutil.ignore_patterns("*.so", "*.pyd", "__pycache__"),
        )
        built = subprocess.run(
            [sys.executable, "setup.py", "build_ext", "--inplace"],
            cwd=tmp_path,
            capture_output=True,
            env=dict(os.environ, CC="/nonexistent/cc"),
            timeout=120,
        )
        assert built.returncode == 0, built.stderr
        binaries = [p for p in tmp_path.rglob("_speedups*") if p.suffix not in (".c", ".pyx")]
        assert binaries == []
        done = _import_package(None, tmp_path / "src")
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == [b"pure"]


def _import_package(backend, path):
    """``import sombor_trees`` in a fresh interpreter, from path first, printing
    the backend it picked; backend None leaves SOMBOR_TREES_BACKEND unset."""
    env = dict(os.environ)
    env.pop("SOMBOR_TREES_BACKEND", None)
    if backend is not None:
        env["SOMBOR_TREES_BACKEND"] = backend
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(path), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, "-c", "import sombor_trees; print(sombor_trees.KERNEL_BACKEND)"],
        capture_output=True,
        env=env,
        timeout=60,
    )


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
