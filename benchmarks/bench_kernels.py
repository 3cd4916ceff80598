#!/usr/bin/env python3
"""Benchmark the compiled kernels against the pure-Python fallback.

Times the two hot paths (draining the free-tree stream, and the one-pass
order fold that the verifier runs once per order) for a range of orders and
prints the speedups.  The "enum" columns drain ``iter_level_sequences``: the
pure one drains ``pure._trees``, so it also pays for the degree, F and
matching upkeep that the compiled generator does not keep, and its speedup
is not like for like.  The pure fold is the pure backend's fused
``order_fold``; the compiled one is ``_kernels._stream_fold`` over the
compiled kernels, which is how the compiled backend folds until it exports
its own.  Outside the timed region it checks that both backends drain the
same stream, by a sha256 over each order's sequences, and that the two folds
agree.  Then it times the ``enumerate`` command's work without its writes:
the records of ``enumerate_family(17, 11)``, which runs the pure walk on
either backend.  Run from an installed checkout:

    python benchmarks/bench_kernels.py --orders 12 14 16 --repeat 3

Times are reference-core seconds, as in ``perfbench/run.py``: the speed of a
shared host's CPUs changes with the load on it, so every timed run is scaled
by ``REF_CAL_S / cal``, cal the median time of a fixed pure-Python loop
(``perfbench/launch.py``'s calibration loop) just before and after the run.
Each figure is the best of ``--repeat`` scaled runs.

The repository's end-to-end benchmark is ``perfbench/run.py``.
"""

import argparse
import hashlib
import statistics
import sys
import time
from contextlib import contextmanager
from pathlib import Path

from sombor_trees import _kernels
from sombor_trees._kernels import _stream_fold, pure
from sombor_trees.enumeration import enumerate_family

try:
    from sombor_trees._kernels import _speedups as compiled
except ImportError:
    compiled = None

# perfbench's calibration loop and its reference time, the unit here; its
# modules import one another by name, and no bytecode is written next to them
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
sys.dont_write_bytecode = True
from launch import calibrate
from run import REF_CAL_S

FAMILY = (17, 11)  # the family the end-to-end enumerate workload prints
CAL_SAMPLES = 5  # calibration loops before and after each timed run


def timed(run, repeat):
    """(best scaled time, result) of repeat calls of run()."""
    best = float("inf")
    result = None
    for _ in range(repeat):
        cal = [calibrate() for _ in range(CAL_SAMPLES)]
        start = time.perf_counter()
        result = run()
        elapsed = time.perf_counter() - start
        cal += [calibrate() for _ in range(CAL_SAMPLES)]
        best = min(best, elapsed * REF_CAL_S / statistics.median(cal))
    return best, result


def time_enumerate(mod, n, repeat):
    return timed(lambda: sum(1 for _ in mod.iter_level_sequences(n)), repeat)


def stream_digest(mod, n):
    h = hashlib.sha256()
    for levels in mod.iter_level_sequences(n):
        h.update(bytes(levels))
    return h.hexdigest()


@contextmanager
def bound(mod):
    """Bind mod's kernels in _kernels, where _stream_fold looks them up, for
    the duration of the block."""
    saved = _kernels.iter_level_sequences, _kernels.tree_stats_from_levels
    _kernels.iter_level_sequences = mod.iter_level_sequences
    _kernels.tree_stats_from_levels = mod.tree_stats_from_levels
    try:
        yield
    finally:
        _kernels.iter_level_sequences, _kernels.tree_stats_from_levels = saved


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--orders", type=int, nargs="+", default=[12, 14, 16])
    ap.add_argument("--repeat", type=int, default=3)
    args = ap.parse_args()

    if compiled is None:
        print("compiled backend unavailable; timing the pure backend only")

    print(f"best of {args.repeat}, in reference-core seconds")
    header = f"{'n':>3} {'trees':>8} {'enum pure':>11} {'fold pure':>11}"
    if compiled is not None:
        header += f" {'enum comp':>11} {'fold comp':>11} {'enum x':>7} {'fold x':>7}"
    print(header)
    for n in args.orders:
        ep, count = time_enumerate(pure, n, args.repeat)
        fp, pfold = timed(lambda: pure.order_fold(n), args.repeat)
        row = f"{n:>3} {count:>8} {ep:>10.4f}s {fp:>10.4f}s"
        if compiled is not None:
            ec, ccount = time_enumerate(compiled, n, args.repeat)
            with bound(compiled):
                fc, cfold = timed(lambda: _stream_fold(n), args.repeat)
            assert ccount == count, "backends disagree on the tree count"
            assert stream_digest(compiled, n) == stream_digest(pure, n), (
                "backends disagree on the stream"
            )
            assert cfold == pfold, "backends disagree on the fold"
            row += f" {ec:>10.4f}s {fc:>10.4f}s {ep / ec:>6.1f}x {fp / fc:>6.1f}x"
        print(row)

    n, alpha = FAMILY
    tf, _ = timed(lambda: "".join(enumerate_family(n, alpha)), args.repeat)
    print(f"enumerate_family{FAMILY}: {tf:.4f}s")


if __name__ == "__main__":
    main()
