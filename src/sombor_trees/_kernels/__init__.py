"""Kernel backend selection, plus the one-pass order fold.

SOMBOR_TREES_BACKEND=pure imports the pure-Python module.  Otherwise the
compiled extension is tried; when it does not import, =compiled is an
ImportError naming the build command, and an unset or empty value falls back
to the pure module.  Any other value is an ImportError.  Both backends expose
the same callables and produce bit-identical output.

``order_fold`` is the backend's own fold when it has one: the pure module
folds the one generator that walks the stream and keeps each tree's stats,
``pure._trees``.  Otherwise it is
``_stream_fold``, written here on ``iter_level_sequences`` and
``tree_stats_from_levels`` alone; the compiled backend folds through it until
ROADMAP D6 exports an all-C ``order_fold``.  Outside the fold only
``compute`` reads a backend callable, the stats of its one tree:
``enumeration.enumerate_family`` runs ``pure._trees`` on either backend.
"""

import os

_requested = os.environ.get("SOMBOR_TREES_BACKEND", "").strip().lower()

if _requested not in ("", "pure", "compiled"):
    raise ImportError(
        f"SOMBOR_TREES_BACKEND must be 'pure' or 'compiled', got {_requested!r}"
    )
if _requested == "pure":
    from . import pure as _impl
else:
    try:
        from . import _speedups as _impl  # type: ignore[no-redef]
    except ImportError as exc:
        if _requested == "compiled":
            raise ImportError(
                "SOMBOR_TREES_BACKEND=compiled, but the compiled extension is "
                "not built or does not load; build it with "
                "`python setup.py build_ext --inplace`"
            ) from exc
        from . import pure as _impl  # type: ignore[no-redef]

BACKEND = _impl.BACKEND
iter_level_sequences = _impl.iter_level_sequences
tree_stats_from_levels = _impl.tree_stats_from_levels

# The backend's own callables.  perfbench/tracer.py wraps the names listed
# here; _stream_fold reads them from this module at call time, so a wrapper set
# here sees every walk it makes.
__all__ = [
    "BACKEND",
    "iter_level_sequences",
    "tree_stats_from_levels",
]


def _stream_fold(n):
    """Fold the whole order-n stream into every alpha cell in one walk.

    Returns {alpha: (family_size, best_so, runner_up_so, maximizer_count,
    maximizer_levels)} for each alpha that occurs at order n.  Per alpha,
    best_so is the largest Sombor value, maximizer_count the number of level
    sequences attaining it exactly, maximizer_levels the first of them in
    stream order, and runner_up_so the largest value strictly below best_so
    (-inf if none).  The stream and the stats are the callables bound in this
    module when the call starts.
    """
    gen, stats = iter_level_sequences, tree_stats_from_levels
    count = [0] * (n + 1)
    best = [float("-inf")] * (n + 1)
    runner = [float("-inf")] * (n + 1)
    ties = [0] * (n + 1)
    first = [None] * (n + 1)
    for levels in gen(n):
        so, a = stats(levels)
        count[a] += 1
        if so <= runner[a]:  # runner < best, so the cell stays as it is
            continue
        b = best[a]
        if so > b:
            runner[a] = b
            best[a] = so
            ties[a] = 1
            first[a] = levels
        elif so == b:
            ties[a] += 1
        else:
            runner[a] = so
    return {
        a: (count[a], best[a], runner[a], ties[a], first[a])
        for a in range(n + 1)
        if count[a]
    }


order_fold = getattr(_impl, "order_fold", _stream_fold)
