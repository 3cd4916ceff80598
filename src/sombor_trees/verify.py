"""Exhaustive verification driver: brute-force family maxima vs the closed form.

Each order's enumeration stream is walked once and folded into every
(order, alpha) cell at the same time, keeping per alpha the maximum Sombor
value, how many isomorphism classes attain it exactly, the first of them, and
the runner-up value.  The stream yields one canonical level sequence per
isomorphism class, so a cell passes when the brute-force maximum matches the
closed form within a proven rounding bound, its only maximizing sequence is
the extremal tree's, and every other tree lies more than twice that bound
below it.  No exact tie hides: by Besicovitch (1940) it needs equal
square-free radicand vectors, and one that rounds apart leaves a margin below
the bound, so its cell fails.  Orders are independent, so with ``jobs > 1``
they fan out to forked children (``_fanout``), each sending its records back
down a pipe; the merged report is sorted and byte-stable.  No run loads
``concurrent.futures`` or ``multiprocessing``, and where ``os.fork`` is
missing every run is serial.
"""

from __future__ import annotations

import math
import os
import time
from typing import NamedTuple

from . import _kernels
from .errors import OrderRangeError, SizeLimitError
from .extremal import closed_form_max, feasible_alpha_range, t_star_levels

DEFAULT_VERIFY_CAP = 16


def _float_error(n: int, s: float) -> float:
    """Higham's bound (Accuracy and Stability of Numerical Algorithms, 2nd ed.,
    section 4.2) on the rounding error of s, an order-n Sombor sum computed as
    n-1 correctly rounded square roots of exact integer radicands added in
    vertex order, as both backends do (the C build takes no -ffast-math):
    gamma_n*|s|, with gamma_k = k*u/(1 - k*u) and u = 2**-53.  The closed form
    rounds at most 4 times on any path; the slack up to gamma_{n+4} absorbs the
    subtraction that forms margin_to_second.  The bound grows with |s|, so the
    best's covers the runner-up's."""
    ku = (n + 4) * 2.0**-53
    return ku / (1 - ku) * abs(s)


class ExtremalRecord(NamedTuple):
    """One (order, alpha) row of the verification table."""

    order: int
    alpha: int
    family_size: int
    closed_form: float
    brute_force_max: float
    maximizer_count: int
    maximizer_levels: tuple[int, ...]
    margin_to_second: float

    @property
    def formula_matches(self) -> bool:
        c, b = self.closed_form, self.brute_force_max
        return abs(c - b) <= _float_error(self.order, c) + _float_error(self.order, b)

    @property
    def passed(self) -> bool:
        return (
            self.formula_matches
            and self.maximizer_count == 1
            and self.margin_to_second > 2 * _float_error(self.order, self.brute_force_max)
            and self.maximizer_levels == t_star_levels(self.order, self.alpha)
        )


class VerificationReport(NamedTuple):
    records: tuple[ExtremalRecord, ...]
    order_seconds: tuple[float, ...]

    @property
    def overall(self) -> bool:
        return all(r.passed for r in self.records)


def _verify_order(order: int) -> tuple[list[ExtremalRecord], float]:
    """Fold the order's stream once into every feasible cell; (records, seconds)."""
    start = time.perf_counter()
    fold = _kernels.order_fold(order)
    records = []
    for alpha in feasible_alpha_range(order):
        size, best, runner, ties, first = fold[alpha]
        records.append(
            ExtremalRecord(
                order=order,
                alpha=alpha,
                family_size=size,
                closed_form=closed_form_max(order, alpha),
                brute_force_max=best,
                maximizer_count=ties,
                maximizer_levels=first,
                margin_to_second=best - runner,
            )
        )
    return records, time.perf_counter() - start


def check_orders(n_min: int, n_max: int, cap: int) -> None:
    """Raise OrderRangeError unless 2 <= n_min <= n_max, and SizeLimitError
    when n_max exceeds cap.  verify() starts with it, and the CLI calls it
    before opening an output file, so a rejected range leaves that file as it was."""
    if not 2 <= n_min <= n_max:
        raise OrderRangeError(f"need 2 <= n_min <= n_max, got ({n_min}, {n_max})")
    cap = min(cap, 2**31 - 1)  # the compiled kernels take the order as a C int
    if n_max > cap:
        raise SizeLimitError(f"n_max {n_max} exceeds the cap {cap}")


def verify(
    n_min: int, n_max: int, jobs: int = 1, cap: int = DEFAULT_VERIFY_CAP
) -> VerificationReport:
    """Verify every feasible (order, alpha) cell with n_min <= order <= n_max.

    Raises WorkerError when a worker process fails or dies."""
    check_orders(n_min, n_max, cap)
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    orders = range(n_max, n_min - 1, -1)  # largest first
    workers = min(jobs, len(orders))
    if workers == 1 or not hasattr(os, "fork"):
        results = [_verify_order(n) for n in orders]
    else:
        from ._fanout import fan_out

        # the workers - 1 largest orders alone, then the rest in one child: from
        # n = 10 up an order has more trees than all smaller ones together (A000055)
        k = workers - 1
        results = fan_out(_verify_order, [[n] for n in orders[:k]] + [list(orders[k:])])
    results.reverse()  # back to ascending (n, alpha)
    return VerificationReport(
        records=tuple(rec for recs, _ in results for rec in recs),
        order_seconds=tuple(secs for _, secs in results),
    )


def _fmt_margin(value: float) -> str:
    return "inf" if math.isinf(value) else f"{value:.9f}"


def to_csv(report: VerificationReport) -> str:
    """Stable CSV rendering; reals at 9 decimals, rows sorted by (n, alpha)."""
    lines = [
        "n,alpha,family_size,closed_form,brute_force_max,"
        "maximizer_count,margin_to_second,pass"
    ]
    for r in report.records:
        lines.append(
            f"{r.order},{r.alpha},{r.family_size},{r.closed_form:.9f},"
            f"{r.brute_force_max:.9f},{r.maximizer_count},"
            f"{_fmt_margin(r.margin_to_second)},{'true' if r.passed else 'false'}"
        )
    return "\n".join(lines) + "\n"


def render_text(report: VerificationReport) -> str:
    """Human-readable per-cell table plus a one-line summary."""
    lines = []
    worst_gap = 0.0
    min_margin = math.inf
    for r in report.records:
        gap = abs(r.closed_form - r.brute_force_max)
        worst_gap = max(worst_gap, gap)
        if r.family_size >= 2:
            min_margin = min(min_margin, r.margin_to_second)
        lines.append(
            f"n={r.order:<2d} alpha={r.alpha:<2d} family={r.family_size:<6d} "
            f"closed={r.closed_form:<15.9f} brute={r.brute_force_max:<15.9f} "
            f"maximizers={r.maximizer_count} margin={_fmt_margin(r.margin_to_second):<13s} "
            f"{'pass' if r.passed else 'FAIL'}"
        )
    verdict = "PASS" if report.overall else "FAIL"
    lines.append(
        f"overall: {verdict} ({len(report.records)} cells, "
        f"max formula gap {worst_gap:.3e}, "
        f"min margin {_fmt_margin(min_margin)}, "
        f"total {sum(report.order_seconds):.3f}s)"
    )
    return "\n".join(lines) + "\n"
