"""The extremal machinery: the maximizing tree, its closed-form value, the
structural family classifier, and the scalar inequalities behind the proofs.

Family vocabulary (fixed by the CLI output format):

* Star  - the star S_n, the whole family when alpha = n-1.
* T1    - a star core where every core vertex carries at least one pendant.
* T2    - a star core whose hub carries no pendant but every other core
          vertex does (only defined when alpha != n/2).
* TStar - the T1 member with exactly one pendant per non-hub core vertex;
          this is the unique Sombor maximizer.
* Other - everything else.

The families are read off the star core: ``star_core`` takes the split of
``tree.core_split`` and gives the hub and each core vertex's pendants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterator

from .errors import InfeasibleParamsError
from .tree import Tree, core_split


class TreeClass(Enum):
    STAR = "Star"
    TSTAR = "TStar"
    T1 = "T1"
    T2 = "T2"
    OTHER = "Other"


def feasible_alpha_range(order: int) -> range:
    """ceil(n/2) .. n-1 inclusive; empty for order < 2."""
    return range((order + 1) // 2, order)


@dataclass(frozen=True)
class ExtremalParams:
    """A feasible (order, alpha) pair; construction validates the range."""

    order: int
    alpha: int

    def __post_init__(self):
        rng = feasible_alpha_range(self.order)
        if self.order < 2 or self.alpha not in rng:
            lo = (self.order + 1) // 2
            hi = self.order - 1
            raise InfeasibleParamsError(
                f"alpha must be in [{lo}, {hi}] for order {self.order}, "
                f"got alpha={self.alpha}"
            )


def construct_t_star(order: int, alpha: int) -> Tree:
    """Build the maximizer: a star on order-alpha vertices, one pendant hung
    on each non-hub vertex, and the remaining 2*alpha-(order-1) pendants on
    the hub.

    Vertex numbering is fixed: hub 0; core leaves 1..order-alpha-1; their
    pendants next, in the same order; hub pendants last.  At alpha = order-1
    the core degenerates to the hub alone and the result is the star.
    """
    p = ExtremalParams(order, alpha)
    n, a = p.order, p.alpha
    return _star_with_pendants(n - a, 2 * a - n + 1, (1,) * (n - a - 1))


def t_star_levels(order: int, alpha: int) -> tuple[int, ...]:
    """The maximizer's canonical level sequence, as the enumeration stream
    yields it: the hub at the root, each armed core vertex followed by its
    pendant, then the hub's own pendants."""
    p = ExtremalParams(order, alpha)
    n, a = p.order, p.alpha
    return (0,) + (1, 2) * (n - a - 1) + (1,) * (2 * a - n + 1)


def closed_form_max(order: int, alpha: int) -> float:
    """The maximum Sombor index over trees of this order and independence
    number: (2a-(n-1))sqrt(a^2+1) + (n-(a+1))(sqrt(a^2+4) + sqrt(5))."""
    p = ExtremalParams(order, alpha)
    n, a = p.order, p.alpha
    return (2 * a - (n - 1)) * math.sqrt(a * a + 1) + (n - (a + 1)) * (
        math.sqrt(a * a + 4) + math.sqrt(5)
    )


def star_core(t: Tree) -> tuple[int, dict[int, tuple[int, ...]]] | None:
    """The star core of a tree of order >= 3: (hub, {core vertex: its
    pendants}) over the non-pendant vertices, or None when they do not induce
    a star.

    The hub is the core vertex of largest core degree.  On a two-vertex core
    it is the end with more pendants, the smaller id on a tie.
    """
    if t.order < 3:
        raise ValueError("needs a tree of order >= 3")
    split = core_split(t)
    hub = min(split, key=lambda w: (-len(split[w][1]), -len(split[w][0]), w))
    if len(split[hub][1]) != len(split) - 1:
        return None
    return hub, {w: pendants for w, (pendants, _) in split.items()}


def classify(t: Tree) -> TreeClass:
    """Structural family test on the star core (see star_core).

    A core that is a star with every vertex carrying a pendant is T1 (TStar
    when the non-hub vertices carry exactly one pendant each); a bare hub
    makes it T2, never at alpha = n/2.  Anything with a non-star core is Other.
    """
    if t.order <= 2:
        return TreeClass.STAR
    core = star_core(t)
    if core is None:
        return TreeClass.OTHER
    hub, pendants = core
    if len(pendants) == 1:
        return TreeClass.STAR
    # every non-hub core vertex is a core leaf, so it carries a pendant
    if pendants[hub]:
        if all(len(p) == 1 for w, p in pendants.items() if w != hub):
            return TreeClass.TSTAR
        return TreeClass.T1
    return TreeClass.T2


def lemma1_f(x: float, c: int, d: int) -> float:
    """sqrt((x+c)^2 + d^2) - sqrt(x^2 + d^2); strictly increasing in x >= 1."""
    if c < 1 or d < 1:
        raise ValueError("c and d must be positive integers")
    return math.sqrt((x + c) ** 2 + d * d) - math.sqrt(x * x + d * d)


def lemma2_g(x: float, c: int, d: int) -> float:
    """sqrt(c^2 + x^2) - sqrt(d^2 + x^2) with c > d; strictly decreasing in x >= 1."""
    if c < 1 or d < 1:
        raise ValueError("c and d must be positive integers")
    if c <= d:
        raise ValueError(f"requires c > d, got c={c}, d={d}")
    return math.sqrt(c * c + x * x) - math.sqrt(d * d + x * x)


def star_shift_inequality(n_minus_alpha: int, k: int) -> bool:
    """(s+k)^2 + 1 >= s^2 + (k+1)^2 for s = n-alpha >= 2, k >= 1 (exact)."""
    s = n_minus_alpha
    return (s + k) ** 2 + 1 >= s * s + (k + 1) ** 2


def theorem_shift_inequality(l: int, k: int) -> bool:
    """(l+k)^2 + 4 >= (l+1)^2 + (k+1)^2 for l, k >= 1 (exact)."""
    return (l + k) ** 2 + 4 >= (l + 1) ** 2 + (k + 1) ** 2


def _pendant_distributions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    """Non-increasing compositions of total into exactly `parts` parts >= 1."""

    def rec(remaining: int, parts_left: int, cap: int):
        if parts_left == 1:
            if 1 <= remaining <= cap:
                yield (remaining,)
            return
        for first in range(min(cap, remaining - (parts_left - 1)), 0, -1):
            for rest in rec(remaining - first, parts_left - 1, first):
                yield (first,) + rest

    yield from rec(total, parts, total)


def _star_with_pendants(core_size: int, hub_count: int, leaf_counts) -> Tree:
    """Star core with `hub_count` pendants on the hub and leaf_counts[i] on
    core leaf i+1.  Numbering: hub 0, core leaves, leaf pendants grouped per
    leaf, hub pendants last."""
    edges = []
    nxt = core_size
    for i in range(1, core_size):
        edges.append((0, i))
        for _ in range(leaf_counts[i - 1]):
            edges.append((i, nxt))
            nxt += 1
    for _ in range(hub_count):
        edges.append((0, nxt))
        nxt += 1
    return Tree.from_edges(nxt, edges)


def t1_members(order: int, alpha: int) -> Iterator[Tree]:
    """All trees built from the star on order-alpha vertices by hanging at
    least one pendant on every core vertex, alpha pendants in total.  One
    representative per isomorphism class."""
    ExtremalParams(order, alpha)
    s = order - alpha
    if s < 2:
        raise InfeasibleParamsError(
            f"the T1 family needs order - alpha >= 2, got {s}"
        )
    for hub_count in range(1, alpha - (s - 1) + 1):
        for leaf_counts in _pendant_distributions(alpha - hub_count, s - 1):
            if s == 2 and hub_count > leaf_counts[0]:
                continue  # a two-vertex core with its ends swapped: seen already
            yield _star_with_pendants(s, hub_count, leaf_counts)


def t2_members(order: int, alpha: int) -> Iterator[Tree]:
    """All trees built from the star on order-alpha+1 vertices by hanging
    pendants on every non-hub core vertex only, alpha-1 pendants in total.
    Empty when 2*alpha < order + 1; undefined at alpha = n/2."""
    ExtremalParams(order, alpha)
    if 2 * alpha == order:
        raise InfeasibleParamsError("the T2 family is not defined at alpha = n/2")
    s = order - alpha + 1
    for leaf_counts in _pendant_distributions(alpha - 1, s - 1):
        yield _star_with_pendants(s, 0, leaf_counts)
