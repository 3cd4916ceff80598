"""The extremal machinery: the maximizing tree, its closed-form value and
the structural family classifier (the proofs' scalar inequalities are tests).

Family vocabulary (fixed by the CLI output format):

* Star  - the star S_n, the whole family when alpha = n-1.
* T1    - a star core where every core vertex carries at least one pendant.
* T2    - a star core whose hub carries no pendant but every other core
          vertex does (only defined when alpha != n/2).
* TStar - the T1 member with exactly one pendant per non-hub core vertex;
          this is the unique Sombor maximizer.
* Other - everything else.

The families are read off the star core: ``_classified`` reads the split of
``tree.core_split`` once, picks the hub, and hands both on with the class.
Only the functions that take or build a ``Tree`` import ``tree``, when they
run: ``verify`` needs just the closed form and T*'s sequence, so its start
never compiles ``tree.py``.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import TYPE_CHECKING

from .errors import InfeasibleParamsError

if TYPE_CHECKING:
    from .tree import Tree


class TreeClass(Enum):
    STAR = "Star"
    TSTAR = "TStar"
    T1 = "T1"
    T2 = "T2"
    OTHER = "Other"


def feasible_alpha_range(order: int) -> range:
    """ceil(n/2) .. n-1 inclusive; empty for order < 2."""
    return range((order + 1) // 2, order)


def check_feasible(order: int, alpha: int) -> None:
    """Raise InfeasibleParamsError unless alpha is in feasible_alpha_range(order)."""
    rng = feasible_alpha_range(order)
    if alpha not in rng:
        reason = (
            f"alpha must be in [{rng.start}, {rng.stop - 1}] for order {order}"
            if rng else f"order {order} has no feasible alpha"
        )
        raise InfeasibleParamsError(f"{reason}, got alpha={alpha}")


def construct_t_star(order: int, alpha: int) -> Tree:
    """Build the maximizer: a star on order-alpha vertices, one pendant hung
    on each non-hub vertex, and the remaining 2*alpha-(order-1) pendants on
    the hub.

    Vertex numbering is fixed: hub 0; core leaves 1..order-alpha-1; their
    pendants next, in the same order; hub pendants last.  At alpha = order-1
    the core degenerates to the hub alone and the result is the star.
    """
    check_feasible(order, alpha)
    n, a = order, alpha
    return _star_with_pendants(n - a, 2 * a - n + 1, (1,) * (n - a - 1))


def t_star_levels(order: int, alpha: int) -> tuple[int, ...]:
    """The maximizer's canonical level sequence, as the enumeration stream
    yields it: the hub at the root, each armed core vertex followed by its
    pendant, then the hub's own pendants."""
    check_feasible(order, alpha)
    n, a = order, alpha
    return (0,) + (1, 2) * (n - a - 1) + (1,) * (2 * a - n + 1)


def closed_form_max(order: int, alpha: int) -> float:
    """The maximum Sombor index over trees of this order and independence
    number: (2a-(n-1))sqrt(a^2+1) + (n-(a+1))(sqrt(a^2+4) + sqrt(5))."""
    check_feasible(order, alpha)
    n, a = order, alpha
    return (2 * a - (n - 1)) * math.sqrt(a * a + 1) + (n - (a + 1)) * (
        math.sqrt(a * a + 4) + math.sqrt(5)
    )


def _classified(t: Tree) -> tuple[TreeClass, int, dict]:
    """classify(t) with the core it was read from: (class, hub, split), where
    split is ``core_split(t)``, or (Star, -1, {}) at order <= 2.  The hub is
    the core vertex of largest core degree, on a two-vertex core the end with
    more pendants, the smaller id on a tie; the core is a star exactly when
    the hub is adjacent to every other core vertex.  The moves take the split
    from here, so a move reads the core once."""
    from .tree import core_split

    if t.order <= 2:
        return TreeClass.STAR, -1, {}
    split = core_split(t)
    hub = min(split, key=lambda w: (-len(split[w][1]), -len(split[w][0]), w))
    pendants, others = split[hub]
    if len(others) != len(split) - 1:
        return TreeClass.OTHER, hub, split
    if not others:
        return TreeClass.STAR, hub, split
    # every non-hub core vertex is a core leaf, so it carries a pendant
    if not pendants:
        return TreeClass.T2, hub, split
    if all(len(split[w][0]) == 1 for w in others):
        return TreeClass.TSTAR, hub, split
    return TreeClass.T1, hub, split


def classify(t: Tree) -> TreeClass:
    """Structural family test on the star core (see _classified).

    A core that is a star with every vertex carrying a pendant is T1 (TStar
    when the non-hub vertices carry exactly one pendant each); a bare hub
    makes it T2, never at alpha = n/2.  Anything with a non-star core is Other.
    """
    return _classified(t)[0]


def _star_with_pendants(core_size: int, hub_count: int, leaf_counts) -> Tree:
    """Star core with `hub_count` pendants on the hub and leaf_counts[i] on
    core leaf i+1, built by ``Tree.from_edges`` (T* and the tests' T1/T2
    builders).  Numbering: hub 0, core leaves, leaf pendants, hub pendants."""
    from .tree import Tree

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
