"""Checked edge rewirings that raise the Sombor index without changing the
independence number.

Each operation mirrors one of the local moves used to push an arbitrary tree
toward the extremal one: re-homing a batch of neighbors from a donor vertex
to a receiver, swapping the far endpoints of two edges, and the composite
case moves driven by a maximum-distance pair of support vertices in the
pendant-stripped core.  Every move learns which neighbors are pendants and
which are core from ``tree.core_split``.  Every rewiring builds its result
through ``_rewire``: ``Tree.from_edges`` judges tree-ness, and the move only
names itself in the error.  Other preconditions are verified structurally;
the SO-increase and alpha-preservation claims are left to the property
tests, which sweep every applicable tree exhaustively at small orders.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .errors import PreconditionError, TreeStructureError
from .extremal import TreeClass, classify, star_core
from .tree import Tree, core_split, distances_from, tree_path


@dataclass(frozen=True)
class ShiftSpec:
    """Re-home `moved` (current neighbors of donor) onto receiver."""

    donor: int
    receiver: int
    moved: tuple[int, ...]


def shift_neighbors(t: Tree, spec: ShiftSpec) -> Tree:
    """Delete donor~w and add receiver~w for every w in spec.moved.

    Valid whenever the moved subtrees hang off the donor away from the
    receiver; the donor-side edge of the donor-receiver path must stay put.
    Past the checks below, moving it is exactly what ``Tree.from_edges`` rejects.
    """
    donor, receiver = spec.donor, spec.receiver
    moved = tuple(spec.moved)
    t._check_vertex(donor)
    t._check_vertex(receiver)
    for w in moved:
        t._check_vertex(w)
    if donor == receiver:
        raise TreeStructureError("donor and receiver must be distinct")
    if receiver in moved:
        raise TreeStructureError("receiver cannot be one of the moved vertices")
    if len(set(moved)) != len(moved):
        raise TreeStructureError("moved vertices must be distinct")
    for w in moved:
        if w not in t.adjacency[donor]:
            raise TreeStructureError(f"vertex {w} is not adjacent to donor {donor}")
    detach = f"moving {', '.join(map(str, moved))} would detach the donor from the receiver"
    return _rewire(t, [(donor, w) for w in moved], [(receiver, w) for w in moved], detach)


def _rewire(t: Tree, dropped: list, added: list, failure: str) -> Tree:
    """t with the edges in dropped replaced by those in added, built by
    ``Tree.from_edges``; a rejection is raised again prefixed with failure."""
    gone = {frozenset(e) for e in dropped}
    edges = [e for e in t.edges() if frozenset(e) not in gone]
    try:
        return Tree.from_edges(t.order, edges + added)
    except TreeStructureError as exc:
        raise TreeStructureError(f"{failure}: {exc}") from exc


def swap_endpoints(t: Tree, u: int, x: int, v: int, y: int) -> Tree:
    """Replace edges u~x and v~y by u~y and v~x (degrees are unchanged)."""
    for w in (u, x, v, y):
        t._check_vertex(w)
    if len({u, x, v, y}) != 4:
        raise TreeStructureError("u, x, v, y must be four distinct vertices")
    if x not in t.adjacency[u]:
        raise TreeStructureError(f"{u} and {x} are not adjacent")
    if y not in t.adjacency[v]:
        raise TreeStructureError(f"{v} and {y} are not adjacent")
    failure = "endpoint swap does not preserve tree-ness"
    return _rewire(t, [(u, x), (v, y)], [(u, y), (v, x)], failure)


def select_support_pair(t: Tree) -> tuple[int, int]:
    """Two support vertices of the pendant-stripped core at maximum distance
    within the core; ties broken by the smallest id pair.

    The core is a subtree of t, so distances in t are distances in the core.
    """
    if t.order < 3:
        raise ValueError("needs a tree of order >= 3")
    split = core_split(t)
    if len(split) < 2:
        raise PreconditionError(
            "stripped tree is a single vertex; no support pair exists"
        )
    # a core leaf has one core neighbor: its support in the core
    supports = sorted({core[0] for _, core in split.values() if len(core) == 1})
    if len(supports) < 2:
        raise PreconditionError(
            "stripped tree has fewer than 2 support vertices"
        )
    _, u, v = min(
        (-dist[b], a, b)
        for a in supports
        for dist in [distances_from(t, a)]
        for b in supports
        if b > a
    )
    return u, v


def _case_move(t: Tree) -> tuple[str, Optional[tuple[int, ...]], ShiftSpec]:
    """The case move around the maximum-distance support pair (u, v), whose
    path neighbors toward each other are x and y: (tag, swap, shift), where
    swap is the swap_endpoints(u, x, v, y) to make first, or None."""
    label = classify(t)
    if label is not TreeClass.OTHER:
        raise PreconditionError(
            f"case moves expect a tree outside the star families; got {label.value}"
        )
    u, v = select_support_pair(t)
    path = tree_path(t, u, v)
    x, y = path[1], path[-2]
    split = core_split(t)

    def heavy(w: int, toward: int) -> tuple[int, ...]:
        return tuple(z for z in split[w][1] if z != toward)

    up, vp = split[u][0], split[v][0]
    if up and vp:
        if t.degrees[u] < t.degrees[v]:
            u, v, x, y, vp = v, u, y, x, up
        # v keeps y and one pendant; the rest of its neighbors move to u
        shift = ShiftSpec(v, u, heavy(v, y) + vp[1:])
        if t.degrees[x] >= t.degrees[y]:
            return "1.1", None, shift
        # the swap is the identity when the pair is adjacent
        return "1.2", ((u, x, v, y) if len({u, x, v, y}) == 4 else None), shift
    tag = "2" if up or vp else "3"
    if up:  # the pendant-free side donates its heavy neighbors
        u, v, x, y = v, u, y, x
    return tag, None, ShiftSpec(u, v, heavy(u, x))


def lemma1_case_tag(t: Tree) -> str:
    """Which case move applies to this tree (classify(t) must be Other)."""
    return _case_move(t)[0]


def apply_lemma1_case(t: Tree) -> Tree:
    """Apply the case move that the selected support pair realizes.

    The case is lemma1_case_tag(t): 1.1 re-homes all of v's neighbors except
    y and one pendant onto u; 1.2 first swaps the path edges u~x / v~y
    (skipped when the pair is adjacent, where the swap degenerates to the
    identity), then does the same re-homing; 2 and 3 re-home the heavy
    neighbors of the pendant-free donor.
    """
    _, swap, shift = _case_move(t)
    if swap is not None:
        t = swap_endpoints(t, *swap)
    return shift_neighbors(t, shift)


def _unload_to_hub(t: Tree, keep: int) -> Tree:
    """Move all but `keep` pendants of the first core leaf that carries more
    than `keep` onto the hub of the star core."""
    hub, pendants = star_core(t)
    leaf = min(w for w, p in pendants.items() if w != hub and len(p) > keep)
    return shift_neighbors(t, ShiftSpec(leaf, hub, pendants[leaf][keep:]))


def apply_lemma2_step(t: Tree) -> Tree:
    """Empty the first loaded core leaf of a T2 tree onto the bare hub.

    The result lands in T1 with a strictly larger Sombor index.
    """
    label = classify(t)
    if label is not TreeClass.T2:
        raise PreconditionError(f"expected a T2 tree, classify gave {label.value}")
    return _unload_to_hub(t, 0)


def apply_theorem_step(t: Tree) -> Optional[Tree]:
    """Move all but one pendant from a loaded core leaf of a T1 tree onto the
    hub.  Returns None when the tree is already the maximizer (TStar); each
    step strictly lowers the surplus pendant count, so iteration terminates.
    """
    label = classify(t)
    if label is TreeClass.TSTAR:
        return None
    if label is not TreeClass.T1:
        raise PreconditionError(f"expected a T1 tree, classify gave {label.value}")
    # a core leaf carries >= 2 pendants: the tree is T1 but not TStar
    return _unload_to_hub(t, 1)
