"""Checked edge rewirings that raise the Sombor index without changing the
independence number.

Each operation mirrors one of the local moves used to push an arbitrary tree
toward the extremal one: re-homing a batch of neighbors from a donor vertex
to a receiver, swapping the far endpoints of two edges, and the composite
case moves driven by a maximum-distance pair of support vertices in the
pendant-stripped core.  Preconditions are verified structurally; the
SO-increase and alpha-preservation claims are left to the property tests,
which sweep every applicable tree exhaustively at small orders.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .errors import PreconditionError, TreeStructureError
from .extremal import TreeClass, classify, star_core
from .tree import Tree, distances_from, strip_pendants, tree_path

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
    if moved:
        toward = tree_path(t, donor, receiver)[1]
        if toward in moved:
            raise TreeStructureError(
                f"moving {toward} would detach the donor from the receiver"
            )
    dropped = {frozenset((donor, w)) for w in moved}
    edges = [e for e in t.edges() if frozenset(e) not in dropped]
    edges += ((receiver, w) for w in moved)
    return Tree.from_edges(t.order, edges)


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
    dropped = {frozenset((u, x)), frozenset((v, y))}
    edges = [e for e in t.edges() if frozenset(e) not in dropped]
    edges.append((u, y))
    edges.append((v, x))
    try:
        return Tree.from_edges(t.order, edges)
    except TreeStructureError as exc:
        raise TreeStructureError(f"endpoint swap does not preserve tree-ness: {exc}")


def select_support_pair(t: Tree) -> tuple[int, int]:
    """Two support vertices of the pendant-stripped core at maximum distance
    within the core, as original ids; ties broken by the smallest id pair."""
    if t.order < 3:
        raise ValueError("needs a tree of order >= 3")
    core, old_of = strip_pendants(t)
    if core.order < 2:
        raise PreconditionError(
            "stripped tree is a single vertex; no support pair exists"
        )
    supports = sorted(
        {core.adjacency[p][0] for p in range(core.order) if core.degrees[p] == 1}
    )
    if len(supports) < 2:
        raise PreconditionError(
            "stripped tree has fewer than 2 support vertices"
        )
    _, u, v = min(
        (-dist[b], old_of[a], old_of[b])
        for a in supports
        for dist in [distances_from(core, a)]
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

    def pendants(w: int) -> tuple[int, ...]:
        return tuple(z for z in t.adjacency[w] if t.degrees[z] == 1)

    def heavy(w: int, toward: int) -> tuple[int, ...]:
        return tuple(z for z in t.adjacency[w] if t.degrees[z] >= 2 and z != toward)

    up, vp = pendants(u), pendants(v)
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


def apply_lemma2_step(t: Tree) -> Tree:
    """Empty the first loaded core leaf of a T2 tree onto the bare hub.

    The result lands in T1 with a strictly larger Sombor index.
    """
    label = classify(t)
    if label is not TreeClass.T2:
        raise PreconditionError(f"expected a T2 tree, classify gave {label.value}")
    hub, counts = star_core(t)
    leaf = min(w for w in counts if w != hub)
    moved = tuple(z for z in t.adjacency[leaf] if t.degrees[z] == 1)
    return shift_neighbors(t, ShiftSpec(leaf, hub, moved))


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
    hub, counts = star_core(t)
    loaded = [w for w, c in counts.items() if w != hub and c >= 2]
    donor = min(loaded)  # nonempty: the tree is T1 but not TStar
    pendants = sorted(z for z in t.adjacency[donor] if t.degrees[z] == 1)
    return shift_neighbors(t, ShiftSpec(donor, hub, tuple(pendants[1:])))
