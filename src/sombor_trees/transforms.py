"""Checked edge rewirings meant to raise the Sombor index without changing
the independence number.

Each operation mirrors one of the local moves used to push an arbitrary tree
toward the extremal one: re-homing a batch of neighbors from a donor vertex
to a receiver, swapping the far endpoints of two edges, and the composite
case moves driven by a maximum-distance pair of support vertices in the
pendant-stripped core.  A move reads the core once, from
``extremal._classified``; the support pair's walk gives the path ends.
Every rewiring builds its result through ``_rewire``: ``Tree.from_edges``
judges tree-ness, and the move only names itself in the error.  Other
preconditions are verified structurally; the SO-increase and
alpha-preservation claims are left to the property tests, which sweep every
applicable tree exhaustively for n <= 11.  The SO increase is checked only
there and, one move per tree, for n <= 18 in ROADMAP's stream replay; at
n = 40 a case-3 ``apply_lemma1_case`` keeps alpha but lowers SO (ROADMAP D16).
"""

from __future__ import annotations

from typing import Optional

from .errors import PreconditionError, TreeStructureError
from .extremal import TreeClass, _classified
from .tree import Tree, _walk, core_split


def shift_neighbors(t: Tree, donor: int, receiver: int, moved: tuple[int, ...]) -> Tree:
    """Re-home moved, current neighbors of donor, onto receiver: delete
    donor~w and add receiver~w for every w in moved.

    Valid whenever the moved subtrees hang off the donor away from the
    receiver; the donor-side edge of the donor-receiver path must stay put.
    Past the checks below, moving it is exactly what ``Tree.from_edges`` rejects.
    """
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
    within the core; ties broken by the smallest id pair."""
    if t.order < 3:
        raise ValueError("needs a tree of order >= 3")
    split = core_split(t)
    if len(split) < 2:
        raise PreconditionError("stripped tree is a single vertex; no support pair exists")
    return _support_pair(t, split)[:2]


def _support_pair(t: Tree, split: dict) -> tuple[int, int, int, int]:
    """select_support_pair's (u, v) with x and y, their neighbours on the path
    between them.  Distances in t are distances in the core, a subtree of t.
    Only u's walk is kept: it gives y as v's parent, and x by a climb from v."""
    # a core leaf has one core neighbor: its support in the core
    supports = sorted({core[0] for _, core in split.values() if len(core) == 1})
    if len(supports) < 2:
        raise PreconditionError("stripped tree has fewer than 2 support vertices")
    _, u, v, to_u = min(
        (-depth[b], a, b, parent)
        for a in supports[:-1] for _, parent, depth in [_walk(t.adjacency, a)]
        for b in supports if b > a
    )
    x = v
    while to_u[x] != u:
        x = to_u[x]
    return u, v, x, to_u[v]


def _case_move(t: Tree) -> tuple[str, Optional[tuple[int, ...]], tuple]:
    """The case move around the maximum-distance support pair (u, v), whose
    path neighbors toward each other are x and y: (tag, swap, shift), where
    swap is the swap_endpoints(u, x, v, y) to make first, or None, and shift
    is shift_neighbors' (donor, receiver, moved)."""
    label, _, split = _classified(t)
    if label is not TreeClass.OTHER:
        raise PreconditionError(
            f"case moves expect a tree outside the star families; got {label.value}"
        )
    u, v, x, y = _support_pair(t, split)

    def heavy(w: int, toward: int) -> tuple[int, ...]:
        return tuple(z for z in split[w][1] if z != toward)

    up, vp = split[u][0], split[v][0]
    if up and vp:
        if t.degrees[u] < t.degrees[v]:
            u, v, x, y, vp = v, u, y, x, up
        # v keeps y and one pendant; the rest of its neighbors move to u
        shift = v, u, heavy(v, y) + vp[1:]
        if t.degrees[x] >= t.degrees[y]:
            return "1.1", None, shift
        # the swap is the identity when the pair is adjacent
        return "1.2", ((u, x, v, y) if len({u, x, v, y}) == 4 else None), shift
    tag = "2" if up or vp else "3"
    if up:  # the pendant-free side donates its heavy neighbors
        u, v, x, y = v, u, y, x
    return tag, None, (u, v, heavy(u, x))


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
    return shift_neighbors(t, *shift)


def _unload(t: Tree, expected: TreeClass, keep: int) -> Optional[Tree]:
    """Move all but `keep` pendants of the first core leaf that carries more
    than `keep` onto the hub of a tree that classify puts in `expected`: a T2
    leaf carries one, and a T1 tree short of TStar has a leaf with two.  A T1
    step returns None on TStar."""
    label, hub, split = _classified(t)
    if label is TreeClass.TSTAR and expected is TreeClass.T1:
        return None
    if label is not expected:
        raise PreconditionError(
            f"expected a {expected.value} tree, classify gave {label.value}"
        )
    leaf = min(w for w in split[hub][1] if len(split[w][0]) > keep)
    return shift_neighbors(t, leaf, hub, split[leaf][0][keep:])


def apply_lemma2_step(t: Tree) -> Tree:
    """Empty the first loaded core leaf of a T2 tree onto the bare hub.

    The result lands in T1; its Sombor index is larger on every tree
    checked, those with n <= 11 in the tests and n <= 18 in ROADMAP's stream
    replay.
    """
    return _unload(t, TreeClass.T2, 0)


def apply_theorem_step(t: Tree) -> Optional[Tree]:
    """Move all but one pendant from a loaded core leaf of a T1 tree onto the
    hub.  Returns None when the tree is already the maximizer (TStar); each
    step strictly lowers the surplus pendant count, so iteration terminates.
    """
    return _unload(t, TreeClass.T1, 1)
