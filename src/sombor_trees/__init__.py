"""Maximum Sombor index over trees with a fixed independence number.

Library layout: ``tree`` (representation, canonical form, edge-list I/O),
``invariants`` (Sombor index, independence number and its oracle),
``enumeration`` (one tree per isomorphism class, streamed), ``extremal``
(the maximizing construction, closed form, family classifier, scalar
inequalities), ``transforms`` (the checked rewiring moves), ``verify`` (the
exhaustive brute-force driver) and ``cli`` (the command-line front end).
Hot loops live in ``_kernels`` with a compiled backend and a pure-Python
fallback selected at import.
"""

from ._kernels import BACKEND as KERNEL_BACKEND
from .enumeration import enumerate_family, enumerate_free_trees
from .errors import (
    EdgeListParseError,
    InfeasibleParamsError,
    OrderRangeError,
    PreconditionError,
    SizeLimitError,
    SomborTreesError,
    TreeStructureError,
    WorkerError,
)
from .extremal import (
    ExtremalParams,
    TreeClass,
    classify,
    closed_form_max,
    construct_t_star,
    feasible_alpha_range,
    lemma1_f,
    lemma2_g,
    star_shift_inequality,
    theorem_shift_inequality,
)
from .invariants import (
    independence_number,
    independence_number_oracle,
    pendant_inclusive_mis,
    sombor_index,
)
from .transforms import (
    ShiftSpec,
    apply_lemma1_case,
    apply_lemma2_step,
    apply_theorem_step,
    lemma1_case_tag,
    select_support_pair,
    shift_neighbors,
    swap_endpoints,
)
from .tree import (
    Tree,
    canonical_levels,
    distance,
    format_edge_list,
    format_levels_edge_list,
    parse_edge_list,
    pendant_vertices,
    support_vertex,
    tree_centers,
)
from .verify import ExtremalRecord, VerificationReport, verify

__version__ = "0.1.0"

__all__ = [
    "EdgeListParseError",
    "ExtremalParams",
    "ExtremalRecord",
    "InfeasibleParamsError",
    "KERNEL_BACKEND",
    "OrderRangeError",
    "PreconditionError",
    "ShiftSpec",
    "SizeLimitError",
    "SomborTreesError",
    "Tree",
    "TreeClass",
    "TreeStructureError",
    "VerificationReport",
    "WorkerError",
    "apply_lemma1_case",
    "apply_lemma2_step",
    "apply_theorem_step",
    "canonical_levels",
    "classify",
    "closed_form_max",
    "construct_t_star",
    "distance",
    "enumerate_family",
    "enumerate_free_trees",
    "feasible_alpha_range",
    "format_edge_list",
    "format_levels_edge_list",
    "independence_number",
    "independence_number_oracle",
    "lemma1_case_tag",
    "lemma1_f",
    "lemma2_g",
    "parse_edge_list",
    "pendant_inclusive_mis",
    "pendant_vertices",
    "select_support_pair",
    "shift_neighbors",
    "sombor_index",
    "star_shift_inequality",
    "support_vertex",
    "swap_endpoints",
    "theorem_shift_inequality",
    "tree_centers",
    "verify",
]
