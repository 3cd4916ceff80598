"""Maximum Sombor index over trees with a fixed independence number.

Library layout: ``tree`` (representation, canonical level sequence, edge-list
I/O), ``enumeration`` (one tree per isomorphism class, streamed), ``extremal``
(the maximizing construction, closed form and family classifier),
``transforms`` (the checked rewiring moves), ``verify`` (the exhaustive
brute-force driver) and ``cli`` (the command-line front end).  Hot loops
live in ``_kernels`` with a compiled backend and a pure-Python fallback
selected at import; the independent references that check them are tests.
"""

from ._kernels import BACKEND as KERNEL_BACKEND
from .enumeration import enumerate_family
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
    format_edge_list,
    format_levels_edge_lists,
    parse_edge_list,
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
    "enumerate_family",
    "feasible_alpha_range",
    "format_edge_list",
    "format_levels_edge_lists",
    "lemma1_case_tag",
    "parse_edge_list",
    "select_support_pair",
    "shift_neighbors",
    "swap_endpoints",
    "tree_centers",
    "verify",
]
