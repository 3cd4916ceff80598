"""Maximum Sombor index over trees with a fixed independence number.

Library layout: ``tree`` (representation, canonical level sequence, edge-list
I/O), ``enumeration`` (the edge lists of one order's trees, one per
isomorphism class, streamed from the pure walk), ``extremal`` (the maximizing
construction, closed form and family classifier), ``transforms`` (the
checked rewiring moves), ``verify`` (the exhaustive brute-force driver) and
``cli`` (the command-line front end).  Hot loops live in ``_kernels`` with a
compiled backend and a pure-Python fallback selected at import; the
independent references that check them are tests.

Import each name from its module.  The root binds only ``KERNEL_BACKEND``,
the name of the backend in use, and ``__version__``; importing it selects
the backend, so a bad ``SOMBOR_TREES_BACKEND`` fails here.
"""

from ._kernels import BACKEND as KERNEL_BACKEND

__version__ = "0.1.0"
