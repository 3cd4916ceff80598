"""Exception types shared across the package."""


class SomborTreesError(Exception):
    """Base class for package-specific failures."""


class TreeStructureError(SomborTreesError, ValueError):
    """Input is not a tree, or a rewiring would break tree-ness; carries the
    0-based position of the offending edge, or None when no one edge is."""

    def __init__(self, message, edge=None):
        super().__init__(message)
        self.edge = edge


class EdgeListParseError(SomborTreesError, ValueError):
    """Malformed edge-list text; carries the offending 1-based line number."""

    def __init__(self, message, line):
        super().__init__(message)
        self.line = line


class OrderRangeError(SomborTreesError, ValueError):
    """Requested order, or range of orders, is below what the operation accepts."""


class SizeLimitError(SomborTreesError, ValueError):
    """Requested order exceeds a configured cap or guard."""


class InfeasibleParamsError(SomborTreesError, ValueError):
    """(order, alpha) outside the feasible range ceil(n/2) <= alpha <= n-1."""


class PreconditionError(SomborTreesError, ValueError):
    """A transformation's structural hypotheses are not met by the input."""


class WorkerError(SomborTreesError, RuntimeError):
    """A worker process of a parallel run died before returning its result."""
