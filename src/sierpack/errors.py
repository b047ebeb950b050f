"""Exception types shared across the package."""


class SierpackError(Exception):
    """Base class for all package-specific errors."""


class InputFormatError(SierpackError, ValueError):
    """A graph file, graph6 string, or map string could not be parsed."""


class GraphTooLargeError(SierpackError, ValueError):
    """The graph exceeds the configured exact-search size bound."""


class DisconnectedGraphError(SierpackError, ValueError):
    """The operation requires a connected graph."""


class NotATreeError(SierpackError, ValueError):
    """The operation requires a tree."""


class FactorMismatchError(SierpackError, ValueError):
    """A vertex map does not fit the base/fiber pair it was used with."""


class ColoringCoverageError(SierpackError, ValueError):
    """A coloring does not cover exactly the vertices of the graph."""


class SearchBudgetExceeded(SierpackError, RuntimeError):
    """The solver hit its node budget before reaching SAT or UNSAT.

    Distinct from UNSAT: the outcome is unknown.
    """

    def __init__(self, nodes: int):
        super().__init__(f"search aborted after {nodes} nodes")
        self.nodes = nodes


class EnumerationBudgetExceeded(SierpackError, RuntimeError):
    """The requested map enumeration is larger than the configured bound."""


class ConstructionError(SierpackError, RuntimeError):
    """A construction (a constructive coloring or the map behind it)
    failed its own verification (internal bug)."""


class ConstructionOutOfRange(SierpackError, RuntimeError):
    """The input is outside the range a constructive pattern is valid for."""


class InconsistentTraceError(SierpackError, RuntimeError):
    """A peel trace could not be turned into a map (internal bug)."""
