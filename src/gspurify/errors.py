"""Exception types shared across the package."""


class GspurifyError(Exception):
    """Base class for all package errors."""


class OddCycle(GspurifyError):
    """The edge set contains an odd cycle, so no two-coloring exists."""


class DuplicateEdge(GspurifyError):
    """An edge appears more than once in the input edge list."""


class InvalidParam(GspurifyError):
    """A structural parameter (vertex count, grid shape, ...) is out of range."""


class BadParam(GspurifyError):
    """A numeric parameter is outside its documented domain."""


class BadDistribution(GspurifyError):
    """A probability vector is negative or does not sum to one."""


class NegativeCoefficient(GspurifyError):
    """A state coefficient is negative beyond numerical slack."""


class ZeroSuccess(GspurifyError):
    """A protocol step has vanishing acceptance probability."""


class BracketError(GspurifyError):
    """A bisection predicate has the same value at both bracket ends."""


class NoFixedPoint(GspurifyError):
    """Iteration from the pure state diverged or settled on a failure plateau."""


class EmptyRegion(GspurifyError):
    """No parameter value in the scanned range yields a fidelity gain."""


class TooLarge(GspurifyError):
    """System size exceeds what the dense simulator supports."""


class ParseError(GspurifyError):
    """A scenario file or command-line value could not be parsed."""
