"""Exception types shared across the toolkit."""


class Codim2FlowError(Exception):
    """Base class for all toolkit errors."""


class InvalidK(Codim2FlowError):
    """Pinching constant outside the admissible range (1/2, 1]."""


class BracketInvalid(Codim2FlowError):
    """Threshold bisection bracket does not straddle a sign change."""


class ResolutionTooCoarse(Codim2FlowError):
    """Certification grid below the minimum resolution."""


class EpsilonZNotPositive(Codim2FlowError):
    """Supplied Simons-nonlinearity floor is not strictly positive."""


class InsufficientDynamicRange(Codim2FlowError):
    """Trace does not span enough curvature decades for a decay fit."""


class NoBlowupDetected(Codim2FlowError):
    """Snapshots never approach the curvature blowup threshold."""


class StepTooLarge(Codim2FlowError):
    """Flow step rejected repeatedly (area increase or inversion)."""


class DegenerateNeighborhood(Codim2FlowError):
    """Vertex neighborhood cannot support a quadratic jet fit."""


class NonManifoldMesh(Codim2FlowError):
    """Mesh violates the closed-manifold-surface requirements."""


class NonFiniteStep(Codim2FlowError):
    """A step produced a non-finite candidate, or its linear solve did not converge."""
