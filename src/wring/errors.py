"""Exception hierarchy.

Three broad classes matter to callers (and map onto CLI exit codes):
FormatError for malformed files, PreconditionError when an operation's
mathematical precondition fails on the given input, and ToleranceError
when an internal consistency check breaks down mid-computation.
"""


class WringError(Exception):
    """Base class for all package errors."""


class FormatError(WringError):
    """A file or document does not conform to its declared format."""


class PreconditionError(WringError):
    """Input violates a documented precondition of the operation."""


class ToleranceError(WringError):
    """An internal residual or drift exceeded its configured bound."""


class InvalidGrid(WringError, ValueError):
    """Grid dimensions or box lengths outside the supported range."""


class NonFiniteData(PreconditionError):
    """Field data contains NaN or infinity."""


class NonZeroMeanVorticity(PreconditionError):
    """A vorticity component carries net flux through a fundamental torus:
    W has no periodic potential, and helicity is not gauge-invariant."""


class NotDivergenceFree(PreconditionError):
    """Divergence residual above tolerance."""


class NonPeriodic(PreconditionError):
    """Sampled data is not consistent with a periodic field."""


class ZeroF(PreconditionError):
    """Multiplier scalar passes too close to zero."""


class SupportTooLarge(PreconditionError):
    """Compactly supported profile does not fit inside the periodic box."""


class TubesOverlap(PreconditionError):
    """Tubular neighbourhoods of the generating curves intersect."""


class MapNotInvertible(PreconditionError):
    """Requested point map cannot be inverted on the torus."""


class DegenerateField(PreconditionError):
    """Field magnitude below the underflow threshold."""


class MaskTooSmall(PreconditionError):
    """The dual-field denominator vanishes over too much of the vorticity:
    at roundoff everywhere, or off the bound's mask on too much support."""


class CflViolation(PreconditionError):
    """Time step too large for the advective CFL condition."""


class ZeroSlopeOne(PreconditionError):
    """First slope is zero; its reciprocal appears in the formula."""


class DegenerateFluxes(PreconditionError):
    """Flux vector incompatible with the slope construction."""


class MissingLinkData(PreconditionError):
    """No linking matrix declared and none computable from the curves."""


class CurvesIntersect(PreconditionError):
    """Curves approach below the minimum separation for the linking integral."""


class ConsistencyLoss(ToleranceError):
    """curl(A) and W disagree beyond their limit after a shear or a time step."""


class ToleranceBreach(ToleranceError):
    """A computed inequality or residual violated its guaranteed tolerance."""
