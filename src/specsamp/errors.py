"""Exception types shared across the library."""


class SpecSampError(Exception):
    """Base class for all specsamp errors."""


class InvalidParameter(SpecSampError):
    """An argument violates a documented precondition."""


class DimensionMismatch(SpecSampError):
    """Vector or matrix sizes are inconsistent."""


class IsolatedVertex(SpecSampError):
    """A vertex of degree zero makes the normalized Laplacian undefined."""


class ConnectivityFailure(SpecSampError):
    """Random graph generation failed to produce a connected graph."""


class EigensolveFailure(SpecSampError):
    """The symmetric eigensolver or SVD did not converge."""


class IntervalMismatch(SpecSampError):
    """A Chebyshev filter's interval does not cover the operator spectrum."""


class DsConditionViolated(SpecSampError):
    """The direct-sum condition fails: a folded cross-correlation vanishes."""


class SingularCorrelation(SpecSampError):
    """A folded correlation in a smoothness design is numerically zero."""


class ZeroReference(SpecSampError):
    """The reference signal in an error metric has zero energy."""


class NotBipartite(SpecSampError):
    """The graph carries no bipartition."""


class UnequalParts(SpecSampError):
    """The bipartition parts differ in size."""


class PairingFailure(SpecSampError):
    """The paired bipartite eigenbasis failed its construction residual."""


class IoFailure(SpecSampError):
    """Reading or writing an artifact file failed."""
