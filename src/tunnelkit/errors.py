"""Exception hierarchy.

Three broad classes matter to callers (and map onto CLI exit codes):
configuration problems (``ConfigError``, exit 2), physical-regime
violations (``RegimeError``, exit 3), and numerical non-convergence
(``NumericsError``, exit 4).
"""

__all__ = [
    "TunnelkitError",
    "ConfigError",
    "FitIllConditioned",
    "RegimeError",
    "WellStructureError",
    "FewerThanTwoMinima",
    "NonConvexMinimum",
    "DegenerateBarrier",
    "EnergyAboveBarrier",
    "EnergyBelowWellBottom",
    "LambdaOutOfRange",
    "RootNotBracketed",
    "GridTooCoarse",
    "DomainTooSmall",
    "NumericsError",
    "QuadratureNonConvergence",
    "DomainError",
]


class TunnelkitError(Exception):
    """Base class for everything raised deliberately by this package."""


class ConfigError(TunnelkitError):
    """Invalid parameters, malformed config documents, unknown keys."""


class FitIllConditioned(ConfigError):
    """Sweep fit requested with too few points or a zero-width range, or
    on a splitting that underflows to 0 or is not positive."""


class RegimeError(TunnelkitError):
    """The requested computation is outside its physical regime."""


class WellStructureError(RegimeError):
    """The potential does not have the two-minima/one-maximum shape."""


class FewerThanTwoMinima(WellStructureError):
    """Fewer than two local minima found in the scanned window."""


class NonConvexMinimum(WellStructureError):
    """A detected minimum has non-positive curvature."""


class DegenerateBarrier(RegimeError):
    """Barrier top at or below the mean doublet energy; WKB inapplicable."""


class EnergyAboveBarrier(RegimeError):
    """Requested energy at or above the barrier maximum."""


class EnergyBelowWellBottom(RegimeError):
    """Requested energy at or below a well floor on the relevant side."""


class LambdaOutOfRange(RegimeError):
    """Energy fraction lambda = E / barrier outside its valid interval."""


class RootNotBracketed(RegimeError):
    """The quantization root solve found no root inside |zeta| < 0.4 and
    its energy window.  The message names the root (E_plus or E_minus)
    and what ended its Newton iteration: an iterate that left the energy
    window or |zeta| < 0.4 (with that zeta), or a step that did not
    settle."""


class GridTooCoarse(RegimeError):
    """The eigensolver's grid does not resolve the doublet.

    Raised when grid halving moves the eigenvalue splitting by more than
    10% or the splitting is not positive, and when no seed of a grid gives
    a certified pair proven lowest.  The message then names the last
    seed's cause: H - shift is singular, the iterated vectors vanish or
    overflow, the seed's third level is not above the pair's second, a
    Sturm count finds other than two levels at or below the bound, or the
    residual bound does not settle within the sweeps allowed.
    """


class DomainTooSmall(RegimeError):
    """Eigensolver domain lacks the required margin around the wells."""


class NumericsError(TunnelkitError):
    """Numerical procedure failed to converge."""


class QuadratureNonConvergence(NumericsError):
    """Adaptive quadrature hit its refinement limit without converging."""


class DomainError(TunnelkitError, ValueError):
    """Function evaluated outside its mathematical domain."""
