"""Finite-difference reference eigensolver for the lowest doublet.

Independent check on the semiclassical formulas: discretize

    H = -(hbar^2 / 2m) d^2/dx^2 + v(x)

on a uniform grid with Dirichlet walls, solve the tridiagonal
eigenproblem for the two lowest levels with bisection (LAPACK stebz via
scipy), and sharpen with one step of Richardson extrapolation in the
grid spacing.  The potential is the normalized v(x) (zero at the lower
well floor), so the eigenvalues compare directly with E_bar and the
doublet shifts.

This is the only module that needs scipy, and it imports
``scipy.linalg`` on the first solve, inside ``eigh_tridiagonal``: that
import takes longer than a whole semiclassical analysis, so
``import tunnelkit`` and the runs that never solve leave scipy unloaded.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from ._brent import brentq
from .errors import ConfigError, DomainTooSmall, GridTooCoarse, WellStructureError
from .potentials import (
    DEFAULT_CONSTANTS,
    Mirrored,
    PhysConstants,
    WellAnalysis,
    analyze,
    evaluate,
)

__all__ = ["GridSpec", "Spectrum", "default_grid", "eigen_lowest_two"]


@dataclass(frozen=True)
class GridSpec:
    """Uniform Dirichlet grid: n_points nodes including both walls."""

    x_min: float
    x_max: float
    n_points: int = 8001
    richardson: bool = True

    def __post_init__(self):
        if not (math.isfinite(self.x_min) and math.isfinite(self.x_max)):
            raise ConfigError("grid walls must be finite")
        if not self.x_max > self.x_min:
            raise ConfigError(
                f"x_max = {self.x_max:g} must exceed x_min = {self.x_min:g}"
            )
        if self.n_points < 64:
            raise ConfigError(f"n_points = {self.n_points} is below the minimum of 64")


@dataclass(frozen=True)
class Spectrum:
    """Two lowest levels, their gap, and a Richardson error estimate.

    ``coarse`` holds the raw (E0, E1) of the n-point grid and ``fine``
    those of the (2n - 1)-point grid, which is solved only when
    Richardson extrapolation ran (``None`` otherwise).
    """

    E0: float
    E1: float
    splitting: float
    est_error: float
    coarse: tuple[float, float]
    fine: tuple[float, float] | None = None


def _flipped(spec, analysis: WellAnalysis) -> bool:
    # whether analysis runs on the mirror of the axis of spec: each
    # Mirrored wrapper, and so auto-orientation, reflects the axis once
    def odd(s):  # an odd number of Mirrored wrappers
        return isinstance(s, Mirrored) and not odd(s.inner)

    return odd(spec) != odd(analysis.spec)


def _outer_turning_point(analysis: WellAnalysis, side: str, E: float) -> float:
    """Solve v(x) = E outside the well on the given side ("left"/"right")."""
    x0 = analysis.x_L if side == "left" else analysis.x_R
    sign = -1.0 if side == "left" else 1.0
    step = math.sqrt(
        analysis.consts.hbar / (analysis.consts.mass * max(analysis.omega_L, analysis.omega_R))
    )
    d = step
    for _ in range(200):
        if analysis.v(x0 + sign * d) > E:
            break
        d *= 2.0
    else:
        raise ConfigError("potential does not confine; no outer wall found")
    lo, hi = (x0 + sign * d, x0) if side == "left" else (x0, x0 + sign * d)
    return float(brentq(lambda x: analysis.v(x) - E, lo, hi, xtol=1e-12, rtol=8.9e-16))


def default_grid(
    spec,
    consts: PhysConstants = DEFAULT_CONSTANTS,
    analysis: WellAnalysis | None = None,
) -> GridSpec:
    """Grid walls wide enough that the doublet is box-insensitive.

    The walls sit at the classical turning points of the energy
    E_bar + 10 hbar max(w_L, w_R), pushed outward by five harmonic decay
    lengths sqrt(hbar / (m w)) of the adjacent well, on the axis of
    ``spec``.  The node count and Richardson setting are the ``GridSpec``
    defaults.
    """
    if analysis is None:
        analysis = analyze(spec, consts)
    c = analysis.consts
    e_hi = analysis.E_bar + 10.0 * c.hbar * max(analysis.omega_L, analysis.omega_R)
    ell_l = math.sqrt(c.hbar / (c.mass * analysis.omega_L))
    ell_r = math.sqrt(c.hbar / (c.mass * analysis.omega_R))
    x_min = _outer_turning_point(analysis, "left", e_hi) - 5.0 * ell_l
    x_max = _outer_turning_point(analysis, "right", e_hi) + 5.0 * ell_r
    if _flipped(spec, analysis):
        x_min, x_max = -x_max, -x_min
    return GridSpec(x_min=x_min, x_max=x_max)


def eigh_tridiagonal(d, e, **kwargs):
    """``scipy.linalg.eigh_tridiagonal``, with scipy imported on first use.

    The name is looked up on ``scipy.linalg`` at every call, so a wrapper
    placed there later is the one called.
    """
    from scipy.linalg import eigh_tridiagonal as solve

    return solve(d, e, **kwargs)


def _lowest_two_on_grid(v, consts: PhysConstants, x: np.ndarray) -> tuple[float, float]:
    h = x[1] - x[0]
    diag = consts.hbar ** 2 / (consts.mass * h * h) + np.asarray(v(x[1:-1]), dtype=float)
    off = np.full(x.size - 3, -consts.hbar ** 2 / (2.0 * consts.mass * h * h))
    vals = eigh_tridiagonal(diag, off, eigvals_only=True, select="i", select_range=(0, 1))
    return float(vals[0]), float(vals[1])


def _grid_nodes(grid: GridSpec, n_points: int, snap_zero: bool) -> np.ndarray:
    if not snap_zero:
        return np.linspace(grid.x_min, grid.x_max, n_points)
    # Place a node exactly on x = 0 (the barrier-top kink of the
    # piecewise-parabolic family) so the quadratic convergence of the
    # three-point stencil survives the jump in V''.
    h = (grid.x_max - grid.x_min) / (n_points - 1)
    i_star = round(-grid.x_min / h)
    return (np.arange(n_points) - i_star) * h


def eigen_lowest_two(
    spec,
    consts: PhysConstants = DEFAULT_CONSTANTS,
    grid: GridSpec | None = None,
    *,
    analysis: WellAnalysis | None = None,
) -> Spectrum:
    """Two lowest Dirichlet eigenvalues of the normalized well.

    With ``grid.richardson`` true the solve is repeated on a doubled
    grid (2n - 1 nodes, spacing exactly h/2) and the levels are
    extrapolated as (4 E_fine - E_coarse) / 3; est_error is the larger
    of the two extrapolation increments.  Raises GridTooCoarse when the
    two grids disagree on the gap by more than ten percent, and
    DomainTooSmall when a wall is closer than five decay lengths to its
    well, where the Dirichlet box would still bias the doublet.  The walls
    lie on the axis of ``spec``, also when ``analysis`` runs on its mirror.

    Single-well potentials are accepted too (the two lowest box levels
    of the raw potential are returned, with no floor shift and no
    double-well domain check); they need an explicit ``grid``.
    """
    if analysis is None:
        try:
            analysis = analyze(spec, consts)
        except WellStructureError:
            analysis = None
    if grid is None:
        if analysis is None:
            raise ConfigError(
                "an explicit grid is required for potentials without two wells"
            )
        grid = default_grid(spec, consts, analysis)
    if analysis is not None:
        c = analysis.consts
        ell_l = math.sqrt(c.hbar / (c.mass * analysis.omega_L))
        ell_r = math.sqrt(c.hbar / (c.mass * analysis.omega_R))
        lo, hi = analysis.x_L - 5.0 * ell_l, analysis.x_R + 5.0 * ell_r
        flipped = _flipped(spec, analysis)
        if flipped:
            lo, hi = -hi, -lo
        if grid.x_min > lo or grid.x_max < hi:
            raise DomainTooSmall(
                "walls must clear each well by five decay lengths: need "
                f"x_min <= {lo:g} and x_max >= {hi:g}, got "
                f"[{grid.x_min:g}, {grid.x_max:g}]"
            )
        if flipped:  # solve on the axis of the analysis
            grid = replace(grid, x_min=-grid.x_max, x_max=-grid.x_min)
        v = analysis.v
    else:
        v = lambda x: evaluate(spec, x, consts)  # noqa: E731
    snap = spec.kink
    x_c = _grid_nodes(grid, grid.n_points, snap)
    coarse = e0_c, e1_c = _lowest_two_on_grid(v, consts, x_c)
    if not grid.richardson:
        return Spectrum(
            E0=e0_c, E1=e1_c, splitting=e1_c - e0_c, est_error=math.nan, coarse=coarse
        )
    x_f = _grid_nodes(grid, 2 * grid.n_points - 1, snap)
    fine = e0_f, e1_f = _lowest_two_on_grid(v, consts, x_f)
    split_c, split_f = e1_c - e0_c, e1_f - e0_f
    if abs(split_f - split_c) > 0.1 * abs(split_f):
        raise GridTooCoarse(
            f"doublet gap moved from {split_c:g} to {split_f:g} on grid "
            "doubling; increase n_points"
        )
    e0 = (4.0 * e0_f - e0_c) / 3.0
    e1 = (4.0 * e1_f - e1_c) / 3.0
    est = max(abs(e0_f - e0_c), abs(e1_f - e1_c)) / 3.0
    return Spectrum(
        E0=e0, E1=e1, splitting=e1 - e0, est_error=est, coarse=coarse, fine=fine
    )
