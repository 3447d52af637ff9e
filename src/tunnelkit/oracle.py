"""Finite-difference reference eigensolver for the lowest doublet.

Independent check on the semiclassical formulas: discretize

    H = -(hbar^2 / 2m) d^2/dx^2 + v(x)

on a uniform grid with Dirichlet walls, find its two lowest levels, and
sharpen them with one step of Richardson extrapolation in the grid
spacing.  The potential is the normalized v(x) (zero at the lower well
floor), so the eigenvalues compare directly with E_bar and the doublet
shifts.

The levels of a grid come from block inverse iteration (Golub and Van
Loan, Matrix Computations, sections 8.2.2 and 8.4; Parlett, The
Symmetric Eigenvalue Problem).  A coarse seed grid over the same walls
is solved for its three lowest levels and their vectors by bisection
(LAPACK stebz and stein, through ``eigh_tridiagonal``).  Its two vectors,
interpolated onto the grid, go through shifted tridiagonal solves (LAPACK
gtsv), shift j being seed level j, and a Rayleigh-Ritz step summed
without cancellation, until the Ritz values settle.  Inertia proves them
the two lowest: H - lo factors as LDL^T (LAPACK pttrf), and a Sturm count
(stebz) puts exactly two levels in (lo, hi].  A pair that does not settle
or is not proven is solved again from the next finer seed, up to the grid
itself, so a seed too coarse for the wells costs time, not the answer.
Bisection alone would carry its stopping tolerance, eps times the 1-norm
of H, which grows as 1/h^2, into the doublet gap.

This is the only module that needs scipy, and it imports
``scipy.linalg`` on the first solve, inside ``_seed``: that import takes
longer than a whole semiclassical analysis, so ``import tunnelkit`` and
the runs that never solve leave scipy unloaded.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from ._brent import brentq
from .errors import ConfigError, DomainTooSmall, GridTooCoarse, WellStructureError
from .potentials import (
    DEFAULT_CONSTANTS,
    PhysConstants,
    WellAnalysis,
    _unwrap,
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
    return _unwrap(spec)[1] != _unwrap(analysis.spec)[1]


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


# A grid's seeds are its halvings, (n + 1) // 2 nodes at twice the spacing
# at a time, from the first with fewer than _SEED_POINTS nodes up to the
# grid itself: the coarsest seeds it, and each finer one only when the
# coarser gave no settled, proven pair.  A grid of n nodes and its
# Richardson partner of 2n - 1 share every seed up to n.
_SEED_POINTS = 1024
# A grid's Ritz pair has settled when no Ritz value moves by more than
# _SETTLE times the pair's kinetic plus absolute potential energy in a
# sweep; a pair still moving after _MAX_SWEEPS sweeps is not resolved.
_SETTLE = 1e-12
_MAX_SWEEPS = 8


def _hamiltonian(v, consts: PhysConstants, x: np.ndarray) -> tuple[float, np.ndarray]:
    """(t, v on the interior nodes): H = tridiag(-t, 2t + v, -t), t = hbar^2 / (2 m h^2)."""
    h = x[1] - x[0]
    return consts.hbar ** 2 / (2.0 * consts.mass * h * h), np.asarray(v(x[1:-1]), dtype=float)


def _seed_sizes(n_points: int) -> list[int]:
    """The node counts of the seeds of an n_points grid, coarsest first."""
    sizes = [n_points]
    while sizes[-1] >= _SEED_POINTS:
        sizes.append((sizes[-1] + 1) // 2)
    return sizes[::-1]


def _seed(v, consts: PhysConstants, grid: GridSpec, n_points: int, snap: bool):
    """Nodes, three lowest levels and their vectors on the n_points seed grid."""
    from scipy.linalg import eigh_tridiagonal

    x = _grid_nodes(grid, n_points, snap)
    t, vx = _hamiltonian(v, consts, x)
    levels, vectors = eigh_tridiagonal(
        vx + 2.0 * t, np.full(n_points - 3, -t), select="i", select_range=(0, 2)
    )
    return x, levels, vectors


def _sum_of_products(a: np.ndarray, b: np.ndarray) -> float:
    """sum a * b in numpy's own einsum loop.

    Not a BLAS dot product: BLAS splits a long sum among its threads, so
    the last bits of the levels would follow the machine's core count.
    """
    return float(np.einsum("i,i->", a, b))


def _rayleigh_ritz(block: np.ndarray, t: float, vx: np.ndarray):
    """Orthonormalize the two columns of ``block``, turn them into Ritz vectors.

    The 2x2 matrix is summed from differences, t sum dq_i dq_j + sum v q_i
    q_j with the walls as zeros, never from 2t + v, whose rounding in t
    would swamp the doublet gap.  Returns the ascending Ritz values and the
    pair's kinetic plus absolute potential energy, the scale of their
    rounding.
    """
    q0, q1 = block[:, 0], block[:, 1]
    q0 /= math.sqrt(_sum_of_products(q0, q0))
    size = math.sqrt(_sum_of_products(q1, q1))
    for _ in range(2):  # Gram-Schmidt, repeated once if it cancels most of q1
        q1 -= _sum_of_products(q0, q1) * q0
        size, before = math.sqrt(_sum_of_products(q1, q1)), size
        if size > 0.5 * before:
            break
    q1 /= size
    d0, d1 = np.diff(q0), np.diff(q1)
    k01 = _sum_of_products(d0, d1)
    kinetic = np.array([[_sum_of_products(d0, d0), k01], [k01, _sum_of_products(d1, d1)]])
    del d0, d1
    kinetic = t * (kinetic + np.outer(block[0], block[0]) + np.outer(block[-1], block[-1]))
    vq0 = vx * q0
    v01 = _sum_of_products(vq0, q1)
    potential = np.array([[_sum_of_products(vq0, q0), v01], [v01, _sum_of_products(vx * q1, q1)]])
    del vq0
    levels, ((r00, r01), (r10, r11)) = np.linalg.eigh(kinetic + potential)
    turned = r00 * q0 + r10 * q1  # block @ rotation, one column at a time
    q1 *= r11
    q1 += r01 * q0
    q0[:] = turned
    return levels, np.trace(kinetic) + np.abs(np.diag(potential)).sum()


def _polish(t: float, vx: np.ndarray, block: np.ndarray, shifts, where: str):
    """Two lowest levels by block inverse iteration from the start ``block``.

    Column j is solved with H - shifts[j] in each sweep, then the block
    goes through Rayleigh-Ritz, until the Ritz values settle.
    """
    from scipy.linalg.lapack import dgtsv

    n = vx.size
    lower, diag, upper = np.empty(n - 1), np.empty(n), np.empty(n - 1)
    levels = shifts
    for _ in range(_MAX_SWEEPS):
        for j, shift in enumerate(shifts):
            lower.fill(-t)
            upper.fill(-t)
            np.add(vx, 2.0 * t - shift, out=diag)
            solved, info = dgtsv(
                lower, diag, upper, block[:, j : j + 1],
                overwrite_dl=1, overwrite_d=1, overwrite_du=1, overwrite_b=1,
            )[3:]
            if info != 0:
                raise GridTooCoarse(f"H - {shift:g} is singular on {where}")
            block[:, j : j + 1] = solved
        previous = levels
        levels, scale = _rayleigh_ritz(block, t, vx)
        if np.abs(levels - previous).max() <= _SETTLE * scale:
            return levels
    raise GridTooCoarse(f"the Ritz pair did not settle in {_MAX_SWEEPS} sweeps on {where}")


def _prove_lowest(t: float, vx: np.ndarray, levels, ceiling: float, where: str):
    """Raise GridTooCoarse unless ``levels`` are the two lowest of H.

    By inertia: H - lo is positive definite (its LDL^T factorization runs
    through), and a Sturm count puts exactly two levels in (lo, hi], hi
    halfway from the upper level to ``ceiling``, the seed's third level.
    """
    from scipy.linalg.lapack import dpttrf, dstebz

    if not ceiling > levels[1]:
        raise GridTooCoarse(
            f"the seed's third level {ceiling:g} is not above the second level "
            f"{levels[1]:g} of {where}"
        )
    hi = 0.5 * (levels[1] + ceiling)
    lo = levels[0] - (hi - levels[1])
    diag, off = vx + (2.0 * t - lo), np.full(vx.size - 1, -t)
    if dpttrf(diag, off, overwrite_d=1, overwrite_e=1)[2] != 0:
        raise GridTooCoarse(
            f"a level of {where} lies below {lo:g}, under the two found"
        )
    np.add(vx, 2.0 * t, out=diag)
    off.fill(-t)
    # range 1: the levels in (lo, hi]; a tolerance of hi - lo stops the
    # bisection at once, as only their count is wanted
    count, _, _, _, info = dstebz(diag, off, 1, lo, hi, 0, 0, hi - lo, "E")
    if info != 0 or count != 2:
        raise GridTooCoarse(
            f"a Sturm count puts {count} levels of {where} in ({lo:g}, {hi:g}], not 2"
        )


def _lowest_two_on_grid(
    v, consts: PhysConstants, grid: GridSpec, n_points: int, snap: bool, seeds: dict
) -> tuple[float, float]:
    """Two lowest levels of the n_points-point Hamiltonian, proven lowest.

    Each seed of ``_seed_sizes(n_points)`` in turn, until one gives a
    settled pair that inertia proves lowest: its vectors, linearly
    interpolated onto the grid, start the block inverse iteration, its two
    lowest levels are the shifts and its third bounds the inertia proof.
    The last seed is the grid itself, whose own vectors leave the pair
    unresolved only when the grid cannot tell its levels apart.  ``seeds``
    holds the seeds solved so far by node count.  So the levels are a
    function of the grid alone, whether it is solved on its own or as a
    Richardson partner.
    """
    x = _grid_nodes(grid, n_points, snap)
    t, vx = _hamiltonian(v, consts, x)
    for m in _seed_sizes(n_points):
        if m not in seeds:
            seeds[m] = _seed(v, consts, grid, m, snap)
        x_seed, levels, vectors = seeds[m]
        block = np.empty((vx.size, 2), order="F")
        for j in range(2):
            block[:, j] = np.interp(x[1:-1], x_seed, np.pad(vectors[:, j], 1))
        where = f"the {n_points}-point grid seeded from {m} points"
        try:
            ritz = _polish(t, vx, block, levels[:2], where)
            del block  # the proof's two arrays take its memory
            _prove_lowest(t, vx, ritz, levels[2], where)
        except GridTooCoarse as exc:
            failure = exc
            continue
        return float(ritz[0]), float(ritz[1])
    raise GridTooCoarse(f"no seed gives a proven pair, the grid itself included: {failure}")


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

    hbar and m come from ``analysis``; ``consts`` builds it, and serves
    single-well potentials, which are accepted too (the two lowest box
    levels of the raw potential are returned, with no floor shift and no
    double-well domain check); they need an explicit ``grid``.
    ``analysis`` None is ``analyze(spec, consts)``, or the raw potential
    when that raises WellStructureError.
    """
    if analysis is None:
        try:
            analysis = analyze(spec, consts)
        except WellStructureError:
            analysis = None
    return _spectrum(spec, consts, grid, analysis)


def _spectrum(
    spec, consts: PhysConstants, grid: GridSpec | None, analysis: WellAnalysis | None
) -> Spectrum:
    """``eigen_lowest_two`` of an analysis already made; None: no two wells."""
    if grid is None:
        if analysis is None:
            raise ConfigError(
                "an explicit grid is required for potentials without two wells"
            )
        grid = default_grid(spec, consts, analysis)
    if analysis is not None:
        consts = analysis.consts
        ell_l = math.sqrt(consts.hbar / (consts.mass * analysis.omega_L))
        ell_r = math.sqrt(consts.hbar / (consts.mass * analysis.omega_R))
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
    snap, seeds = spec.kink, {}
    coarse = e0_c, e1_c = _lowest_two_on_grid(v, consts, grid, grid.n_points, snap, seeds)
    if not grid.richardson:
        return Spectrum(
            E0=e0_c, E1=e1_c, splitting=e1_c - e0_c, est_error=math.nan, coarse=coarse
        )
    fine = e0_f, e1_f = _lowest_two_on_grid(
        v, consts, grid, 2 * grid.n_points - 1, snap, seeds
    )
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
