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
without cancellation and rotated in closed form, until a residual bound
certifies them: the quadratic bound of a Ritz pair puts each level of H
within (|r0|^2 + |r1|^2) / (hi - theta_1) of its Ritz value, and on grids
too fine for it, a bound on the residuals weighed by (H - sigma)^-1
does.  One Sturm count (stebz) proves them the two lowest, and so every
other level above hi, the one fact the bounds rest on: by Cauchy
interlacing the two lowest levels lie at or below the Ritz values, so
when exactly two levels lie at or below hi, they are those two.  A pair
that is not certified or not proven is solved again from the next finer
seed, up to the grid itself, so a seed too coarse for the wells costs
time, not the answer.
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

from ._brent import brentq, classified
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
        if not math.isfinite(self.x_max - self.x_min):
            raise ConfigError("grid walls and the span between them must be finite")
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
    try:
        return float(brentq(lambda x: analysis.v(x) - E, lo, hi, xtol=1e-12, rtol=8.9e-16))
    except (ValueError, RuntimeError) as exc:
        raise classified(exc) from None


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
# coarser gave no certified, proven pair.  A grid of n nodes and its
# Richardson partner of 2n - 1 share every seed up to n.
_SEED_POINTS = 1024
# A grid's Ritz pair is certified when a residual bound puts each level of
# H within _SETTLE times the pair's kinetic plus absolute potential energy
# of its Ritz value; a pair not certified after _MAX_SWEEPS sweeps is not
# resolved.
_SETTLE = 1e-12
_MAX_SWEEPS = 8


def _hamiltonian(v, consts: PhysConstants, x: np.ndarray) -> tuple[float, np.ndarray]:
    """(t, v on the interior nodes): H = tridiag(-t, 2t + v, -t), t = hbar^2 / (2 m h^2).

    Raises ConfigError unless t is finite and positive and v finite on every node.
    """
    h = x[1] - x[0]
    with np.errstate(all="ignore"):
        t = consts.hbar ** 2 / (2.0 * consts.mass * h * h)
        vx = np.asarray(v(x[1:-1]), dtype=float)
    if not (0.0 < t < math.inf and np.isfinite(vx).all()):
        raise ConfigError(
            f"walls [{x[0]:g}, {x[-1]:g}] with n_points = {x.size} give no finite "
            f"Hamiltonian: t = {t:g}, and v is not finite on "
            f"{np.count_nonzero(~np.isfinite(vx))} nodes"
        )
    return t, vx


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


def _eigh2(a: float, b: float, c: float):
    """Ascending eigenvalues of [[a, b], [b, c]] and the unit vector (cs, sn) of the lower.

    The symmetric Schur rotation (Golub and Van Loan, Matrix Computations,
    section 8.5.2): tn is the tangent of the smaller rotation angle, so
    each level is a diagonal entry moved by tn b, never a difference of
    the two.  The upper level's vector is (-sn, cs).  Plain float
    arithmetic, with no BLAS or LAPACK kernel picked per CPU.
    """
    if b == 0.0:
        return (a, c, 1.0, 0.0) if a <= c else (c, a, 0.0, 1.0)
    tau = (c - a) / (b + b)
    tn = math.copysign(1.0, tau) / (abs(tau) + math.hypot(1.0, tau))
    cs = 1.0 / math.hypot(1.0, tn)
    sn = tn * cs
    low, high = a - tn * b, c + tn * b  # the levels of (cs, -sn) and (sn, cs)
    if low <= high:
        return low, high, cs, -sn
    return high, low, sn, cs


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
    (a0, a1), (b0, b1) = block[0], block[-1]  # the nodes next to the walls
    k00 = t * (_sum_of_products(d0, d0) + a0 * a0 + b0 * b0)
    k01 = t * (_sum_of_products(d0, d1) + a0 * a1 + b0 * b1)
    k11 = t * (_sum_of_products(d1, d1) + a1 * a1 + b1 * b1)
    del d0, d1
    vq0 = vx * q0
    v00, v01 = _sum_of_products(vq0, q0), _sum_of_products(vq0, q1)
    del vq0
    v11 = _sum_of_products(vx * q1, q1)
    low, high, cs, sn = _eigh2(k00 + v00, k01 + v01, k11 + v11)
    turned = cs * q0 + sn * q1  # block @ rotation, one column at a time
    q1 *= cs
    q1 -= sn * q0
    q0[:] = turned
    return (low, high), k00 + k11 + abs(v00) + abs(v11)


def _residual(t: float, vx: np.ndarray, q: np.ndarray, level: float, out, lower) -> float:
    """r = (H - level) q in ``out``; returns the allowance for its rounding in |r|.

    r is formed as (v - level) q + t (d_i-1 - d_i), d_i = q_i+1 - q_i (in
    ``lower``) with the walls as zeros: from differences, as the Ritz
    values are, since 2t + v - level would round by eps t, which grows as
    1/h^2.
    """
    np.subtract(q[1:], q[:-1], out=lower)
    lower *= t
    kinetic = math.sqrt(_sum_of_products(lower, lower) + (t * q[0]) ** 2 + (t * q[-1]) ** 2)
    np.subtract(vx, level, out=out)
    out *= q
    potential = math.sqrt(_sum_of_products(out, out))
    out[:-1] -= lower
    out[1:] += lower
    out[0] += t * q[0]
    out[-1] += t * q[-1]
    # entry i rounds three times over at most
    # |(v_i - level) q_i| + t |d_i-1| + t |d_i|
    return 3.0 * math.ulp(1.0) * (potential + 2.0 * kinetic)


def _weighted_bound(t: float, vx: np.ndarray, residuals, allowances, levels, gap: float):
    """The bound on |theta_j - lambda_j| from residuals weighed by (H - sigma)^-1.

    sigma = theta_0 - 2 gap; column j of ``residuals`` is r_j =
    (H - theta_j) q_j, ``allowances[j]`` the rounding of its norm.  Write
    each Ritz vector as its part in the span of the two lowest
    eigenvectors plus z_j in the rest.  Each theta_j exceeds lambda_j by
    at most sum_j z_j^T (H - lambda_0) z_j, and on an eigenvector of level
    lambda > hi = theta_1 + gap, z_j is r_j / (lambda - theta_j), so that
    sum is at most (hi - sigma)(hi - lambda_0) / gap^2 times
    sum_j r_j^T (H - sigma)^-1 r_j.  As the caller has |r0|^2 + |r1|^2 <
    gap^2, two levels lie within gap of the pair (Kahan's theorem;
    Parlett, chapter 11), and its Sturm count makes them lambda_0 and
    lambda_1: so lambda_0 > theta_0 - gap, every level lies more than gap
    above sigma, and H - sigma is positive definite; a failed LDL^T
    factorization returns inf.  This weighting leaves the many high levels
    that the rounding of a stored vector excites, about eps t in |r|, with
    about eps^2 t in the bound, where |r|^2 / gap grows as 1/h^4.  The
    factorization's own rounding, a relative error of about eps t / gap in
    each r_j^T (H - sigma)^-1 r_j, is not counted.
    """
    from scipy.linalg.lapack import dpttrf, dpttrs

    sigma = levels[0] - 2.0 * gap
    d, e, info = dpttrf(
        vx + (2.0 * t - sigma), np.full(vx.size - 1, -t), overwrite_d=1, overwrite_e=1
    )
    if info != 0:
        return math.inf
    weighed = dpttrs(d, e, residuals)[0]
    # (H - sigma)^-1 has no level above 1 / gap: an error a in r_j weighs a / sqrt(gap) at most
    squares = sum(
        (math.sqrt(_sum_of_products(r, w)) + allowance / math.sqrt(gap)) ** 2
        for r, w, allowance in zip(residuals.T, weighed.T, allowances)
    )
    spread = levels[1] - levels[0]
    return (3.0 * gap + spread) * (2.0 * gap + spread) / (gap * gap) * squares


def _polish(t: float, vx: np.ndarray, block: np.ndarray, shifts, ceiling: float, where: str):
    """Two lowest levels by block inverse iteration from the start ``block``.

    Column j is solved with H - shifts[j] in each sweep, then the block
    goes through Rayleigh-Ritz, until a residual bound certifies the Ritz
    values theta_0 <= theta_1.  The bound is the quadratic one of a Ritz
    pair (Parlett, The Symmetric Eigenvalue Problem, chapter 11; Mathias,
    SIAM J. Matrix Anal. Appl. 19 (1998) 541): each level of H lies within
    (|r0|^2 + |r1|^2) / gap of its Ritz value, r_j = (H - theta_j) q_j and
    gap the distance to the rest of the spectrum.  With every level but
    the two lowest above hi, halfway from theta_1 to ``ceiling``, gap is at
    least hi - theta_1.  On a grid so fine that the rounding of the stored
    vectors keeps that bound up, ``_weighted_bound`` gives the certificate.
    Once the bound is within _SETTLE of the pair's scale, one Sturm count
    (LAPACK stebz) proves that fact: by Cauchy interlacing the two lowest
    levels lie at or below theta_0 and theta_1 (Parlett, chapter 10), so
    a count of exactly two levels at or below hi puts every other level
    above it.  Either bound holds for the pair as stored up to a term of
    order eps times the scale, from the rounding of the Ritz values and of
    the orthonormality of q0 and q1, which neither counts.  Block keeps
    the Ritz vectors.
    """
    from scipy.linalg.lapack import dgtsv, dstebz

    n = vx.size
    # the pair's residuals; their columns double as the solves' and the count's diagonals
    residuals, lower = np.empty((n, 2), order="F"), np.empty(n - 1)
    diag, upper = residuals[:, 0], residuals[:-1, 1]
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
        levels, scale = _rayleigh_ritz(block, t, vx)
        if not ceiling > levels[1]:
            raise GridTooCoarse(
                f"the seed's third level {ceiling:g} is not above the second level "
                f"{levels[1]:g} of {where}"
            )
        hi = 0.5 * (levels[1] + ceiling)
        gap = hi - levels[1]
        allowances = [
            _residual(t, vx, block[:, j], level, residuals[:, j], lower)
            for j, level in enumerate(levels)
        ]
        squares = sum(
            (math.sqrt(_sum_of_products(r, r)) + allowance) ** 2
            for r, allowance in zip(residuals.T, allowances)
        )
        bound = squares / gap
        if _SETTLE * scale < bound < gap:  # the weighted bound needs squares < gap^2
            bound = _weighted_bound(t, vx, residuals, allowances, levels, gap)
        if bound > _SETTLE * scale:
            continue
        # every level is at least min(v) (Gershgorin), so the levels in (floor, hi]
        # are all those at or below hi; a tolerance of hi - floor stops the
        # bisection after its first step, as only their count is wanted
        np.add(vx, 2.0 * t, out=diag)
        lower.fill(-t)
        floor = vx.min() - gap
        count, _, _, _, info = dstebz(diag, lower, 1, floor, hi, 0, 0, hi - floor, "E")
        if info != 0 or count != 2:
            raise GridTooCoarse(
                f"a Sturm count puts {count} levels of {where} at or below {hi:g}, not 2"
            )
        return levels
    raise GridTooCoarse(
        f"the residual bound {bound:g} of the Ritz pair is above {_SETTLE:g} of its "
        f"scale after {_MAX_SWEEPS} sweeps on {where}"
    )


def _lowest_two_on_grid(
    v, consts: PhysConstants, grid: GridSpec, n_points: int, snap: bool, seeds: dict
) -> tuple[float, float]:
    """Two lowest levels of the n_points-point Hamiltonian, proven lowest.

    Each seed of ``_seed_sizes(n_points)`` in turn, until one gives a
    certified pair that a Sturm count proves lowest: its vectors, linearly
    interpolated onto the grid, start the block inverse iteration, its two
    lowest levels are the shifts and its third sets the bound hi of the
    count.  The last seed is the grid itself, whose own vectors leave the
    pair unresolved only when the grid cannot tell its levels apart.
    ``seeds`` holds the seeds solved so far by node count.  So the levels
    are a function of the grid alone, whether it is solved on its own or
    as a Richardson partner.
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
            ritz = _polish(t, vx, block, levels[:2], levels[2], where)
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
    try:
        coarse = e0_c, e1_c = _lowest_two_on_grid(v, consts, grid, grid.n_points, snap, seeds)
        if not grid.richardson:
            return Spectrum(
                E0=e0_c, E1=e1_c, splitting=e1_c - e0_c, est_error=math.nan, coarse=coarse
            )
        fine = e0_f, e1_f = _lowest_two_on_grid(
            v, consts, grid, 2 * grid.n_points - 1, snap, seeds
        )
    except MemoryError:
        raise ConfigError(
            f"n_points = {grid.n_points} is too large: its oracle grid cannot be allocated"
        ) from None
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
