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
(LAPACK stebz, then stein for the vectors).  Its two vectors,
interpolated onto the grid, go through shifted tridiagonal solves (LAPACK
gtsv), shift j being seed level j, and a Rayleigh-Ritz step summed
without cancellation and rotated in closed form, until a residual bound
certifies them: the quadratic bound of a Ritz pair puts each level of H
within (|r0|^2 + |r1|^2) / (hi - theta_1) of its Ritz value, and on grids
too fine for it, a bound on the residuals weighed by (H - sigma)^-1
does.  One Sturm count proves them the two lowest, and so every other
level above hi, the one fact the bounds rest on: by Cauchy interlacing
the two lowest levels lie at or below the Ritz values, so when exactly
two levels lie at or below hi, they are those two.  By Sylvester's law
of inertia the count is the number of pivots at or below zero of one
LDL^T factorization of H - hi (LAPACK pttrf).  A pair that is not
certified or not proven is solved again from the next finer seed, up to
the grid itself, so a seed too coarse for the wells costs time, not the
answer.  The seeds are the grid's halvings.  On two wells the first is
the coarsest that keeps eight nodes in the narrower well's decay length
sqrt(hbar / (m omega)), from which one sweep certified every grid
measured, but never finer than the first halving under 1024 nodes,
where a single well starts.
Bisection alone would carry its stopping tolerance, eps times the 1-norm
of H, which grows as 1/h^2, into the doublet gap.

Each grid samples v on its own nodes when it is solved, and checks
those samples.  The sweeps of a grid work in place, in one work space per
thread: the block, the residuals and a subdiagonal, 40 bytes per interior
node of the largest grid the thread has solved.  It stays allocated
between solves, so that the heap keeps its pages from grid to grid.

This is the only module that needs scipy, and of scipy it loads only the
compiled LAPACK extension, on the first solve (``_lapack``), falling
back to ``scipy.linalg.lapack`` when the extension cannot be loaded.
Importing ``scipy.linalg`` for its five routines would take longer than
a whole semiclassical analysis, so ``import tunnelkit`` and the runs
that never solve leave scipy unloaded, and a solve loads no Python
module of scipy.
"""

import functools
import importlib.machinery
import importlib.util
import math
import os
import sys
import threading
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError, DomainTooSmall, GridTooCoarse, NumericsError, WellStructureError
from .potentials import (
    DEFAULT_CONSTANTS,
    PhysConstants,
    WellAnalysis,
    _flank_roots,
    _flipped,
    analyze,
    evaluate,
)

__all__ = ["GridSpec", "Spectrum", "default_grid", "eigen_lowest_two"]


@dataclass(frozen=True)
class GridSpec:
    """Uniform Dirichlet grid: n_points nodes including both walls.

    A grid is refused before anything is allocated when its largest
    solve, the (2 n_points - 1)-point partner with Richardson, would hold
    its nodes and the potential on them, 16 bytes a node, in more than
    sys.maxsize bytes: no process can address that, and numpy refuses an
    array near that size outright rather than failing to allocate it.
    """

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
        nodes = 2 * self.n_points - 1 if self.richardson else self.n_points
        if 16 * nodes > sys.maxsize:
            raise _too_large(self.n_points)


def _too_large(n_points):
    return ConfigError(f"n_points = {n_points} is too large: its oracle grid cannot be allocated")


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


def _decay_lengths(analysis: WellAnalysis) -> tuple[float, float]:
    """sqrt(hbar / (m omega)) of the left and the right well."""
    c = analysis.consts
    lengths = []
    for name, omega in (("omega_L", analysis.omega_L), ("omega_R", analysis.omega_R)):
        if c.mass * omega == 0.0:
            raise ConfigError(f"mass {c.mass:g} times {name} = {omega:g} underflows")
        lengths.append(math.sqrt(c.hbar / (c.mass * omega)))
        if lengths[-1] == 0.0:
            raise ConfigError(
                f"the decay length sqrt(hbar / (mass {name})) underflows: "
                f"hbar = {c.hbar:g}, mass = {c.mass:g}, {name} = {omega:g}"
            )
    return lengths[0], lengths[1]


def default_grid(
    spec,
    consts: PhysConstants = DEFAULT_CONSTANTS,
    analysis: WellAnalysis | None = None,
) -> GridSpec:
    """Grid walls wide enough that the doublet is box-insensitive.

    Each wall sits at the classical turning point, outside its well, of
    the energy E_bar + 10 hbar max(w_L, w_R), or of v(x_well) + 10 hbar
    w_well where the first lies below that well's floor (a bias of some
    20 level spacings), pushed outward by the well's harmonic decay
    length sqrt(hbar / (m w)) five times, on the axis of ``spec``.  A
    bracket from the well's floor outward doubles from the shorter decay
    length until v exceeds the energy at its far end (a ConfigError once
    that end leaves the float range: the potential does not confine), and
    ``_flank_roots`` solves it from the harmonic turning point.  The node
    count and Richardson setting are the ``GridSpec`` defaults.
    """
    if analysis is None:
        analysis = analyze(spec, consts)
    c = analysis.consts
    e_hi = analysis.E_bar + 10.0 * c.hbar * max(analysis.omega_L, analysis.omega_R)
    ell_l, ell_r = _decay_lengths(analysis)
    walls = []
    for sign, x0, omega, ell in (
        (-1.0, analysis.x_L, analysis.omega_L, ell_l),
        (1.0, analysis.x_R, analysis.omega_R, ell_r),
    ):
        floor = analysis.v(x0)
        e = e_hi if e_hi >= floor else floor + 10.0 * c.hbar * omega
        d = min(ell_l, ell_r)
        while not analysis.v(x0 + sign * d) > e:
            d *= 2.0
            if not math.isfinite(x0 + sign * d):
                raise ConfigError("potential does not confine; no outer wall found")
        lo, hi = sorted((x0, x0 + sign * d))
        start = x0 + sign * math.sqrt(2.0 * (e - floor) / c.mass) / omega
        turn = float(_flank_roots(analysis, [e], [lo], [hi], [start], [sign > 0.0])[0])
        walls.append(turn + sign * 5.0 * ell)
    x_min, x_max = walls
    if _flipped(spec, analysis):
        x_min, x_max = -x_max, -x_min
    return GridSpec(x_min=x_min, x_max=x_max)


# A grid's seeds are its halvings, (n + 1) // 2 nodes at twice the spacing
# at a time, up to the grid itself: the coarsest seeds it, and each finer
# one only when the coarser gave no certified, proven pair.  The chain
# starts at the first halving with fewer than _SEED_POINTS nodes or, on two
# wells, at the coarsest that still puts _SEED_PER_DECAY nodes in the
# narrower well's decay length sqrt(hbar / (m omega)), whichever is
# coarser, and never under GridSpec's 64 nodes.  A grid of n nodes and its
# Richardson partner of 2n - 1 share every seed up to n.  Measured over
# deep quartics, sextics and double oscillators: from 6 nodes per decay
# length up, one sweep certified every grid; under 5, every grid took two.
_SEED_POINTS = 1024
_SEED_PER_DECAY = 8
# A grid's Ritz pair is certified when a residual bound puts each level of
# H within _SETTLE times the pair's kinetic plus absolute potential energy
# of its Ritz value; a pair not certified after _MAX_SWEEPS sweeps is not
# resolved.
_SETTLE = 1e-12
_MAX_SWEEPS = 8


def _hamiltonian(v, consts: PhysConstants, x: np.ndarray) -> tuple[float, np.ndarray]:
    """(t, v on the interior nodes): H = tridiag(-t, 2t + v, -t), t = hbar^2 / (2 m h^2).

    Raises ConfigError unless t > 0 and v and 2t + v are finite on every
    node.
    """
    h = x[1] - x[0]
    with np.errstate(all="ignore"):
        vx = np.asarray(v(x[1:-1]), dtype=float)
        t = float(consts.hbar ** 2 / (2.0 * consts.mass * h * h))
        v_min, v_max = float(vx.min()), float(vx.max())  # nan when v is nan anywhere
    walls = f"walls [{x[0]:g}, {x[-1]:g}] with n_points = {x.size}"
    if not (0.0 < t < math.inf and math.isfinite(v_min) and math.isfinite(v_max)):
        raise ConfigError(
            f"{walls} give no finite Hamiltonian: t = {t:g}, and v is not finite on "
            f"{np.count_nonzero(~np.isfinite(vx))} nodes"
        )
    if not math.isfinite(2.0 * t + v_max):  # with t > 0, the largest 2t + v
        with np.errstate(over="ignore"):
            overflows = np.count_nonzero(~np.isfinite(2.0 * t + vx))
        raise ConfigError(
            f"{walls} give a Hamiltonian whose diagonal 2t + v overflows: t = {t:g}, "
            f"and 2t + v is not finite on {overflows} nodes"
        )
    return t, vx


def _seed_sizes(n_points: int, fewest: float = math.inf) -> list[int]:
    """The node counts of the seeds of an n_points grid, coarsest first.

    A grid is halved while it has _SEED_POINTS nodes or more, or while
    its halving keeps ``fewest`` nodes and 64.
    """
    sizes = [n_points]
    while sizes[-1] >= _SEED_POINTS or (sizes[-1] + 1) // 2 >= max(fewest, 64):
        sizes.append((sizes[-1] + 1) // 2)
    return sizes[::-1]


_FLAPACK = "scipy.linalg._flapack"


def _load_flapack():
    """scipy's ``linalg/_flapack`` extension, loaded from its file without importing scipy.

    Raises ImportError or OSError when scipy or the file is not found or
    does not load.  Loading a single-phase extension enters it in
    ``sys.modules`` under its name; that entry is put back as it was, so
    that a later ``import scipy.linalg`` loads the package in full (and
    gets the same routines from the interpreter's extension cache).
    """
    scipy = importlib.util.find_spec("scipy")  # finds the package, imports nothing
    roots = [] if scipy is None else scipy.submodule_search_locations or []
    for root in roots:
        for suffix in importlib.machinery.EXTENSION_SUFFIXES:
            path = os.path.join(root, "linalg", "_flapack" + suffix)
            if not os.path.isfile(path):
                continue
            loader = importlib.machinery.ExtensionFileLoader(_FLAPACK, path)
            before = sys.modules.get(_FLAPACK)
            try:
                spec = importlib.util.spec_from_loader(_FLAPACK, loader)
                module = importlib.util.module_from_spec(spec)
                loader.exec_module(module)
                return module
            finally:
                if before is None:
                    sys.modules.pop(_FLAPACK, None)
                else:
                    sys.modules[_FLAPACK] = before
    raise ImportError(f"no linalg/_flapack extension in the scipy package at {roots}")


_LOADING = threading.Lock()  # _load_flapack's entry in sys.modules is one thread's at a time


@functools.cache
def _lapack():
    """The LAPACK routines of the solver: dstebz, dstein, dgtsv, dpttrf and dpttrs.

    scipy's compiled ``_flapack`` module: the one ``scipy.linalg`` has
    loaded already, or else loaded directly by ``_load_flapack``.  The
    extension is private to scipy; when it cannot be found or loaded, the
    public ``scipy.linalg.lapack``, which wraps the same routines.
    """
    try:
        with _LOADING:
            return sys.modules.get(_FLAPACK) or _load_flapack()
    except (ImportError, OSError):
        from scipy.linalg import lapack

        return lapack


def _seed(v, consts: PhysConstants, grid: GridSpec, n_points: int, snap: bool):
    """Nodes, three lowest levels and their vectors on the n_points seed grid.

    The levels by bisection (stebz, to its default tolerance, in the
    block order stein takes), their vectors by inverse iteration (stein),
    then both sorted ascending: the steps of scipy's ``eigh_tridiagonal``
    with ``select="i"``.  Raises ConfigError where t * t overflows,
    which stebz cannot take.
    """
    x = _grid_nodes(grid, n_points, snap)
    t, vx = _hamiltonian(v, consts, x)
    if t * t == math.inf:
        raise ConfigError(
            f"walls [{x[0]:g}, {x[-1]:g}] with n_points = {n_points} give a seed whose "
            f"off-diagonal t = {t:g} squares past the float range, which its bisection "
            "(stebz) cannot take"
        )
    lapack = _lapack()
    d, e = vx + 2.0 * t, np.full(n_points - 3, -t)
    unsolved = f"the {n_points}-point seed grid is not solved"
    m, levels, iblock, isplit, info = lapack.dstebz(d, e, 2, 0.0, 1.0, 1, 3, 0.0, "B")
    if info != 0:
        raise NumericsError(
            f"{unsolved}: stebz (eigh_tridiagonal) did not converge (LAPACK info={info})"
        )
    levels = levels[:m]
    vectors, info = lapack.dstein(d, e, levels, iblock, isplit)
    if info != 0:
        raise NumericsError(
            f"{unsolved}: stein (eigh_tridiagonal) {info} eigenvectors failed to converge"
        )
    order = np.argsort(levels)
    return x, levels[order], vectors[:, order]


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


def _rayleigh_ritz(block: np.ndarray, t: float, vx: np.ndarray, work: np.ndarray, lower):
    """Orthonormalize the two columns of ``block``, turn them into Ritz vectors.

    The 2x2 matrix is summed from differences, t sum dq_i dq_j + sum v q_i
    q_j with the walls as zeros, never from 2t + v, whose rounding in t
    would swamp the doublet gap.  Returns the ascending Ritz values and the
    pair's kinetic plus absolute potential energy, the scale of their
    rounding.  Raises GridTooCoarse when a column is zero or not finite, as
    a solve with a nearly singular H - shift leaves it.  The differences,
    the products v q and the rotated columns are formed in the two columns
    of ``work``, shaped as ``block``, and in ``lower``, of one node fewer,
    whose contents are lost.
    """
    q0, q1 = block[:, 0], block[:, 1]
    w0, w1 = work[:, 0], work[:, 1]
    squares = _sum_of_products(q0, q0), _sum_of_products(q1, q1)
    if not all(0.0 < square < math.inf for square in squares):
        raise GridTooCoarse("the iterated vectors vanish or overflow")
    q0 /= math.sqrt(squares[0])
    size = math.sqrt(squares[1])
    for _ in range(2):  # Gram-Schmidt, repeated once if it cancels most of q1
        q1 -= np.multiply(q0, _sum_of_products(q0, q1), out=w0)
        size, before = math.sqrt(_sum_of_products(q1, q1)), size
        if size > 0.5 * before:
            break
    q1 /= size
    d0 = np.subtract(q0[1:], q0[:-1], out=lower)
    d1 = np.subtract(q1[1:], q1[:-1], out=w0[:-1])
    (a0, a1), (b0, b1) = block[0].tolist(), block[-1].tolist()  # the nodes next to the walls
    k00 = t * (_sum_of_products(d0, d0) + a0 * a0 + b0 * b0)
    k01 = t * (_sum_of_products(d0, d1) + a0 * a1 + b0 * b1)
    k11 = t * (_sum_of_products(d1, d1) + a1 * a1 + b1 * b1)
    vq0 = np.multiply(vx, q0, out=w1)
    v00, v01 = _sum_of_products(vq0, q0), _sum_of_products(vq0, q1)
    v11 = _sum_of_products(np.multiply(vx, q1, out=w1), q1)
    low, high, cs, sn = _eigh2(k00 + v00, k01 + v01, k11 + v11)
    turned = np.multiply(q0, cs, out=w0)  # block @ rotation, one column at a time
    turned += np.multiply(q1, sn, out=w1)
    q1 *= cs
    q1 -= np.multiply(q0, sn, out=w1)
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
    lapack = _lapack()
    sigma = levels[0] - 2.0 * gap
    d, e, info = lapack.dpttrf(
        vx + (2.0 * t - sigma), np.full(vx.size - 1, -t), overwrite_d=1, overwrite_e=1
    )
    if info != 0:
        return math.inf
    weighed = lapack.dpttrs(d, e, residuals)[0]
    # (H - sigma)^-1 has no level above 1 / gap: an error a in r_j weighs a / sqrt(gap) at most
    squares = sum(
        (math.sqrt(_sum_of_products(r, w)) + allowance / math.sqrt(gap)) ** 2
        for r, w, allowance in zip(residuals.T, weighed.T, allowances)
    )
    spread = levels[1] - levels[0]
    return (3.0 * gap + spread) * (2.0 * gap + spread) / (gap * gap) * squares


def _levels_at_or_below(t: float, vx: np.ndarray, shift: float, diag, lower) -> int:
    """How many levels of H lie at or below ``shift``, from one LDL^T pass.

    By Sylvester's law of inertia that is the number of pivots at or below
    zero of the LDL^T factorization of H - shift.  LAPACK pttrf factors
    H - shift in place in ``diag`` and ``lower`` and stops at each such
    pivot; here the pivot eliminates its node, a zero one taken as -pivmin
    as LAPACK's Sturm counts (stebz) take it, and pttrf resumes on the
    nodes after it: one call, plus one per level counted.  The elimination
    is in Python floats, which overflow to inf where a numpy scalar would
    warn.  pttrf's wrapper takes no single node, so a last one left alone
    is counted here.
    """
    dpttrf = _lapack().dpttrf
    t = float(t)
    np.add(vx, 2.0 * t - shift, out=diag)
    lower.fill(-t)
    pivmin = sys.float_info.min * max(1.0, t) * max(1.0, t)
    count, k, n = 0, 0, diag.size
    while k < n - 1:
        factors, _, info = dpttrf(diag[k:], lower[k:], overwrite_d=1, overwrite_e=1)
        if info == 0:
            return count
        count += 1
        pivot = float(factors[info - 1])
        k += info  # the node after the pivot, which pttrf left as it was
        if k < n:
            if pivot == 0.0:  # -0.0 too
                pivot = -pivmin
            diag[k] = float(diag[k]) - t * (t / pivot)  # pttrf's order, e = -t
    if k == n - 1:
        count += float(diag[k]) <= 0.0
    return count


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
    (``_levels_at_or_below``, one LDL^T pass over H - hi) proves that
    fact: by Cauchy interlacing the two lowest levels lie at or below
    theta_0 and theta_1 (Parlett, chapter 10), so a count of exactly two
    levels at or below hi puts every other level above it.  Either bound
    holds for the pair as stored up to a term of order eps times the
    scale, from the rounding of the Ritz values and of the orthonormality
    of q0 and q1, which neither counts.  Block keeps the Ritz vectors.
    """
    dgtsv = _lapack().dgtsv
    # the pair's residuals; their columns double as the solves' and the
    # count's diagonals and as the Rayleigh-Ritz step's work space
    _, residuals, lower = _workspace(vx.size)
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
        levels, scale = _rayleigh_ritz(block, t, vx, residuals, lower)
        hi = 0.5 * (levels[1] + ceiling)
        gap = hi - levels[1]
        if not gap > 0.0:  # the bounds divide by it
            raise GridTooCoarse(
                f"the seed's third level {ceiling:g} is not above the second level "
                f"{levels[1]:g} of {where}"
            )
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
        count = _levels_at_or_below(t, vx, hi, diag, lower)
        if count != 2:
            raise GridTooCoarse(
                f"a Sturm count puts {count} levels of {where} at or below {hi:g}, not 2"
            )
        return levels
    raise GridTooCoarse(
        f"the residual bound {bound:g} of the Ritz pair is above {_SETTLE:g} of its "
        f"scale after {_MAX_SWEEPS} sweeps on {where}"
    )


def _lowest_two_on_grid(
    v, consts: PhysConstants, grid: GridSpec, n_points: int, snap: bool, seeds: dict,
    fewest: float,
) -> tuple[float, float]:
    """Two lowest levels of the n_points-point Hamiltonian, proven lowest.

    Each seed of ``_seed_sizes(n_points, fewest)`` in turn, until one gives a
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
    block = _workspace(vx.size)[0]
    for m in _seed_sizes(n_points, fewest):
        if m not in seeds:
            seeds[m] = _seed(v, consts, grid, m, snap)
        x_seed, levels, vectors = seeds[m]
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
    return (np.arange(n_points) - round(-grid.x_min / h)) * h


_WORKSPACE = threading.local()


def _workspace(n: int):
    """This thread's (block, residuals, lower) for a grid of n interior nodes.

    ``block`` and ``residuals`` are (n, 2) arrays in Fortran order and
    ``lower`` has n - 1 entries: views of one buffer of 5n - 1 floats, 40
    bytes a node, that the thread keeps and grows to the largest grid it
    has solved, so that the heap keeps its pages from grid to grid.  Each
    user writes an entry before it reads it.
    """
    buffer = getattr(_WORKSPACE, "buffer", None)
    if buffer is None or buffer.size < 5 * n - 1:
        buffer = _WORKSPACE.buffer = np.empty(5 * n - 1)
    block = buffer[: 2 * n].reshape((n, 2), order="F")
    residuals = buffer[2 * n : 4 * n].reshape((n, 2), order="F")
    return block, residuals, buffer[4 * n : 5 * n - 1]


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
    two grids disagree on the gap by more than ten percent or the gap is
    not positive, and DomainTooSmall when a wall is closer than five decay lengths to its
    well, where the Dirichlet box would still bias the doublet.  The walls
    lie on the axis of ``spec``, also when ``analysis`` runs on its mirror.

    hbar and m come from ``analysis``; ``consts`` builds it, and serves
    single-well potentials, which are accepted too (the two lowest box
    levels of the raw potential are returned, with no floor shift and no
    double-well domain check); they need an explicit ``grid``, and raise
    ConfigError without one.  ``analysis`` None is ``analyze(spec,
    consts)``, or the raw potential when that raises WellStructureError.
    Each refusal is raised here alone: every command reaches the
    eigensolver through this entry.
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
    fewest = math.inf  # no decay length sizes the seeds of a single well
    if analysis is not None:
        consts = analysis.consts
        ell_l, ell_r = _decay_lengths(analysis)
        fewest = _SEED_PER_DECAY * (grid.x_max - grid.x_min) / min(ell_l, ell_r) + 1.0
        walls, flipped = grid, _flipped(spec, analysis)
        if flipped:  # solve on the axis of the analysis
            grid = replace(grid, x_min=-grid.x_max, x_max=-grid.x_min)
        # distances, not bounds x_well -/+ 5 ell, which round onto a well
        # whose decay length is under an ulp of its position
        if analysis.x_L - grid.x_min < 5.0 * ell_l or grid.x_max - analysis.x_R < 5.0 * ell_r:
            lo, hi = analysis.x_L - 5.0 * ell_l, analysis.x_R + 5.0 * ell_r
            if flipped:
                lo, hi = -hi, -lo
            raise DomainTooSmall(
                "walls must clear each well by five decay lengths: need "
                f"x_min <= {lo:g} and x_max >= {hi:g}, got "
                f"[{walls.x_min:g}, {walls.x_max:g}]"
            )
        v = analysis.v
    else:
        v = lambda x: evaluate(spec, x, consts)  # noqa: E731
    snap, fine, seeds = spec.kink, None, {}  # a Richardson pair shares its seeds
    n = grid.n_points
    try:
        coarse = e0, e1 = _lowest_two_on_grid(v, consts, grid, n, snap, seeds, fewest)
        if grid.richardson:
            fine = _lowest_two_on_grid(v, consts, grid, 2 * n - 1, snap, seeds, fewest)
    except MemoryError:
        raise _too_large(grid.n_points) from None
    est = math.nan
    if fine is not None:
        (e0_c, e1_c), (e0_f, e1_f) = coarse, fine
        split_c, split_f = e1_c - e0_c, e1_f - e0_f
        if abs(split_f - split_c) > 0.1 * abs(split_f):
            raise GridTooCoarse(
                f"doublet gap moved from {split_c:g} to {split_f:g} on grid "
                "doubling; increase n_points"
            )
        e0 = (4.0 * e0_f - e0_c) / 3.0
        e1 = (4.0 * e1_f - e1_c) / 3.0
        est = max(abs(e0_f - e0_c), abs(e1_f - e1_c)) / 3.0
    if not e1 - e0 > 0.0:  # its callers divide by it
        raise GridTooCoarse(f"the doublet gap is {e1 - e0:g} on the grid; increase n_points")
    return Spectrum(E0=e0, E1=e1, splitting=e1 - e0, est_error=est, coarse=coarse, fine=fine)
