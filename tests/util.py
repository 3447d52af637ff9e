"""Shared builders used across the test modules."""
import dataclasses
import math

import numpy as np
from hypothesis import strategies as st

from tunnelkit import (
    DEFAULT_CONSTANTS,
    ActionResult,
    BiasedQuartic,
    DoubleOscillator,
    EnergyAboveBarrier,
    EnergyBelowWellBottom,
    Polynomial,
    QuantizationResult,
    RootNotBracketed,
    adaptive_quadrature,
    analyze,
    compute_splitting,
    evaluate,
    f_of_zeta,
    gamow_integral,
    splitting,
    turning_points,
)
from tunnelkit import oracle
from scipy.optimize import brentq
from tunnelkit.cli import _splitting_doc, _warn_flags
from tunnelkit.quadrature import _MAX_DEPTH, _panel_nodes, _panel_sums, _settled, _unsettled

# Linear coefficient that pins the well-frequency ratio of the pinned sextic
# (minima at x = -1 and x = +1) to exactly 1.3 while keeping both minima at
# zero depth offset.  With q0 = 0.8 and q2 = 0.2 the curvature ratio at the
# two minima is (q0 + q2 + q1) / (q0 + q2 - q1), so q1 = (0.69 / 2.69)(q0 + q2)
# gives omega_R / omega_L = sqrt(1.69) = 1.3.
SEXTIC_Q1 = (0.69 / 2.69) * (0.8 + 0.2)

# Ascending coefficients of (x^2 - 1)^2 (q2 x^2 + q1 x + q0).
SEXTIC_BASE = (
    0.8,
    SEXTIC_Q1,
    -1.4,
    -2.0 * SEXTIC_Q1,
    0.4,
    SEXTIC_Q1,
    0.2,
)


def sextic_coeffs(scale, tilt=0.0):
    """Scaled asymmetric sextic, optionally tilted by adding tilt*(x + 1)."""
    coeffs = [scale * c for c in SEXTIC_BASE]
    coeffs[0] += tilt
    coeffs[1] += tilt
    return coeffs


def sextic_scale_for_depth(depth_over_hw):
    """Overall scale making V0 / (hbar omega_L) equal depth_over_hw.

    Both V0 and omega_L**2 scale linearly with the overall factor, so the
    depth ratio grows as sqrt(scale) and the required scale is exact.
    """
    base = analyze(Polynomial(tuple(sextic_coeffs(1.0))), DEFAULT_CONSTANTS)
    hbar = DEFAULT_CONSTANTS.hbar
    return (depth_over_hw * hbar * base.omega_L / base.V0) ** 2


def deep_quartic(depth, a, bias):
    # V0 / (hbar omega) = sqrt(alpha / 8) a^3 for alpha (x^2 - a^2)^2.
    alpha = 8.0 * depth**2 / a**6
    omega = math.sqrt(8.0 * alpha) * a
    return BiasedQuartic(alpha, a, bias * omega / (2.0 * a))


def deep_sextic(depth, bias):
    scale = sextic_scale_for_depth(depth)
    # The tilt raises the right floor by twice its value, and omega_L is
    # sqrt(8 (q0 - q1 + q2) scale) = 2.44 sqrt(scale): tilde_eps = bias hbar omega_L.
    return Polynomial(tuple(sextic_coeffs(scale, 1.22 * math.sqrt(scale) * bias)))


# Wells 4 to 8 level spacings deep with |eps| / (hbar omega_L) <= 0.3.
DEEP_WELLS = st.one_of(
    st.builds(
        deep_quartic,
        st.floats(4.0, 8.0),
        st.floats(0.8, 1.5),
        st.floats(0.0, 0.15),
    ),
    st.builds(
        DoubleOscillator,
        st.just(1.0),
        st.floats(0.85, 1.3),
        st.floats(0.0, 0.15),
        st.floats(4.0, 8.0),
    ),
    st.builds(deep_sextic, st.floats(4.0, 8.0), st.floats(0.0, 0.1)),
)


def reference_gamow_parts(consts, E, analysis, rtol=1e-12):
    """(I_L, I_R), each flank by its own adaptive_quadrature of its own
    integrand: the reference that the shared-sample action kernel must
    match bit for bit."""
    m, hbar = consts.mass, consts.hbar
    v = analysis.v
    a_bar, b_bar = turning_points(analysis.spec, consts, E, analysis)

    def left(t):
        x = a_bar + t * t
        return 2.0 * t * np.sqrt(np.maximum(2.0 * m * (v(x) - E), 0.0))

    def right(t):
        x = b_bar - t * t
        return 2.0 * t * np.sqrt(np.maximum(2.0 * m * (v(x) - E), 0.0))

    i_l = adaptive_quadrature(left, 0.0, math.sqrt(analysis.x_m - a_bar), rtol=rtol) / hbar
    i_r = adaptive_quadrature(right, 0.0, math.sqrt(b_bar - analysis.x_m), rtol=rtol) / hbar
    return i_l, i_r


def reference_slope(consts, E, analysis, rtol=1e-12):
    """dI/dE with each flank integrated on its own; see reference_gamow_parts."""
    m, hbar = consts.mass, consts.hbar
    v = analysis.v
    a_bar, b_bar = turning_points(analysis.spec, consts, E, analysis)

    def left(t):
        x = a_bar + t * t
        return 2.0 * t * m / np.sqrt(np.maximum(2.0 * m * (v(x) - E), 1e-300))

    def right(t):
        x = b_bar - t * t
        return 2.0 * t * m / np.sqrt(np.maximum(2.0 * m * (v(x) - E), 1e-300))

    val = adaptive_quadrature(left, 0.0, math.sqrt(analysis.x_m - a_bar), rtol=rtol)
    val += adaptive_quadrature(right, 0.0, math.sqrt(b_bar - analysis.x_m), rtol=rtol)
    return -val / hbar


def reference_asymptotic_action(consts, analysis, rtol=1e-12):
    """Small-energy expansion of I(E_bar) about the zero-energy action:
    (I_L0, I_R0, A_L, A_R, I_asym).  Each half action is expanded as

        I_L(E) ~= I_L(0) - (E / hbar omega_L) [ln(2 (x_m - x_L) / rho_L) + A_L + 1/2]

    with rho_L = sqrt(2 E / m) / omega_L and A_L the integral over
    [x_L, x_m] of m omega_L / sqrt(2 m V(x)) - 1 / (x - x_L), whose
    counterterm is the parabolic limit of the main term.  The right well
    mirrors with V - tilde_eps and 1 / (x_R - x).  The error is O(E^2)."""
    m, hbar = consts.mass, consts.hbar
    e_bar, te, v = analysis.E_bar, analysis.tilde_eps, analysis.v
    x_l, x_r, x_m = analysis.x_L, analysis.x_R, analysis.x_m
    w_l, w_r = analysis.omega_L, analysis.omega_R

    def p_left(x):
        return np.sqrt(np.maximum(2.0 * m * v(x), 0.0))

    def p_right(x):
        return np.sqrt(np.maximum(2.0 * m * (v(x) - te), 0.0))

    i_l0 = adaptive_quadrature(p_left, x_l, x_m, rtol=rtol) / hbar
    i_r0 = adaptive_quadrature(p_right, x_m, x_r, rtol=rtol) / hbar
    a_l = adaptive_quadrature(
        lambda x: m * w_l / p_left(x) - 1.0 / (x - x_l), x_l, x_m, rtol=rtol, atol=1e-13
    )
    a_r = adaptive_quadrature(
        lambda x: m * w_r / p_right(x) - 1.0 / (x_r - x), x_m, x_r, rtol=rtol, atol=1e-13
    )
    rho_l = math.sqrt(2.0 * e_bar / m) / w_l
    rho_r = math.sqrt(2.0 * (e_bar - te) / m) / w_r
    i_asym = (
        i_l0
        - e_bar / (hbar * w_l) * (math.log(2.0 * (x_m - x_l) / rho_l) + a_l + 0.5)
        + i_r0
        - (e_bar - te) / (hbar * w_r) * (math.log(2.0 * (x_r - x_m) / rho_r) + a_r + 0.5)
    )
    return i_l0, i_r0, a_l, a_r, i_asym


def reference_turning_points(analysis, E):
    """(a_bar, b_bar) by one scalar brentq per flank, with the energy
    checks of the per-point kernel: the accuracy reference for the
    Newton turning points."""
    if E >= analysis.V0:
        raise EnergyAboveBarrier(f"E = {E:g} is not below the barrier top {analysis.V0:g}")
    floor = max(0.0, analysis.tilde_eps)
    if E <= floor:
        raise EnergyBelowWellBottom(f"E = {E:g} does not exceed the higher well floor {floor:g}")

    def shifted(x):
        return analysis.v(float(x)) - E

    if shifted(analysis.x_R) > 0.0:
        raise EnergyBelowWellBottom(
            f"E = {E:g} is below the right well floor "
            f"{analysis.v(analysis.x_R):g} of the potential curve"
        )
    a_bar = brentq(shifted, analysis.x_L, analysis.x_m, xtol=1e-15, rtol=8.9e-16)
    b_bar = brentq(shifted, analysis.x_m, analysis.x_R, xtol=1e-15, rtol=8.9e-16)
    return float(a_bar), float(b_bar)


def _momentum(two_t, w, m):
    return two_t * np.sqrt(np.maximum(w, 0.0))


def _inverse_momentum(two_t, w, m):
    return two_t * m / np.sqrt(np.maximum(w, 1e-300))


def reference_flank_integrals(consts, E, analysis, a_bar, b_bar, rtol, integrands):
    """Both flanks of each integrand at one energy, one dict entry per
    (integrand, flank) component: the per-point kernel that the batched
    one replaced.  Each pass samples v once on the open flanks; each
    component stops at its own depth, and the first one still open at the
    last depth raises QuadratureNonConvergence."""
    m = consts.mass
    two_m = 2.0 * m
    tops = (math.sqrt(analysis.x_m - a_bar), math.sqrt(b_bar - analysis.x_m))
    comps = [(f, flank) for f in integrands for flank in (0, 1)]
    done = {c: 0.0 for c in comps if tops[c[1]] == 0.0}
    last = dict.fromkeys(comps)
    depths = (0, 1)
    while depths[0] <= _MAX_DEPTH:
        open_comps = [c for c in comps if c not in done]
        if not open_comps:
            break
        blocks = [
            (flank, 2**depth, *_panel_nodes(0.0, tops[flank], (2**depth,)))
            for flank in sorted({flank for _, flank in open_comps})
            for depth in depths
        ]
        x = np.concatenate(
            [a_bar + t * t if flank == 0 else b_bar - t * t for flank, _, t, _ in blocks]
        )
        two_t = 2.0 * np.concatenate([t for _, _, t, _ in blocks])
        w = two_m * (analysis.v(x) - E)
        vals = {f: f(two_t, w, m) for f in {f for f, _ in open_comps}}
        start = 0
        for flank, count, t, width in blocks:
            stop = start + t.size
            for c in open_comps:
                if c[1] == flank and c not in done:
                    val = float(_panel_sums(vals[c[0]][start:stop], width, (count,))[0])
                    if _settled(val, last[c], rtol):
                        done[c] = val
                    last[c] = val
            start = stop
        depths = (depths[-1] + 1,)
    for c in comps:
        if c not in done:
            raise _unsettled(last[c], rtol)
    return [(done[f, 0], done[f, 1]) for f in integrands]


def reference_action(consts, analysis, E, rtol=1e-12):
    """The ActionResult of the per-point kernel at energy E, with the
    turning points of a one-row ``turning_points`` call (the scalar
    loop), so a batch's rows on the array path are checked against it."""
    a_bar, b_bar = turning_points(analysis.spec, consts, E, analysis)
    (i_l, i_r), (s_l, s_r) = reference_flank_integrals(
        consts, E, analysis, a_bar, b_bar, rtol, (_momentum, _inverse_momentum)
    )
    i_l, i_r = i_l / consts.hbar, i_r / consts.hbar
    return ActionResult(
        E=float(E),
        a_bar=a_bar,
        b_bar=b_bar,
        I=i_l + i_r,
        I_slope=-(s_l + s_r) / consts.hbar,
        I_L=i_l,
        I_R=i_r,
    )


def reference_point(config, analysis):
    """The JSON row of one bias point built point by point, as the sweep
    built it before its points were batched: the root solve, falling back
    to the unsolved splitting when no root is bracketed."""
    spec, consts, rtol = config.potential, config.constants, config.tolerances.quad_rtol
    try:
        result = compute_splitting(spec, consts, analysis=analysis, rtol=rtol)
        fallback = []
    except RootNotBracketed:
        result = compute_splitting(spec, consts, analysis=analysis, solve=False, rtol=rtol)
        fallback = ["transcendental_unbracketed"]
    return {
        "tilde_eps": analysis.tilde_eps,
        "eps": analysis.eps,
        "E_bar": analysis.E_bar,
        "splitting": _splitting_doc(result),
        "oracle": None,
        "warn_flags": _warn_flags(config, analysis, result.I_bar) + fallback,
    }


# The bracketed reference's constants: the bound on f's arguments, the
# margin doublings of its search for a sign change, and the root tolerance
# |E - root| <= BRACKET_XTOL + BRACKET_RTOL |E| it gives brentq.
ZETA_CLAMP = 0.4
MAX_EXPAND = 60
BRACKET_XTOL = 1e-15
BRACKET_RTOL = 8.9e-16


def absolute_zetas(analysis, E):
    """(zeta_L, zeta_R) formed from the absolute energy E."""
    hbar = analysis.consts.hbar
    return (
        E / (hbar * analysis.omega_L) - 0.5,
        (E - analysis.tilde_eps) / (hbar * analysis.omega_R) - 0.5,
    )


def solve_bracketed(spec, consts, analysis, shifts, rtol):
    """Bracket-and-brentq solve of the quantization condition in absolute E:
    the reference for the Newton solve.

    The residual function is negative at E_bar and positive once the
    product zeta_L zeta_R dominates, so each root is bracketed between
    E_bar and a margin of ten times the quadratic-expansion shift,
    doubling the margin (within the physical energy window) until the
    sign flips; brentq then polishes to machine precision.  While
    probing, the arguments of f are clamped to [-0.4, 0.4]: far from the
    roots the product term dominates the sign, so the root set is
    unchanged for roots with |zeta| < 0.4 while f stays inside its
    domain.  A root beyond the clamp is the root of a different equation.

    Raises RootNotBracketed if a sign change cannot be established.
    """

    def residual(E):
        zl, zr = absolute_zetas(analysis, E)
        fl = f_of_zeta(min(ZETA_CLAMP, max(-ZETA_CLAMP, zl)))
        fr = f_of_zeta(min(ZETA_CLAMP, max(-ZETA_CLAMP, zr)))
        act = gamow_integral(spec, consts, E, analysis, rtol=rtol)
        return zl * zr - fl * fr * math.exp(-2.0 * act)

    e_bar = analysis.E_bar
    lo_lim, hi_lim = splitting._energy_window(analysis, analysis.v(analysis.x_R))

    def bracket_edge(first_margin):
        margin = first_margin
        for _ in range(MAX_EXPAND):
            cand = min(max(e_bar + margin, lo_lim), hi_lim)
            if residual(cand) > 0.0:
                return cand
            if cand in (lo_lim, hi_lim):
                break
            margin *= 2.0
        raise RootNotBracketed(
            "no sign change of the quantization residual within the "
            f"energy window around E_bar = {e_bar:g}"
        )

    lo = bracket_edge(10.0 * shifts.dE_plus)
    hi = bracket_edge(10.0 * shifts.dE_minus)
    e_plus = float(brentq(residual, lo, e_bar, xtol=BRACKET_XTOL, rtol=BRACKET_RTOL, maxiter=200))
    e_minus = float(brentq(residual, e_bar, hi, xtol=BRACKET_XTOL, rtol=BRACKET_RTOL, maxiter=200))
    zl_p, zr_p = absolute_zetas(analysis, e_plus)
    zl_m, zr_m = absolute_zetas(analysis, e_minus)
    return QuantizationResult(
        E_plus=e_plus,
        E_minus=e_minus,
        zeta_L_plus=zl_p,
        zeta_R_plus=zr_p,
        zeta_L_minus=zl_m,
        zeta_R_minus=zr_m,
        residual_plus=residual(e_plus),
        residual_minus=residual(e_minus),
        delta_plus=e_plus - e_bar,
        delta_minus=e_minus - e_bar,
    )


def reference_lowest_two(spec, consts, grid, analysis=None):
    """(E0, E1, noise) of the grid's n-point Hamiltonian by LAPACK bisection
    (stebz) at abstol 2 tiny: the solver eigen_lowest_two used before block
    inverse iteration, kept as its reference.

    The levels are those of ``Spectrum.coarse``: of analysis.v on the axis
    the oracle solves on, or of the raw potential when ``analysis`` is None.
    Bisection on the rounded matrix is only as good as its backward error,
    so its levels are known to ``noise``, eps times the 1-norm of H.
    """
    from scipy.linalg import eigh_tridiagonal

    if analysis is None:
        v = lambda x: evaluate(spec, x, consts)  # noqa: E731
    else:
        v, consts = analysis.v, analysis.consts
        if oracle._flipped(spec, analysis):
            grid = dataclasses.replace(grid, x_min=-grid.x_max, x_max=-grid.x_min)
    x = oracle._grid_nodes(grid, grid.n_points, spec.kink)
    h = x[1] - x[0]
    diag = consts.hbar**2 / (consts.mass * h * h) + np.asarray(v(x[1:-1]), dtype=float)
    off = np.full(x.size - 3, -consts.hbar**2 / (2.0 * consts.mass * h * h))
    vals = eigh_tridiagonal(
        diag, off, eigvals_only=True, select="i", select_range=(0, 1),
        tol=2.0 * np.finfo(float).tiny,
    )
    noise = np.finfo(float).eps * (np.abs(diag).max() + 2.0 * abs(off[0]))
    return float(vals[0]), float(vals[1]), float(noise)


assert math.isclose(SEXTIC_Q1, 0.25650557620817843, rel_tol=0, abs_tol=0)
