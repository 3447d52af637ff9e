"""Shared builders used across the test modules."""
import math

import numpy as np
from hypothesis import strategies as st

from tunnelkit import (
    DEFAULT_CONSTANTS,
    BiasedQuartic,
    DoubleOscillator,
    Polynomial,
    QuantizationResult,
    RootNotBracketed,
    adaptive_quadrature,
    analyze,
    f_of_zeta,
    gamow_integral,
    splitting,
    turning_points,
)
from tunnelkit._brent import brentq

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
    lo_lim, hi_lim = splitting._energy_window(analysis)

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
    )


def rel_diff(a, b):
    return abs(a - b) / max(abs(a), abs(b))


def central_diff(fn, x, h):
    return (fn(x + h) - fn(x - h)) / (2.0 * h)


def is_monotone(seq, direction):
    pairs = zip(seq, seq[1:])
    if direction == "up":
        return all(b > a for a, b in pairs)
    return all(b < a for a, b in pairs)


assert math.isclose(SEXTIC_Q1, 0.25650557620817843, rel_tol=0, abs_tol=0)
