"""Shared builders used across the test modules."""
import math

import numpy as np
from hypothesis import strategies as st

from tunnelkit import (
    DEFAULT_CONSTANTS,
    BiasedQuartic,
    DoubleOscillator,
    Polynomial,
    adaptive_quadrature,
    analyze,
    turning_points,
)

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
