"""Barrier (Gamow) action integrals and their energy derivative.

The central quantity is

    I(E) = (1/hbar) * integral_{a_bar}^{b_bar} sqrt(2 m (V(x) - E)) dx

between the inner turning points.  The integrand has square-root zeros
at both ends; substituting x = a_bar + t^2 (mirrored at b_bar) and
splitting at the barrier maximum turns each half into an analytic
integrand, which the dyadic Gauss-Legendre refinement then nails.

Also provided: the exact closed form for the piecewise-parabolic
double-oscillator family, and the small-E expansion of I built from the
zero-energy action plus a logarithmic turning-point correction with the
well-shape constants A_L, A_R.
"""

import math
from dataclasses import dataclass

import numpy as np

from ._brent import brentq
from .errors import (
    EnergyAboveBarrier,
    EnergyBelowWellBottom,
    LambdaOutOfRange,
)
from .potentials import (
    DEFAULT_CONSTANTS,
    DoubleOscillator,
    PhysConstants,
    WellAnalysis,
    _evaluate_d3,
    analyze,
)
from .quadrature import adaptive_quadrature

__all__ = [
    "ActionResult",
    "AsymptoticActionParts",
    "turning_points",
    "gamow_integral",
    "action_slope",
    "evaluate_action",
    "double_oscillator_action",
    "asymptotic_action",
    "parabolic_fidelity",
]


@dataclass(frozen=True)
class ActionResult:
    """Action data at one energy: turning points, I, dI/dE, and the
    barrier-maximum split I = I_L + I_R."""

    E: float
    a_bar: float
    b_bar: float
    I: float
    I_slope: float
    I_L: float
    I_R: float


def _ensure_analysis(spec, consts, analysis):
    if analysis is None:
        return analyze(spec, consts)
    return analysis


def turning_points(spec, consts: PhysConstants, E: float, analysis: WellAnalysis | None = None):
    """Inner classical turning points (a_bar, b_bar) at energy E.

    Solves v(x) = E on the barrier flanks [x_L, x_m] and [x_m, x_R] of
    the normalized potential.  E must lie strictly between the higher
    well floor and the barrier top.
    """
    analysis = _ensure_analysis(spec, consts, analysis)
    if E >= analysis.V0:
        raise EnergyAboveBarrier(
            f"E = {E:g} is not below the barrier top {analysis.V0:g}"
        )
    floor = max(0.0, analysis.tilde_eps)
    if E <= floor:
        raise EnergyBelowWellBottom(
            f"E = {E:g} does not exceed the higher well floor {floor:g}"
        )

    def shifted(x):
        return analysis.v(float(x)) - E

    # v(x_L) = 0 < E, but a dialed tilde_eps (a bias sweep on a fixed
    # shape) can put the curve's own right floor above E: no crossing there.
    if shifted(analysis.x_R) > 0.0:
        raise EnergyBelowWellBottom(
            f"E = {E:g} is below the right well floor "
            f"{analysis.v(analysis.x_R):g} of the potential curve"
        )
    a_bar = brentq(shifted, analysis.x_L, analysis.x_m, xtol=1e-15, rtol=8.9e-16)
    b_bar = brentq(shifted, analysis.x_m, analysis.x_R, xtol=1e-15, rtol=8.9e-16)
    return float(a_bar), float(b_bar)


def _gamow_parts(consts, E, analysis, a_bar, b_bar, rtol):
    m, hbar = consts.mass, consts.hbar
    v = analysis.v

    def left(t):
        x = a_bar + t * t
        return 2.0 * t * np.sqrt(np.maximum(2.0 * m * (v(x) - E), 0.0))

    def right(t):
        x = b_bar - t * t
        return 2.0 * t * np.sqrt(np.maximum(2.0 * m * (v(x) - E), 0.0))

    i_l = adaptive_quadrature(left, 0.0, math.sqrt(analysis.x_m - a_bar), rtol=rtol) / hbar
    i_r = adaptive_quadrature(right, 0.0, math.sqrt(b_bar - analysis.x_m), rtol=rtol) / hbar
    return i_l, i_r


def gamow_integral(
    spec,
    consts: PhysConstants,
    E: float,
    analysis: WellAnalysis | None = None,
    *,
    rtol: float = 1e-12,
) -> float:
    """Barrier action I(E) by turning-point-regularized quadrature."""
    analysis = _ensure_analysis(spec, consts, analysis)
    a_bar, b_bar = turning_points(spec, consts, E, analysis)
    i_l, i_r = _gamow_parts(consts, E, analysis, a_bar, b_bar, rtol)
    return i_l + i_r


def action_slope(
    spec,
    consts: PhysConstants,
    E: float,
    analysis: WellAnalysis | None = None,
    *,
    rtol: float = 1e-12,
) -> float:
    """dI/dE = -(1/hbar) * integral m / sqrt(2 m (V - E)) dx  (always < 0).

    The same x = a_bar + t^2 substitution removes the inverse-square-root
    endpoint singularities, leaving an analytic integrand.
    """
    analysis = _ensure_analysis(spec, consts, analysis)
    a_bar, b_bar = turning_points(spec, consts, E, analysis)
    return _slope_integral(consts, E, analysis, a_bar, b_bar, rtol)


def _slope_integral(consts, E, analysis, a_bar, b_bar, rtol):
    m, hbar = consts.mass, consts.hbar
    v = analysis.v

    def left(t):
        x = a_bar + t * t
        return 2.0 * t * m / np.sqrt(np.maximum(2.0 * m * (v(x) - E), 1e-300))

    def right(t):
        x = b_bar - t * t
        return 2.0 * t * m / np.sqrt(np.maximum(2.0 * m * (v(x) - E), 1e-300))

    val = adaptive_quadrature(left, 0.0, math.sqrt(analysis.x_m - a_bar), rtol=rtol)
    val += adaptive_quadrature(right, 0.0, math.sqrt(b_bar - analysis.x_m), rtol=rtol)
    return -val / hbar


def evaluate_action(
    spec,
    consts: PhysConstants = DEFAULT_CONSTANTS,
    E: float | None = None,
    analysis: WellAnalysis | None = None,
    *,
    rtol: float = 1e-12,
) -> ActionResult:
    """ActionResult at energy E (default: the mean doublet energy E_bar)."""
    analysis = _ensure_analysis(spec, consts, analysis)
    if E is None:
        E = analysis.E_bar
    a_bar, b_bar = turning_points(spec, consts, E, analysis)
    i_l, i_r = _gamow_parts(consts, E, analysis, a_bar, b_bar, rtol)
    slope = _slope_integral(consts, E, analysis, a_bar, b_bar, rtol)
    return ActionResult(
        E=float(E), a_bar=a_bar, b_bar=b_bar, I=i_l + i_r, I_slope=slope, I_L=i_l, I_R=i_r
    )


def _shape_factor(lam: float) -> float:
    # sqrt(1-lam) - lam * ln((1 + sqrt(1-lam)) / sqrt(lam)); exact parabolic
    # barrier-flank action in units of (barrier height)/(hbar omega).
    s = math.sqrt(1.0 - lam)
    return s - lam * math.log((1.0 + s) / math.sqrt(lam))


def double_oscillator_action(params: DoubleOscillator, consts: PhysConstants, E_bar: float):
    """Closed-form half actions (I_L, I_R) for the double oscillator.

    With lambda_L = E/V0 and lambda_R = (E - tilde_eps)/(V0 - tilde_eps),

        I_L = (V0 / hbar omega_L) [sqrt(1-l) - l ln((1+sqrt(1-l))/sqrt(l))]

    and the mirrored expression for I_R.  Both lambdas must lie in
    (0, 1]; the boundary lambda = 1 gives a vanishing half action.
    """
    tilde_eps = params.tilde_eps
    hbar = consts.hbar
    lam_l = E_bar / params.V0
    lam_r = (E_bar - tilde_eps) / (params.V0 - tilde_eps)
    for name, lam in (("lambda_L", lam_l), ("lambda_R", lam_r)):
        if not 0.0 < lam <= 1.0:
            raise LambdaOutOfRange(f"{name} = {lam:g} outside (0, 1]")
    i_l = params.V0 / (hbar * params.omega_L) * _shape_factor(lam_l)
    i_r = (params.V0 - tilde_eps) / (hbar * params.omega_R) * _shape_factor(lam_r)
    return i_l, i_r


# energy fraction E / V0 of either well beyond which the expansion is untrusted
_LAMBDA_MAX = 0.3


@dataclass(frozen=True)
class AsymptoticActionParts:
    """Ingredients of the small-energy action expansion."""

    I_L0: float
    I_R0: float
    A_L: float
    A_R: float
    lambda_L: float
    lambda_R: float


def asymptotic_action(
    spec,
    consts: PhysConstants = DEFAULT_CONSTANTS,
    analysis: WellAnalysis | None = None,
    *,
    rtol: float = 1e-12,
):
    """Small-energy expansion of I(E_bar) about the zero-energy action.

    Each half action is expanded as

        I_L(E) ~= I_L(0) - (E / hbar omega_L) [ln(2 (x_m - x_L) / rho_L)
                                               + A_L + 1/2]

    with rho_L = sqrt(2 E / (m omega_L^2)) the parabolic turning-point
    distance, and

        A_L = integral_{x_L}^{x_m} [m omega_L / sqrt(2 m V(x))
                                    - 1 / (x - x_L)] dx,

    whose 1/(x - x_L) counterterm is exactly the parabolic limit of the
    main term, so the combined integrand stays finite at the well floor.
    The right well mirrors with V - tilde_eps and 1/(x_R - x).  Error is
    O(E^2) relative to the exact quadrature; the leftover gap is reported
    by callers rather than asserted against a universal constant.

    Returns (AsymptoticActionParts, I_asym).  Raises LambdaOutOfRange if
    either energy fraction is not below 0.3.
    """
    analysis = _ensure_analysis(spec, consts, analysis)
    m, hbar = consts.mass, consts.hbar
    e_bar = analysis.E_bar
    te = analysis.tilde_eps
    lam_l = e_bar / analysis.V0
    lam_r = (e_bar - te) / (analysis.V0 - te)
    for name, lam in (("lambda_L", lam_l), ("lambda_R", lam_r)):
        if not 0.0 < lam < _LAMBDA_MAX:
            raise LambdaOutOfRange(
                f"{name} = {lam:g} outside (0, {_LAMBDA_MAX:g}); expansion untrusted"
            )
    x_l, x_r, x_m = analysis.x_L, analysis.x_R, analysis.x_m
    v = analysis.v
    w_l, w_r = analysis.omega_L, analysis.omega_R

    def sqrt_v_left(x):
        return np.sqrt(np.maximum(2.0 * m * v(x), 0.0))

    def sqrt_v_right(x):
        return np.sqrt(np.maximum(2.0 * m * (v(x) - te), 0.0))

    i_l0 = adaptive_quadrature(sqrt_v_left, x_l, x_m, rtol=rtol) / hbar
    i_r0 = adaptive_quadrature(sqrt_v_right, x_m, x_r, rtol=rtol) / hbar

    def a_left(x):
        return m * w_l / sqrt_v_left(x) - 1.0 / (x - x_l)

    def a_right(x):
        return m * w_r / sqrt_v_right(x) - 1.0 / (x_r - x)

    a_l = adaptive_quadrature(a_left, x_l, x_m, rtol=rtol, atol=1e-13)
    a_r = adaptive_quadrature(a_right, x_m, x_r, rtol=rtol, atol=1e-13)

    rho_l = math.sqrt(2.0 * e_bar / m) / w_l
    rho_r = math.sqrt(2.0 * (e_bar - te) / m) / w_r
    i_asym = (
        i_l0
        - e_bar / (hbar * w_l) * (math.log(2.0 * (x_m - x_l) / rho_l) + a_l + 0.5)
        + i_r0
        - (e_bar - te) / (hbar * w_r) * (math.log(2.0 * (x_r - x_m) / rho_r) + a_r + 0.5)
    )
    parts = AsymptoticActionParts(
        I_L0=i_l0, I_R0=i_r0, A_L=a_l, A_R=a_r, lambda_L=lam_l, lambda_R=lam_r
    )
    return parts, i_asym


def parabolic_fidelity(analysis: WellAnalysis, E: float | None = None):
    """Ratio of cubic to quadratic Taylor term at each inner turning point.

    A small value means the well is effectively parabolic out to the
    turning point at energy E (default E_bar); no threshold is imposed,
    the number is a diagnostic for the caller.
    Returns (ratio_left, ratio_right).
    """
    if E is None:
        E = analysis.E_bar
    a_bar, b_bar = turning_points(analysis.spec, analysis.consts, E, analysis)
    spec, consts = analysis.spec, analysis.consts
    r_l = abs(float(_evaluate_d3(spec, analysis.x_L, consts))) * (a_bar - analysis.x_L) / (
        3.0 * float(analysis.v2(analysis.x_L))
    )
    r_r = abs(float(_evaluate_d3(spec, analysis.x_R, consts))) * (analysis.x_R - b_bar) / (
        3.0 * float(analysis.v2(analysis.x_R))
    )
    return r_l, r_r
