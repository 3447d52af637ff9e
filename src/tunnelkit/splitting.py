"""Ground-doublet energies of an asymmetric double well.

Three routes of increasing fidelity, all driven by the barrier action:

1. ``level_splitting``: the closed formula dE = hypot(eps, Delta) with
   the tunneling matrix element Delta from ``delta_first_order``.
2. ``level_shifts``: the same data plus the common second-order shift
   b' of both doublet members, built from dI/dE.
3. ``solve_quantization``: numerical roots of the two-well quantization
   condition

       zeta_L zeta_R = f(zeta_L) f(zeta_R) exp(-2 I(E)),

   where zeta_L = E/(hbar w_L) - 1/2 and
   zeta_R = (E - tilde_eps)/(hbar w_R) - 1/2 count the excitation above
   each well's harmonic ground level.

The spectral weight f(zeta) = cos(pi zeta) Gamma(1 - zeta) g(zeta) / (2 pi)
with g(zeta) = sqrt(2 pi) exp((zeta + 1/2)(ln(zeta + 1/2) - 1)) carries
the anharmonic matching between the well and barrier regions; its
logarithmic slope at zero is K_FIRST_ORDER = eulergamma - ln 2.
"""

import math
from dataclasses import dataclass

import numpy as np

from ._brent import brentq
from .actions import ActionResult, evaluate_action, gamow_integral
from .errors import DomainError, OutOfSupportedRange, RegimeError, RootNotBracketed
from .potentials import DEFAULT_CONSTANTS, PhysConstants, WellAnalysis, analyze

__all__ = [
    "K_FIRST_ORDER",
    "gamma_fn",
    "g_of_zeta",
    "f_of_zeta",
    "delta_first_order",
    "LevelShifts",
    "level_shifts",
    "level_splitting",
    "QuantizationResult",
    "solve_quantization",
    "SplittingResult",
    "compute_splitting",
]

K_FIRST_ORDER = float(np.euler_gamma) - math.log(2.0)

_LANCZOS_G = 7.0
_LANCZOS_COEFFS = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)

_GAMMA_LO = 0.25
_GAMMA_HI = 2.5

# Doublet formalism bound on |zeta|: the bracketed solve clamps f's
# arguments to it and the Newton solve falls back when an iterate leaves it.
_ZETA_CLAMP = 0.4
_NEWTON_STEPS = 10
# Margin doublings of the bracketed solve's search for a sign change.
_MAX_EXPAND = 60
# Root tolerance |E - root| <= _ROOT_XTOL + _ROOT_RTOL |E| of both solves.
_ROOT_XTOL = 1e-15
_ROOT_RTOL = 8.9e-16


def _lanczos_core(z: float) -> float:
    # Valid for z >= 0.5; relative error ~ 1e-15 on the range used here.
    w = z - 1.0
    x = _LANCZOS_COEFFS[0]
    for i in range(1, len(_LANCZOS_COEFFS)):
        x += _LANCZOS_COEFFS[i] / (w + i)
    t = w + _LANCZOS_G + 0.5
    return math.sqrt(2.0 * math.pi) * t ** (w + 0.5) * math.exp(-t) * x


def gamma_fn(z: float) -> float:
    """Gamma function on the window [0.25, 2.5] needed by f_of_zeta.

    Uses a fixed nine-term rational core, with the reflection identity
    Gamma(z) = pi / (sin(pi z) Gamma(1 - z)) covering z < 1/2.  Arguments
    outside the window raise OutOfSupportedRange rather than silently
    extrapolating.
    """
    z = float(z)
    if not _GAMMA_LO <= z <= _GAMMA_HI:
        raise OutOfSupportedRange(
            f"gamma_fn supports [{_GAMMA_LO}, {_GAMMA_HI}], got {z:g}"
        )
    if z < 0.5:
        return math.pi / (math.sin(math.pi * z) * _lanczos_core(1.0 - z))
    return _lanczos_core(z)


def g_of_zeta(zeta: float) -> float:
    """g(zeta) = sqrt(2 pi) exp((zeta + 1/2)(ln(zeta + 1/2) - 1)), zeta > -1/2."""
    zeta = float(zeta)
    s = zeta + 0.5
    if s <= 0.0:
        raise DomainError(f"g_of_zeta requires zeta > -1/2, got {zeta:g}")
    return math.sqrt(2.0 * math.pi) * math.exp(s * (math.log(s) - 1.0))


def f_of_zeta(zeta: float) -> float:
    """Spectral weight f(zeta) = cos(pi zeta) Gamma(1 - zeta) g(zeta) / (2 pi).

    f(0) = 1/sqrt(4 e pi) and d(ln f)/dzeta at 0 equals K_FIRST_ORDER.
    The usable domain is -1/2 < zeta <= 3/4, set by g and by the gamma
    window.
    """
    zeta = float(zeta)
    return math.cos(math.pi * zeta) * gamma_fn(1.0 - zeta) * g_of_zeta(zeta) / (2.0 * math.pi)


def delta_first_order(analysis: WellAnalysis, I_bar: float) -> float:
    """Tunneling matrix element Delta to first order in the bias.

    Delta = hbar sqrt(w_L w_R) / sqrt(e pi)
            * (1 + (k/4) (eps / hbar w_L) (w_R - w_L) / w_R)
            * exp(-I_bar)

    with k = K_FIRST_ORDER and I_bar the barrier action at the mean
    doublet energy.
    """
    c = analysis.consts
    wl, wr = analysis.omega_L, analysis.omega_R
    k = K_FIRST_ORDER
    prefactor = c.hbar * math.sqrt(wl * wr) / math.sqrt(math.e * math.pi)
    correction = 1.0 + 0.25 * k * (analysis.eps / (c.hbar * wl)) * (wr - wl) / wr
    return prefactor * correction * math.exp(-I_bar)


@dataclass(frozen=True)
class LevelShifts:
    """Doublet level shifts about E_bar from the quadratic expansion of
    the quantization condition."""

    dE_plus: float
    dE_minus: float
    b_prime: float
    u: float
    delta: float


def level_shifts(analysis: WellAnalysis, action: ActionResult) -> LevelShifts:
    """Shifts of both doublet members relative to E_bar.

    Expanding the quantization condition to second order in E - E_bar
    gives a common shift -b' plus the usual two-level repulsion:

        dE_pm = -b' -/+ sqrt((eps/2)^2 + (Delta/2)^2 + b'^2),
        b'    = hbar^2 w_L w_R exp(-2 I) u / (8 pi e),
        u     = 2 dI/dE - k (w_L + w_R) / (hbar w_L w_R).

    dI/dE is negative, so u < 0 and both levels shift up slightly.
    """
    c = analysis.consts
    wl, wr = analysis.omega_L, analysis.omega_R
    k = K_FIRST_ORDER
    u = 2.0 * action.I_slope - k * (wl + wr) / (c.hbar * wl * wr)
    b_prime = (
        c.hbar ** 2 * wl * wr * math.exp(-2.0 * action.I) * u / (8.0 * math.pi * math.e)
    )
    delta = delta_first_order(analysis, action.I)
    root = math.sqrt((0.5 * analysis.eps) ** 2 + (0.5 * delta) ** 2 + b_prime ** 2)
    return LevelShifts(
        dE_plus=-b_prime - root,
        dE_minus=-b_prime + root,
        b_prime=b_prime,
        u=u,
        delta=delta,
    )


def level_splitting(eps: float, delta: float) -> float:
    """Doublet splitting sqrt(eps^2 + delta^2)."""
    return math.hypot(eps, delta)


@dataclass(frozen=True)
class QuantizationResult:
    """Roots of the quantization condition and per-root diagnostics."""

    E_plus: float
    E_minus: float
    zeta_L_plus: float
    zeta_R_plus: float
    zeta_L_minus: float
    zeta_R_minus: float
    residual_plus: float
    residual_minus: float


def _zetas(analysis: WellAnalysis, E: float):
    # Excitation above each well's harmonic ground level: (zeta_L, zeta_R).
    hbar = analysis.consts.hbar
    return (
        E / (hbar * analysis.omega_L) - 0.5,
        (E - analysis.tilde_eps) / (hbar * analysis.omega_R) - 0.5,
    )


def _energy_window(analysis: WellAnalysis):
    # Open energy interval (lo_lim, hi_lim) searched for the two roots.
    e_bar = analysis.E_bar
    floor = max(0.0, analysis.tilde_eps)
    return floor + 1e-3 * (e_bar - floor), analysis.V0 - 1e-3 * (analysis.V0 - e_bar)


def _digamma(x: float) -> float:
    # psi(x) for x > 0: psi(x) = psi(x + n) - sum_k 1/(x + k) lifts the
    # argument to 10 or more, where ln x - 1/(2x) - sum_j B_2j / (2j x^2j)
    # through x^-14 is exact to rounding.  Within 1e-15 of scipy's digamma
    # on [0.6, 1.4], the range 1 - zeta takes for |zeta| < 0.4.
    terms = []
    while x < 10.0:
        terms.append(1.0 / x)
        x += 1.0
    r = 1.0 / (x * x)
    series = r * (
        1 / 12 - r * (1 / 120 - r * (1 / 252 - r * (1 / 240 - r * (1 / 132 - r * (691 / 32760 - r / 12)))))
    )
    return math.log(x) - (0.5 / x + series + math.fsum(terms))


def _dlnf(zeta: float) -> float:
    # d(ln f)/dzeta = -pi tan(pi zeta) - psi(1 - zeta) + ln(zeta + 1/2).
    return (
        -math.pi * math.tan(math.pi * zeta)
        - _digamma(1.0 - zeta)
        + math.log(zeta + 0.5)
    )


def _newton_root(spec, consts, analysis, E, lo, hi, rtol):
    """Newton iteration on the quantization residual from E.

    Returns (root, residual at the root), or None when an iterate leaves
    (lo, hi) or |zeta| < 0.4, the action raises a RegimeError, or the
    step has not settled after _NEWTON_STEPS iterates.
    """
    hbar = analysis.consts.hbar
    dzl, dzr = 1.0 / (hbar * analysis.omega_L), 1.0 / (hbar * analysis.omega_R)
    for _ in range(_NEWTON_STEPS):
        zl, zr = _zetas(analysis, E)
        if not (lo < E < hi and abs(zl) < _ZETA_CLAMP and abs(zr) < _ZETA_CLAMP):
            return None
        try:
            act = evaluate_action(spec, consts, E, analysis, rtol=rtol)
        except RegimeError:
            return None
        tail = f_of_zeta(zl) * f_of_zeta(zr) * math.exp(-2.0 * act.I)
        res = zl * zr - tail
        slope = dzl * zr + zl * dzr - tail * (
            _dlnf(zl) * dzl + _dlnf(zr) * dzr - 2.0 * act.I_slope
        )
        step = res / slope
        if abs(step) <= _ROOT_XTOL + _ROOT_RTOL * abs(E):
            return E, res
        E -= step
    return None


def _solve_bracketed(spec, consts, analysis, shifts, rtol) -> QuantizationResult:
    """Bracket-and-brentq solve of the quantization condition.

    The residual function is negative at E_bar and positive once the
    product zeta_L zeta_R dominates, so each root is bracketed between
    E_bar and a margin of ten times the quadratic-expansion shift,
    doubling the margin (within the physical energy window) until the
    sign flips; brentq then polishes to machine precision.  While
    probing, the arguments of f are clamped to [-0.4, 0.4] (the domain
    where the doublet formalism is meaningful): far from
    the roots the product term dominates the sign, and the physical
    roots themselves sit well inside the clamp, so the root set is
    unchanged while f stays inside its domain.

    Raises RootNotBracketed if a sign change cannot be established.
    """

    def residual(E):
        zl, zr = _zetas(analysis, E)
        fl = f_of_zeta(min(_ZETA_CLAMP, max(-_ZETA_CLAMP, zl)))
        fr = f_of_zeta(min(_ZETA_CLAMP, max(-_ZETA_CLAMP, zr)))
        act = gamow_integral(spec, consts, E, analysis, rtol=rtol)
        return zl * zr - fl * fr * math.exp(-2.0 * act)

    e_bar = analysis.E_bar
    lo_lim, hi_lim = _energy_window(analysis)

    def bracket_edge(first_margin):
        margin = first_margin
        for _ in range(_MAX_EXPAND):
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
    e_plus = float(brentq(residual, lo, e_bar, xtol=_ROOT_XTOL, rtol=_ROOT_RTOL, maxiter=200))
    e_minus = float(brentq(residual, e_bar, hi, xtol=_ROOT_XTOL, rtol=_ROOT_RTOL, maxiter=200))
    return _quantization_result(analysis, (e_plus, residual(e_plus)), (e_minus, residual(e_minus)))


def _quantization_result(analysis, plus, minus) -> QuantizationResult:
    (e_plus, res_plus), (e_minus, res_minus) = plus, minus
    zl_p, zr_p = _zetas(analysis, e_plus)
    zl_m, zr_m = _zetas(analysis, e_minus)
    return QuantizationResult(
        E_plus=e_plus,
        E_minus=e_minus,
        zeta_L_plus=zl_p,
        zeta_R_plus=zr_p,
        zeta_L_minus=zl_m,
        zeta_R_minus=zr_m,
        residual_plus=res_plus,
        residual_minus=res_minus,
    )


def solve_quantization(
    spec,
    consts: PhysConstants = DEFAULT_CONSTANTS,
    *,
    analysis: WellAnalysis | None = None,
    action: ActionResult | None = None,
    rtol: float = 1e-12,
) -> QuantizationResult:
    """Solve zeta_L zeta_R = f(zeta_L) f(zeta_R) exp(-2 I(E)) for both
    doublet roots.

    Each root is found by Newton's method started from the
    quadratic-expansion level E_bar + dE_pm of ``level_shifts``, which is
    already close to it.  The derivative of the residual is analytic:
    dI/dE comes with I from one ``evaluate_action`` call per iterate, and
    d(ln f)/dzeta = -pi tan(pi zeta) - psi(1 - zeta) + ln(zeta + 1/2).
    Iteration stops once the Newton step is below the tolerance
    1e-15 + 8.9e-16 |E| that the bracketed solve gives brentq; on deep
    wells that takes one or two action evaluations per root.

    Newton is safeguarded.  If an iterate leaves its side of the energy
    window, (lo_lim, E_bar) for E_plus and (E_bar, hi_lim) for E_minus,
    or leaves |zeta| < 0.4, or the action raises a RegimeError, or the
    step has not settled within ten iterates, both roots are instead
    found by the bracket-and-brentq search of ``_solve_bracketed``, which
    also serves as the reference in the tests.

    Raises RootNotBracketed if the fallback cannot establish a sign
    change.
    """
    if analysis is None:
        analysis = analyze(spec, consts)
    if action is None:
        action = evaluate_action(spec, consts, analysis=analysis, rtol=rtol)
    shifts = level_shifts(analysis, action)
    e_bar = analysis.E_bar
    lo_lim, hi_lim = _energy_window(analysis)
    plus = _newton_root(spec, consts, analysis, e_bar + shifts.dE_plus, lo_lim, e_bar, rtol)
    minus = None
    if plus is not None:
        minus = _newton_root(
            spec, consts, analysis, e_bar + shifts.dE_minus, e_bar, hi_lim, rtol
        )
    if minus is None:
        return _solve_bracketed(spec, consts, analysis, shifts, rtol)
    return _quantization_result(analysis, plus, minus)


@dataclass(frozen=True)
class SplittingResult:
    """Doublet observables from all three routes at one bias point.

    ``action`` is the ActionResult at E_bar that the routes were built
    from, ``shifts`` the quadratic-expansion levels and ``roots`` the
    transcendental roots (None when the solve was skipped).  The four
    splittings are also kept flat: ``I_bar`` is ``action.I``, ``delta_E``
    the closed formula, ``delta_E_quadratic`` the gap of the shifts and
    ``delta_E_transcendental`` the gap of the roots (NaN without them).
    """

    action: ActionResult
    shifts: LevelShifts
    roots: QuantizationResult | None
    I_bar: float
    delta_E: float
    delta_E_quadratic: float
    delta_E_transcendental: float


def compute_splitting(
    spec,
    consts: PhysConstants = DEFAULT_CONSTANTS,
    *,
    analysis: WellAnalysis | None = None,
    action: ActionResult | None = None,
    solve: bool = True,
    rtol: float = 1e-12,
) -> SplittingResult:
    """All doublet observables for one potential at its mean energy.

    Computes the barrier action and slope at E_bar, the first-order
    splitting, the quadratic-expansion level shifts, and (when ``solve``
    is true) the transcendental roots.  With ``solve=False`` ``roots`` is
    None.  A caller that already holds the action at E_bar passes it as
    ``action``, as for ``solve_quantization``.
    """
    if analysis is None:
        analysis = analyze(spec, consts)
    if action is None:
        action = evaluate_action(spec, consts, analysis=analysis, rtol=rtol)
    shifts = level_shifts(analysis, action)
    roots = None
    if solve:
        roots = solve_quantization(spec, consts, analysis=analysis, action=action, rtol=rtol)
    return SplittingResult(
        action=action,
        shifts=shifts,
        roots=roots,
        I_bar=action.I,
        delta_E=math.hypot(analysis.eps, shifts.delta),
        delta_E_quadratic=shifts.dE_minus - shifts.dE_plus,
        delta_E_transcendental=math.nan if roots is None else roots.E_minus - roots.E_plus,
    )
