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

``compute_splittings`` runs all three at every point of a bias sweep at
once: one batch of the action kernel for the mean levels, then the two
roots of every point in lockstep.

The spectral weight f(zeta) = cos(pi zeta) Gamma(1 - zeta) g(zeta) / (2 pi)
with g(zeta) = sqrt(2 pi) exp((zeta + 1/2)(ln(zeta + 1/2) - 1)) carries
the anharmonic matching between the well and barrier regions; its
logarithmic slope at zero is K_FIRST_ORDER = eulergamma - ln 2.
"""

import math
from dataclasses import dataclass

import numpy as np

from .actions import ActionResult, action_rows, evaluate_action
from .errors import DomainError, RootNotBracketed, TunnelkitError
from .potentials import DEFAULT_CONSTANTS, PhysConstants, WellAnalysis, analyze

__all__ = [
    "K_FIRST_ORDER",
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

# Doublet formalism bound on |zeta|: a Newton iterate that leaves it
# ends the solve with RootNotBracketed.
_ZETA_CLAMP = 0.4
_NEWTON_STEPS = 10
# Newton stops once |step| <= _STEP_RTOL |delta|: four roundings of the
# offset delta = E - E_bar.
_STEP_RTOL = 4 * 8.9e-16


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
    Gamma comes from ``math.gamma``.  The domain is -1/2 < zeta < 1: g
    rejects zeta <= -1/2, and zeta >= 1 reaches the first pole of
    Gamma(1 - zeta); both raise DomainError.
    """
    zeta = float(zeta)
    if zeta >= 1.0:
        raise DomainError(f"f_of_zeta requires zeta < 1, got {zeta:g}")
    # g first, so that its domain check precedes an overflowing Gamma
    g = g_of_zeta(zeta)
    return math.cos(math.pi * zeta) * math.gamma(1.0 - zeta) * g / (2.0 * math.pi)


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
    """Roots of the quantization condition and per-root diagnostics.

    The zeta of the well a biased root sits in is the cancellation
    (delta +/- eps/2) / (hbar w) of that well, so it keeps only absolute
    accuracy; the gap is read from zeta_L.
    """

    E_plus: float
    E_minus: float
    zeta_L_plus: float
    zeta_R_plus: float
    zeta_L_minus: float
    zeta_R_minus: float
    residual_plus: float
    residual_minus: float
    # the solved offsets E_pm - E_bar, which E_pm rounds to ulp(E_bar)
    delta_plus: float
    delta_minus: float


def _zetas(analysis: WellAnalysis, delta: float):
    # Excitation above each well's harmonic ground level, (zeta_L, zeta_R),
    # at E = E_bar + delta.  The ground levels sit at E_bar -/+ eps/2, so
    # neither zeta needs E itself.
    hbar, half_eps = analysis.consts.hbar, 0.5 * analysis.eps
    return (
        (half_eps + delta) / (hbar * analysis.omega_L),
        (delta - half_eps) / (hbar * analysis.omega_R),
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


def _newton_root(analyses, deltas, windows, rtol):
    """Newton iteration on the quantization residual in the offset
    delta = E - E_bar, run in lockstep on rows that share one curve.

    Row i starts from deltas[i] on analyses[i] and searches the open
    window windows[i] = (lo, hi) of offsets.  Every iterate takes the
    actions of all open rows in one ``action_rows`` batch; each row's
    iterates depend on its own data alone.  Returns one entry per row:
    (root offset, residual at the root); or the cause that ended it, an
    iterate that left the window or |zeta| < 0.4, or a step not settled
    after _NEWTON_STEPS iterates; or the TunnelkitError of its action.
    """
    out = [None] * len(analyses)
    deltas = list(deltas)
    open_rows = range(len(analyses))
    for _ in range(_NEWTON_STEPS):
        if not open_rows:
            break
        probe, zetas = [], {}
        for r in open_rows:
            (lo, hi), delta = windows[r], deltas[r]
            zl, zr = zetas[r] = _zetas(analyses[r], delta)
            if not lo < delta < hi:
                out[r] = "iterate left the energy window"
            elif not abs(zl) < _ZETA_CLAMP:
                out[r] = f"iterate left |zeta| < {_ZETA_CLAMP:g} (zeta_L = {zl:.3f})"
            elif not abs(zr) < _ZETA_CLAMP:
                out[r] = f"iterate left |zeta| < {_ZETA_CLAMP:g} (zeta_R = {zr:.3f})"
            else:
                probe.append(r)
        acts = action_rows(
            [analyses[r] for r in probe],
            [analyses[r].E_bar + deltas[r] for r in probe],
            rtol=rtol,
        )
        open_rows = []
        for r, act in zip(probe, acts):
            if isinstance(act, TunnelkitError):
                out[r] = act
                continue
            analysis, delta, (zl, zr) = analyses[r], deltas[r], zetas[r]
            hbar = analysis.consts.hbar
            dzl, dzr = 1.0 / (hbar * analysis.omega_L), 1.0 / (hbar * analysis.omega_R)
            tail = f_of_zeta(zl) * f_of_zeta(zr) * math.exp(-2.0 * act.I)
            res = zl * zr - tail
            slope = dzl * zr + zl * dzr - tail * (
                _dlnf(zl) * dzl + _dlnf(zr) * dzr - 2.0 * act.I_slope
            )
            step = res / slope
            if abs(step) <= _STEP_RTOL * abs(delta):
                out[r] = (delta, res)
            else:
                deltas[r] = delta - step
                open_rows.append(r)
    for r in open_rows:
        out[r] = f"step not settled in {_NEWTON_STEPS} iterates"
    return out


def _roots(analysis, plus, minus):
    """(QuantizationResult, None) from the ends of a point's two Newton
    rows, or (None, error) with the error that E_plus, then E_minus,
    ended with: the TunnelkitError of an action, or RootNotBracketed
    naming the root and the cause."""
    for name, end in (("E_plus", plus), ("E_minus", minus)):
        if isinstance(end, str):
            end = RootNotBracketed(
                f"no quantization root {name} near E_bar = {analysis.E_bar:g}: {end}"
            )
        if isinstance(end, TunnelkitError):
            return None, end
    (d_plus, res_plus), (d_minus, res_minus) = plus, minus
    e_bar = analysis.E_bar
    zl_p, zr_p = _zetas(analysis, d_plus)
    zl_m, zr_m = _zetas(analysis, d_minus)
    roots = QuantizationResult(
        E_plus=e_bar + d_plus,
        E_minus=e_bar + d_minus,
        zeta_L_plus=zl_p,
        zeta_R_plus=zr_p,
        zeta_L_minus=zl_m,
        zeta_R_minus=zr_m,
        residual_plus=res_plus,
        residual_minus=res_minus,
        delta_plus=d_plus,
        delta_minus=d_minus,
    )
    return roots, None


def solve_quantization(
    spec,
    consts: PhysConstants = DEFAULT_CONSTANTS,
    *,
    analysis: WellAnalysis | None = None,
    rtol: float = 1e-12,
) -> QuantizationResult:
    """Solve zeta_L zeta_R = f(zeta_L) f(zeta_R) exp(-2 I(E)) for both
    doublet roots.

    Each root is found by Newton's method on its offset delta = E - E_bar,
    started from the quadratic-expansion shift dE_pm of ``level_shifts``,
    which is already close to it.  The zetas come from delta alone,
    zeta_L = (eps/2 + delta) / (hbar w_L) and
    zeta_R = (delta - eps/2) / (hbar w_R), and only the action is taken at
    E_bar + delta, so a splitting far below ulp(E_bar) keeps its digits.
    The derivative of the residual is analytic: dI/dE comes with I from
    one action evaluation per iterate, and
    d(ln f)/dzeta = -pi tan(pi zeta) - psi(1 - zeta) + ln(zeta + 1/2).
    Iteration stops once the Newton step is below 4 x 8.9e-16 |delta|;
    on deep wells that takes one to three action evaluations per root.
    The two roots iterate in lockstep, their actions taken in one batch
    of the action kernel.  These are the roots of ``compute_splitting``,
    the one-point case of the batch that ``compute_splittings`` runs over
    all the points of a bias sweep.

    Raises RootNotBracketed, naming the root and the cause, when a root
    is not found: an iterate leaves its side of the energy window,
    (lo_lim, E_bar) for E_plus and (E_bar, hi_lim) for E_minus, or leaves
    |zeta| < 0.4, or the step has not settled within ten iterates.  A
    RegimeError of the action propagates with its own cause.  E_plus is
    reported before E_minus.
    """
    return compute_splitting(spec, consts, analysis=analysis, rtol=rtol).roots


@dataclass(frozen=True)
class SplittingResult:
    """Doublet observables from all three routes at one bias point.

    ``action`` is the ActionResult at E_bar of ``analysis`` that the
    routes were built from, ``shifts`` the quadratic-expansion levels and
    ``roots`` the transcendental roots (None when the solve was skipped).
    The four splittings are read off them: ``I_bar`` is ``action.I``,
    ``delta_E`` the closed formula, ``delta_E_quadratic`` the gap of the
    shifts and ``delta_E_transcendental`` the gap of the roots (NaN without
    them), read from zeta_L, which is affine in the root's offset from
    E_bar, rather than from E_minus - E_plus, which rounds to ulp(E_bar).
    """

    analysis: WellAnalysis
    action: ActionResult
    shifts: LevelShifts
    roots: QuantizationResult | None

    @property
    def I_bar(self) -> float:
        return self.action.I

    @property
    def delta_E(self) -> float:
        return level_splitting(self.analysis.eps, self.shifts.delta)

    @property
    def delta_E_quadratic(self) -> float:
        return self.shifts.dE_minus - self.shifts.dE_plus

    @property
    def delta_E_transcendental(self) -> float:
        if self.roots is None:
            return math.nan
        a, roots = self.analysis, self.roots
        return a.consts.hbar * a.omega_L * (roots.zeta_L_minus - roots.zeta_L_plus)


def compute_splittings(analyses, *, actions=None, rtol: float = 1e-12):
    """``compute_splitting`` with the solve at every point of a bias
    sweep, in a few batches of the action kernel.

    The analyses share one curve and may differ in tilde_eps alone.
    ``actions`` optionally holds each point's action at E_bar.  The
    actions at E_bar come in one batch, then both roots of all points
    iterate in lockstep.  Returns one (result, error) pair per point:
    (SplittingResult, None) when both roots were found; (result without
    roots, error) when the solve failed, the error being the
    RootNotBracketed or action error that ``compute_splitting`` raises;
    and (None, error) when the action at E_bar failed.  Each point's
    values and error are those of its own ``compute_splitting`` call.
    """
    if actions is None:
        actions = action_rows(analyses, [a.E_bar for a in analyses], rtol=rtol)
    points = [i for i, act in enumerate(actions) if not isinstance(act, TunnelkitError)]
    shifts = {i: level_shifts(analyses[i], actions[i]) for i in points}
    # two Newton rows per point, E_plus and E_minus, all in one lockstep
    rows, starts, windows = [], [], []
    for i in points:
        analysis = analyses[i]
        lo_lim, hi_lim = _energy_window(analysis)
        rows += [analysis, analysis]
        starts += [shifts[i].dE_plus, shifts[i].dE_minus]
        windows += [(lo_lim - analysis.E_bar, 0.0), (0.0, hi_lim - analysis.E_bar)]
    ends = iter(_newton_root(rows, starts, windows, rtol))
    out = [(None, action) for action in actions]
    for i in points:
        roots, error = _roots(analyses[i], next(ends), next(ends))
        out[i] = (SplittingResult(analyses[i], actions[i], shifts[i], roots), error)
    return out


def compute_splitting(
    spec,
    consts: PhysConstants = DEFAULT_CONSTANTS,
    *,
    analysis: WellAnalysis | None = None,
    solve: bool = True,
    rtol: float = 1e-12,
) -> SplittingResult:
    """All doublet observables for one potential at its mean energy.

    Computes the barrier action and slope at E_bar, the first-order
    splitting, the quadratic-expansion level shifts, and (when ``solve``
    is true) the transcendental roots.  With ``solve=False`` ``roots`` is
    None.  hbar and m come from ``analysis``; ``consts`` only builds it
    when it is not given.  The solve is the one-point case of
    ``compute_splittings``.
    """
    if analysis is None:
        analysis = analyze(spec, consts)
    action = evaluate_action(spec, consts, analysis=analysis, rtol=rtol)
    if not solve:
        return SplittingResult(analysis, action, level_shifts(analysis, action), None)
    [(result, error)] = compute_splittings([analysis], actions=[action], rtol=rtol)
    if error is not None:
        raise error
    return result
