"""Ground-doublet energies of an asymmetric double well.

Three routes of increasing fidelity, all driven by the barrier action:

1. ``level_splitting``: the closed formula dE = hypot(eps, Delta) with
   the tunneling matrix element Delta from ``delta_first_order``.
2. ``level_shifts``: the same data plus b', the expanded condition's
   second-order term, built from dI/dE.
3. ``solve_quantization``: numerical roots of the two-well quantization
   condition

       zeta_L zeta_R = f(zeta_L) f(zeta_R) exp(-2 I(E)),

   where zeta_L = E/(hbar w_L) - 1/2 and
   zeta_R = (E - tilde_eps)/(hbar w_R) - 1/2 count the excitation above
   each well's harmonic ground level.

``compute_splittings`` runs all three at every point of a bias sweep at
once, the two roots of every point in lockstep.  Its first batch of the
action kernel takes the mean levels and each point's zeroth-order levels
E_bar -/+ |eps|/2, on a sweep and on a single point alike: on deep wells
every Newton start lands on them bit for bit and settles there, so the
whole sweep, or the deep point, is that one batch.  Newton reads
d(ln f)/dzeta only where it can move the slope's float.

The spectral weight f(zeta) = cos(pi zeta) Gamma(1 - zeta) g(zeta) / (2 pi)
with g(zeta) = sqrt(2 pi) exp((zeta + 1/2)(ln(zeta + 1/2) - 1)) carries
the anharmonic matching between the well and barrier regions; its
logarithmic slope at zero is K_FIRST_ORDER = eulergamma - ln 2.
"""

import math
from dataclasses import dataclass

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

K_FIRST_ORDER = 0.5772156649015329 - math.log(2.0)  # Euler's constant, rounded to a float

# Doublet formalism bound on |zeta|: a Newton iterate that leaves it
# ends the solve with RootNotBracketed.
_ZETA_CLAMP = 0.4
_NEWTON_STEPS = 10
# Newton stops once |step| <= _STEP_RTOL |delta|: four roundings of the
# offset delta = E - E_bar.
_STEP_RTOL = 4 * 8.9e-16
# A bound on |d(ln f)/dzeta| for |zeta| < _ZETA_CLAMP, where it stays
# below 8.24: a Newton row whose slope term in d(ln f)/dzeta is bounded
# this way below ulp(slope)/8 cannot move the slope's float, and skips it.
_DLNF_BOUND = 16.0


def g_of_zeta(zeta: float) -> float:
    """g(zeta) = sqrt(2 pi) exp((zeta + 1/2)(ln(zeta + 1/2) - 1)), zeta > -1/2."""
    zeta = float(zeta)
    s = zeta + 0.5
    if not s > 0.0:  # NaN too
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
    if not zeta < 1.0:  # NaN too
        raise DomainError(f"f_of_zeta requires zeta < 1, got {zeta:g}")
    # g first, so that its domain check precedes an overflowing Gamma
    g = g_of_zeta(zeta)
    return math.cos(math.pi * zeta) * math.gamma(1.0 - zeta) * g / (2.0 * math.pi)


def _delta_prefactor(analysis: WellAnalysis) -> float:
    """hbar sqrt(w_L w_R) / sqrt(e pi), the prefactor of Delta at every order in the bias."""
    c = analysis.consts
    return c.hbar * math.sqrt(analysis.omega_L * analysis.omega_R) / math.sqrt(math.e * math.pi)


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
    correction = 1.0 + 0.25 * K_FIRST_ORDER * (analysis.eps / (c.hbar * wl)) * (wr - wl) / wr
    return _delta_prefactor(analysis) * correction * math.exp(-I_bar)


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
    gives the two-level repulsion plus -b', its second-order term:

        dE_pm = -b' -/+ sqrt((eps/2)^2 + (Delta/2)^2 + b'^2),
        b'    = hbar^2 w_L w_R exp(-2 I) u / (8 pi e),
        u     = 2 dI/dE - k (w_L + w_R) / (hbar w_L w_R).

    dI/dE is negative, so u < 0 and both levels shift up slightly.  b' is
    second order in the tunneling exponent, unlike the exact doublet's
    common shift, about -Delta hbar w / (8 V0): ROADMAP item 15 measured
    b'/Delta at -2.3e-10 (V0 = 12) and -6.2e-43 (V0 = 50) on
    DoubleOscillator(1, 1, 0, V0).
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
    # the solved offsets E_pm - E_bar, which E_pm rounds to ulp(E_bar)
    delta_plus: float
    delta_minus: float


def _zeta_pair(half_eps, delta, hw_l, hw_r):
    # Excitation above each well's harmonic ground level, (zeta_L, zeta_R),
    # at E = E_bar + delta, from half the bias eps/2 and the quanta hbar w_L,
    # hbar w_R.  The ground levels sit at E_bar -/+ eps/2, so neither zeta
    # needs E itself.
    return (half_eps + delta) / hw_l, (delta - half_eps) / hw_r


def _energy_window(analysis: WellAnalysis, right_floor: float):
    # Open energy interval (lo_lim, hi_lim) searched for the two roots,
    # above both floors of the curve; a bias dialed below the curve's own
    # leaves its right floor, right_floor = v(x_R), above tilde_eps.
    e_bar = analysis.E_bar
    floor = max(0.0, analysis.tilde_eps, right_floor)
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


def _newton_root(analyses, deltas, windows, rtol, known):
    """Newton iteration on the quantization residual in the offset
    delta = E - E_bar, run in lockstep on one or more rows that share one
    curve.

    Row i starts from deltas[i] on analyses[i] and searches the open
    window windows[i] = (lo, hi) of offsets.  known[i], when not None, is
    the ``action_rows`` outcome at row i's start energy
    E_bar + deltas[i], which its first iterate then takes as it is.  Every
    iterate takes the actions of all other open rows in one
    ``action_rows`` batch, and none when there are none; each row's
    iterates depend on its own data alone.  The residual's slope is
    head - tail * c, with head = zeta_L' zeta_R + zeta_L zeta_R' and
    c = (ln f)'(zeta_L) zeta_L' + (ln f)'(zeta_R) zeta_R' - 2 dI/dE.  Where
    |tail| (_DLNF_BOUND (zeta_L' + zeta_R') + 2 |dI/dE|) < ulp(head) / 8,
    tail * c cannot move head's float, and the slope is head, taken
    without the digammas of c: on deep wells, where tail ~ exp(-2 I), at
    every row.  Returns one entry per row:
    (root offset, residual at the root, zeta_L, zeta_R there), where the
    zeta of the well the root sits in, the smaller, whose delta -/+ eps/2
    is rounding noise of eps/2, is tail / the other zeta, from
    zeta_L zeta_R = tail = f(zeta_L) f(zeta_R) exp(-2 I);
    or the cause that ended it, an iterate that left the window
    or |zeta| < 0.4, or a step not settled after _NEWTON_STEPS iterates;
    or the TunnelkitError of its action.
    """
    out = [None] * len(analyses)
    deltas = list(deltas)
    known = list(known)
    # the quanta of the curve, and each row's mean level and half bias
    hbar = analyses[0].consts.hbar
    hw_l, hw_r = hbar * analyses[0].omega_L, hbar * analyses[0].omega_R
    dzl, dzr = 1.0 / hw_l, 1.0 / hw_r
    e_bars = [a.E_bar for a in analyses]
    half_eps = [0.5 * a.eps for a in analyses]
    open_rows = range(len(analyses))
    for _ in range(_NEWTON_STEPS):
        if not open_rows:
            break
        probe, zetas = [], {}
        for r in open_rows:
            (lo, hi), delta = windows[r], deltas[r]
            zl, zr = zetas[r] = _zeta_pair(half_eps[r], delta, hw_l, hw_r)
            if not lo < delta < hi:
                out[r] = "iterate left the energy window"
            elif not abs(zl) < _ZETA_CLAMP:
                out[r] = f"iterate left |zeta| < {_ZETA_CLAMP:g} (zeta_L = {zl:.3f})"
            elif not abs(zr) < _ZETA_CLAMP:
                out[r] = f"iterate left |zeta| < {_ZETA_CLAMP:g} (zeta_R = {zr:.3f})"
            else:
                probe.append(r)
        ask = [r for r in probe if known[r] is None]
        if ask:
            acts = action_rows(
                [analyses[r] for r in ask], [e_bars[r] + deltas[r] for r in ask], rtol=rtol
            )
            for r, act in zip(ask, acts):
                known[r] = act
        open_rows = []
        for r in probe:
            act, known[r] = known[r], None
            if isinstance(act, TunnelkitError):
                out[r] = act
                continue
            delta, (zl, zr) = deltas[r], zetas[r]
            tail = f_of_zeta(zl) * f_of_zeta(zr) * math.exp(-2.0 * act.I)
            res = zl * zr - tail
            head = dzl * zr + zl * dzr
            reach = abs(tail) * (_DLNF_BOUND * (dzl + dzr) + 2.0 * abs(act.I_slope))
            if reach < math.ulp(head) / 8:
                slope = head
            else:
                slope = head - tail * (_dlnf(zl) * dzl + _dlnf(zr) * dzr - 2.0 * act.I_slope)
            step = res / slope
            if abs(step) <= _STEP_RTOL * abs(delta):
                if abs(zl) < abs(zr):
                    zl = tail / zr
                else:
                    zr = tail / zl
                out[r] = (delta, res, zl, zr)
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
    (d_plus, res_plus, zl_p, zr_p), (d_minus, res_minus, zl_m, zr_m) = plus, minus
    e_bar = analysis.E_bar
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
    d(ln f)/dzeta = -pi tan(pi zeta) - psi(1 - zeta) + ln(zeta + 1/2),
    which is skipped where its term, a multiple of f(zeta_L) f(zeta_R)
    exp(-2 I), cannot move the derivative's float.
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


def compute_splittings(analyses, *, rtol: float = 1e-12):
    """``compute_splitting`` with the solve at every point of a bias
    sweep, in as few batches of the action kernel as it can.

    The analyses share one curve and may differ in tilde_eps alone.  The
    actions at E_bar come in one batch, then both roots of all points
    iterate in lockstep.  That first batch also takes each point's two
    guesses, its zeroth-order levels E_bar -/+ |eps|/2, as tentative rows,
    so that a guess whose quadrature does not settle in the kernel's first
    pass (next to the barrier top) costs that pass alone.  A root whose
    Newton start E_bar + dE_pm equals one of its point's settled guesses
    bit for bit takes that action for its first iterate, and only the
    roots that miss go to the kernel again.  On deep wells every start
    lands on its guess and settles in that iterate, so the sweep, or the
    point, is one batch.  On shallow wells, where Delta moves the starts
    off the guesses, a point pays for two actions it never reads.  The
    guesses move no bit of any result.
    Returns one (result, error) pair per point:
    (SplittingResult, None) when both roots were found; (result without
    roots, error) when the solve failed, the error being the
    RootNotBracketed or action error that ``compute_splitting`` raises;
    and (None, error) when the action at E_bar failed.  Each point's
    values and error are those of its own ``compute_splitting`` call.
    """
    analyses = list(analyses)
    n = len(analyses)
    if not n:
        return []
    e_bars = [a.E_bar for a in analyses]
    right_floor = analyses[0].v(analyses[0].x_R)  # of the curve all points share
    # E_bar - |eps|/2 of every point, then E_bar + |eps|/2
    guesses = [e + side * abs(a.eps) for side in (-0.5, 0.5) for a, e in zip(analyses, e_bars)]
    outcomes = action_rows(analyses * 3, e_bars + guesses, rtol=rtol, tentative=2 * n)
    actions = outcomes[:n]
    out = [(None, action) for action in actions]
    points = [i for i, act in enumerate(actions) if not isinstance(act, TunnelkitError)]
    if not points:
        return out
    shifts = {i: level_shifts(analyses[i], actions[i]) for i in points}
    # two Newton rows per point, E_plus and E_minus, all in one lockstep;
    # a row whose start is one of its point's guesses takes its action
    rows, starts, windows, known = [], [], [], []
    for i in points:
        analysis, e_bar = analyses[i], e_bars[i]
        lo_lim, hi_lim = _energy_window(analysis, right_floor)
        guessed = {g: o for g, o in zip(guesses[i::n], outcomes[n + i::n]) if o is not None}
        rows += [analysis, analysis]
        starts += [shifts[i].dE_plus, shifts[i].dE_minus]
        windows += [(lo_lim - e_bar, 0.0), (0.0, hi_lim - e_bar)]
        known += [guessed.get(e_bar + start) for start in starts[-2:]]
    ends = iter(_newton_root(rows, starts, windows, rtol, known))
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
    when it is not given.  With ``solve`` the result is the one-point
    case of ``compute_splittings``, which raises its error.
    """
    if analysis is None:
        analysis = analyze(spec, consts)
    if not solve:
        action = evaluate_action(spec, consts, analysis=analysis, rtol=rtol)
        return SplittingResult(analysis, action, level_shifts(analysis, action), None)
    [(result, error)] = compute_splittings([analysis], rtol=rtol)
    if error is not None:
        raise error
    return result
