"""Barrier (Gamow) action integrals and their energy derivative.

The central quantity is

    I(E) = (1/hbar) * integral_{a_bar}^{b_bar} sqrt(2 m (V(x) - E)) dx

between the inner turning points.  The integrand has square-root zeros
at both ends; substituting x = a_bar + t^2 (mirrored at b_bar) and
splitting at the barrier maximum turns each half into an analytic
integrand, which the dyadic Gauss-Legendre refinement then nails.

I and dI/dE come from one kernel over a vector of energies on one curve
(``action_rows``; the points of a bias sweep differ only in energy and
in the dialed floor).  The turning points of every row and both flanks
are found together by Brent's method in lockstep.  Each refinement pass
then samples the potential once on a (rows x nodes) block of t-nodes of
both flanks, and that one sample set serves the integrands of I and of
dI/dE alike.  Each (row, integrand, flank) component keeps its own
stopping depth, and only rows with a component still open go on to the
next pass.  So each value is bit for bit what a quadrature of its
integrand alone at that energy gives, in a batch of any size, and a
caller asking for I alone never waits on a slope that cannot settle.
``turning_points``, ``gamow_integral``, ``action_slope`` and
``evaluate_action`` are one-row calls of the kernel; a row whose energy
or quadrature fails carries its own error, which a one-row call raises.
hbar and m come from the analysis the kernel works on; a ``consts``
argument beside it only builds a missing analysis.

Also provided: the exact closed form for the piecewise-parabolic
double-oscillator family, and the small-E expansion of I built from the
zero-energy action plus a logarithmic turning-point correction with the
well-shape constants A_L, A_R.
"""

import math
from dataclasses import dataclass

import numpy as np

from ._brent import brentq_rows
from .errors import (
    EnergyAboveBarrier,
    EnergyBelowWellBottom,
    LambdaOutOfRange,
    TunnelkitError,
)
from .potentials import (
    DEFAULT_CONSTANTS,
    DoubleOscillator,
    PhysConstants,
    WellAnalysis,
    _evaluate_d3,
    analyze,
)
from .quadrature import (
    _MAX_DEPTH,
    _ORDER,
    _panel_nodes,
    _panel_sum,
    _unsettled,
    adaptive_quadrature,
)

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


# Most t-nodes one pass of the action kernel samples in one block; more
# open (row, flank) pairs than that are sampled in chunks.
_PASS_NODES = 2**16


def _ensure_analysis(spec, consts, analysis):
    if analysis is None:
        return analyze(spec, consts)
    return analysis


def _one(outcome):
    # the value of a one-row call, or the error of its row
    if isinstance(outcome, TunnelkitError):
        raise outcome
    return outcome


def _energy_error(analysis, E, right_floor):
    """The RegimeError of an energy with no pair of inner turning points on
    the curve of ``analysis``, or None.

    E must lie strictly between the higher well floor, of the analysis's
    own tilde_eps (which a bias sweep dials), and the barrier top.
    ``right_floor`` is v(x_R) of the curve.
    """
    if E >= analysis.V0:
        return EnergyAboveBarrier(f"E = {E:g} is not below the barrier top {analysis.V0:g}")
    floor = max(0.0, analysis.tilde_eps)
    if E <= floor:
        return EnergyBelowWellBottom(f"E = {E:g} does not exceed the higher well floor {floor:g}")
    # v(x_L) = 0 < E, but a dialed tilde_eps (a bias sweep on a fixed
    # shape) can put the curve's own right floor above E: no crossing there.
    if right_floor - E > 0.0:
        return EnergyBelowWellBottom(
            f"E = {E:g} is below the right well floor {right_floor:g} of the potential curve"
        )
    return None


def _turning_rows(analysis, E):
    """Inner turning points (a_bar, b_bar), as arrays, at each energy of E.

    Every energy must pass ``_energy_error``.  Solves v(x) = E on the
    barrier flanks [x_L, x_m] and [x_m, x_R] by Brent's method, all rows
    and both flanks at once (``brentq_rows``), so each root is bit for
    bit the one ``brentq`` finds for it alone.
    """
    k = len(E)
    consts, shift, curve = analysis.consts, analysis.zero_shift, analysis.spec.derivative
    target = list(E) * 2

    def shifted(x, row):
        return curve(x, 0, consts) - shift - target[row]

    x = brentq_rows(
        shifted,
        [analysis.x_L] * k + [analysis.x_m] * k,
        [analysis.x_m] * k + [analysis.x_R] * k,
        xtol=1e-15,
        rtol=8.9e-16,
    )
    return x[:k], x[k:]


def turning_points(spec, consts: PhysConstants, E: float, analysis: WellAnalysis | None = None):
    """Inner classical turning points (a_bar, b_bar) at energy E.

    Solves v(x) = E on the barrier flanks [x_L, x_m] and [x_m, x_R] of
    the normalized potential, as a one-row call of the action kernel with
    no integrands, so with no quadrature and no tolerance.  E must lie
    strictly between the higher well floor and the barrier top.
    """
    analysis = _ensure_analysis(spec, consts, analysis)
    a_bar, b_bar, _ = _one(_action_rows([analysis], [E], 0.0, ())[0])
    return a_bar, b_bar


def _momentum(two_t, w, m):
    # 2t sqrt(2m (V - E)): the integrand of I in t
    return two_t * np.sqrt(np.maximum(w, 0.0))


def _inverse_momentum(two_t, w, m):
    # 2t m / sqrt(2m (V - E)): the integrand of -dI/dE in t
    return two_t * m / np.sqrt(np.maximum(w, 1e-300))


def _flank_integrals(analysis, E, a_bar, b_bar, rtol, integrands):
    """Both barrier flanks of each integrand at every energy of E, before
    the factor 1/hbar.

    The left flank runs as x = a_bar + t^2 from a_bar to x_m, the right
    one as x = b_bar - t^2 from b_bar back to x_m.  A (row, flank) pair
    is open while one of its integrands is.  Each refinement pass calls v
    once on a (pairs x nodes) block of the t-nodes of the open pairs and
    forms every integrand from that one sample; the first pass takes
    depths 0 and 1 together, since almost every component stops at depth
    1.  A pass that would sample more than _PASS_NODES nodes runs in
    chunks of pairs.  Each (row, integrand, flank) component stops at its
    own depth with exactly the value adaptive_quadrature gives it alone.

    Returns (values, errors): values[i, flank, row] is the left (flank 0)
    or right flank of integrand i at each row, and errors maps each row with a
    component still open at the last depth to the QuadratureNonConvergence
    of the first such component, integrands in the order given and the
    left flank first.
    """
    m = analysis.consts.mass
    two_m = 2.0 * m
    k, n = E.size, len(integrands)
    base = np.concatenate([a_bar, b_bar])  # pair p is row p % k, flank p // k
    sign = np.repeat([1.0, -1.0], k)
    energy = np.concatenate([E, E])
    tops = np.sqrt(np.concatenate([analysis.x_m - a_bar, b_bar - analysis.x_m]))
    # value, last value and openness of each (integrand, pair) component;
    # a zero-width flank is 0.0, as adaptive_quadrature gives it
    value = np.zeros((n, 2 * k))
    last = np.full((n, 2 * k), np.nan)  # so that depth 0 never settles
    open_ = np.repeat([tops != 0.0], n, axis=0)
    depths = (0, 1)
    while depths[0] <= _MAX_DEPTH:
        live = open_.any(axis=0)
        if not live.any():
            break
        chunk = max(1, _PASS_NODES // sum(_ORDER * 2**d for d in depths))
        pairs = np.flatnonzero(live)
        # all pairs open (the first pass, mostly) take views, not copies
        spans = [slice(None)] if pairs.size == 2 * k <= chunk else [
            pairs[start:start + chunk] for start in range(0, pairs.size, chunk)
        ]
        for p in spans:
            blocks = [_panel_nodes(0.0, tops[p], 2**d) for d in depths]
            t = np.concatenate([nodes for nodes, _ in blocks], axis=1)
            w = two_m * (analysis.v(base[p, None] + sign[p, None] * (t * t)) - energy[p, None])
            two_t = 2.0 * t
            vals = np.stack([f(two_t, w, m) for f in integrands])
            still, prev, got = open_[:, p], last[:, p], value[:, p]
            col = 0
            for nodes, half in blocks:
                sums = _panel_sum(vals[:, :, col:col + nodes.shape[1]], half)
                col += nodes.shape[1]
                settled = still & (np.abs(sums - prev) <= rtol * np.abs(sums))
                got = np.where(settled, sums, got)
                prev = sums
                still = still ^ settled
            open_[:, p], last[:, p], value[:, p] = still, prev, got
        depths = (depths[-1] + 1,)
    errors = {}
    if open_.any():
        stuck, last = open_.reshape(n, 2, k), last.reshape(n, 2, k)
        for row in np.flatnonzero(stuck.any(axis=(0, 1))).tolist():
            i, flank = next((i, f) for i in range(n) for f in (0, 1) if stuck[i, f, row])
            errors[row] = _unsettled(float(last[i, flank, row]), rtol)
    return value.reshape(n, 2, k), errors


def _action_rows(analyses, E, rtol, integrands):
    """The action kernel over energies of one curve.

    ``analyses`` holds one WellAnalysis per energy; they share one curve
    and may differ in tilde_eps (a dialed bias), which sets each row's
    higher well floor.  Returns one entry per row: (a_bar, b_bar,
    [(left, right) of each integrand, before 1/hbar]) as floats, or the
    TunnelkitError the row's energy or quadrature raises.
    """
    if not analyses:
        return []
    curve = analyses[0]
    right_floor = curve.v(curve.x_R)
    out = [_energy_error(a, e, right_floor) for a, e in zip(analyses, E)]
    good = [r for r, error in enumerate(out) if error is None]
    if not good:
        return out
    energies = [float(E[r]) for r in good]
    a_bar, b_bar = _turning_rows(curve, energies)
    energies = np.array(energies)
    values, errors = _flank_integrals(curve, energies, a_bar, b_bar, rtol, integrands)
    rows = zip(a_bar.tolist(), b_bar.tolist(), values.transpose(2, 0, 1).tolist())
    for j, (r, row) in enumerate(zip(good, rows)):
        out[r] = errors[j] if j in errors else row
    return out


def action_rows(analyses, E, *, rtol: float = 1e-12):
    """``evaluate_action`` at every energy of E in one batch.

    E[i] is taken on analyses[i]; the analyses share one curve and may
    differ in tilde_eps alone, as the points of a bias sweep do.  Returns
    one entry per energy: its ActionResult, or the TunnelkitError that
    ``evaluate_action`` raises there.
    """
    out = []
    rows = _action_rows(analyses, E, rtol, (_momentum, _inverse_momentum))
    for analysis, e, row in zip(analyses, E, rows):
        if isinstance(row, TunnelkitError):
            out.append(row)
            continue
        hbar = analysis.consts.hbar
        a_bar, b_bar, ((i_l, i_r), (s_l, s_r)) = row
        i_l, i_r = i_l / hbar, i_r / hbar
        out.append(ActionResult(
            E=float(e),
            a_bar=a_bar,
            b_bar=b_bar,
            I=i_l + i_r,
            I_slope=-(s_l + s_r) / hbar,
            I_L=i_l,
            I_R=i_r,
        ))
    return out


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
    _, _, [(i_l, i_r)] = _one(_action_rows([analysis], [E], rtol, (_momentum,))[0])
    return i_l / analysis.consts.hbar + i_r / analysis.consts.hbar


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
    _, _, [(s_l, s_r)] = _one(_action_rows([analysis], [E], rtol, (_inverse_momentum,))[0])
    return -(s_l + s_r) / analysis.consts.hbar


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
    return _one(action_rows([analysis], [E], rtol=rtol)[0])


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
    m, hbar = analysis.consts.mass, analysis.consts.hbar
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
