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
The first pass takes depths 0 and 1 of every pair together.  Almost
every component settles there, and the kernel then returns from that
one sample; the pairs with a component still open go on one depth per
pass from depth 2.
``turning_points``, ``gamow_integral``, ``action_slope`` and
``evaluate_action`` are one-row calls of the kernel; a row whose energy
or quadrature fails carries its own error, which a one-row call raises.
hbar and m come from the analysis the kernel works on; a ``consts``
argument beside it only builds a missing analysis.

Also provided: the exact closed form for the piecewise-parabolic
double-oscillator family.
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
from .potentials import DEFAULT_CONSTANTS, DoubleOscillator, PhysConstants, WellAnalysis, analyze
from .quadrature import _MAX_DEPTH, _ORDER, _panel_nodes, _panel_sums, _unsettled

__all__ = [
    "ActionResult",
    "turning_points",
    "gamow_integral",
    "action_slope",
    "evaluate_action",
    "double_oscillator_action",
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
    and both flanks at once (``brentq_rows``).  The flank function takes
    a float and a row index, or, on the lockstep path, an array of
    abscissae and the array of their rows; each family's ``derivative``
    gives arrays the bits it gives floats, so each root is bit for bit
    the one ``brentq`` finds for it alone.
    """
    k = len(E)
    consts, shift, curve = analysis.consts, analysis.zero_shift, analysis.spec.derivative
    target = list(E) * 2
    targets = np.array(target)

    def shifted(x, rows):
        # rows is an int on the scalar loop, where a list item keeps the
        # arithmetic on Python floats, and an int array in lockstep
        e = target[rows] if type(rows) is int else targets[rows]
        return curve(x, 0, consts) - shift - e

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
    is open while one of its integrands is.  Each pass calls v once on a
    (pairs x nodes) block of the t-nodes of the open pairs, once per chunk
    of pairs past _PASS_NODES nodes, and forms every integrand from that
    sample.  The first pass takes depths 0 and 1 of every pair and
    returns when every component settles, as almost every one does (a
    zero-width flank sums to 0.0 at both); each later pass takes the open
    pairs one depth further.  Each (row, integrand, flank) component
    stops at its own depth with exactly the value adaptive_quadrature
    gives it alone.

    Returns (values, errors): values[i, flank, row] is the left (flank 0)
    or right flank of integrand i at each row, and errors maps each row with a
    component still open at the last depth to the QuadratureNonConvergence
    of the first such component, integrands in the order given and the
    left flank first.
    """
    m = analysis.consts.mass
    two_m = 2.0 * m
    k, n = E.size, len(integrands)
    if not n:
        return np.empty((0, 2, k)), {}
    base = np.concatenate([a_bar, b_bar])  # pair p is row p % k, flank p // k
    sign = np.array([1.0, -1.0]).repeat(k)
    energy = np.concatenate([E, E])
    tops = np.sqrt(np.concatenate([analysis.x_m - a_bar, b_bar - analysis.x_m]))

    def chunk_sums(p, counts):
        # each integrand's sums of each count at the pairs p, from one call of v
        t, half = _panel_nodes(0.0, tops[p], counts)
        w = two_m * (analysis.v(base[p, None] + sign[p, None] * (t * t)) - energy[p, None])
        two_t = 2.0 * t
        return _panel_sums(np.array([f(two_t, w, m) for f in integrands]), half, counts)

    def sums(pairs, counts):
        # chunk_sums at the pairs, in chunks of at most _PASS_NODES nodes;
        # all pairs in one chunk take views, not copies
        chunk = max(1, _PASS_NODES // (_ORDER * sum(counts)))
        if len(pairs) == 2 * k <= chunk:
            return chunk_sums(slice(None), counts)
        parts = [chunk_sums(pairs[s:s + chunk], counts) for s in range(0, len(pairs), chunk)]
        return [np.concatenate(part, axis=1) for part in zip(*parts)]

    first, last = sums(range(2 * k), (1, 2))
    settled = np.abs(last - first) <= rtol * np.abs(last)
    if settled.all():
        return last.reshape(n, 2, k), {}
    # value and openness of each (integrand, pair) component
    value, open_ = np.where(settled, last, 0.0), ~settled
    for depth in range(2, _MAX_DEPTH + 1):
        live = open_.any(axis=0)
        if not live.any():
            break
        [got] = sums(np.flatnonzero(live), (2**depth,))
        settled = open_[:, live] & (np.abs(got - last[:, live]) <= rtol * np.abs(got))
        value[:, live] = np.where(settled, got, value[:, live])
        open_[:, live] ^= settled
        last[:, live] = got
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
