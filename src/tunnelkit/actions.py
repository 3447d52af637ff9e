"""Barrier (Gamow) action integrals and their energy derivative.

The central quantity is

    I(E) = (1/hbar) * integral_{a_bar}^{b_bar} sqrt(2 m (V(x) - E)) dx

between the inner turning points.  The integrand has square-root zeros
at both ends; substituting x = a_bar + t^2 (mirrored at b_bar) and
splitting at the barrier maximum turns each half into an analytic
integrand, which the dyadic Gauss-Legendre refinement then nails.

I and dI/dE come from one kernel over a vector of energies on one curve
(``action_rows``; the points of a bias sweep differ only in energy and
in the dialed floor).  Rows at equal energies share one solve: each
distinct energy is computed once, and each row checks only its own
floor.  The turning points of every energy and both flanks come from
``potentials._flank_roots``: safeguarded Newton steps started at the
wells' harmonic turning points, finished next to a sign change of
v(x) - E in floats; a sweep's many roots take those steps in lockstep
on arrays, and a handful of roots one at a time, to the same bits.  Each refinement pass
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
pass from depth 2.  Rows a caller marks tentative, guesses it can do
without, stop after that first pass if it leaves one of their components
open, and come back None, so a guess next to the barrier top, where the
quadrature does not settle, costs one pass.
``turning_points``, ``gamow_integral``, ``action_slope`` and
``evaluate_action`` are each one ``_row`` of the kernel, with no
integrand, I's alone, the slope's alone and both.  A row whose energy or
quadrature fails carries its own error, which a one-row call raises.
hbar and m come from the analysis the kernel works on; a ``consts``
argument beside it only builds a missing analysis.

Also provided: the exact closed form for the piecewise-parabolic
double-oscillator family.
"""

import math
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .errors import (
    EnergyAboveBarrier,
    EnergyBelowWellBottom,
    LambdaOutOfRange,
    NumericsError,
    TunnelkitError,
)
from .potentials import (
    DEFAULT_CONSTANTS,
    DoubleOscillator,
    PhysConstants,
    WellAnalysis,
    _flank_roots,
    analyze,
)
from .quadrature import _MAX_DEPTH, _ORDER, _panel_sums, _unit_nodes, _unsettled

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


def _energy_error(analysis, E, right_floor):
    """The RegimeError of an energy with no pair of inner turning points on
    the curve of ``analysis``, or None.

    E must lie strictly between the higher well floor, of the analysis's
    own tilde_eps (which a bias sweep dials), and the barrier top.
    ``right_floor`` is v(x_R) of the curve.
    """
    if not E < analysis.V0:  # NaN too
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


def _turning_rows(analysis, E, right_floor):
    """Inner turning points at each energy of E, as one array: a_bar of
    every energy, then b_bar of every energy.

    Every energy must pass ``_energy_error``; ``right_floor`` is v(x_R) of
    the curve.  Each is the root of v(x) = E on a barrier flank, [x_L, x_m]
    or [x_m, x_R], that ``_flank_roots`` reaches from the well's harmonic
    turning point, x_L + sqrt(2E/m)/omega_L on the left and
    x_R - sqrt(2(E - right_floor)/m)/omega_R on the right: a float where
    v(x) < E next to one where v(x) >= E.  Where rounding makes v - E
    change sign more than once there, that start picks the sign change,
    and a row equals its one-row call because both take the same steps
    from the same start.
    """
    k = len(E)
    lo, hi = [analysis.x_L] * k + [analysis.x_m] * k, [analysis.x_m] * k + [analysis.x_R] * k
    rising = [True] * k + [False] * k  # v - E rises with x on the left flank
    # E - right_floor >= 0 by _energy_error, so no square root is negative
    m = analysis.consts.mass
    starts = [analysis.x_L + math.sqrt(2.0 * e / m) / analysis.omega_L for e in E] + [
        analysis.x_R - math.sqrt(2.0 * (e - right_floor) / m) / analysis.omega_R for e in E
    ]
    return _flank_roots(analysis, list(E) * 2, lo, hi, starts, rising)


def _momentum(two_t, w, m, out=None):
    # 2t sqrt(2m (V - E)): the integrand of I in t, into out when given
    root = np.sqrt(np.maximum(w, 0.0, out=out), out=out)
    return np.multiply(two_t, root, out=out)


def _inverse_momentum(two_t, w, m, out=None):
    # 2t m / sqrt(2m (V - E)): the integrand of -dI/dE in t, into out when
    # given
    root = np.sqrt(np.maximum(w, 1e-300, out=out), out=out)
    return np.divide(two_t * m, root, out=out)


def _flank_integrals(analysis, E, x, rtol, integrands, tentative=None):
    """Both barrier flanks of each integrand at every energy of E, before
    the factor 1/hbar, from the turning points x of ``_turning_rows``:
    a_bar of every energy, then b_bar.

    The left flank runs as x = a_bar + t^2 from a_bar to x_m, the right
    one as x = b_bar - t^2 from b_bar back to x_m.  A (row, flank) pair
    is open while one of its integrands is.  Each pass calls the spec's
    ``derivative`` once on a (pairs x nodes) block of the t-nodes of the
    open pairs, once per chunk of pairs past _PASS_NODES nodes, and forms
    every integrand from that sample, into one block.  The first pass
    takes depths 0 and 1 of every pair and returns when every component
    settles, as almost every one does (a zero-width flank sums to 0.0 at
    both); each later pass takes the open pairs one depth further.  Each (row, integrand, flank) component
    stops at its own depth with exactly the value adaptive_quadrature
    gives it alone.

    A row marked in the boolean array ``tentative`` takes the first pass
    alone: if a component of it is still open after that pass, the row
    stops there.

    Returns (values, errors): values[i, flank, row] is the left (flank 0)
    or right flank of integrand i at each row, and errors maps each row with a
    component still open at the last depth to the QuadratureNonConvergence
    of the first such component, integrands in the order given and the
    left flank first, and each tentative row that stopped to None.
    """
    consts, curve, shift = analysis.consts, analysis.spec.derivative, analysis.zero_shift
    m = consts.mass
    two_m = 2.0 * m
    k, n = E.size, len(integrands)
    if not n:
        return np.empty((0, 2, k)), {}
    # pair p is row p % k, flank p // k, from x[p]
    sign = np.array([1.0, -1.0]).repeat(k)
    energy = np.concatenate([E, E])
    tops = np.sqrt(np.abs(x - analysis.x_m))  # |x - x_m| is x_m - a_bar, b_bar - x_m exactly

    def chunk_sums(p, counts):
        # each integrand's sums of each count at the pairs p, from one
        # sample of v: panels of [0, tops] with t = tops U
        width = tops[p]
        t = width[:, None] * _unit_nodes(counts)
        w = two_m * (curve(x[p, None] + sign[p, None] * (t * t), 0, consts) - shift - energy[p, None])
        two_t = 2.0 * t
        block = np.empty((n,) + w.shape)
        for f, out in zip(integrands, block):
            f(two_t, w, m, out)
        return _panel_sums(block, width, counts)

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
    errors = {}
    if tentative is not None:
        stopped = tentative & open_.reshape(n, 2, k).any(axis=(0, 1))
        open_[:, np.tile(stopped, 2)] = False
        errors = dict.fromkeys(np.flatnonzero(stopped).tolist())
    for depth in range(2, _MAX_DEPTH + 1):
        live = open_.any(axis=0)
        if not live.any():
            break
        [got] = sums(np.flatnonzero(live), (2**depth,))
        settled = open_[:, live] & (np.abs(got - last[:, live]) <= rtol * np.abs(got))
        value[:, live] = np.where(settled, got, value[:, live])
        open_[:, live] ^= settled
        last[:, live] = got
    if open_.any():
        stuck, last = open_.reshape(n, 2, k), last.reshape(n, 2, k)
        for row in np.flatnonzero(stuck.any(axis=(0, 1))).tolist():
            i, flank = next((i, f) for i in range(n) for f in (0, 1) if stuck[i, f, row])
            errors[row] = _unsettled(float(last[i, flank, row]), rtol)
    return value.reshape(n, 2, k), errors


def action_rows(analyses, E, *, rtol=1e-12, tentative=0, integrands=(_momentum, _inverse_momentum)):
    """The action kernel: ``evaluate_action`` at every energy of E.

    E[i] is taken on analyses[i]; the analyses share one curve and may
    differ in tilde_eps alone, as the points of a bias sweep do, which sets
    each row's higher well floor.  Returns one entry per energy: its
    ActionResult, or the TunnelkitError of its energy or quadrature, which
    a one-row call raises.  Each distinct energy of the rows that clear
    their floors is solved once, since a row's turning points and flank
    sums depend on the curve and its energy alone.

    The last ``tentative`` energies are guesses: where one's quadrature
    does not settle in the first pass, at depths 0 and 1, its entry is
    None, so a guess near the barrier top costs one pass; an energy is
    tentative when all its rows are.  ``integrands``, which only ``_row``
    passes, holds ``_momentum`` (I), ``_inverse_momentum`` (dI/dE), both
    or neither; the fields of an integrand not asked for are NaN.
    """
    if not analyses:
        return []
    curve = analyses[0]
    right_floor = curve.v(curve.x_R)
    out = [_energy_error(a, e, right_floor) for a, e in zip(analyses, E)]
    slot = {}  # each distinct energy -> its row of the solve
    rows = [
        (r, slot.setdefault(float(E[r]), len(slot))) for r, error in enumerate(out) if error is None
    ]
    if not rows:
        return out
    energies = list(slot)
    only_tentative = None
    if tentative:
        firm = {j for r, j in rows if r < len(out) - tentative}
        only_tentative = np.array([j not in firm for j in range(len(energies))])
    turns = _turning_rows(curve, energies, right_floor)
    # An integral that is not finite makes its row an error.  A mass so
    # large that the turning points lie within an ulp of the wells gives
    # one: at a node that is not forbidden, the slope's integrand is
    # divided by sqrt(1e-300) and overflows.
    with np.errstate(all="ignore"):
        values, errors = _flank_integrals(
            curve, np.array(energies), turns, rtol, integrands, only_tentative
        )
    flanks = dict(zip(integrands, values.tolist()))  # integrand -> [left, right] sums
    unasked = [[math.nan] * len(energies)] * 2
    (i_l, i_r), (s_l, s_r) = (flanks.get(f, unasked) for f in (_momentum, _inverse_momentum))
    hbar = curve.consts.hbar
    k, turns = len(energies), turns.tolist()
    solved = [
        ActionResult(e, a, b, il / hbar + ir / hbar, -(sl + sr) / hbar, il / hbar, ir / hbar)
        for e, a, b, il, ir, sl, sr in zip(energies, turns[:k], turns[k:], i_l, i_r, s_l, s_r)
    ]
    sums = list(chain.from_iterable(flanks.values()))  # each flank of each integrand asked for
    if not all(map(math.isfinite, chain.from_iterable(sums))):
        for j, e in enumerate(energies):
            if not all(math.isfinite(flank[j]) for flank in sums):
                solved[j] = NumericsError(
                    f"the action's integrands leave the float range at E = {e:g}"
                )
    for j, error in errors.items():  # a quadrature error or a stop comes first
        solved[j] = error
    for r, j in rows:
        out[r] = solved[j]
    return out


def _row(spec, consts, E, analysis, rtol, integrands):
    # the action_rows row at E (or E_bar) on analysis (or analyze(spec, consts)); raises its error
    analysis = analyze(spec, consts) if analysis is None else analysis
    E = analysis.E_bar if E is None else E
    row = action_rows([analysis], [E], rtol=rtol, integrands=integrands)[0]
    if isinstance(row, TunnelkitError):
        raise row
    return row


def turning_points(spec, consts: PhysConstants, E: float, analysis: WellAnalysis | None = None):
    """Inner classical turning points (a_bar, b_bar) at energy E.

    Solves v(x) = E on the barrier flanks [x_L, x_m] and [x_m, x_R] of
    the normalized potential, as a one-row call of the action kernel with
    no integrands, so with no quadrature and no tolerance: each root is a
    float where v(x) < E next to one where v(x) >= E, at the sign change
    of v(x) - E that the Newton steps from the well's harmonic turning
    point reach.  E must lie strictly between the higher well floor and
    the barrier top.
    """
    row = _row(spec, consts, E, analysis, 0.0, ())
    return row.a_bar, row.b_bar


def gamow_integral(
    spec,
    consts: PhysConstants,
    E: float,
    analysis: WellAnalysis | None = None,
    *,
    rtol: float = 1e-12,
) -> float:
    """Barrier action I(E) by turning-point-regularized quadrature."""
    return _row(spec, consts, E, analysis, rtol, (_momentum,)).I


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
    return _row(spec, consts, E, analysis, rtol, (_inverse_momentum,)).I_slope


def evaluate_action(
    spec,
    consts: PhysConstants = DEFAULT_CONSTANTS,
    E: float | None = None,
    analysis: WellAnalysis | None = None,
    *,
    rtol: float = 1e-12,
) -> ActionResult:
    """ActionResult at energy E (default: the mean doublet energy E_bar)."""
    return _row(spec, consts, E, analysis, rtol, (_momentum, _inverse_momentum))


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
