"""Double-well potential families: evaluation, derivatives, well analysis.

This module is the only one that knows which families exist:
``FAMILIES`` maps each config name to its class.  Each family
(``BiasedQuartic``, ``DoubleOscillator``, ``Polynomial`` and the
reflection wrapper ``Mirrored``) is a frozen dataclass with four
members, and every caller goes through them:

    family                   the config name of the family
    kink                     true when V' jumps at the barrier top (only
                             the double oscillator), which calls for exact
                             geometry and a grid node on x = 0
    derivative(x, k, consts) the k-th derivative of V at x, k = 0..3, for
                             a float or a float ndarray x, returned as
                             the same kind
    scan_window(consts)      the (lo, hi) range that ``analyze``
                             scans for stationary points

``Mirrored`` delegates each of them to its inner family, with x -> -x.

Everything downstream (actions, splitting formulas, the eigensolver)
works in the convention that the potential is shifted so the deeper well
floor sits at V = 0 and lies to the LEFT of the barrier.  ``analyze``
locates the wells and the barrier, renormalizes, and (by default)
mirrors the axis when the user's potential has the deeper well on the
right.
"""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.polynomial import polynomial as npoly

from ._brent import brentq
from .errors import (
    ConfigError,
    DegenerateBarrier,
    FewerThanTwoMinima,
    NonConvexMinimum,
    WellStructureError,
)

__all__ = [
    "PhysConstants",
    "DEFAULT_CONSTANTS",
    "BiasedQuartic",
    "DoubleOscillator",
    "Polynomial",
    "Mirrored",
    "WellAnalysis",
    "evaluate",
    "evaluate_d1",
    "evaluate_d2",
    "analyze",
    "mirror",
]


@dataclass(frozen=True)
class PhysConstants:
    """Problem-wide constants; natural units hbar = mass = 1 by default."""

    hbar: float = 1.0
    mass: float = 1.0

    def __post_init__(self):
        if not (self.hbar > 0.0 and self.mass > 0.0):
            raise ConfigError("PhysConstants requires hbar > 0 and mass > 0")


DEFAULT_CONSTANTS = PhysConstants()

# Uniform samples of V' over the scan window that bracket the stationary points.
_SCAN_POINTS = 4096


@dataclass(frozen=True)
class BiasedQuartic:
    """V(x) = alpha (x^2 - a^2)^2 + beta (x + a).

    Wells near x = -a and x = +a; beta > 0 raises the right well while
    leaving V(-a) almost untouched.
    """

    family = "biased_quartic"
    kink = False

    alpha: float
    a: float
    beta: float = 0.0

    def __post_init__(self):
        if not (self.alpha > 0.0 and self.a > 0.0):
            raise ConfigError("BiasedQuartic requires alpha > 0 and a > 0")
        if not math.isfinite(self.beta):
            raise ConfigError("BiasedQuartic beta must be finite")

    def derivative(self, x, k, consts):
        if k == 0:
            return self.alpha * (x * x - self.a**2) ** 2 + self.beta * (x + self.a)
        if k == 1:
            return 4.0 * self.alpha * x * (x * x - self.a**2) + self.beta
        if k == 2:
            return 4.0 * self.alpha * (3.0 * x * x - self.a**2)
        return 24.0 * self.alpha * x

    def scan_window(self, consts):
        return (-2.0 * self.a, 2.0 * self.a)


@dataclass(frozen=True)
class DoubleOscillator:
    """Two parabolic branches meeting at x = 0.

        V(x) = (m/2) omega_L^2 (x - x_L)^2               for x <= 0
        V(x) = tilde_eps + (m/2) omega_R^2 (x - x_R)^2   for x > 0

    x_L < 0 < x_R are fixed by requiring both branches to reach the
    barrier value V0 at x = 0.  The slope is discontinuous there
    (``evaluate_d1`` reports the left branch at exactly x = 0); reports
    carry a kink caveat for this family.
    """

    family = "double_oscillator"
    kink = True

    omega_L: float
    omega_R: float
    tilde_eps: float
    V0: float

    def __post_init__(self):
        if not (self.omega_L > 0.0 and self.omega_R > 0.0):
            raise ConfigError("DoubleOscillator frequencies must be positive")
        if not (self.V0 > self.tilde_eps >= 0.0):
            raise ConfigError("DoubleOscillator requires V0 > tilde_eps >= 0")

    def x_left(self, consts: PhysConstants = DEFAULT_CONSTANTS) -> float:
        return -math.sqrt(2.0 * self.V0 / consts.mass) / self.omega_L

    def x_right(self, consts: PhysConstants = DEFAULT_CONSTANTS) -> float:
        return math.sqrt(2.0 * (self.V0 - self.tilde_eps) / consts.mass) / self.omega_R

    def derivative(self, x, k, consts):
        if isinstance(x, float):
            return self._branch(x, k, consts, x <= 0.0)
        return np.where(
            x <= 0.0, self._branch(x, k, consts, True), self._branch(x, k, consts, False)
        )

    def _branch(self, x, k, consts, left):
        # k-th derivative of the left (x <= 0) or the right parabola; the
        # constant k = 2, 3 values broadcast through np.where for arrays
        m = consts.mass
        if left:
            omega, x0 = self.omega_L, self.x_left(consts)
        else:
            omega, x0 = self.omega_R, self.x_right(consts)
        if k == 0:
            out = 0.5 * m * omega**2 * (x - x0) ** 2
            return out if left else self.tilde_eps + out
        if k == 1:
            return m * omega**2 * (x - x0)
        return m * omega**2 if k == 2 else 0.0

    def scan_window(self, consts):
        # ``analyze`` never scans this family; twice the well positions,
        # as for the quartic
        return (2.0 * self.x_left(consts), 2.0 * self.x_right(consts))


@dataclass(frozen=True)
class Polynomial:
    """V(x) = sum_i coeffs[i] x**i, coefficients in ascending order.

    The leading (highest nonzero) coefficient must be positive and of
    even degree so the potential confines.  ``window`` optionally pins
    the stationary-point scan range used by ``analyze``.
    """

    family = "polynomial"
    kink = False

    coeffs: tuple
    window: tuple | None = None

    def __post_init__(self):
        coeffs = tuple(float(c) for c in self.coeffs)
        object.__setattr__(self, "coeffs", coeffs)
        if self.window is not None:
            if len(self.window) != 2:
                raise ConfigError("Polynomial window must be [lo, hi]")
            lo, hi = (float(self.window[0]), float(self.window[1]))
            if not hi > lo:
                raise ConfigError("Polynomial window must satisfy hi > lo")
            object.__setattr__(self, "window", (lo, hi))
        deg = -1
        for i, c in enumerate(coeffs):
            if not math.isfinite(c):
                raise ConfigError("Polynomial coefficients must be finite")
            if c != 0.0:
                deg = i
        if deg < 2 or deg % 2 != 0 or coeffs[deg] <= 0.0:
            raise ConfigError(
                "Polynomial needs a positive leading coefficient of even degree >= 2"
            )

    @cached_property
    def _derivative_coeffs(self):
        # coefficients of the k-th derivative, k = 0..3, exactly as
        # npoly.polyder gives them
        return (self.coeffs,) + tuple(
            tuple(float(c) for c in npoly.polyder(self.coeffs, k)) for k in (1, 2, 3)
        )

    def derivative(self, x, k, consts):
        # Horner in npoly.polyval's own operation order, so floats and
        # arrays get its bits
        coeffs = self._derivative_coeffs[k]
        out = coeffs[-1] + x * 0.0
        for c in coeffs[-2::-1]:
            out = c + out * x
        return out

    def scan_window(self, consts):
        if self.window is not None:
            return self.window
        roots = npoly.polyroots(npoly.polyder(self.coeffs))
        real = roots.real[np.abs(roots.imag) <= 1e-9 * (1.0 + np.abs(roots))]
        if real.size == 0:
            raise FewerThanTwoMinima("polynomial has no real stationary points")
        lo, hi = float(np.min(real)), float(np.max(real))
        pad = 0.25 * (hi - lo) + 1e-3 * (1.0 + abs(hi) + abs(lo))
        return (lo - pad, hi + pad)


# config name -> family class: the one list of the families
FAMILIES = {cls.family: cls for cls in (BiasedQuartic, DoubleOscillator, Polynomial)}


@dataclass(frozen=True)
class Mirrored:
    """A potential reflected through x -> -x.

    Produced by ``analyze`` when auto-orientation has to move the deeper
    well to the left; can also be constructed directly.
    """

    inner: object

    def __post_init__(self):
        if not hasattr(self.inner, "derivative"):
            raise _not_a_spec(self.inner)

    @property
    def family(self):
        return self.inner.family

    @property
    def kink(self):
        return self.inner.kink

    def derivative(self, x, k, consts):
        out = self.inner.derivative(-x, k, consts)
        return -out if k % 2 else out

    def scan_window(self, consts):
        lo, hi = self.inner.scan_window(consts)
        return (-hi, -lo)


def _not_a_spec(obj):
    return TypeError(f"not a potential spec: {type(obj).__name__}")


def mirror(spec):
    """Reflect a spec through the origin (unwraps an existing Mirrored)."""
    return spec.inner if isinstance(spec, Mirrored) else Mirrored(spec)


def _derivative(spec, x, k, consts):
    try:
        derivative = spec.derivative
    except AttributeError:
        raise _not_a_spec(spec) from None
    if not isinstance(x, float):
        x = np.asarray(x, dtype=float)
        if x.ndim:
            return derivative(x, k, consts)
    return float(derivative(float(x), k, consts))


def evaluate(spec, x, consts: PhysConstants = DEFAULT_CONSTANTS):
    """Potential value at x (scalar in, scalar out; ndarray in, ndarray out)."""
    return _derivative(spec, x, 0, consts)


def evaluate_d1(spec, x, consts: PhysConstants = DEFAULT_CONSTANTS):
    """First derivative V'(x)."""
    return _derivative(spec, x, 1, consts)


def evaluate_d2(spec, x, consts: PhysConstants = DEFAULT_CONSTANTS):
    """Second derivative V''(x)."""
    return _derivative(spec, x, 2, consts)


def _evaluate_d3(spec, x, consts: PhysConstants = DEFAULT_CONSTANTS):
    # third derivative; only needed for the anharmonicity diagnostic
    return _derivative(spec, x, 3, consts)


@dataclass(frozen=True)
class WellAnalysis:
    """Well/barrier geometry and the derived energy bookkeeping.

    Positions refer to the axis of ``spec`` (which is the mirrored spec
    when ``mirrored`` is set).  ``zero_shift`` is the constant already
    subtracted so that v(x_L) = 0; the convenience accessors ``v``,
    ``v1``, ``v2`` evaluate the normalized potential.  Two properties
    follow from tilde_eps, so a dialed bias carries them along:

    eps   = tilde_eps + hbar (omega_R - omega_L) / 2   (bias between
            unperturbed ground levels)
    E_bar = hbar (omega_L + omega_R) / 4 + tilde_eps / 2  (their mean)
    """

    spec: object
    consts: PhysConstants
    x_L: float
    x_R: float
    x_m: float
    omega_L: float
    omega_R: float
    tilde_eps: float
    V0: float
    zero_shift: float
    mirrored: bool = False

    @property
    def eps(self):
        return self.tilde_eps + self.consts.hbar * (self.omega_R - self.omega_L) / 2.0

    @property
    def E_bar(self):
        return self.consts.hbar * (self.omega_L + self.omega_R) / 4.0 + self.tilde_eps / 2.0

    def v(self, x):
        return evaluate(self.spec, x, self.consts) - self.zero_shift

    def v1(self, x):
        return evaluate_d1(self.spec, x, self.consts)

    def v2(self, x):
        return evaluate_d2(self.spec, x, self.consts)


def _stationary_points(spec, consts, window, n):
    """Stationary points of V in ``window``, from a uniform scan of V'.

    V' is sampled at ``n`` evenly spaced points.  A sample where V' is
    exactly zero is a stationary point itself, classified by the sign of
    V'' there.  Each pair of neighbouring samples where V' changes sign
    brackets one root, refined by Brent iteration well past the 1e-12
    relative target.  Both kinds of sample are found with whole-array
    tests; only the few brackets run Python code.

    Returns a sorted list of (x, kind) with kind "min" for an upward
    crossing of V' and "max" for a downward one; refinements closer than
    1e-10 of the window scale are merged.
    """
    xs = np.linspace(window[0], window[1], n)
    d1 = evaluate_d1(spec, xs, consts)
    lo, hi = d1[:-1], d1[1:]

    def slope(x):
        return evaluate_d1(spec, x, consts)

    found = []
    for i in np.flatnonzero(d1 == 0.0):
        kind = "min" if evaluate_d2(spec, xs[i], consts) > 0.0 else "max"
        found.append((float(xs[i]), kind))
    for i in np.flatnonzero((lo != 0.0) & (lo * hi < 0.0)):
        root = brentq(slope, xs[i], xs[i + 1], xtol=1e-15, rtol=8.9e-16)
        found.append((float(root), "min" if lo[i] < 0.0 else "max"))

    # dedupe near-coincident refinements
    scale = max(abs(window[0]), abs(window[1]), 1.0)
    out = []
    for x, kind in sorted(found):
        if out and abs(x - out[-1][0]) <= 1e-10 * scale:
            continue
        out.append((x, kind))
    return out


def _analyze_double_oscillator(spec, consts):
    inner = spec.inner if isinstance(spec, Mirrored) else spec
    if isinstance(spec, Mirrored):
        # mirror of a double oscillator: wells swap sides and labels
        x_L, x_R = -inner.x_right(consts), -inner.x_left(consts)
        omega_L, omega_R = inner.omega_R, inner.omega_L
        tilde_eps = -inner.tilde_eps
        zero_shift = inner.tilde_eps
    else:
        x_L, x_R = inner.x_left(consts), inner.x_right(consts)
        omega_L, omega_R = inner.omega_L, inner.omega_R
        tilde_eps = inner.tilde_eps
        zero_shift = 0.0
    return WellAnalysis(
        spec=spec,
        consts=consts,
        x_L=x_L,
        x_R=x_R,
        x_m=0.0,
        omega_L=omega_L,
        omega_R=omega_R,
        tilde_eps=tilde_eps,
        V0=inner.V0 - zero_shift,
        zero_shift=zero_shift,
        mirrored=isinstance(spec, Mirrored),
    )


def analyze(
    spec,
    consts: PhysConstants = DEFAULT_CONSTANTS,
    *,
    orient: str = "auto",
    require_wkb: bool = False,
) -> WellAnalysis:
    """Locate the two wells and the barrier; derive the energy bookkeeping.

    Minima and the interior maximum are bracketed on a uniform scan of
    V' (4096 samples over the family's ``scan_window``) and refined to
    better than 1e-12 relative.  The potential is then
    renormalized so v(x_L) = 0 with the deeper well on the left; set
    ``orient="keep"`` to preserve the user's axis (tilde_eps may then be
    negative).

    Args:
        spec: potential description.
        consts: hbar and mass.
        orient: "auto" mirrors so V(x_L) <= V(x_R); "keep" never mirrors.
        require_wkb: when True, raise DegenerateBarrier if the barrier
            top does not exceed E_bar (shallow wells are otherwise
            analyzed without complaint so the geometry stays inspectable).

    Raises:
        FewerThanTwoMinima, WellStructureError, NonConvexMinimum,
        DegenerateBarrier (only with require_wkb).
    """
    if orient not in ("auto", "keep"):
        raise ConfigError(f'orient must be "auto" or "keep", got {orient!r}')
    analysis = _locate(spec, consts, None, orient)
    if require_wkb and analysis.V0 <= analysis.E_bar:
        raise DegenerateBarrier(
            f"barrier height {analysis.V0:g} does not exceed mean level "
            f"{analysis.E_bar:g}"
        )
    return analysis


def _locate(spec, consts, window, orient):
    # the geometry of ``analyze``, without its argument and WKB checks; only
    # the mirror recursion passes a window, the mirror of the one scanned
    try:
        kink = spec.kink
    except AttributeError:
        raise _not_a_spec(spec) from None
    if kink:
        # exact geometry; the kink maximum defeats a slope-based scan.
        # Mirrored(Mirrored(s)) is s, so nested mirrors collapse to at
        # most one before the geometry reads the family's own fields.
        while isinstance(spec, Mirrored) and isinstance(spec.inner, Mirrored):
            spec = spec.inner.inner
        if isinstance(spec, Mirrored) and orient == "auto" and spec.inner.tilde_eps > 0.0:
            spec = spec.inner
        return _analyze_double_oscillator(spec, consts)

    if window is None:
        window = spec.scan_window(consts)
    stationary = _stationary_points(spec, consts, window, _SCAN_POINTS)
    minima = [x for x, kind in stationary if kind == "min"]
    maxima = [x for x, kind in stationary if kind == "max"]
    if len(minima) < 2:
        raise FewerThanTwoMinima(
            f"found {len(minima)} local minima in window {window}, need 2"
        )
    if len(minima) > 2:
        raise WellStructureError(
            f"found {len(minima)} local minima in window {window}, need exactly 2"
        )
    x_lo, x_hi = minima
    for x in (x_lo, x_hi):
        if not evaluate_d2(spec, x, consts) > 0.0:
            raise NonConvexMinimum(f"V'' <= 0 at detected minimum x = {x:.12g}")
    interior = [x for x in maxima if x_lo < x < x_hi]
    if len(interior) != 1:
        raise WellStructureError(
            f"expected one interior maximum between wells, found {len(interior)}"
        )
    x_m = interior[0]

    v_lo = evaluate(spec, x_lo, consts)
    v_hi = evaluate(spec, x_hi, consts)
    if v_lo > v_hi and orient == "auto":
        # "keep": with (nearly) equal floors, rounding can make the other
        # floor look lower from either side; mirror at most once.
        return _locate(mirror(spec), consts, (-window[1], -window[0]), "keep")

    m = consts.mass
    return WellAnalysis(
        spec=spec,
        consts=consts,
        x_L=x_lo,
        x_R=x_hi,
        x_m=x_m,
        omega_L=math.sqrt(evaluate_d2(spec, x_lo, consts) / m),
        omega_R=math.sqrt(evaluate_d2(spec, x_hi, consts) / m),
        tilde_eps=v_hi - v_lo,
        V0=evaluate(spec, x_m, consts) - v_lo,
        zero_shift=v_lo,
        mirrored=isinstance(spec, Mirrored),
    )
