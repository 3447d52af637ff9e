"""Double-well potential families: evaluation, derivatives, well analysis.

Everything downstream (actions, splitting formulas, the eigensolver)
works in the convention that the potential is shifted so the deeper well
floor sits at V = 0 and lies to the LEFT of the barrier.  ``analyze``
locates the wells and the barrier, renormalizes, and (by default)
mirrors the axis when the user's potential has the deeper well on the
right.
"""

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as npoly
from scipy.optimize import brentq

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


@dataclass(frozen=True)
class BiasedQuartic:
    """V(x) = alpha (x^2 - a^2)^2 + beta (x + a).

    Wells near x = -a and x = +a; beta > 0 raises the right well while
    leaving V(-a) almost untouched.
    """

    alpha: float
    a: float
    beta: float = 0.0

    def __post_init__(self):
        if not (self.alpha > 0.0 and self.a > 0.0):
            raise ConfigError("BiasedQuartic requires alpha > 0 and a > 0")
        if not math.isfinite(self.beta):
            raise ConfigError("BiasedQuartic beta must be finite")


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


@dataclass(frozen=True)
class Polynomial:
    """V(x) = sum_i coeffs[i] x**i, coefficients in ascending order.

    The leading (highest nonzero) coefficient must be positive and of
    even degree so the potential confines.  ``window`` optionally pins
    the stationary-point scan range used by ``analyze``.
    """

    coeffs: tuple
    window: tuple | None = None

    def __post_init__(self):
        coeffs = tuple(float(c) for c in self.coeffs)
        object.__setattr__(self, "coeffs", coeffs)
        if self.window is not None:
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


@dataclass(frozen=True)
class Mirrored:
    """A potential reflected through x -> -x.

    Produced by ``analyze`` when auto-orientation has to move the deeper
    well to the left; can also be constructed directly.
    """

    inner: object


def mirror(spec):
    """Reflect a spec through the origin (unwraps an existing Mirrored)."""
    return spec.inner if isinstance(spec, Mirrored) else Mirrored(spec)


def _as_float_array(x):
    return np.asarray(x, dtype=float)


def evaluate(spec, x, consts: PhysConstants = DEFAULT_CONSTANTS):
    """Potential value at x (scalar in, scalar out; ndarray in, ndarray out)."""
    xv = _as_float_array(x)
    if isinstance(spec, BiasedQuartic):
        out = spec.alpha * (xv * xv - spec.a**2) ** 2 + spec.beta * (xv + spec.a)
    elif isinstance(spec, DoubleOscillator):
        m = consts.mass
        left = 0.5 * m * spec.omega_L**2 * (xv - spec.x_left(consts)) ** 2
        right = spec.tilde_eps + 0.5 * m * spec.omega_R**2 * (xv - spec.x_right(consts)) ** 2
        out = np.where(xv <= 0.0, left, right)
    elif isinstance(spec, Polynomial):
        out = npoly.polyval(xv, spec.coeffs)
    elif isinstance(spec, Mirrored):
        out = _as_float_array(evaluate(spec.inner, -xv, consts))
    else:
        raise TypeError(f"not a potential spec: {type(spec).__name__}")
    return out if out.ndim else float(out)


def evaluate_d1(spec, x, consts: PhysConstants = DEFAULT_CONSTANTS):
    """First derivative V'(x)."""
    xv = _as_float_array(x)
    if isinstance(spec, BiasedQuartic):
        out = 4.0 * spec.alpha * xv * (xv * xv - spec.a**2) + spec.beta
    elif isinstance(spec, DoubleOscillator):
        m = consts.mass
        left = m * spec.omega_L**2 * (xv - spec.x_left(consts))
        right = m * spec.omega_R**2 * (xv - spec.x_right(consts))
        out = np.where(xv <= 0.0, left, right)
    elif isinstance(spec, Polynomial):
        out = npoly.polyval(xv, npoly.polyder(spec.coeffs))
    elif isinstance(spec, Mirrored):
        out = -_as_float_array(evaluate_d1(spec.inner, -xv, consts))
    else:
        raise TypeError(f"not a potential spec: {type(spec).__name__}")
    return out if out.ndim else float(out)


def evaluate_d2(spec, x, consts: PhysConstants = DEFAULT_CONSTANTS):
    """Second derivative V''(x)."""
    xv = _as_float_array(x)
    if isinstance(spec, BiasedQuartic):
        out = 4.0 * spec.alpha * (3.0 * xv * xv - spec.a**2)
    elif isinstance(spec, DoubleOscillator):
        m = consts.mass
        out = np.where(
            xv <= 0.0,
            np.full_like(xv, m * spec.omega_L**2),
            np.full_like(xv, m * spec.omega_R**2),
        )
    elif isinstance(spec, Polynomial):
        out = npoly.polyval(xv, npoly.polyder(spec.coeffs, 2))
    elif isinstance(spec, Mirrored):
        out = _as_float_array(evaluate_d2(spec.inner, -xv, consts))
    else:
        raise TypeError(f"not a potential spec: {type(spec).__name__}")
    return out if out.ndim else float(out)


def _evaluate_d3(spec, x, consts: PhysConstants = DEFAULT_CONSTANTS):
    # third derivative; only needed for the anharmonicity diagnostic
    xv = _as_float_array(x)
    if isinstance(spec, BiasedQuartic):
        out = 24.0 * spec.alpha * xv
    elif isinstance(spec, DoubleOscillator):
        out = np.zeros_like(xv)
    elif isinstance(spec, Polynomial):
        out = npoly.polyval(xv, npoly.polyder(spec.coeffs, 3))
    elif isinstance(spec, Mirrored):
        out = -_as_float_array(_evaluate_d3(spec.inner, -xv, consts))
    else:
        raise TypeError(f"not a potential spec: {type(spec).__name__}")
    return out if out.ndim else float(out)


@dataclass(frozen=True)
class WellAnalysis:
    """Well/barrier geometry and the derived energy bookkeeping.

    Positions refer to the axis of ``spec`` (which is the mirrored spec
    when ``mirrored`` is set).  ``zero_shift`` is the constant already
    subtracted so that v(x_L) = 0; the convenience accessors ``v``,
    ``v1``, ``v2`` evaluate the normalized potential.

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
    eps: float
    E_bar: float
    V0: float
    zero_shift: float
    mirrored: bool = False

    def v(self, x):
        out = _as_float_array(evaluate(self.spec, x, self.consts)) - self.zero_shift
        return out if out.ndim else float(out)

    def v1(self, x):
        return evaluate_d1(self.spec, x, self.consts)

    def v2(self, x):
        return evaluate_d2(self.spec, x, self.consts)


def _default_window(spec, consts):
    if isinstance(spec, BiasedQuartic):
        return (-2.0 * spec.a, 2.0 * spec.a)
    if isinstance(spec, Polynomial):
        if spec.window is not None:
            return spec.window
        roots = npoly.polyroots(npoly.polyder(spec.coeffs))
        real = roots.real[np.abs(roots.imag) <= 1e-9 * (1.0 + np.abs(roots))]
        if real.size == 0:
            raise FewerThanTwoMinima("polynomial has no real stationary points")
        lo, hi = float(np.min(real)), float(np.max(real))
        pad = 0.25 * (hi - lo) + 1e-3 * (1.0 + abs(hi) + abs(lo))
        return (lo - pad, hi + pad)
    if isinstance(spec, Mirrored):
        lo, hi = _default_window(spec.inner, consts)
        return (-hi, -lo)
    raise TypeError(f"no default scan window for {type(spec).__name__}")


def _stationary_points(spec, consts, window, n):
    """Bracket sign changes of V' on a uniform scan, refine each root.

    Returns a list of (x, kind) with kind "min" for an upward crossing
    of V' and "max" for a downward one.  Refinement uses bracketed Brent
    iteration, well past the 1e-12 relative target.
    """
    xs = np.linspace(window[0], window[1], n)
    d1 = evaluate_d1(spec, xs, consts)

    def slope(x):
        return float(evaluate_d1(spec, float(x), consts))

    found = []
    for i in range(n - 1):
        lo, hi = d1[i], d1[i + 1]
        if lo == 0.0:
            kind = "min" if float(evaluate_d2(spec, xs[i], consts)) > 0.0 else "max"
            found.append((float(xs[i]), kind))
            continue
        if lo * hi < 0.0:
            root = brentq(slope, xs[i], xs[i + 1], xtol=1e-15, rtol=8.9e-16)
            found.append((float(root), "min" if lo < 0.0 else "max"))
    if d1[-1] == 0.0:
        kind = "min" if float(evaluate_d2(spec, xs[-1], consts)) > 0.0 else "max"
        found.append((float(xs[-1]), kind))

    # dedupe near-coincident refinements
    scale = max(abs(window[0]), abs(window[1]), 1.0)
    out = []
    for x, kind in sorted(found):
        if out and abs(x - out[-1][0]) <= 1e-10 * scale:
            continue
        out.append((x, kind))
    return out


def _analyze_double_oscillator(spec, consts, require_wkb):
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
    hbar = consts.hbar
    eps = tilde_eps + hbar * (omega_R - omega_L) / 2.0
    e_bar = hbar * (omega_L + omega_R) / 4.0 + tilde_eps / 2.0
    v0 = inner.V0 - zero_shift
    if require_wkb and v0 <= e_bar:
        raise DegenerateBarrier(
            f"barrier height {v0:g} does not exceed mean level {e_bar:g}"
        )
    return WellAnalysis(
        spec=spec,
        consts=consts,
        x_L=x_L,
        x_R=x_R,
        x_m=0.0,
        omega_L=omega_L,
        omega_R=omega_R,
        tilde_eps=tilde_eps,
        eps=eps,
        E_bar=e_bar,
        V0=v0,
        zero_shift=zero_shift,
        mirrored=isinstance(spec, Mirrored),
    )


def analyze(
    spec,
    consts: PhysConstants = DEFAULT_CONSTANTS,
    *,
    window=None,
    scan_points: int = 4096,
    orient: str = "auto",
    require_wkb: bool = False,
) -> WellAnalysis:
    """Locate the two wells and the barrier; derive the energy bookkeeping.

    Minima and the interior maximum are bracketed on a uniform scan of
    V' (``scan_points`` samples over ``window`` or a family default) and
    refined to better than 1e-12 relative.  The potential is then
    renormalized so v(x_L) = 0 with the deeper well on the left; set
    ``orient="keep"`` to preserve the user's axis (tilde_eps may then be
    negative).

    Args:
        spec: potential description.
        consts: hbar and mass.
        window: optional (lo, hi) scan range override.
        scan_points: uniform samples used for bracketing.
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
    base = spec.inner if isinstance(spec, Mirrored) else spec
    if isinstance(base, DoubleOscillator):
        # exact geometry; the kink maximum defeats a slope-based scan
        if isinstance(spec, Mirrored) and orient == "auto" and base.tilde_eps > 0.0:
            return _analyze_double_oscillator(base, consts, require_wkb)
        return _analyze_double_oscillator(spec, consts, require_wkb)

    if window is None:
        window = _default_window(spec, consts)
    stationary = _stationary_points(spec, consts, window, scan_points)
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
        if not float(evaluate_d2(spec, x, consts)) > 0.0:
            raise NonConvexMinimum(f"V'' <= 0 at detected minimum x = {x:.12g}")
    interior = [x for x in maxima if x_lo < x < x_hi]
    if len(interior) != 1:
        raise WellStructureError(
            f"expected one interior maximum between wells, found {len(interior)}"
        )
    x_m = interior[0]

    v_lo = float(evaluate(spec, x_lo, consts))
    v_hi = float(evaluate(spec, x_hi, consts))
    if v_lo > v_hi and orient == "auto":
        # "keep": with (nearly) equal floors, rounding can make the other
        # floor look lower from either side; mirror at most once.
        return analyze(
            mirror(spec),
            consts,
            window=(-window[1], -window[0]),
            scan_points=scan_points,
            orient="keep",
            require_wkb=require_wkb,
        )

    m = consts.mass
    hbar = consts.hbar
    omega_L = math.sqrt(float(evaluate_d2(spec, x_lo, consts)) / m)
    omega_R = math.sqrt(float(evaluate_d2(spec, x_hi, consts)) / m)
    tilde_eps = v_hi - v_lo
    eps = tilde_eps + hbar * (omega_R - omega_L) / 2.0
    e_bar = hbar * (omega_L + omega_R) / 4.0 + tilde_eps / 2.0
    v0 = float(evaluate(spec, x_m, consts)) - v_lo
    if require_wkb and v0 <= e_bar:
        raise DegenerateBarrier(
            f"barrier height {v0:g} does not exceed mean level {e_bar:g}"
        )
    return WellAnalysis(
        spec=spec,
        consts=consts,
        x_L=x_lo,
        x_R=x_hi,
        x_m=x_m,
        omega_L=omega_L,
        omega_R=omega_R,
        tilde_eps=tilde_eps,
        eps=eps,
        E_bar=e_bar,
        V0=v0,
        zero_shift=v_lo,
        mirrored=isinstance(spec, Mirrored),
    )
