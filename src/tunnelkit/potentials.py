"""Double-well potential families: evaluation, derivatives, well analysis.

This module is the only one that knows which families exist:
``FAMILIES`` maps each config name to its class.  Each family
(``BiasedQuartic``, ``DoubleOscillator``, ``Polynomial`` and the
reflection wrapper ``Mirrored``) is a frozen dataclass with three
members, and every caller goes through them:

    family                   the config name of the family
    kink                     true when V' jumps at the barrier top (only
                             the double oscillator), which calls for exact
                             geometry and a grid node on x = 0
    derivative(x, k, consts) the k-th derivative of V at x, k = 0..3, for
                             a float or a float ndarray x, returned as
                             the same kind; each element of an array
                             gets the bits that float gets (so squares
                             are y * y: y ** 2 on a float goes through
                             pow, which can miss by an ulp)

``Mirrored`` delegates each of them to its inner family, with x -> -x.
The families that ``analyze`` scans for stationary points (all but the
double oscillator) have a fourth member, ``scan_window(consts)``, the
(lo, hi) range of that scan.

Everything downstream (actions, splitting formulas, the eigensolver)
works in the convention that the potential is shifted so the deeper well
floor sits at V = 0 and lies to the LEFT of the barrier.  ``analyze``
locates the wells and the barrier of the bare family under any
``Mirrored`` wrappers, renormalizes, and reflects that geometry at most
once: onto the axis of the spec given or, by default, onto the axis with
the deeper well on the left.
"""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.polynomial import polynomial as npoly

from ._brent import brentq, classified
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


def _check_square(owner, name, value):
    # value ** 2 on a float raises OverflowError where y * y gives inf
    try:
        value**2
    except OverflowError:
        raise ConfigError(f"{owner} {name} = {value:g} overflows when squared") from None


@dataclass(frozen=True)
class PhysConstants:
    """Problem-wide constants; natural units hbar = mass = 1 by default."""

    hbar: float = 1.0
    mass: float = 1.0

    def __post_init__(self):
        if not (self.hbar > 0.0 and self.mass > 0.0):
            raise ConfigError("PhysConstants requires hbar > 0 and mass > 0")
        _check_square("PhysConstants", "hbar", self.hbar)


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
        _check_square("BiasedQuartic", "a", self.a)
        if not math.isfinite(self.beta):
            raise ConfigError("BiasedQuartic beta must be finite")

    def derivative(self, x, k, consts):
        if k == 0:
            w = x * x - self.a**2
            return self.alpha * (w * w) + self.beta * (x + self.a)
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
        _check_square("DoubleOscillator", "omega_L", self.omega_L)
        _check_square("DoubleOscillator", "omega_R", self.omega_R)
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
            out = 0.5 * m * omega**2 * ((x - x0) * (x - x0))
            return out if left else self.tilde_eps + out
        if k == 1:
            return m * omega**2 * (x - x0)
        return m * omega**2 if k == 2 else 0.0


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


def _not_a_spec(obj):
    return TypeError(f"not a potential spec: {type(obj).__name__}")


def mirror(spec):
    """Reflect a spec through the origin (unwraps an existing Mirrored)."""
    return spec.inner if isinstance(spec, Mirrored) else Mirrored(spec)


def _unwrap(spec):
    # (family, odd): the bare family under the Mirrored wrappers of spec,
    # and whether there is an odd number of them, i.e. whether spec is
    # the family on the reflected axis
    odd = False
    while isinstance(spec, Mirrored):
        spec, odd = spec.inner, not odd
    return spec, odd


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


@dataclass(frozen=True)
class WellAnalysis:
    """Well/barrier geometry and the derived energy bookkeeping.

    Positions refer to the axis of ``spec`` (which is the mirrored spec
    when ``mirrored`` is set).  ``zero_shift`` is the constant already
    subtracted so that v(x_L) = 0; the accessor ``v`` evaluates the
    normalized potential.  Two properties follow from tilde_eps, so a
    dialed bias carries them along:

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


def _stationary_points(spec, consts, window, n):
    """Stationary points of V in ``window``, from a uniform scan of V'.

    V' is sampled at ``n`` evenly spaced points.  A sample where V' is
    exactly zero is a stationary point itself, classified by the sign of
    V'' there.  Each pair of neighbouring samples where V' changes sign
    brackets one root, refined by Brent iteration well past the 1e-12
    relative target.  Both kinds of sample are found with whole-array
    tests; only the few brackets run Python code.

    Returns a sorted list of (x, kind) with kind "min" for an upward
    crossing of V' and "max" for a downward one.
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
    with np.errstate(over="ignore"):  # an overflowed lo * hi keeps its sign
        brackets = np.flatnonzero((lo != 0.0) & (lo * hi < 0.0))
    try:
        for i in brackets:
            root = brentq(slope, xs[i], xs[i + 1], xtol=1e-15, rtol=8.9e-16)
            found.append((float(root), "min" if lo[i] < 0.0 else "max"))
    except (ValueError, RuntimeError) as exc:
        raise classified(exc) from None
    return sorted(found)


def analyze(
    spec,
    consts: PhysConstants = DEFAULT_CONSTANTS,
    *,
    orient: str = "auto",
    require_wkb: bool = False,
) -> WellAnalysis:
    """Locate the two wells and the barrier; derive the energy bookkeeping.

    The geometry is that of the bare family under any ``Mirrored``
    wrappers, on its own axis: in closed form for the double oscillator;
    otherwise the minima and the interior maximum are bracketed on a
    uniform scan of V' (4096 samples over the family's ``scan_window``)
    and refined to better than 1e-12 relative.  The geometry is then
    reflected at most once, onto the axis with the deeper well on the
    left (the axis of ``spec`` when the floors are equal), and the
    potential renormalized so v(x_L) = 0.  Set ``orient="keep"`` to stay
    on the axis of ``spec`` (tilde_eps may then be negative).

    ``spec`` of the result is the bare family, or one ``Mirrored`` of it
    when the geometry is reflected: nested mirrors collapse, for every
    family.

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
    analysis = _locate(spec, consts, orient)
    if require_wkb and analysis.V0 <= analysis.E_bar:
        raise DegenerateBarrier(
            f"barrier height {analysis.V0:g} does not exceed mean level "
            f"{analysis.E_bar:g}"
        )
    return analysis


def _locate(spec, consts, orient):
    # the geometry of ``analyze``, without its argument and WKB checks: the
    # bare family's wells (lo, hi) and barrier, reflected at most once
    family, odd = _unwrap(spec)
    try:
        kink = family.kink
    except AttributeError:
        raise _not_a_spec(spec) from None
    if kink:
        # exact geometry; the kink maximum defeats a slope-based scan
        x_lo, x_hi, x_m = family.x_left(consts), family.x_right(consts), 0.0
        omega_lo, omega_hi = family.omega_L, family.omega_R
        v_lo, v_hi, v_m = 0.0, family.tilde_eps, family.V0
    else:
        x_lo, x_hi, x_m = _wells_and_barrier(family, consts)
        omega_lo, omega_hi = (
            math.sqrt(evaluate_d2(family, x, consts) / consts.mass) for x in (x_lo, x_hi)
        )
        v_lo, v_hi, v_m = (evaluate(family, x, consts) for x in (x_lo, x_hi, x_m))

    if orient == "keep":
        flip = odd
    else:
        # the deeper well on the left; with equal floors, the axis of spec
        flip = v_lo >= v_hi if odd else v_lo > v_hi
    spec = Mirrored(family) if flip else family
    if flip:
        x_lo, x_hi, x_m = 0.0 - x_hi, 0.0 - x_lo, 0.0 - x_m
        omega_lo, omega_hi, v_lo, v_hi = omega_hi, omega_lo, v_hi, v_lo
    return WellAnalysis(
        spec=spec,
        consts=consts,
        x_L=x_lo,
        x_R=x_hi,
        x_m=x_m,
        omega_L=omega_lo,
        omega_R=omega_hi,
        tilde_eps=v_hi - v_lo,
        V0=v_m - v_lo,
        zero_shift=v_lo,
        mirrored=flip,
    )


def _wells_and_barrier(family, consts):
    # (x_lo, x_hi, x_m) of a scanned family on its own axis
    window = family.scan_window(consts)
    stationary = _stationary_points(family, consts, window, _SCAN_POINTS)
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
        if not evaluate_d2(family, x, consts) > 0.0:
            raise NonConvexMinimum(f"V'' <= 0 at detected minimum x = {x:.12g}")
    interior = [x for x in maxima if x_lo < x < x_hi]
    if len(interior) != 1:
        raise WellStructureError(
            f"expected one interior maximum between wells, found {len(interior)}"
        )
    return x_lo, x_hi, interior[0]
