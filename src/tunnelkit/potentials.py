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
``evaluate(spec, x, consts)`` is the one public evaluator, of V itself;
V' and V'' are read through ``derivative`` alone.  No family keeps state
outside its own instance.
The families whose V' is a polynomial (all but the double oscillator)
have a fourth member, ``slope_roots()``: the (lo, hi) scan window that
holds the stationary points ``analyze`` looks at, and a list of the
sorted real roots of V' that matter there.  It raises ConfigError when V
or a derivative leaves the float range on the window.

Everything downstream (actions, splitting formulas, the eigensolver)
works in the convention that the potential is shifted so the deeper well
floor sits at V = 0 and lies to the LEFT of the barrier.  ``analyze``
locates the wells and the barrier of the bare family under any
``Mirrored`` wrappers, renormalizes, and reflects that geometry at most
once: onto the axis of the spec given or, by default, onto the axis with
the deeper well on the left.  The roots of v(x) = E on a flank of a well,
for the action kernel and the oracle's walls, come from ``_flank_roots``.
"""

import math
import sys
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    ConfigError,
    DegenerateBarrier,
    FewerThanTwoMinima,
    NonConvexMinimum,
    NumericsError,
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
        if not (0.0 < self.hbar < math.inf and 0.0 < self.mass < math.inf):
            raise ConfigError("PhysConstants requires hbar > 0 and mass > 0, both finite")
        _check_square("PhysConstants", "hbar", self.hbar)


DEFAULT_CONSTANTS = PhysConstants()


def _finite_at(spec, xs):
    # whether V and its first three derivatives of spec are finite at each x of xs
    return all(math.isfinite(spec.derivative(x, k, None)) for x in xs for k in range(4))


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
        # V, its derivatives and their partial products are largest in size
        # at the ends of the scan window
        if not _finite_at(self, (-2.0 * self.a, 2.0 * self.a)):
            raise ConfigError(
                f"BiasedQuartic a = {self.a:g} takes V past the float range on its "
                f"scan window [-2a, 2a], with alpha = {self.alpha:g}"
            )

    def derivative(self, x, k, consts):
        if k == 0:
            w = x * x - self.a**2
            return self.alpha * (w * w) + self.beta * (x + self.a)
        if k == 1:
            return 4.0 * self.alpha * x * (x * x - self.a**2) + self.beta
        if k == 2:
            return 4.0 * self.alpha * (3.0 * x * x - self.a**2)
        return 24.0 * self.alpha * x

    def slope_roots(self):
        slope = (self.beta, -4.0 * self.alpha * self.a**2, 0.0, 4.0 * self.alpha)
        return (-2.0 * self.a, 2.0 * self.a), _real_roots(slope, 2.0 * self.a)


@dataclass(frozen=True)
class DoubleOscillator:
    """Two parabolic branches meeting at x = 0.

        V(x) = (m/2) omega_L^2 (x - x_L)^2               for x <= 0
        V(x) = tilde_eps + (m/2) omega_R^2 (x - x_R)^2   for x > 0

    x_L < 0 < x_R are fixed by requiring both branches to reach the
    barrier value V0 at x = 0.  The slope is discontinuous there:
    ``derivative`` takes the left branch at every x <= 0, -0.0 included,
    and keeps no state beyond the spec.  Reports carry a kink caveat.
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
        for name in ("omega_L", "omega_R"):
            omega = getattr(self, name)
            _check_square("DoubleOscillator", name, omega)
            if omega * omega < sys.float_info.min:
                raise ConfigError(f"DoubleOscillator {name} = {omega:g} underflows when squared")
        if not (self.V0 > self.tilde_eps >= 0.0):
            raise ConfigError("DoubleOscillator requires V0 > tilde_eps >= 0")

    def x_left(self, consts: PhysConstants = DEFAULT_CONSTANTS) -> float:
        return -math.sqrt(2.0 * self.V0 / consts.mass) / self.omega_L

    def x_right(self, consts: PhysConstants = DEFAULT_CONSTANTS) -> float:
        return math.sqrt(2.0 * (self.V0 - self.tilde_eps) / consts.mass) / self.omega_R

    def derivative(self, x, k, consts):
        if isinstance(x, float):
            return self._branch(x, k, consts, x <= 0.0)
        return np.where(x <= 0.0, self._branch(x, k, consts, True), self._branch(x, k, consts, False))

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
        # coefficients of the k-th derivative, k = 0..3, exactly as numpy's
        # polyder(coeffs, k) gives them: j * c[j], row after row, with
        # trailing zeros kept, and past the constant term (coeffs[0] * 0,),
        # which keeps the sign of zero; one past the float range is inf,
        # which slope_roots refuses
        rows = [self.coeffs]
        for _ in range(3):
            row = rows[-1]
            if len(row) > 1:
                rows.append(tuple(j * row[j] for j in range(1, len(row))))
            else:
                rows.append((self.coeffs[0] * 0,))
        return tuple(rows)

    def derivative(self, x, k, consts):
        # Horner in numpy's polyval operation order, so floats and arrays
        # get its bits
        coeffs = self._derivative_coeffs[k]
        out = coeffs[-1] + x * 0.0
        for c in coeffs[-2::-1]:
            out = c + out * x
        return out

    def slope_roots(self):
        d1 = self._derivative_coeffs[1]
        if self.window is not None:
            lo, hi = self.window
        else:
            # the roots come from a matrix of the coefficients of V' over
            # its leading one, which must stay in the float range
            lead = next(c for c in reversed(d1) if c)
            if not all(math.isfinite(c / lead) for c in d1):
                raise self._out_of_range("put a ratio of the coefficients of V'")
            roots = _real_roots(d1)
            if not roots:
                raise FewerThanTwoMinima("polynomial has no real stationary points")
            lo, hi = roots[0], roots[-1]
            pad = 0.25 * (hi - lo) + 1e-3 * (1.0 + abs(hi) + abs(lo))
            lo, hi = lo - pad, hi + pad
        r = max(1.0, abs(lo), abs(hi))
        if not (math.isfinite(hi - lo) and self._finite_on(r)):
            raise self._out_of_range(
                f"take V or a derivative on the scan window [{lo:g}, {hi:g}]"
            )
        if self.window is not None:
            roots = _real_roots(d1, r)
        return (lo, hi), roots

    def _finite_on(self, r):
        # whether V and each derivative stay in the float range on |x| <= r,
        # r >= 1: each partial sum and product of Horner's rule on a row of
        # _derivative_coeffs is at most in size what Horner's rule on the
        # row's sizes gives at x = r (|j c| = j |c|, so these are the rows of
        # the same table for |coeffs|)
        for row in self._derivative_coeffs:
            out = abs(row[-1])
            for c in row[-2::-1]:
                out = abs(c) + out * r
            if not math.isfinite(out):
                return False
        return True

    def _out_of_range(self, what):
        coeffs = ", ".join(f"{c:g}" for c in self.coeffs)
        return ConfigError(f"Polynomial coeffs [{coeffs}] {what} past the float range")


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


def _flipped(spec, analysis) -> bool:
    # whether analysis runs on the mirror of the axis of spec: each
    # Mirrored wrapper, and so auto-orientation, reflects the axis once
    return _unwrap(spec)[1] != analysis.mirrored


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


@dataclass(frozen=True)
class WellAnalysis:
    """Well/barrier geometry and the derived energy bookkeeping.

    Positions refer to the axis of ``spec``: the bare family, or one
    ``Mirrored`` of it, which ``mirrored`` reads.  ``zero_shift`` is the
    constant already subtracted so that v(x_L) = 0; the accessor ``v``
    evaluates the normalized potential.  Two properties follow from
    tilde_eps, so a dialed bias carries them along:

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

    @property
    def mirrored(self):
        return isinstance(self.spec, Mirrored)

    @property
    def eps(self):
        return self.tilde_eps + self.consts.hbar * (self.omega_R - self.omega_L) / 2.0

    @property
    def E_bar(self):
        return self.consts.hbar * (self.omega_L + self.omega_R) / 4.0 + self.tilde_eps / 2.0

    def v(self, x):
        return evaluate(self.spec, x, self.consts) - self.zero_shift


# Newton iterates a root may take, and its step tolerance relative to |x|.
_MAX_ITERATES = 100
_EPS = sys.float_info.epsilon
_STEP_TOL = 4.0 * _EPS
# the least positive float: the crossing's bracket never has width 0
_TINY = sys.float_info.min * _EPS
# Fewest flank roots solved in lockstep on arrays; fewer run one at a
# time on Python floats.  Near E_bar of 6-spacing wells the two broke even
# at 36 to 48 roots: the double oscillator, the sextic and the quartic
# (x86-64, one core, Python 3.11, numpy 2.4).
_ARRAY_ROOTS = 40


def _flank_roots(analysis, e, lo, hi, start, up):
    """Roots of v(x) = e[i] in [lo[i], hi[i]] on the curve of ``analysis``,
    one per entry of the equal-length sequences, as an array.

    ``up[i]`` tells that v - e[i] rises with x through the root.  Each
    root takes safeguarded Newton steps (``_newton``) from start[i], with
    v' from the spec's ``derivative``, and ends next to a sign change of
    v - e[i] in floats (``_crossing``), the one those steps reach.  Fewer
    than _ARRAY_ROOTS roots run one at a time on Python floats, more in
    lockstep on arrays (``_newton_rows``, ``_crossing_rows``).  Both paths
    take the same steps in the same order, and each family's
    ``derivative`` gives arrays the bits it gives floats, so each root is
    bit for bit what a call for it alone finds.
    """
    consts, shift, curve = analysis.consts, analysis.zero_shift, analysis.spec.derivative
    v, dv = (lambda x, e: curve(x, 0, consts) - shift - e), (lambda x: curve(x, 1, consts))
    if len(e) < _ARRAY_ROOTS:
        return np.array([
            _crossing(v, level, a, b, _newton(v, dv, level, a, b, x, rises), rises)
            for level, a, b, x, rises in zip(e, lo, hi, start, up)
        ])
    e, lo, hi, start, up = (np.array(a) for a in (e, lo, hi, start, up))
    with np.errstate(all="ignore"):
        return _crossing_rows(v, e, lo, hi, _newton_rows(v, dv, e, lo, hi, start, up), up)


def _nan_error(x):
    return NumericsError(f"the function is NaN at x = {x!r}: its root cannot be found")


def _no_convergence(e):
    return NumericsError(
        f"the root of v(x) = E at E = {e:g} did not converge in {_MAX_ITERATES} Newton iterates"
    )


def _newton(v, dv, e, lo, hi, x, up):
    """Safeguarded Newton steps on f(x) = v(x, e), with derivative dv(x),
    from x toward a root in [lo, hi], on Python floats.

    ``up`` tells that f rises through the root.  Every iterate narrows
    [lo, hi] to a bracket of the root; a start or a step that is not
    strictly inside it is replaced by its midpoint.  Ends on a step of at
    most _STEP_TOL |x| (taking it), on f(x) exactly 0, or on a bracket
    with no midpoint inside.  A NaN value, or _MAX_ITERATES iterates
    without an end, is a NumericsError.
    """
    if not lo < x < hi:
        x = lo + 0.5 * (hi - lo)
    for _ in range(_MAX_ITERATES):
        f = v(x, e)
        if f == 0.0:
            return x
        if f != f:
            raise _nan_error(x)
        if (f > 0.0) == up:
            hi = x
        else:
            lo = x
        slope = dv(x)
        # f / 0 is inf or NaN on arrays, whose step the bracket test
        # sends to the midpoint; so does this one
        step = f / slope if slope else math.inf
        if abs(step) <= _STEP_TOL * abs(x):
            return min(max(x - step, lo), hi)
        new = x - step
        if not lo < new < hi:
            new = lo + 0.5 * (hi - lo)
            if not lo < new < hi:
                return x
        x = new
    raise _no_convergence(e)


def _crossing(v, e, lo, hi, x, up):
    """A crossing of f(x) = v(x, e) through 0 in [lo, hi], near x, on
    Python floats: of two adjacent floats where f changes sign, the one
    where f < 0.

    ``up`` tells that f rises through the crossing.  A bracket of
    half-width eps |x| / 2 (about an ulp) around x, widened 4-fold until
    its ends lie on either side, is bisected down to two adjacent floats.
    The rounding of f can change its sign more than once near a root;
    the bisection then ends next to one of those sign changes, and x
    picks which.  A NaN value is a NumericsError.
    """
    w = max(0.5 * _EPS * abs(x), _TINY)
    while True:
        a, b = max(x - w, lo), min(x + w, hi)
        for p in (a, b):
            f = v(p, e)
            if f != f:
                raise _nan_error(p)
            if (f >= 0.0) == up:
                hi = p
            else:
                lo = p
        if a <= lo and hi <= b:
            break
        w *= 4.0
    while True:
        mid = lo + 0.5 * (hi - lo)
        if not lo < mid < hi:
            return lo if up else hi
        f = v(mid, e)
        if f != f:
            raise _nan_error(mid)
        if (f >= 0.0) == up:
            hi = mid
        else:
            lo = mid


def _newton_rows(v, dv, e, lo, hi, x, up):
    # _newton on arrays: each root takes _newton's steps in _newton's
    # order, the open roots in lockstep; a settled root leaves the arrays
    rows = np.arange(x.size)
    out = np.empty(x.size)
    x = np.where((lo < x) & (x < hi), x, lo + 0.5 * (hi - lo))
    for _ in range(_MAX_ITERATES):
        f = v(x, e)
        if np.isnan(f).any():
            raise _nan_error(float(x[np.isnan(f)][0]))
        side = (f > 0.0) == up
        hi, lo = np.where(side, x, hi), np.where(side, lo, x)
        step = f / dv(x)
        newton = x - step
        mid = lo + 0.5 * (hi - lo)
        new = np.where((lo < newton) & (newton < hi), newton, mid)
        converged = np.abs(step) <= _STEP_TOL * np.abs(x)
        # a zero value, or a bracket with no midpoint inside, ends on x
        stay = (f == 0.0) | ~(converged | ((lo < new) & (new < hi)))
        done = stay | converged
        if done.any():
            root = np.where(stay, x, np.minimum(np.maximum(newton, lo), hi))
            out[rows[done]] = root[done]
            if done.all():
                return out
            keep = ~done
            new, lo, hi, e, up, rows = (a[keep] for a in (new, lo, hi, e, up, rows))
        x = new
    raise _no_convergence(float(e[0]))


def _crossing_rows(v, e, lo, hi, x, up):
    # _crossing on arrays: each root takes _crossing's steps in its order,
    # all roots in lockstep; a settled root's lanes are sampled on but not
    # read
    w = np.maximum(0.5 * _EPS * np.abs(x), _TINY)
    wide = np.ones(x.size, dtype=bool)
    while wide.any():
        a, b = np.maximum(x - w, lo), np.minimum(x + w, hi)
        ends, open_ends = np.concatenate([a, b]), np.tile(wide, 2)
        f = v(ends, np.concatenate([e, e]))
        if np.isnan(f[open_ends]).any():
            raise _nan_error(float(ends[open_ends & np.isnan(f)][0]))
        for p, fp in ((a, f[:x.size]), (b, f[x.size:])):
            side = (fp >= 0.0) == up
            hi, lo = np.where(wide & side, p, hi), np.where(wide & ~side, p, lo)
        wide &= ~((a <= lo) & (hi <= b))
        w = np.where(wide, w * 4.0, w)
    while True:
        mid = lo + 0.5 * (hi - lo)
        inside = (lo < mid) & (mid < hi)
        if not inside.any():
            return np.where(up, lo, hi)
        f = v(mid, e)
        if np.isnan(f[inside]).any():
            raise _nan_error(float(mid[inside & np.isnan(f)][0]))
        side = (f >= 0.0) == up
        hi, lo = np.where(inside & side, mid, hi), np.where(inside & ~side, mid, lo)


def _real_roots(coeffs, r=None):
    """The real roots, sorted, of the polynomial with ascending coefficients
    ``coeffs``, as a list: the eigenvalues of its companion matrix with an
    imaginary part under 1e-9 (1 + |root|).  Every coefficient must be
    finite.

    Given r, each leading term under eps times the largest term on
    |x| <= r is dropped first: it moves the polynomial there by less than
    its rounding, and the roots it adds lie far outside, where they would
    cost the roots inside their accuracy.  The matrix holds the
    coefficients over the leading one; where such a ratio would overflow,
    the roots are taken in y = x / 2**k instead, with the least k that
    keeps every ratio under 2**1000.

    The matrix is built here, unrotated, as numpy's polycompanion builds
    it: ones below the diagonal and 0 - c[i] / c[n] down the last column.
    Its eigenvalues come from one np.linalg.eigvals call and are sorted as
    numpy's polyroots sorts them.  The real ones are picked on Python
    floats; roots in y go back to x through np.ldexp, which overflows to
    inf where math.ldexp would raise.
    """
    logs = [math.log2(abs(c)) if c else -math.inf for c in coeffs]
    n = max(i for i, size in enumerate(logs) if size > -math.inf)
    if r is not None:
        sizes = [size + i * math.log2(r) for i, size in enumerate(logs)]
        while sizes[n] <= max(sizes) + math.log2(_EPS):
            n -= 1
    k = max([0] + [
        math.ceil((logs[i] - logs[n] - 1000) / (n - i)) for i in range(n) if coeffs[i]
    ])
    scaled = [math.ldexp(c, k * (i - n)) for i, c in enumerate(coeffs[:n + 1])]
    if n < 2:
        roots = [-scaled[0] / scaled[1]] if n else []
    else:
        companion = np.eye(n, k=-1)
        companion[:, -1] = [0.0 - c / scaled[n] for c in scaled[:n]]
        roots = np.linalg.eigvals(companion)
        roots.sort()
        roots = roots.tolist()
    real = [z.real for z in roots if abs(z.imag) <= 1e-9 * (1.0 + abs(z))]
    return np.ldexp(real, k).tolist() if k else real


def _stationary_points(spec, consts, window, roots):
    """Stationary points of V in ``window``, from ``roots``, the sorted
    real roots of V' as floats.

    Each distinct root in the window is bracketed by the midpoints to its
    neighbours there, and by the window's ends past the first and the
    last.  A root where V' keeps one sign across its bracket is an
    inflection, and is dropped.  One where V' is exactly 0 is kept as it
    is; every other one moves to the crossing of V' in floats on its
    bracket, onto the float of the crossing's pair where |V'| is the
    smaller (the one where V' < 0 on a tie).  V' is sampled at the
    brackets' ends and at the roots on floats, through the spec's
    ``derivative``.  V' that underflows to 0 at both ends of a bracket
    raises FewerThanTwoMinima: the wells on either side of that root are
    below the resolution of floats.

    Returns a sorted list of (x, kind) with kind "min" where V' rises
    through 0 and "max" where it falls.
    """
    lo, hi = window
    x = sorted({r for r in roots if lo <= r <= hi})
    ends = [lo] + [a + 0.5 * (b - a) for a, b in zip(x, x[1:])] + [hi]
    d1 = [spec.derivative(p, 1, consts) for p in ends + x]
    n = len(x)

    def slope(p, e):
        return spec.derivative(p, 1, consts)

    found = []
    for j, root in enumerate(x):
        left, right = d1[j], d1[j + 1]
        if left == right == 0.0:
            raise FewerThanTwoMinima(
                f"V' underflows to 0 on both sides of its root x = {root:.12g}: "
                "fewer than two wells in floats"
            )
        rising, falling = left < 0.0 or right > 0.0, left > 0.0 or right < 0.0
        if rising == falling:
            continue
        if d1[n + 1 + j]:
            root = _crossing(slope, 0.0, ends[j], ends[j + 1], root, rising)
            past = math.nextafter(root, math.inf if rising else -math.inf)
            if abs(slope(past, 0.0)) < abs(slope(root, 0.0)):
                root = past
        found.append((root, "min" if rising else "max"))
    return found


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
    otherwise the minima and the interior maximum are the real roots of
    V' in the family's scan window (``slope_roots``), from the eigenvalues
    of its companion matrix, each finished on a float next to V''s sign
    change in floats.  The geometry is then
    reflected at most once, onto the axis with the deeper well on the
    left (with equal floors, the softer well, so that eps >= 0, and with
    equal frequencies too, the axis of ``spec``), and the potential
    renormalized so v(x_L) = 0.  Set ``orient="keep"`` to stay on the
    axis of ``spec`` (tilde_eps may then be negative).

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
    # the bare family's wells (lo, hi) and barrier, reflected at most once
    family, odd = _unwrap(spec)
    try:
        kink = family.kink
    except AttributeError:
        raise _not_a_spec(spec) from None
    if kink:
        # exact geometry; V' is no polynomial, and jumps at the kink maximum
        x_lo, x_hi, x_m = family.x_left(consts), family.x_right(consts), 0.0
        for name, x in (("omega_L", x_lo), ("omega_R", x_hi)):
            omega = getattr(family, name)
            if not math.isfinite(x * x):
                raise ConfigError(
                    f"DoubleOscillator {name} = {omega:g} puts its well "
                    f"at x = {x:g}, whose square overflows"
                )
            # an infinite curvature m omega^2 makes V NaN at the well itself
            if not math.isfinite(consts.mass * omega**2):
                raise ConfigError(
                    f"DoubleOscillator {name} = {omega:g} and mass {consts.mass:g} "
                    f"make mass * {name}^2 overflow"
                )
        omega_lo, omega_hi = family.omega_L, family.omega_R
        v_lo, v_hi, v_m = 0.0, family.tilde_eps, family.V0
    else:
        x_lo, x_hi, x_m, d2, (v_lo, v_hi, v_m) = _wells_and_barrier(family, consts)
        omega_lo, omega_hi = (math.sqrt(d / consts.mass) for d in d2)

    if orient == "keep":
        flip = odd
    else:
        # the deeper well on the left; with equal floors the softer one
        # (eps >= 0), and with equal frequencies too, the axis of spec
        flip = (v_lo, omega_lo, odd) > (v_hi, omega_hi, not odd)
    spec = Mirrored(family) if flip else family
    if flip:
        x_lo, x_hi, x_m = 0.0 - x_hi, 0.0 - x_lo, 0.0 - x_m
        omega_lo, omega_hi, v_lo, v_hi = omega_hi, omega_lo, v_hi, v_lo
    analysis = WellAnalysis(
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
    )
    if require_wkb and analysis.V0 <= analysis.E_bar:
        raise DegenerateBarrier(
            f"barrier height {analysis.V0:g} does not exceed mean level "
            f"{analysis.E_bar:g}"
        )
    return analysis


def _wells_and_barrier(family, consts):
    # (x_lo, x_hi, x_m, V'' at the wells, V at the wells and the barrier)
    # of a family with polynomial V' on its own axis
    window, roots = family.slope_roots()
    stationary = _stationary_points(family, consts, window, roots)
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
    d2 = [family.derivative(x, 2, consts) for x in minima]
    for x, curvature in zip(minima, d2):
        if not curvature > 0.0:
            raise NonConvexMinimum(f"V'' <= 0 at detected minimum x = {x:.12g}")
    interior = [x for x in maxima if x_lo < x < x_hi]
    if len(interior) != 1:
        raise WellStructureError(
            f"expected one interior maximum between wells, found {len(interior)}"
        )
    # wells whose barrier is below the rounding of V are no two wells
    v_lo, v_hi, v_m = (evaluate(family, x, consts) for x in (x_lo, x_hi, interior[0]))
    if not (v_m > v_lo and v_m > v_hi):
        raise FewerThanTwoMinima(
            f"found 2 local minima in window {window}, but V at the maximum between "
            f"them, x = {interior[0]:.12g}, does not exceed both floors"
        )
    return x_lo, x_hi, interior[0], d2, (v_lo, v_hi, v_m)
