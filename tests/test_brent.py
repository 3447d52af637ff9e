"""The Brent root finder against scipy.optimize.brentq, its reference,
and the Newton turning points against the Brent finder.

The port must take the same steps as scipy's C routine: every test of
it records the abscissae each solver evaluates and requires the same
sequence, not only the same root.
"""
import math

import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import brentq as scipy_brentq

from tunnelkit import (
    DEFAULT_CONSTANTS as C,
    BiasedQuartic,
    DoubleOscillator,
    Mirrored,
    Polynomial,
    analyze,
    turning_points,
)
from tunnelkit._brent import brentq, brentq_rows
from util import reference_turning_points, sextic_coeffs


def _both(f, a, b, **kwargs):
    """(root, abscissae) from the port and from scipy, or the exceptions raised."""
    out = []
    for solve in (brentq, scipy_brentq):
        xs = []

        def traced(x):
            xs.append(x)
            return f(x)

        try:
            root = solve(traced, a, b, **kwargs)
        except (ValueError, RuntimeError) as exc:
            root = (type(exc), str(exc))
        out.append((root, xs))
    return out


def _assert_same_steps(f, a, b, **kwargs):
    port, ref = _both(f, a, b, **kwargs)
    assert port[1] == ref[1]
    assert port[0] == ref[0]
    return port[0]


FAMILIES = st.one_of(
    # beta up to a third of the largest tilt, 8 alpha a^3 / 3^1.5, that
    # leaves two wells
    st.builds(
        lambda alpha, a, tilt: BiasedQuartic(alpha, a, tilt * alpha * a**3),
        st.floats(0.3, 40.0),
        st.floats(0.6, 2.0),
        st.floats(0.0, 0.5),
    ),
    st.builds(
        DoubleOscillator, st.floats(0.5, 2.0), st.floats(0.5, 2.0), st.floats(0.0, 0.5), st.floats(1.0, 12.0)
    ),
    st.builds(lambda s, t: Polynomial(tuple(sextic_coeffs(s, t))), st.floats(1.0, 400.0), st.floats(0.0, 1.0)),
)
# each family as given and reflected; the double oscillator's flanks end
# on its kink, x_m = 0.0
WELLS = st.one_of(FAMILIES, FAMILIES.map(Mirrored))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(spec=WELLS, frac=st.floats(0.02, 0.98))
def test_turning_point_flanks_take_scipys_steps(spec, frac):
    # The flanks and tolerances of actions.turning_points, at an energy
    # between the higher floor and the barrier top.
    a = analyze(spec, C)
    floor = max(0.0, a.tilde_eps)
    E = floor + frac * (a.V0 - floor)

    def shifted(x):
        return a.v(float(x)) - E

    for lo, hi in ((a.x_L, a.x_m), (a.x_m, a.x_R)):
        root = _assert_same_steps(shifted, lo, hi, xtol=1e-15, rtol=8.9e-16)
        assert isinstance(root, float)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(spec=WELLS, frac=st.floats(0.02, 0.98))
def test_turning_points_are_brentqs_roots_to_rounding(spec, frac):
    # actions.turning_points (Newton steps, then the crossing in floats)
    # against one scalar brentq per flank on the same flanks, the accuracy
    # reference.  Over 20000 draws of this strategy (40000 roots) the two
    # were at most 2140 ulps apart (99th percentile 50, median 1), the
    # most at a root next to x = 0, whose ulp is far finer than the
    # rounding of v, or where v is flat below the barrier top; and
    # |v(x) - E| of the Newton root exceeded brentq's by at most 146
    # quanta ulp(E + |zero_shift|), the rounding of v there (99th
    # percentile 24, median 0).  Hence K = 4096 ulps and a margin of 256
    # quanta.
    a = analyze(spec, C)
    floor = max(0.0, a.tilde_eps)
    E = floor + frac * (a.V0 - floor)
    quantum = math.ulp(E + abs(a.zero_shift))
    for x, ref in zip(turning_points(spec, C, E, a), reference_turning_points(a, E)):
        assert abs(x - ref) <= 4096 * math.ulp(ref)
        assert abs(a.v(x) - E) <= abs(a.v(ref) - E) + 256 * quantum


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(spec=WELLS, fracs=st.lists(st.floats(0.02, 0.98), min_size=1, max_size=25))
def test_rows_find_each_rows_scalar_root(spec, fracs):
    # Both flanks at every energy: each root is the one brentq finds for
    # its row with a float f.
    a = analyze(spec, C)
    floor = max(0.0, a.tilde_eps)
    energies = [floor + frac * (a.V0 - floor) for frac in fracs] * 2
    n = len(fracs)
    lo = [a.x_L] * n + [a.x_m] * n
    hi = [a.x_m] * n + [a.x_R] * n

    def shifted(x, row):
        return a.v(x) - energies[row]

    roots = brentq_rows(shifted, lo, hi, xtol=1e-15, rtol=8.9e-16)
    assert roots.tolist() == [
        brentq(lambda x: a.v(x) - e, lo[row], hi[row], xtol=1e-15, rtol=8.9e-16)
        for row, e in enumerate(energies)
    ]


@pytest.mark.parametrize("count", [1])
def test_rows_raise_brentqs_errors(count):
    with pytest.raises(ValueError, match="different signs"):
        brentq_rows(lambda x, row: x * x + 1.0, [-1.0] * count, [1.0] * count, 1e-15, 8.9e-16)
    with pytest.raises(RuntimeError, match="Failed to converge after 2 iterations"):
        brentq_rows(lambda x, row: x**3 - 2.0, [0.0] * count, [2.0] * count, 1e-15, 8.9e-16, maxiter=2)
    # NaN above x = 0.3 from an overflow times zero: the NaN check raises
    def overflow_nan(x, row):
        return x - 0.5 + (x - 0.3 + abs(x - 0.3)) * 1e308 * 1e308 * 0.0

    with pytest.raises(ValueError, match=r"^The function value at x=1\.0 is NaN; solver cannot continue\.$"):
        brentq_rows(overflow_nan, [0.0] * count, [1.0] * count, 1e-15, 8.9e-16)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    roots=st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=4),
    power=st.integers(1, 3),
    lo=st.floats(-4.0, 0.0),
    width=st.floats(1e-9, 8.0),
    tol=st.sampled_from([(1e-15, 8.9e-16), (2e-12, 8.9e-16), (1e-6, 1e-10)]),
)
def test_polynomials_take_scipys_steps(roots, power, lo, width, tol):
    # Products of (x - r)^power: simple and multiple roots, brackets with
    # any number of roots inside.  Brackets without a sign change take
    # the error path on both sides alike.
    def f(x):
        return math.prod((x - r) ** power for r in roots)

    _assert_same_steps(f, lo, lo + width, xtol=tol[0], rtol=tol[1])


@pytest.mark.parametrize("scale", [1e-150, 1e-300])
def test_an_underflowed_denominator_bisects_as_scipy_does(scale):
    # f is so small that the inverse-quadratic denominator
    # dblk * dpre * (fblk - fpre) underflows to 0: scipy's C divides into
    # inf or NaN, fails the short-step test and bisects
    def f(x):
        d = x - 0.3
        return scale * (d * d * d + 0.5 * d)

    assert _assert_same_steps(f, 0.0, 1.0, xtol=1e-15, rtol=8.9e-16) == 0.3


def test_same_sign_ends_raise_value_error():
    port, ref = _both(lambda x: x * x + 1.0, -1.0, 1.0, xtol=1e-15, rtol=8.9e-16)
    assert port == ref
    assert port[0] == (ValueError, "f(a) and f(b) must have different signs")


@pytest.mark.parametrize("a,b", [(0.0, 1.0), (-1.0, 0.0), (-0.0, 2.0)])
def test_root_at_an_end_is_returned_after_two_calls(a, b):
    port, ref = _both(lambda x: x, a, b, xtol=1e-15, rtol=8.9e-16)
    assert port[1] == ref[1] == [a, b]
    assert port[0] == ref[0] == 0.0


def test_nan_value_raises_value_error():
    def f(x):
        return math.nan if x > 0.3 else x - 0.5

    port, ref = _both(f, 0.0, 1.0, xtol=1e-15, rtol=8.9e-16)
    assert port == ref
    assert port[0] == (ValueError, "The function value at x=1.0 is NaN; solver cannot continue.")


def test_maxiter_raises_runtime_error():
    port, ref = _both(lambda x: x**3 - 2.0, 0.0, 2.0, xtol=1e-15, rtol=8.9e-16, maxiter=3)
    assert port == ref
    assert port[0] == (RuntimeError, "Failed to converge after 3 iterations.")
