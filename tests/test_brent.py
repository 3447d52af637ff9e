"""The Brent root finder against scipy.optimize.brentq, its reference.

The port must take the same steps as scipy's C routine: every test
records the abscissae each solver evaluates and requires the same
sequence, not only the same root.
"""
import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy.optimize import brentq as scipy_brentq

from tunnelkit import DEFAULT_CONSTANTS as C, BiasedQuartic, DoubleOscillator, Mirrored, Polynomial, analyze
from tunnelkit._brent import _LOCKSTEP_ROOTS, brentq, brentq_rows
from util import sextic_coeffs


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


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(spec=WELLS, data=st.data())
def test_rows_find_each_rows_scalar_root(spec, data):
    # Both flanks at every energy, with fewer roots than _LOCKSTEP_ROOTS
    # (the scalar loop) and then with more (lockstep, f taking arrays):
    # each root is the one brentq finds for its row with a float f.
    a = analyze(spec, C)
    floor = max(0.0, a.tilde_eps)
    for min_size, max_size in [(1, (_LOCKSTEP_ROOTS - 1) // 2), ((_LOCKSTEP_ROOTS + 1) // 2, _LOCKSTEP_ROOTS)]:
        fracs = data.draw(st.lists(st.floats(0.02, 0.98), min_size=min_size, max_size=max_size))
        energies = np.array([floor + frac * (a.V0 - floor) for frac in fracs] * 2)
        n = len(fracs)
        lo = [a.x_L] * n + [a.x_m] * n
        hi = [a.x_m] * n + [a.x_R] * n

        def shifted(x, rows):
            return a.v(x) - energies[rows]

        roots = brentq_rows(shifted, lo, hi, xtol=1e-15, rtol=8.9e-16)
        assert roots.tolist() == [
            brentq(lambda x: a.v(x) - e, lo[row], hi[row], xtol=1e-15, rtol=8.9e-16)
            for row, e in enumerate(energies.tolist())
        ]


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    rows=st.lists(
        st.tuples(
            st.floats(-3.0, 3.0),
            st.sampled_from(["lo", "hi", "both", "open"]),
            st.floats(0.01, 4.0),
            # a settled row's far end may be huge: its lane, run on unread,
            # then overflows
            st.one_of(st.floats(0.01, 4.0), st.just(1.7e308)),
        ),
        min_size=_LOCKSTEP_ROOTS,
        max_size=2 * _LOCKSTEP_ROOTS,
    )
)
def test_rows_settled_at_an_end_run_on_unread(rows):
    # Rows whose f is exactly 0 at a bracket end settle before the first
    # iterate, among open rows: each root is still the one brentq finds
    # for its row alone, and the lanes run on without a warning.
    kinds = {kind for _, kind, _, _ in rows}
    assume("open" in kinds and len(kinds) > 1)
    r = [root for root, _, _, _ in rows]
    lo, hi = zip(*(
        {
            "lo": (root, root + far),
            "hi": (root - far, root),
            "both": (root, root),
            "open": (root - width, root + 0.5 * width),
        }[kind]
        for root, kind, width, far in rows
    ))

    def cubic(x, r):
        d = x - r
        return d * d * d + d

    r_rows = np.array(r)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        roots = brentq_rows(lambda x, rows: cubic(x, r_rows[rows]), lo, hi, xtol=1e-15, rtol=8.9e-16)
    assert roots.tolist() == [
        brentq(lambda x: cubic(x, r[row]), lo[row], hi[row], xtol=1e-15, rtol=8.9e-16)
        for row in range(len(rows))
    ]


@pytest.mark.parametrize("count", [1, _LOCKSTEP_ROOTS])
def test_rows_raise_brentqs_errors(count):
    with pytest.raises(ValueError, match="different signs"):
        brentq_rows(lambda x, row: x * x + 1.0, [-1.0] * count, [1.0] * count, 1e-15, 8.9e-16)
    with pytest.raises(RuntimeError, match="Failed to converge after 2 iterations"):
        brentq_rows(lambda x, row: x**3 - 2.0, [0.0] * count, [2.0] * count, 1e-15, 8.9e-16, maxiter=2)
    # NaN above x = 0.3 from an overflow times zero, which numpy warns of
    # on arrays and floats do not: the NaN check still raises first
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
