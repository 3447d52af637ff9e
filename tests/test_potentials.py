"""Potential families, well analysis, and orientation handling."""
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.polynomial import polynomial as npoly
from scipy.optimize import brentq

from tunnelkit import (
    BiasedQuartic,
    ConfigError,
    DEFAULT_CONSTANTS as C,
    DegenerateBarrier,
    DoubleOscillator,
    FewerThanTwoMinima,
    Mirrored,
    PhysConstants,
    Polynomial,
    analyze,
    evaluate,
    evaluate_d1,
    evaluate_d2,
    mirror,
)
import tunnelkit.potentials
from tunnelkit.potentials import _derivative, _stationary_points
from util import DEEP_WELLS, SEXTIC_Q1, sextic_coeffs

FAMILIES = [
    BiasedQuartic(3.0, 1.0, 0.15),
    DoubleOscillator(1.0, 1.3, 0.05, 9.0),
    Polynomial(tuple(sextic_coeffs(2.0, 0.03))),
]
FAMILY_IDS = ["quartic", "double_oscillator", "sextic"]


def _evaluate_d3(spec, x, consts=C):
    # k = 3 of the family protocol, which no public evaluator reaches
    return _derivative(spec, x, 3, consts)


DERIVATIVES = [evaluate, evaluate_d1, evaluate_d2, _evaluate_d3]


class TestEvaluate:
    @pytest.mark.parametrize(
        "spec",
        [
            BiasedQuartic(1.0, 2.1),
            BiasedQuartic(3.0, 1.0, 0.15),
            DoubleOscillator(1.0, 1.3, 0.05, 9.0),
            Polynomial(tuple(sextic_coeffs(2.0, 0.03))),
        ],
        ids=["quartic", "tilted_quartic", "double_oscillator", "sextic"],
    )
    def test_derivatives_match_finite_differences(self, spec):
        # x = 0 is excluded: the piecewise-parabolic family is allowed a
        # derivative jump there, where central differences are meaningless.
        xs = [x for x in np.linspace(-1.8, 1.8, 13) if abs(x) > 1e-9]
        h1, h2 = 1e-6, 1e-4
        for x in xs:
            fd1 = (evaluate(spec, x + h1) - evaluate(spec, x - h1)) / (2 * h1)
            fd2 = (
                evaluate(spec, x + h2)
                - 2 * evaluate(spec, x)
                + evaluate(spec, x - h2)
            ) / h2**2
            assert evaluate_d1(spec, x) == pytest.approx(fd1, rel=1e-7, abs=1e-6)
            assert evaluate_d2(spec, x) == pytest.approx(fd2, rel=1e-5, abs=1e-4)

    def test_quartic_values(self):
        spec = BiasedQuartic(1.0, 2.1, 0.2)
        for x in (-2.5, -1.0, 0.0, 0.3, 2.2):
            assert evaluate(spec, x) == pytest.approx(
                (x**2 - 2.1**2) ** 2 + 0.2 * (x + 2.1), rel=1e-15
            )

    def test_polynomial_values(self):
        spec = Polynomial((1.0, -2.0, 0.0, 0.0, 3.0))
        for x in (-1.5, 0.0, 0.7):
            assert evaluate(spec, x) == pytest.approx(
                1.0 - 2.0 * x + 3.0 * x**4, rel=1e-15
            )

    def test_mirror_reflects_coordinates(self):
        spec = BiasedQuartic(3.0, 1.0, 0.15)
        flipped = mirror(spec)
        assert isinstance(flipped, Mirrored)
        for x in (-1.2, -0.4, 0.0, 0.9):
            assert evaluate(flipped, x) == evaluate(spec, -x)
            assert evaluate_d1(flipped, x) == pytest.approx(
                -evaluate_d1(spec, -x), rel=1e-14, abs=1e-14
            )
        assert mirror(flipped) is spec


class TestFamilyProtocol:
    @pytest.mark.parametrize("k", range(4))
    @pytest.mark.parametrize("spec", FAMILIES, ids=FAMILY_IDS)
    def test_mirror_flips_each_derivative_exactly(self, spec, k):
        # the grid holds x = 0, the double oscillator's kink
        xs = np.linspace(-1.9, 1.9, 17)
        sign = (-1.0) ** k
        fn = DERIVATIVES[k]
        for x in xs:
            assert fn(Mirrored(spec), float(x)) == sign * fn(spec, float(-x))
        np.testing.assert_array_equal(fn(Mirrored(spec), xs), sign * fn(spec, -xs))

    @pytest.mark.parametrize("mirrored", [False, True], ids=["plain", "mirrored"])
    @pytest.mark.parametrize("spec", FAMILIES, ids=FAMILY_IDS)
    def test_arrays_get_each_floats_bits(self, spec, mirrored):
        # lockstep root solves call a family on arrays and must get the
        # bits of its float calls; y ** 2 on a float rounds through pow
        # and misses y * y by an ulp now and then
        if mirrored:
            spec = Mirrored(spec)
        xs = np.append(np.random.default_rng(1).uniform(-2.5, 2.5, 20000), 0.0)
        for k in range(4):
            floats = [spec.derivative(float(x), k, C) for x in xs]
            assert _bits(spec.derivative(xs, k, C)) == _bits(floats)

    @pytest.mark.parametrize("spec", FAMILIES, ids=FAMILY_IDS)
    def test_mirror_delegates_family_and_kink(self, spec):
        flipped = Mirrored(spec)
        assert (flipped.family, flipped.kink) == (spec.family, spec.kink)

    def test_only_the_double_oscillator_has_a_kink(self):
        assert [spec.kink for spec in FAMILIES] == [False, True, False]

    def test_non_spec_raises_type_error_naming_its_type(self):
        class Spring:
            pass

        calls = [lambda fn=fn: fn(Spring(), 0.5) for fn in DERIVATIVES] + [
            lambda: analyze(Spring()),
            lambda: Mirrored(Spring()),
        ]
        for call in calls:
            with pytest.raises(TypeError, match="not a potential spec: Spring"):
                call()


class TestAnalyzeQuartic:
    def test_symmetric_geometry(self):
        spec = BiasedQuartic(1.0, 2.1)
        a = analyze(spec, C)
        assert a.x_L == pytest.approx(-2.1, rel=1e-12)
        assert a.x_R == pytest.approx(2.1, rel=1e-12)
        assert a.x_m == pytest.approx(0.0, abs=1e-12)
        omega = math.sqrt(8.0 * 1.0 * 2.1**2)
        assert a.omega_L == pytest.approx(omega, rel=1e-10)
        assert a.omega_R == pytest.approx(omega, rel=1e-10)
        assert a.V0 == pytest.approx(2.1**4, rel=1e-12)
        assert a.tilde_eps == pytest.approx(0.0, abs=1e-12)
        assert a.eps == pytest.approx(0.0, abs=1e-10)
        assert a.E_bar == pytest.approx(C.hbar * omega / 2.0, rel=1e-10)

    def test_well_functions_use_left_bottom_as_zero(self):
        a = analyze(BiasedQuartic(3.0, 1.0, 0.15), C)
        assert a.v(a.x_L) == pytest.approx(0.0, abs=1e-13)
        assert a.v(a.x_R) == pytest.approx(a.tilde_eps, rel=1e-12)
        assert a.v(a.x_m) == pytest.approx(a.V0, rel=1e-12)
        assert evaluate_d1(a.spec, a.x_m) == pytest.approx(0.0, abs=1e-9)
        assert evaluate_d2(a.spec, a.x_m) < 0.0

    def test_reference_tilted_quartic_bias(self):
        a = analyze(BiasedQuartic(3.0, 1.0, 0.15), C)
        assert a.tilde_eps == pytest.approx(0.29999413942289066, rel=1e-13)
        assert a.eps == pytest.approx(0.25405700732867786, rel=1e-13)
        assert a.omega_R < a.omega_L

    def test_auto_orientation_puts_deeper_well_left(self):
        raised_left = BiasedQuartic(3.0, 1.0, -0.15)
        a = analyze(raised_left, C)
        assert a.mirrored
        assert a.tilde_eps > 0.0
        b = analyze(BiasedQuartic(3.0, 1.0, 0.15), C)
        assert a.tilde_eps == pytest.approx(b.tilde_eps, rel=1e-12)
        assert a.omega_L == pytest.approx(b.omega_L, rel=1e-12)

    def test_keep_orientation_allows_negative_bias(self):
        a = analyze(BiasedQuartic(3.0, 1.0, -0.15), C, orient="keep")
        assert not a.mirrored
        assert a.tilde_eps == pytest.approx(-0.29999413942289066, rel=1e-13)

    def test_equal_floors_mirror_at_most_once(self):
        # Rounding makes the other floor look lower from either side, so
        # auto orientation must not mirror back again.
        a = analyze(BiasedQuartic(0.9971007842314095, 1.6288123492366189, 0.0), C)
        assert a.mirrored
        assert abs(a.tilde_eps) < 1e-12 * a.V0


class TestAnalyzeDoubleOscillator:
    def test_analytic_fields(self):
        spec = DoubleOscillator(1.0, 1.3, 0.05, 9.0)
        a = analyze(spec, C)
        assert a.x_L == pytest.approx(-math.sqrt(2.0 * 9.0) / 1.0, rel=1e-14)
        assert a.x_R == pytest.approx(math.sqrt(2.0 * (9.0 - 0.05)) / 1.3, rel=1e-14)
        assert a.x_m == 0.0
        assert a.omega_L == 1.0
        assert a.omega_R == 1.3
        assert a.tilde_eps == 0.05
        assert a.eps == pytest.approx(0.05 + C.hbar * 0.3 / 2.0, rel=1e-14)
        assert a.E_bar == pytest.approx(C.hbar * 2.3 / 4.0 + 0.025, rel=1e-14)
        assert a.V0 == 9.0

    def test_piecewise_parabolic_values(self):
        spec = DoubleOscillator(1.0, 1.3, 0.05, 9.0)
        a = analyze(spec, C)
        x = -1.0
        assert evaluate(spec, x) == pytest.approx(
            0.5 * (x - a.x_L) ** 2, rel=1e-13
        )
        x = 0.8
        assert evaluate(spec, x) == pytest.approx(
            0.05 + 0.5 * 1.3**2 * (x - a.x_R) ** 2, rel=1e-13
        )

    def test_softer_deep_well_is_allowed(self):
        a = analyze(DoubleOscillator(1.5, 1.0, 0.1, 9.0), C)
        assert a.omega_L == 1.5
        assert a.omega_R == 1.0
        assert a.eps == pytest.approx(0.1 - 0.25, rel=1e-14)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(omega_L=0.0, omega_R=1.0, tilde_eps=0.0, V0=5.0),
            dict(omega_L=1.0, omega_R=-1.0, tilde_eps=0.0, V0=5.0),
            dict(omega_L=1.0, omega_R=1.0, tilde_eps=-0.1, V0=5.0),
            dict(omega_L=1.0, omega_R=1.0, tilde_eps=5.0, V0=5.0),
            dict(omega_L=1.0, omega_R=1.0, tilde_eps=6.0, V0=5.0),
        ],
        ids=["zero_freq", "negative_freq", "negative_bias", "bias_at_top", "bias_above_top"],
    )
    def test_rejects_invalid_parameters(self, kwargs):
        with pytest.raises(ConfigError):
            DoubleOscillator(**kwargs)


class TestAnalyzePolynomial:
    def test_pinned_sextic_geometry(self):
        spec = Polynomial(tuple(sextic_coeffs(1.0)))
        a = analyze(spec, C)
        assert a.x_L == pytest.approx(-1.0, rel=1e-10)
        assert a.x_R == pytest.approx(1.0, rel=1e-10)
        assert a.omega_R / a.omega_L == pytest.approx(1.3, rel=1e-12)
        assert a.tilde_eps == pytest.approx(0.0, abs=1e-12)
        assert evaluate_d1(a.spec, a.x_m) == pytest.approx(0.0, abs=1e-10)
        assert evaluate_d2(a.spec, a.x_m) < 0.0

    def test_scaling_the_sextic_scales_depth_not_shape(self):
        a1 = analyze(Polynomial(tuple(sextic_coeffs(1.0))), C)
        a4 = analyze(Polynomial(tuple(sextic_coeffs(4.0))), C)
        assert a4.V0 == pytest.approx(4.0 * a1.V0, rel=1e-10)
        assert a4.omega_L == pytest.approx(2.0 * a1.omega_L, rel=1e-10)
        assert a4.x_L == pytest.approx(a1.x_L, rel=1e-9)

    def test_tilted_sextic_gains_positive_bias(self):
        a = analyze(Polynomial(tuple(sextic_coeffs(20.0, 0.1))), C)
        assert a.tilde_eps > 0.0
        assert a.V0 > a.tilde_eps

    def test_single_well_is_rejected(self):
        with pytest.raises(FewerThanTwoMinima):
            analyze(Polynomial((0.0, 0.0, 0.5)), C)

    def test_explicit_window_narrows_the_scan(self):
        coeffs = tuple(sextic_coeffs(2.0))
        wide = analyze(Polynomial(coeffs), C)
        windowed = analyze(Polynomial(coeffs, window=(-1.6, 1.6)), C)
        assert windowed.x_L == pytest.approx(wide.x_L, rel=1e-9)
        assert windowed.V0 == pytest.approx(wide.V0, rel=1e-10)


class TestRegimeChecks:
    def test_shallow_barrier_fails_when_asked_to_verify(self):
        spec = DoubleOscillator(1.0, 1.0, 0.0, 0.4)
        with pytest.raises(DegenerateBarrier):
            analyze(spec, C, require_wkb=True)

    def test_shallow_barrier_still_analyzable_without_verification(self):
        a = analyze(DoubleOscillator(1.0, 1.0, 0.0, 0.4), C)
        assert a.E_bar > a.V0

    def test_custom_constants_shift_the_mean_level(self):
        heavy = PhysConstants(hbar=1.0, mass=4.0)
        a = analyze(BiasedQuartic(1.0, 2.1), heavy)
        light = analyze(BiasedQuartic(1.0, 2.1), C)
        assert a.omega_L == pytest.approx(light.omega_L / 2.0, rel=1e-10)
        assert a.E_bar == pytest.approx(light.E_bar / 2.0, rel=1e-10)


def test_sextic_linear_coefficient_value():
    assert SEXTIC_Q1 == pytest.approx(0.25650557620817843, abs=0.0)


def _stationary_points_loop(spec, consts, window, n):
    # The per-sample scan that _stationary_points replaced, kept as its
    # reference: same brackets, same refinement, same dedupe.
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

    scale = max(abs(window[0]), abs(window[1]), 1.0)
    out = []
    for x, kind in sorted(found):
        if out and abs(x - out[-1][0]) <= 1e-10 * scale:
            continue
        out.append((x, kind))
    return out


SCAN_WELLS = st.one_of(
    st.builds(BiasedQuartic, st.floats(0.2, 5.0), st.floats(0.3, 3.0), st.floats(-2.0, 2.0)),
    st.builds(
        lambda scale, tilt: Polynomial(tuple(sextic_coeffs(scale, tilt))),
        st.floats(0.5, 20.0),
        st.floats(-0.3, 0.3),
    ),
)


class TestStationaryScan:
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(
        spec=SCAN_WELLS,
        mirrored=st.booleans(),
        centre=st.floats(-1.0, 1.0),
        width=st.floats(0.5, 8.0),
        n=st.sampled_from([17, 256, 1001, 4096]),
    )
    def test_matches_the_per_sample_loop(self, spec, mirrored, centre, width, n):
        if mirrored:
            spec = Mirrored(spec)
        window = (centre - width / 2.0, centre + width / 2.0)
        assert _stationary_points(spec, C, window, n) == _stationary_points_loop(
            spec, C, window, n
        )

    @pytest.mark.parametrize(
        "window,n",
        [((-2.0, 2.0), 4097), ((-2.0, 1.0), 3073)],
        ids=["interior_nodes", "last_sample"],
    )
    def test_exact_zero_samples_are_stationary_points(self, window, n):
        # Both grids step by 2**-10, so x = -1, 0 and 1 are samples where
        # V' is exactly zero; the second grid ends on x = 1.
        spec = BiasedQuartic(1.0, 1.0, 0.0)
        expected = [(-1.0, "min"), (0.0, "max"), (1.0, "min")]
        assert _stationary_points(spec, C, window, n) == expected
        assert _stationary_points_loop(spec, C, window, n) == expected


def _polynomials():
    coeff = st.one_of(st.just(0.0), st.floats(-5.0, 5.0))

    def build(degree):
        return st.tuples(
            st.lists(coeff, min_size=degree, max_size=degree),
            st.floats(0.1, 5.0),
            st.integers(0, 2),
        ).map(lambda t: tuple(t[0]) + (t[1],) + (0.0,) * t[2])

    return st.sampled_from([2, 4, 6]).flatmap(build)


def _bits(x):
    return np.asarray(x, dtype=float).tobytes()


class TestPolynomialHorner:
    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(
        coeffs=_polynomials(),
        x=st.floats(-3.0, 3.0),
        xs=st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=9),
    )
    def test_bitwise_equal_to_polyval_of_polyder(self, coeffs, x, xs):
        # trailing zero coefficients included: polyder trims them, polyval
        # of the coefficients themselves does not
        spec = Polynomial(coeffs)
        xs = np.array(xs)
        for k in range(4):
            ref = coeffs if k == 0 else npoly.polyder(coeffs, k)
            out = spec.derivative(x, k, C)
            assert type(out) is float
            assert _bits(out) == _bits(npoly.polyval(x, ref))
            assert _bits(spec.derivative(xs, k, C)) == _bits(npoly.polyval(xs, ref))


SCALAR_INPUTS = [0.35, -1, 0, np.float64(-0.35), np.array(0.6), np.array(0)]
VECTOR_INPUTS = [[0.35, -1.0, 0.0], np.array([0.35, -1.0, 0.0])]


class TestReturnKind:
    @pytest.mark.parametrize("mirrored", [False, True], ids=["plain", "mirrored"])
    @pytest.mark.parametrize("spec", FAMILIES, ids=FAMILY_IDS)
    def test_scalars_give_floats_and_vectors_give_arrays(self, spec, mirrored):
        if mirrored:
            spec = Mirrored(spec)
        v = analyze(spec, C).v
        for fn in (evaluate, evaluate_d1, evaluate_d2, lambda s, x: v(x)):
            for x in SCALAR_INPUTS:
                out = fn(spec, x)
                assert type(out) is float
                assert _bits(out) == _bits(fn(spec, np.array([float(x)]))[0])
            for x in VECTOR_INPUTS:
                out = fn(spec, x)
                assert type(out) is np.ndarray
                assert out.shape == (3,)


def _geometry(analysis):
    return {
        f.name: getattr(analysis, f.name)
        for f in dataclasses.fields(analysis)
        if f.name != "spec"
    }


class TestNestedMirrors:
    @pytest.mark.parametrize("orient", ["auto", "keep"])
    def test_double_oscillator_mirrors_collapse(self, orient):
        spec = DoubleOscillator(1.0, 1.2, 0.1, 4.0)
        bare = analyze(spec, C, orient=orient)
        once = analyze(Mirrored(spec), C, orient=orient)
        twice = analyze(Mirrored(Mirrored(spec)), C, orient=orient)
        thrice = analyze(Mirrored(Mirrored(Mirrored(spec))), C, orient=orient)
        assert _geometry(twice) == _geometry(bare)
        assert twice.spec == spec
        assert _geometry(thrice) == _geometry(once)
        assert thrice.spec == once.spec

    def test_doubly_mirrored_quartic_collapses(self):
        # two reflections are none: the bare family on its own axis
        spec = BiasedQuartic(3.0, 1.0, 0.15)
        twice = analyze(Mirrored(Mirrored(spec)), C)
        assert twice.spec == spec
        assert _geometry(twice) == _geometry(analyze(spec, C))


class TestOrientOnce:
    """``analyze`` locates the bare family once and reflects the result."""

    @pytest.mark.parametrize(
        "spec",
        [BiasedQuartic(3.0, 1.0, -0.15), Polynomial((0.0, 0.0, -4.0, -0.3, 1.0))],
        ids=["quartic", "polynomial"],
    )
    def test_a_right_deep_well_is_scanned_once(self, spec, monkeypatch):
        scans = []

        def spy(*args):
            scans.append(args)
            return _stationary_points(*args)

        monkeypatch.setattr(tunnelkit.potentials, "_stationary_points", spy)
        a = analyze(spec, C)
        assert a.mirrored and a.tilde_eps > 0.0
        assert len(scans) == 1

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(spec=DEEP_WELLS)
    def test_the_kept_mirror_is_the_exact_reflection(self, spec):
        a = analyze(spec, C, orient="keep")
        b = analyze(mirror(spec), C, orient="keep")
        assert (b.spec, b.consts, b.mirrored) == (mirror(spec), a.consts, True)
        # the floors trade places: the right floor of a is the one b
        # measures from, and b sees the same curve on the other axis
        assert _geometry(b) == {
            "consts": a.consts,
            "x_L": 0.0 - a.x_R,
            "x_R": 0.0 - a.x_L,
            "x_m": 0.0 - a.x_m,
            "omega_L": a.omega_R,
            "omega_R": a.omega_L,
            "tilde_eps": -a.tilde_eps,
            "V0": b.V0,
            "zero_shift": evaluate(spec, a.x_R, C),
            "mirrored": True,
        }
        assert math.copysign(1.0, b.x_m) == math.copysign(1.0, 0.0 - a.x_m)
        assert (b.v(b.x_L), b.v(b.x_R)) == (0.0, b.tilde_eps)
        # the same barrier top measured from the other floor: one rounding
        assert abs(b.V0 - (a.V0 - a.tilde_eps)) <= 2.0 * math.ulp(b.V0)
