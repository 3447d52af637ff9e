"""Potential families, well analysis, and orientation handling."""
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.polynomial import polynomial as npoly

from tunnelkit import (
    BiasedQuartic,
    ConfigError,
    DEFAULT_CONSTANTS as C,
    DegenerateBarrier,
    DoubleOscillator,
    FewerThanTwoMinima,
    Mirrored,
    NonConvexMinimum,
    PhysConstants,
    Polynomial,
    analyze,
    evaluate,
    mirror,
)
import tunnelkit.potentials
from tunnelkit.potentials import _derivative, _real_roots, _stationary_points
from util import DEEP_WELLS, SEXTIC_Q1, sextic_coeffs

FAMILIES = [
    BiasedQuartic(3.0, 1.0, 0.15),
    DoubleOscillator(1.0, 1.3, 0.05, 9.0),
    Polynomial(tuple(sextic_coeffs(2.0, 0.03))),
]
FAMILY_IDS = ["quartic", "double_oscillator", "sextic"]


def _evaluate_d1(spec, x, consts=C):
    # k = 1 of the family protocol, with evaluate's float and array handling
    return _derivative(spec, x, 1, consts)


def _evaluate_d2(spec, x, consts=C):
    # k = 2 of the family protocol, with evaluate's float and array handling
    return _derivative(spec, x, 2, consts)


def _evaluate_d3(spec, x, consts=C):
    # k = 3 of the family protocol, with evaluate's float and array handling
    return _derivative(spec, x, 3, consts)


DERIVATIVES = [evaluate, _evaluate_d1, _evaluate_d2, _evaluate_d3]


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
            assert _evaluate_d1(spec, x) == pytest.approx(fd1, rel=1e-7, abs=1e-6)
            assert _evaluate_d2(spec, x) == pytest.approx(fd2, rel=1e-5, abs=1e-4)

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
            assert _evaluate_d1(flipped, x) == pytest.approx(
                -_evaluate_d1(spec, -x), rel=1e-14, abs=1e-14
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

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(
        spec=DEEP_WELLS,
        mirrored=st.booleans(),
        orient=st.sampled_from(["auto", "keep"]),
        consts=st.sampled_from([C, PhysConstants(0.5, 2.5), PhysConstants(1e-3, 7.0)]),
    )
    def test_well_functions_use_left_bottom_as_zero(self, spec, mirrored, orient, consts):
        # v(x_R) is tilde_eps bit for bit: action_rows and
        # compute_splittings take right_floor = v(x_R) where _energy_error
        # reads tilde_eps, and on an undialed analysis the two must agree
        a = analyze(mirror(spec) if mirrored else spec, consts, orient=orient)
        assert _bits(a.v(a.x_L)) == _bits(0.0)
        assert _bits(a.v(a.x_R)) == _bits(a.tilde_eps)
        quartic = analyze(BiasedQuartic(3.0, 1.0, 0.15), C)
        assert quartic.v(quartic.x_m) == pytest.approx(quartic.V0, rel=1e-12)
        assert _evaluate_d1(quartic.spec, quartic.x_m) == pytest.approx(0.0, abs=1e-9)
        assert _evaluate_d2(quartic.spec, quartic.x_m) < 0.0

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
        # auto orientation must not mirror back again.  The well is
        # k ((x - s)^4 - (c / k) (x - s)^2), expanded: a quartic symmetric
        # about x = 0 no longer serves, since its wells are mirror floats
        # with equal floors.
        coeffs = (
            -0.7008217478617969,
            -5.252305213632848,
            -9.707421835517414,
            0.6686193182191998,
            0.6291844552657135,
        )
        a = analyze(Polynomial(coeffs), C)
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
        assert _evaluate_d1(a.spec, a.x_m) == pytest.approx(0.0, abs=1e-10)
        assert _evaluate_d2(a.spec, a.x_m) < 0.0

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


class TestInputRefusals:
    @pytest.mark.parametrize(
        "make,match",
        [
            (lambda: BiasedQuartic(1.0, 1.0, math.inf), "beta must be finite"),
            (lambda: Polynomial((0.0, 0.0, math.nan, 0.0, 1.0)), "coefficients must be finite"),
            (lambda: analyze(BiasedQuartic(1.0, 2.1), C, orient="flip"), "orient must be"),
            (lambda: PhysConstants(hbar=math.inf), "hbar > 0 and mass > 0, both finite"),
            (lambda: PhysConstants(mass=math.inf), "hbar > 0 and mass > 0, both finite"),
        ],
        ids=["infinite_beta", "nan_coefficient", "unknown_orient", "infinite_hbar", "infinite_mass"],
    )
    def test_each_is_a_config_error(self, make, match):
        with pytest.raises(ConfigError, match=match):
            make()


def test_sextic_linear_coefficient_value():
    assert SEXTIC_Q1 == pytest.approx(0.25650557620817843, abs=0.0)


def _roots(spec, mirrored):
    # the sorted real roots of V' of spec, or of its mirror
    _, roots = spec.slope_roots()
    return [-r for r in reversed(roots)] if mirrored else roots


def _dense_sign_changes(spec, window, n=2**16 + 1):
    # (kind, lo, hi) for each pair of neighbouring samples of V' across
    # which it changes sign, on n uniform samples; a sample where V' is
    # exactly 0 is skipped
    xs = np.linspace(window[0], window[1], n)
    sign = np.sign(_evaluate_d1(spec, xs, C))
    xs, sign = xs[sign != 0.0], sign[sign != 0.0]
    return [
        ("min" if sign[i] < 0.0 else "max", xs[i], xs[i + 1])
        for i in np.flatnonzero(sign[:-1] != sign[1:])
    ]


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
    )
    def test_each_point_is_a_zero_or_next_to_a_sign_change(self, spec, mirrored, centre, width):
        # V' is exactly 0 at each point, or the point and a float next to
        # it are a pair across which V' changes sign (from < 0 to >= 0
        # toward the rising side), and V' is the smaller there in size
        roots = _roots(spec, mirrored)
        spec = Mirrored(spec) if mirrored else spec
        window = (centre - width / 2.0, centre + width / 2.0)
        for x, kind in _stationary_points(spec, C, window, roots):
            assert window[0] <= x <= window[1]
            slope = _evaluate_d1(spec, x, C)
            if slope != 0.0:
                rising = math.inf if kind == "min" else -math.inf
                near = _evaluate_d1(spec, math.nextafter(x, rising if slope < 0.0 else -rising), C)
                assert min(slope, near) < 0.0 <= max(slope, near)
                assert abs(slope) <= abs(near)

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(
        spec=SCAN_WELLS,
        mirrored=st.booleans(),
        centre=st.floats(-1.0, 1.0),
        width=st.floats(0.5, 8.0),
    )
    def test_kinds_match_a_dense_scan(self, spec, mirrored, centre, width):
        # the same minima and maxima, in order, as the sign changes of V'
        # on 65537 samples, each between the two samples of its change
        roots = _roots(spec, mirrored)
        spec = Mirrored(spec) if mirrored else spec
        window = (centre - width / 2.0, centre + width / 2.0)
        found = _stationary_points(spec, C, window, roots)
        dense = _dense_sign_changes(spec, window)
        assert [kind for _, kind in found] == [kind for kind, _, _ in dense]
        for (x, _), (_, lo, hi) in zip(found, dense):
            assert lo <= x <= hi

    @pytest.mark.parametrize(
        "window", [(-2.0, 2.0), (-2.0, 1.0)], ids=["interior_nodes", "last_sample"]
    )
    def test_exact_zero_samples_are_stationary_points(self, window):
        # V' is exactly zero at the roots x = -1, 0 and 1, which are kept
        # as they are; the second window ends on x = 1
        spec = BiasedQuartic(1.0, 1.0, 0.0)
        expected = [(-1.0, "min"), (0.0, "max"), (1.0, "min")]
        assert _stationary_points(spec, C, window, _roots(spec, False)) == expected

    def test_a_second_well_closer_than_a_scan_step_is_found(self):
        # V' = 4 (x + 1)(x - 1)(x - 1.0003): the second well lies 3e-4 past
        # the barrier top, under one step of a 4096-point scan of the
        # window (7.3e-4)
        spec = Polynomial((0.0, 4.0012, -2.0, -4.0 * 1.0003 / 3.0, 1.0))
        a = analyze(spec, C)
        assert a.x_L == pytest.approx(-1.0, abs=1e-9)
        assert a.x_m == pytest.approx(1.0, abs=1e-9)
        assert a.x_R == pytest.approx(1.0003, abs=1e-9)

    def test_a_double_root_of_the_slope_is_neither_well_nor_barrier(self):
        # V' = x^2 (x + 2)(x - 1)(x - 3): V' keeps its sign through the
        # double root x = 0, an inflection point between the left well and
        # the barrier
        spec = Polynomial((0.0, 0.0, 0.0, 2.0, -1.25, -0.4, 1.0 / 6.0))
        window, roots = spec.slope_roots()
        found = _stationary_points(spec, C, window, roots)
        assert [kind for _, kind in found] == ["min", "max", "min"]
        assert [x for x, _ in found] == pytest.approx([-2.0, 1.0, 3.0], abs=1e-12)
        a = analyze(spec, C, orient="keep")
        assert (a.x_L, a.x_m, a.x_R) == pytest.approx((-2.0, 1.0, 3.0), abs=1e-12)

    def test_a_flat_minimum_is_no_well(self):
        # V = x^4 (x - 2)^2: V' changes sign at its triple root x = 0, a
        # minimum where V'' is 0
        with pytest.raises(NonConvexMinimum, match=r"^V'' <= 0 at detected minimum x = 0$"):
            analyze(Polynomial((0, 0, 0, 0, 4, -4, 1)), C)

    def test_a_quartic_whose_slope_ratio_overflows_has_no_well(self):
        # beta / (4 alpha) = 1.8e372 is past the float range: on the window
        # V' is beta to within its rounding, and has no root there
        spec = BiasedQuartic(5.205673908249191e-287, 0.6611037889181619, 3.689615175251747e86)
        assert spec.slope_roots()[1] == []
        with pytest.raises(FewerThanTwoMinima, match="found 0 local minima"):
            analyze(spec, C)

    def test_a_barrier_whose_slope_underflows_parts_no_wells(self):
        # V = x^4 - 1e-300 x^2 - 1 has minima at +-7.1e-151 about a maximum
        # at 0, but V' is about 1e-451 at the ends of that maximum's
        # bracket and underflows to 0 there
        spec = Polynomial((-1.0, 0.0, -1e-300, 0.0, 1.0))
        with pytest.raises(FewerThanTwoMinima, match="fewer than two wells in floats"):
            analyze(spec, C)

    def test_an_overflowing_ratio_takes_the_roots_in_a_scaled_variable(self):
        # the same V' with no window: its one real root, near x = -1.2e124,
        # is an eigenvalue of the companion matrix taken in x / 2**k
        spec = BiasedQuartic(5.205673908249191e-287, 0.6611037889181619, 3.689615175251747e86)
        slope = (spec.beta, -4.0 * spec.alpha * spec.a**2, 0.0, 4.0 * spec.alpha)
        [root] = _real_roots(slope)
        cube = spec.beta * 1e-300 / (4.0 * spec.alpha)  # -root^3 / 1e300
        assert root == pytest.approx(-cube ** (1.0 / 3.0) * 1e100)

    @pytest.mark.parametrize("lead", [1e-300, 1e-320])
    def test_a_root_far_outside_a_pinned_window_is_dropped(self, lead):
        # V' of V = x^4 - x^2 + lead x^6 has two more roots, a complex pair
        # near +-i (2 / (3 lead))^(1/2), far outside [-2, 2]: the companion
        # matrix of all five knows the three inside only to about eps * 1e150
        a = analyze(Polynomial((0.0, 0.0, -1.0, 0.0, 1.0, 0.0, lead), window=(-2.0, 2.0)), C)
        wells = (-math.sqrt(0.5), 0.0, math.sqrt(0.5))
        assert (a.x_L, a.x_m, a.x_R) == pytest.approx(wells, abs=1e-15)


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
        # trailing zero coefficients included: neither polyder nor polyval
        # trims them (polyder((1, 2, 0, 0)) is [2, 0, 0])
        spec = Polynomial(coeffs)
        xs = np.array(xs)
        for k in range(4):
            ref = coeffs if k == 0 else npoly.polyder(coeffs, k)
            out = spec.derivative(x, k, C)
            assert type(out) is float
            assert _bits(out) == _bits(npoly.polyval(x, ref))
            assert _bits(spec.derivative(xs, k, C)) == _bits(npoly.polyval(xs, ref))

    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(
        coeffs=_polynomials(),
        scale=st.floats(-300.0, 307.0).map(lambda e: 10.0**e),
    )
    def test_derivative_table_is_polyder_bit_for_bit(self, coeffs, scale):
        # up to 1e308 in size, so some j * c[j] overflow to inf
        coeffs = tuple(c * scale for c in coeffs)
        table = Polynomial(coeffs)._derivative_coeffs
        assert table[0] == coeffs
        with np.errstate(over="ignore"):
            for k in (1, 2, 3):
                assert _bits(table[k]) == _bits(npoly.polyder(coeffs, k))

    def test_a_derivative_past_the_constant_term_keeps_its_sign_of_zero(self):
        # polyder of a quadratic three times is c[:1] * 0: -0.0 here
        out = Polynomial((-1.0, 0.5, 2.0)).derivative(-0.3, 3, C)
        assert out == 0.0 and math.copysign(1.0, out) == -1.0


def _companion_real_roots(coeffs, k=0):
    # the reference _real_roots is pinned to: npoly.polycompanion's matrix
    # of coeffs in y = x / 2**k, its eigenvalues sorted as polyroots sorts
    # them, and the real ones back in x
    n = len(coeffs) - 1
    matrix = npoly.polycompanion([math.ldexp(c, k * (i - n)) for i, c in enumerate(coeffs)])
    roots = np.linalg.eigvals(matrix)
    roots.sort()
    return np.ldexp(roots.real[np.abs(roots.imag) <= 1e-9 * (1.0 + np.abs(roots))], k)


def _odd_polynomials():
    # cubics and quintics, with a leading coefficient 0.1 to 5 in size
    coeff = st.one_of(st.just(0.0), st.floats(-5.0, 5.0))
    lead = st.one_of(st.floats(0.1, 5.0), st.floats(-5.0, -0.1))
    return st.sampled_from([3, 5]).flatmap(
        lambda n: st.tuples(st.lists(coeff, min_size=n, max_size=n), lead)
    ).map(lambda t: tuple(t[0]) + (t[1],))


class TestCompanionRoots:
    """``_real_roots`` is LAPACK's eigenvalues of polycompanion's matrix,
    bit for bit, on the coefficients it scales and trims: the matrix is
    built in ``potentials`` and must not be transposed or rotated."""

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(coeffs=_odd_polynomials())
    def test_cubics_and_quintics(self, coeffs):
        roots = _real_roots(coeffs)
        assert roots and all(type(x) is float for x in roots)
        assert _bits(roots) == _bits(_companion_real_roots(coeffs))

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(
        n=st.sampled_from([3, 5]),
        k=st.integers(1, 60),
        lead=st.floats(1.0, 2.0, exclude_max=True),
        head=st.floats(1.0, 2.0, exclude_max=True),
        sign=st.sampled_from([1.0, -1.0]),
        middle=st.lists(st.one_of(st.just(0.0), st.floats(-5.0, 5.0)), min_size=4, max_size=4),
    )
    def test_a_scaled_variable(self, n, k, lead, head, sign, middle):
        # c[0] / c[n] is 2**(1000 + n k - (n + 1) // 2) times head / lead, in
        # (1/2, 2): in y = x / 2**k it is under 2**1000, in x / 2**(k - 1)
        # not, and every other ratio is far under it; the roots are near
        # 2**big in size, and each middle term is about as large there
        e = 500 + n * k - (n + 1) // 2
        big = (e + 500) / n
        coeffs = (
            [sign * math.ldexp(head, e)]
            + [math.ldexp(m, -500 + round((n - i) * big)) for i, m in enumerate(middle[:n - 1], 1)]
            + [math.ldexp(lead, -500)]
        )
        roots = _real_roots(coeffs)
        assert roots
        assert _bits(roots) == _bits(_companion_real_roots(coeffs, k))

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(
        coeffs=_odd_polynomials(),
        tail=st.lists(st.floats(0.1, 5.0), min_size=1, max_size=2),
        r=st.floats(1.0, 4.0),
    )
    def test_a_window_trims_the_leading_terms(self, coeffs, tail, r):
        # terms of 1e-200 are under eps times the largest term on |x| <= r
        padded = coeffs + tuple(1e-200 * t for t in tail)
        roots = _real_roots(padded, r)
        assert roots
        assert _bits(roots) == _bits(_companion_real_roots(coeffs))


SCALAR_INPUTS = [0.35, -1, 0, np.float64(-0.35), np.array(0.6), np.array(0)]
VECTOR_INPUTS = [[0.35, -1.0, 0.0], np.array([0.35, -1.0, 0.0])]


class TestReturnKind:
    @pytest.mark.parametrize("mirrored", [False, True], ids=["plain", "mirrored"])
    @pytest.mark.parametrize("spec", FAMILIES, ids=FAMILY_IDS)
    def test_scalars_give_floats_and_vectors_give_arrays(self, spec, mirrored):
        if mirrored:
            spec = Mirrored(spec)
        v = analyze(spec, C).v
        for fn in (evaluate, _evaluate_d1, _evaluate_d2, lambda s, x: v(x)):
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


def _parabola(spec, x, k, consts):
    # the k-th derivative of the double oscillator at the float x, with
    # its well position and curvature formed afresh
    m = consts.mass
    if x <= 0.0:
        omega, x0, floor = spec.omega_L, spec.x_left(consts), None
    else:
        omega, x0, floor = spec.omega_R, spec.x_right(consts), spec.tilde_eps
    if k == 0:
        out = 0.5 * m * omega**2 * ((x - x0) * (x - x0))
        return out if floor is None else floor + out
    if k == 1:
        return m * omega**2 * (x - x0)
    return m * omega**2 if k == 2 else 0.0


class TestDoubleOscillatorParabolas:
    def test_calls_that_alternate_specs_and_constants_keep_their_bits(self):
        # derivative forms each parabola's x0, m omega^2 and m omega^2 / 2
        # from the spec and constants at every call, so calls that
        # alternate between specs and equal or distinct constants get, as
        # floats and as arrays, the bits of the formula taken afresh: at
        # the kink, where 0.0 and -0.0 both take the left branch, and at
        # the wells, whose floors are exactly 0.0 and tilde_eps (the floors
        # analyze takes, and the right_floor compute_splittings takes).
        specs = [DoubleOscillator(1.0, 1.3, 0.05, 9.0), DoubleOscillator(0.7, 1.9, 0.4, 3.0)]
        constants = [C, PhysConstants(hbar=0.5, mass=2.5), PhysConstants(hbar=0.5, mass=2.5)]
        for _ in range(2):
            for spec in specs:
                for consts in constants:
                    wells = [spec.x_left(consts), spec.x_right(consts)]
                    xs = np.concatenate([np.linspace(-4.0, 4.0, 41), [-0.0], wells])
                    floors = [spec.derivative(x, 0, consts) for x in wells]
                    array = spec.derivative(np.array(wells), 0, consts)
                    assert _bits(floors) == _bits(array) == _bits([0.0, spec.tilde_eps])
                    for k in range(4):
                        expected = [_parabola(spec, x, k, consts).hex() for x in xs.tolist()]
                        floats = [spec.derivative(x, k, consts).hex() for x in xs.tolist()]
                        array = [float(v).hex() for v in spec.derivative(xs, k, consts).tolist()]
                        assert floats == array == expected, (spec, consts, k)


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


class TestNoPolynomialWrappers:
    def test_analyze_takes_no_numpy_polynomial_wrapper(self, monkeypatch):
        # fresh specs each time, so no table is cached from the first pass
        sextic = tuple(sextic_coeffs(2.0, 0.03))
        makers = [
            lambda: BiasedQuartic(3.0, 1.0, 0.15),
            lambda: Polynomial(sextic),
            lambda: Polynomial(sextic, window=(-2.0, 2.0)),
            lambda: mirror(Polynomial(sextic)),
        ]
        unpatched = [analyze(make(), C) for make in makers]

        def refuse(*args, **kwargs):
            raise AssertionError("a numpy.polynomial wrapper is on the analyze path")

        for name in ("polyder", "polyroots", "polycompanion"):
            monkeypatch.setattr(npoly, name, refuse)
        assert [analyze(make(), C) for make in makers] == unpatched


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
        }
        assert math.copysign(1.0, b.x_m) == math.copysign(1.0, 0.0 - a.x_m)
        assert (b.v(b.x_L), b.v(b.x_R)) == (0.0, b.tilde_eps)
        # the same barrier top measured from the other floor: one rounding
        assert abs(b.V0 - (a.V0 - a.tilde_eps)) <= 2.0 * math.ulp(b.V0)
