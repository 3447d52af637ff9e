"""Potential families, well analysis, and orientation handling."""
import math

import numpy as np
import pytest

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
from util import SEXTIC_Q1, sextic_coeffs


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
        assert a.v1(a.x_m) == pytest.approx(0.0, abs=1e-9)
        assert a.v2(a.x_m) < 0.0

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
        assert a.v1(a.x_m) == pytest.approx(0.0, abs=1e-10)
        assert a.v2(a.x_m) < 0.0

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
