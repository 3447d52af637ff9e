"""End-to-end accuracy gates for the whole package.

Each test is one externally checkable claim with an explicit numeric
tolerance, and prints as a single pass/fail line under pytest -v.  The two
strict-xfail tests document measured limits of the method: tightening the
corresponding tolerance makes them pass-impossible today, and if the code
ever beats them the xfail turns into a hard failure asking for attention.
"""
import math
import time

import numpy as np
import pytest

from tunnelkit import (
    BiasedQuartic,
    DEFAULT_CONSTANTS as C,
    DoubleOscillator,
    GridSpec,
    K_FIRST_ORDER,
    Polynomial,
    action_slope,
    analyze,
    compute_splitting,
    delta_first_order,
    double_oscillator_action,
    eigen_lowest_two,
    evaluate_action,
    f_of_zeta,
    gamow_integral,
    level_shifts,
    level_splitting,
    parse_config,
    solve_quantization,
)
from tunnelkit.cli import run_sweep
from util import sextic_coeffs, sextic_scale_for_depth


@pytest.fixture(scope="module")
def random_well_batch():
    """24 seeded double wells solved by all three splitting routes.

    Wells are kept in the deep, small-bias regime (barrier action above 6,
    bias below a fifth of the level spacing) where every route is valid.
    """
    rng = np.random.default_rng(424242)
    batch = []
    while len(batch) < 24:
        if rng.uniform() < 0.5:
            wl = float(rng.uniform(0.7, 1.4))
            wr = wl * float(rng.uniform(1.0, 2.0))
            v0 = float(rng.uniform(4.5, 12.0)) * wl
            te = float(rng.uniform(0.0, 0.15)) * wl
            spec = DoubleOscillator(wl, wr, te, v0)
        else:
            alpha = float(rng.uniform(0.5, 2.0))
            aa = float(rng.uniform(1.8, 2.4))
            beta = float(rng.uniform(0.0, 0.01)) * alpha * aa**3
            spec = BiasedQuartic(alpha, aa, beta)
        a = analyze(spec, C)
        act = evaluate_action(spec, C, analysis=a)
        if act.I < 6.0 or abs(a.eps) / a.omega_L > 0.2:
            continue
        delta = delta_first_order(a, act.I)
        closed = level_splitting(a.eps, delta)
        shifts = level_shifts(a, act)
        quadratic = shifts.dE_minus - shifts.dE_plus
        roots = solve_quantization(spec, C, analysis=a)
        transcendental = roots.E_minus - roots.E_plus
        batch.append((spec, closed, quadratic, transcendental))
    return batch


def test_closed_form_parabolic_actions_match_quadrature_to_1e8():
    # 100 parameter combinations spanning barrier depths of 8 to 40 level
    # spacings, frequency ratios 1 to 2, and biases up to 0.2 spacings.
    t0 = time.perf_counter()
    worst = 0.0
    for v0_over_hw in np.linspace(8.0, 40.0, 5):
        for ratio in np.linspace(1.0, 2.0, 5):
            for te_over_hw in np.linspace(0.0, 0.2, 4):
                spec = DoubleOscillator(
                    1.0, ratio, te_over_hw, v0_over_hw
                )
                a = analyze(spec, C)
                i_l, i_r = double_oscillator_action(spec, C, a.E_bar)
                quad = gamow_integral(spec, C, a.E_bar, a)
                worst = max(worst, abs(quad - (i_l + i_r)) / (i_l + i_r))
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-8
    assert elapsed < 10.0


def test_splitting_within_ten_percent_of_eigensolver_at_reference_depth():
    # Symmetric quartic with wells at -/+2.1 (barrier 3.3 level spacings):
    # both the closed formula and the transcendental roots must land within
    # ten percent of the finite-difference doublet.
    t0 = time.perf_counter()
    spec = BiasedQuartic(1.0, 2.1)
    a = analyze(spec, C)
    r = compute_splitting(spec, C, analysis=a)
    sp = eigen_lowest_two(
        spec, C, GridSpec(-4.8, 4.8, 8001, richardson=True), analysis=a
    )
    closed_err = abs(r.delta_E - sp.splitting) / sp.splitting
    trans_err = abs(r.delta_E_transcendental - sp.splitting) / sp.splitting
    elapsed = time.perf_counter() - t0
    assert closed_err <= 0.10
    assert trans_err <= 0.10
    assert elapsed < 30.0


@pytest.mark.xfail(
    strict=True,
    reason=(
        "at wells -/+1.9 the barrier is only 2.4 level spacings deep and the "
        "measured semiclassical overshoot is about 12 percent; the ten percent "
        "budget is genuinely out of reach until the formula gains another order"
    ),
)
def test_splitting_within_ten_percent_for_a_shallower_barrier():
    spec = BiasedQuartic(1.0, 1.9)
    a = analyze(spec, C)
    r = compute_splitting(spec, C, analysis=a)
    sp = eigen_lowest_two(
        spec, C, GridSpec(-4.8, 4.8, 8001, richardson=True), analysis=a
    )
    assert abs(r.delta_E - sp.splitting) / sp.splitting <= 0.10


def test_log_splitting_bias_slope_matches_the_analytic_coefficient():
    # Sextic with a 12-spacing barrier and frequency ratio exactly 1.3:
    # sweep the bias, fit ln(splitting) against it, and compare the linear
    # coefficient with its analytic value.  The correction-factor share of
    # that coefficient is twice the tolerance, so the fit genuinely
    # discriminates the corrected formula from the uncorrected one.
    t0 = time.perf_counter()
    scale = sextic_scale_for_depth(12.0)
    base = analyze(Polynomial(tuple(sextic_coeffs(scale))), C)
    assert base.omega_R / base.omega_L == pytest.approx(1.3, rel=1e-9)
    assert base.V0 / (C.hbar * base.omega_L) == pytest.approx(12.0, rel=1e-9)
    cfg = parse_config(
        {
            "schema": "tunnelkit/1",
            "potential": {"family": "polynomial", "coeffs": sextic_coeffs(scale)},
            "sweep": {
                "parameter": "tilde_eps",
                "from": 0.0,
                "to": 0.1 * C.hbar * base.omega_L,
                "steps": 11,
            },
        }
    )
    doc, _ = run_sweep(cfg)
    fit = doc["fit"]
    rel = abs(fit["c1"] - fit["c1_analytic"]) / abs(fit["c1_analytic"])
    elapsed = time.perf_counter() - t0
    assert rel <= 1e-3
    assert abs(fit["c1"]) * C.hbar * base.omega_L >= 1.0
    assert elapsed < 60.0


def test_three_splitting_routes_agree_pairwise_to_1e4(random_well_batch):
    worst = 0.0
    for _, closed, quadratic, transcendental in random_well_batch:
        scale = transcendental
        worst = max(
            worst,
            abs(closed - quadratic) / scale,
            abs(closed - transcendental) / scale,
            abs(quadratic - transcendental) / scale,
        )
    assert worst <= 1e-4


def test_matching_function_log_slope_at_zero_is_the_first_order_constant():
    h = 1e-4
    fd = (math.log(f_of_zeta(h)) - math.log(f_of_zeta(-h))) / (2.0 * h)
    assert abs(fd - K_FIRST_ORDER) <= 1e-6


def test_matching_function_linearization_residual_is_quadratically_bounded():
    # |f(z)/f(0) - exp(k z)| <= 3.5 z^2 on |z| <= 0.1.  The measured
    # residual constant is 3.14, set by the second log-derivative of f at
    # zero, which is -6.22.
    f0 = f_of_zeta(0.0)
    worst = 0.0
    for z in np.linspace(-0.1, 0.1, 2001):
        if z == 0.0:
            continue
        resid = abs(f_of_zeta(float(z)) / f0 - math.exp(K_FIRST_ORDER * z))
        worst = max(worst, resid / z**2)
    assert worst <= 3.5


@pytest.mark.xfail(
    strict=True,
    reason=(
        "a residual bound of 0.5 z^2 would need |d2 ln f/dz2| of order one at "
        "zero; the actual value is -6.22, so the tightest quadratic constant "
        "is about 3.1"
    ),
)
def test_matching_function_linearization_residual_with_unit_scale_constant():
    f0 = f_of_zeta(0.0)
    worst = 0.0
    for z in np.linspace(-0.1, 0.1, 2001):
        if z == 0.0:
            continue
        resid = abs(f_of_zeta(float(z)) / f0 - math.exp(K_FIRST_ORDER * z))
        worst = max(worst, resid / z**2)
    assert worst <= 0.5


def test_parabolic_action_identities_hold_to_1e6():
    cases = [
        (1.0, 1.0, 0.0, 10.0, 0.6),
        (1.0, 1.4, 0.1, 8.0, 0.8),
        (0.8, 1.1, 0.3, 6.0, 1.2),
        (1.2, 2.0, 0.0, 15.0, 1.0),
    ]
    worst = 0.0
    for wl, wr, te, v0, e in cases:
        spec = DoubleOscillator(wl, wr, te, v0)
        a = analyze(spec, C)
        i_l, i_r = double_oscillator_action(spec, C, e)
        res = evaluate_action(spec, C, E=e, analysis=a)
        worst = max(worst, abs(res.I_L - i_l) / i_l, abs(res.I_R - i_r) / i_r)
        lam_l = e / a.V0
        assert (a.V0 / (C.hbar * a.omega_L)) * lam_l == pytest.approx(
            e / (C.hbar * a.omega_L), rel=1e-14
        )
    assert worst <= 1e-6


def test_action_slope_matches_finite_differences_to_1e5():
    rng = np.random.default_rng(20260819)
    worst = 0.0
    for i in range(50):
        if i % 2 == 0:
            wl = float(rng.uniform(0.7, 1.5))
            wr = wl * float(rng.uniform(1.0, 1.8))
            v0 = float(rng.uniform(5.0, 14.0)) * wl
            te = float(rng.uniform(0.0, 0.15)) * wl
            spec = DoubleOscillator(wl, wr, te, v0)
        else:
            alpha = float(rng.uniform(0.5, 2.0))
            aa = float(rng.uniform(1.7, 2.4))
            beta = float(rng.uniform(0.0, 0.02)) * alpha * aa**3
            spec = BiasedQuartic(alpha, aa, beta)
        a = analyze(spec, C)
        lo = max(0.0, a.tilde_eps)
        e = lo + (a.V0 - lo) * float(rng.uniform(0.1, 0.6))
        h = 1e-5 * e
        slope = action_slope(spec, C, e, a)
        fd = (
            gamow_integral(spec, C, e + h, a) - gamow_integral(spec, C, e - h, a)
        ) / (2.0 * h)
        worst = max(worst, abs(slope - fd) / abs(slope))
    assert worst <= 1e-5


def test_eigensolver_converges_at_second_order():
    harmonic = Polynomial((0.0, 0.0, 0.5))
    values = [
        eigen_lowest_two(
            harmonic, C, GridSpec(-8.0, 8.0, n, richardson=False)
        ).E0
        for n in (201, 401, 801, 1601)
    ]
    diffs = [abs(b - a) for a, b in zip(values, values[1:])]
    orders = [math.log2(d0 / d1) for d0, d1 in zip(diffs, diffs[1:])]
    for order in orders:
        assert order == pytest.approx(2.0, abs=0.1)


def test_transcendental_roots_reduce_to_the_closed_form_to_1e3(
    random_well_batch,
):
    worst = 0.0
    for _, closed, _, transcendental in random_well_batch:
        worst = max(worst, abs(transcendental - closed) / closed)
    assert worst <= 1e-3
