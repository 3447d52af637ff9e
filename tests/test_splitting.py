"""Spectral functions, doublet formulas, and the quantization solver."""
import collections
import dataclasses
import json
import math
import unittest.mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import digamma

from tunnelkit import (
    BiasedQuartic,
    DEFAULT_CONSTANTS as C,
    DomainError,
    DoubleOscillator,
    EnergyBelowWellBottom,
    K_FIRST_ORDER,
    PhysConstants,
    Polynomial,
    QuadratureNonConvergence,
    RootNotBracketed,
    TunnelkitError,
    action_slope,
    analyze,
    compute_splitting,
    default_grid,
    delta_first_order,
    eigen_lowest_two,
    evaluate_action,
    f_of_zeta,
    g_of_zeta,
    gamow_integral,
    level_shifts,
    level_splitting,
    mirror,
    parse_config,
    solve_quantization,
    splitting,
)
from tunnelkit import cli
from tunnelkit.actions import action_rows
from tunnelkit.splitting import compute_splittings
from util import BRACKET_RTOL, BRACKET_XTOL, DEEP_WELLS, deep_quartic, deep_sextic, solve_bracketed


class TestSpectralFunctions:
    def test_first_order_constant_value(self):
        assert K_FIRST_ORDER == float(np.euler_gamma) - math.log(2.0)
        assert K_FIRST_ORDER == pytest.approx(-0.11593151565841242, abs=0.0)

    def test_density_of_states_reference_values(self):
        assert g_of_zeta(0.5) == math.sqrt(2.0 * math.pi) / math.e
        assert g_of_zeta(0.0) == pytest.approx(1.0750476034999201, rel=1e-14)

    def test_density_of_states_dips_at_one_half(self):
        # g falls on [0, 1/2) and rises on (1/2, 1]; its logarithmic slope
        # is ln(zeta + 1/2), which changes sign at zeta = 1/2.
        zs = np.linspace(0.0, 1.0, 201)
        gs = [g_of_zeta(float(z)) for z in zs]
        i_min = int(np.argmin(gs))
        assert abs(zs[i_min] - 0.5) < 0.006
        assert all(b < a for a, b in zip(gs[:100], gs[1:101]))
        assert all(b > a for a, b in zip(gs[100:-1], gs[101:]))

    def test_density_of_states_domain_edge(self):
        with pytest.raises(DomainError):
            g_of_zeta(-0.5)
        with pytest.raises(DomainError):
            g_of_zeta(-0.7)
        with pytest.raises(DomainError):
            f_of_zeta(1.0)
        with pytest.raises(DomainError):
            f_of_zeta(-200.0)

    @pytest.mark.parametrize(
        "function, bound",
        [(g_of_zeta, "zeta > -1/2"), (f_of_zeta, "zeta < 1")],
        ids=["g_of_zeta", "f_of_zeta"],
    )
    def test_nan_lies_outside_the_domain(self, function, bound):
        with pytest.raises(DomainError, match=rf"requires {bound}, got nan$"):
            function(math.nan)

    def test_matching_function_value_at_zero(self):
        assert f_of_zeta(0.0) == pytest.approx(
            1.0 / math.sqrt(4.0 * math.e * math.pi), abs=2e-16
        )
        assert f_of_zeta(0.0) == pytest.approx(0.17109914015610825, abs=0.0)

    def test_matching_function_log_slope_at_zero(self):
        h = 1e-4
        fd = (math.log(f_of_zeta(h)) - math.log(f_of_zeta(-h))) / (2.0 * h)
        assert fd == pytest.approx(K_FIRST_ORDER, abs=1e-6)

    def test_digamma_matches_scipy_where_newton_uses_it(self):
        # _dlnf takes psi(1 - zeta) for |zeta| < 0.4.
        for x in np.linspace(0.6, 1.4, 8001):
            assert abs(splitting._digamma(float(x)) - digamma(x)) <= 2e-15

    def test_log_slope_stays_under_the_bound_newton_skips_it_by(self):
        # |d(ln f)/dzeta| peaks at 8.24 on |zeta| <= 0.4, at zeta = 0.4.
        peak = max(abs(splitting._dlnf(float(z))) for z in np.linspace(-0.4, 0.4, 20001))
        assert 8.2 < peak < 8.25 < splitting._DLNF_BOUND

    @pytest.mark.parametrize("zeta", [0.0, -0.0, 5e-324, -5e-324, 2.0**-60, -(2.0**-60)])
    def test_a_zeta_too_small_to_move_one_half_or_one_gives_f0s_bits(
        self, monkeypatch, zeta
    ):
        # 0.5 + zeta == 0.5 and 1 - zeta == 1: the stored f(0) is returned,
        # and the full formula at zeta gives the same bits
        f0 = math.cos(0.0) * math.gamma(1.0) * g_of_zeta(0.0) / (2.0 * math.pi)
        assert splitting._weight(zeta).hex() == f0.hex()
        full = []
        monkeypatch.setattr(splitting, "_weight", lambda z: full.append(z) or f0)
        assert f_of_zeta(zeta).hex() == f0.hex()
        assert full == []

    @pytest.mark.parametrize("zeta", [2.0**-52, -(2.0**-52)])
    def test_a_zeta_that_moves_one_half_takes_the_full_formula(self, monkeypatch, zeta):
        weight, full = splitting._weight, []
        monkeypatch.setattr(splitting, "_weight", lambda z: full.append(z) or weight(z))
        assert f_of_zeta(zeta).hex() == weight(zeta).hex()
        assert full == [zeta]

    def test_matching_function_log_slope_converges_with_step(self):
        errs = []
        for h in (1e-3, 1e-4):
            fd = (math.log(f_of_zeta(h)) - math.log(f_of_zeta(-h))) / (2.0 * h)
            errs.append(abs(fd - K_FIRST_ORDER))
        assert errs[1] < errs[0] / 50.0


class TestFirstOrderSplitting:
    def test_reference_arithmetic(self):
        # hbar = 1, omega_L = 1, omega_R = 1.2, zero static bias, so
        # eps = 0.1 from the zero-point mismatch alone; at I = 7 the
        # formula is a product of plain factors.
        spec = DoubleOscillator(1.0, 1.2, 0.0, 8.0)
        a = analyze(spec, C)
        assert a.eps == pytest.approx(0.1, rel=1e-14)
        d = delta_first_order(a, 7.0)
        manual = (
            (math.sqrt(1.2) / math.sqrt(math.e * math.pi))
            * (1.0 + (K_FIRST_ORDER / 4.0) * 0.1 * (0.2 / 1.2))
            * math.exp(-7.0)
        )
        assert d == pytest.approx(manual, rel=1e-14)

    def test_bias_derivative_of_the_log_splitting(self):
        # d(ln Delta)/d(tilde_eps) has two terms: the explicit correction
        # factor and the action moving with the mean level.  Compare the
        # analytic value against a central difference of the full formula.
        spec = DoubleOscillator(1.0, 1.3, 0.05, 9.0)
        a = analyze(spec, C)

        def delta_at(te):
            dialed = dataclasses.replace(a, tilde_eps=te)
            return delta_first_order(dialed, gamow_integral(spec, C, dialed.E_bar, dialed))

        h = 1e-4
        fd = (math.log(delta_at(0.05 + h)) - math.log(delta_at(0.05 - h))) / (2 * h)
        slope = action_slope(spec, C, a.E_bar, a)
        analytic = (
            (K_FIRST_ORDER / 4.0)
            * (1.0 / (C.hbar * a.omega_L))
            * ((a.omega_R - a.omega_L) / a.omega_R)
            - slope / 2.0
        )
        assert fd == pytest.approx(analytic, rel=1e-4)


class TestLevelArithmetic:
    def test_splitting_is_the_euclidean_combination(self):
        assert level_splitting(3.0, 4.0) == 5.0
        assert level_splitting(0.0, -2.5) == 2.5
        assert level_splitting(-1.0, 0.0) == 1.0
        assert level_splitting(1e300, 1e300) == pytest.approx(
            math.sqrt(2.0) * 1e300, rel=1e-15
        )

    def test_shift_formulas_recompute(self):
        spec = DoubleOscillator(1.0, 1.4, 0.1, 8.0)
        a = analyze(spec, C)
        act = evaluate_action(spec, C, analysis=a)
        ls = level_shifts(a, act)
        wl, wr = a.omega_L, a.omega_R
        u = 2.0 * act.I_slope - K_FIRST_ORDER * (wl + wr) / (C.hbar * wl * wr)
        b = C.hbar**2 * wl * wr * math.exp(-2.0 * act.I) * u / (8 * math.pi * math.e)
        root = math.sqrt((a.eps / 2) ** 2 + (ls.delta / 2) ** 2 + b**2)
        # bit for bit: the rescaled forms of level_shifts take over only
        # where a term of these leaves the float range
        assert (ls.u, ls.b_prime, ls.dE_plus, ls.dE_minus) == (u, b, -b - root, -b + root)

    def test_common_shift_is_tiny_and_upward(self):
        spec = DoubleOscillator(1.0, 1.4, 0.1, 8.0)
        a = analyze(spec, C)
        act = evaluate_action(spec, C, analysis=a)
        ls = level_shifts(a, act)
        assert ls.u < 0.0
        assert ls.b_prime < 0.0
        assert ls.dE_plus + ls.dE_minus == pytest.approx(-2 * ls.b_prime, rel=1e-12)
        assert abs(2.0 * ls.b_prime) < 1e-3 * ls.delta

    def test_gap_reduces_to_the_closed_form_when_shift_vanishes(self):
        spec = DoubleOscillator(1.0, 1.4, 0.1, 8.0)
        a = analyze(spec, C)
        act = evaluate_action(spec, C, analysis=a)
        ls = level_shifts(a, act)
        gap = ls.dE_minus - ls.dE_plus
        closed = level_splitting(a.eps, ls.delta)
        assert gap == pytest.approx(closed, rel=1e-6)


class TestSolveQuantization:
    @pytest.mark.parametrize(
        "spec",
        [
            BiasedQuartic(1.0, 2.1),
            BiasedQuartic(0.7, 2.3, 0.3),
            DoubleOscillator(1.0, 1.4, 0.1, 8.0),
            DoubleOscillator(0.9, 1.6, 0.0, 10.0),
        ],
        ids=["quartic", "tilted_quartic", "do_biased", "do_stiff_right"],
    )
    def test_roots_leave_negligible_residual(self, spec):
        a = analyze(spec, C)
        q = solve_quantization(spec, C, analysis=a)
        assert q.E_minus > q.E_plus
        scale = max(abs(q.zeta_L_plus), abs(q.zeta_R_plus), 1e-12)
        assert abs(q.residual_plus) < 1e-10 * scale
        assert abs(q.residual_minus) < 1e-10 * scale

    def test_symmetric_roots_satisfy_the_reduced_condition(self):
        # With eps = 0 each root collapses to zeta = -/+ f(zeta) e^(-I(E)).
        spec = BiasedQuartic(1.0, 2.1)
        a = analyze(spec, C)
        q = solve_quantization(spec, C, analysis=a)
        for e, zl, sign in (
            (q.E_plus, q.zeta_L_plus, -1.0),
            (q.E_minus, q.zeta_L_minus, 1.0),
        ):
            i_e = gamow_integral(spec, C, e, a)
            assert zl == pytest.approx(sign * f_of_zeta(zl) * math.exp(-i_e), rel=1e-8)

    def test_levels_straddle_the_mean(self):
        spec = DoubleOscillator(1.0, 1.4, 0.1, 8.0)
        a = analyze(spec, C)
        q = solve_quantization(spec, C, analysis=a)
        assert q.E_plus < a.E_bar < q.E_minus

    def test_shallow_barrier_cannot_bracket_roots(self):
        with pytest.raises(RootNotBracketed, match="E_minus near E_bar = 2.59924: iterate left the energy window"):
            solve_quantization(BiasedQuartic(3.0, 1.0, 0.15), C)

    def test_a_step_that_does_not_settle_is_named(self, monkeypatch):
        # The deep quartic's E_plus takes two iterates; allowed one, it
        # ends unsettled, and E_minus is not reported.
        monkeypatch.setattr(splitting, "_NEWTON_STEPS", 1)
        with pytest.raises(RootNotBracketed, match="E_plus near .*: step not settled in 1 iterates"):
            solve_quantization(BiasedQuartic(1.0, 2.1), C)

    def test_root_beyond_the_zeta_bound_is_not_bracketed(self):
        # eps = 0.45 hbar omega_L puts zeta_L of the upper root at 0.450,
        # beyond the doublet bound 0.4.  The bracketed reference still
        # "finds" it, but only by evaluating f(0.4) in place of f(0.45):
        # the root of a different equation.
        spec = DoubleOscillator(1.0, 1.3, 0.3, 4.0)
        a = analyze(spec, C)
        act = evaluate_action(spec, C, analysis=a)
        clamped = solve_bracketed(spec, C, a, level_shifts(a, act), 1e-12)
        assert clamped.zeta_L_minus == pytest.approx(0.450, abs=5e-4)
        with pytest.raises(RootNotBracketed, match=r"E_minus .*: iterate left \|zeta\| < 0\.4 \(zeta_L = 0\.450\)"):
            solve_quantization(spec, C, analysis=a)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(spec=DEEP_WELLS, mirrored=st.booleans())
def test_newton_roots_match_the_bracketed_reference(spec, mirrored):
    if mirrored:
        spec = mirror(spec)
    a = analyze(spec, C)
    act = evaluate_action(spec, C, analysis=a)
    shifts = level_shifts(a, act)
    lo_lim, hi_lim = splitting._energy_window(a, a.v(a.x_R))
    # deep wells find both roots by Newton from the quadratic shifts
    ends = splitting._newton_root(
        [a, a],
        [shifts.dE_plus, shifts.dE_minus],
        [(lo_lim - a.E_bar, 0.0), (0.0, hi_lim - a.E_bar)],
        1e-12,
        [None, None],
    )
    assert all(isinstance(end, tuple) for end in ends), ends
    r = compute_splitting(spec, C, analysis=a)
    q = r.roots
    ref = solve_bracketed(spec, C, a, shifts, 1e-12)
    assert q.E_plus == pytest.approx(ref.E_plus, rel=1e-12, abs=0.0)
    assert q.E_minus == pytest.approx(ref.E_minus, rel=1e-12, abs=0.0)
    # The reference's gap carries its own root tolerance on each root.
    gap = r.delta_E_transcendental
    ref_tol = 2.0 * (BRACKET_XTOL + BRACKET_RTOL * abs(a.E_bar))
    assert abs(gap - (ref.E_minus - ref.E_plus)) <= 1e-12 * gap + ref_tol
    scale = max(abs(q.zeta_L_plus), abs(q.zeta_R_plus), 1e-12)
    assert abs(q.residual_plus) < 1e-10 * scale
    assert abs(q.residual_minus) < 1e-10 * scale


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(spec=DEEP_WELLS, mirrored=st.booleans())
def test_skipping_the_log_slope_of_f_moves_no_root(spec, mirrored):
    # With _DLNF_BOUND infinite the slope rule never holds and every row
    # takes d(ln f)/dzeta: the roots, residuals and zetas are the same bits.
    if mirrored:
        spec = mirror(spec)
    a = analyze(spec, C)
    shifts = level_shifts(a, evaluate_action(spec, C, analysis=a))
    lo_lim, hi_lim = splitting._energy_window(a, a.v(a.x_R))

    def ends():
        return splitting._newton_root(
            [a, a],
            [shifts.dE_plus, shifts.dE_minus],
            [(lo_lim - a.E_bar, 0.0), (0.0, hi_lim - a.E_bar)],
            1e-12,
            [None, None],
        )

    skipped = ends()
    with unittest.mock.patch.object(splitting, "_DLNF_BOUND", math.inf):
        assert repr(ends()) == repr(skipped)
    assert all(isinstance(end, tuple) for end in skipped), skipped


# Wells 1 to 8 level spacings deep with biases up to 0.4 hbar omega_L, so
# that the shallow, strongly biased end puts roots past |zeta| = 0.4.
WIDE_WELLS = st.one_of(
    st.builds(deep_quartic, st.floats(1.0, 8.0), st.floats(0.8, 1.5), st.floats(0.0, 0.4)),
    st.builds(
        DoubleOscillator,
        st.just(1.0),
        st.floats(0.7, 1.3),
        st.floats(0.0, 0.4),
        st.floats(1.0, 8.0),
    ),
    st.builds(deep_sextic, st.floats(1.0, 8.0), st.floats(0.0, 0.3)),
)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(spec=WIDE_WELLS, mirrored=st.booleans())
def test_newton_finds_every_root_the_reference_finds_inside_the_zeta_bound(spec, mirrored):
    # Where the bracketed reference finds both roots with |zeta| < 0.4, its
    # clamp is inactive and it solves the same equation as Newton, which
    # must then succeed too.  Elsewhere there is nothing to compare.
    if mirrored:
        spec = mirror(spec)
    a = analyze(spec, C)
    act = evaluate_action(spec, C, analysis=a)
    try:
        ref = solve_bracketed(spec, C, a, level_shifts(a, act), 1e-12)
    except RootNotBracketed:
        return
    zetas = (ref.zeta_L_plus, ref.zeta_R_plus, ref.zeta_L_minus, ref.zeta_R_minus)
    if max(abs(z) for z in zetas) >= 0.4:
        return
    q = solve_quantization(spec, C, analysis=a)
    assert q.E_plus == pytest.approx(ref.E_plus, rel=1e-12, abs=0.0)
    assert q.E_minus == pytest.approx(ref.E_minus, rel=1e-12, abs=0.0)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(spec=DEEP_WELLS)
def test_analysis_and_splitting_are_mirror_invariant(spec):
    twin = mirror(spec)
    a, b = analyze(spec, C), analyze(twin, C)
    expected = {"omega_L": a.omega_L, "omega_R": a.omega_R, "eps": a.eps}
    if b.omega_L != pytest.approx(a.omega_L, rel=1e-12):
        # Equal floors leave the axis as given, so the twin sees the same
        # curve from the other side: the wells swap and eps changes sign.
        assert abs(a.tilde_eps) <= 1e-12 * a.V0
        expected = {"omega_L": a.omega_R, "omega_R": a.omega_L, "eps": -a.eps}
    expected.update(E_bar=a.E_bar, V0=a.V0)
    for name, value in expected.items():
        assert getattr(b, name) == pytest.approx(value, rel=1e-12), name
    r = compute_splitting(spec, C, analysis=a, solve=False)
    t = compute_splitting(twin, C, analysis=b, solve=False)
    assert t.I_bar == pytest.approx(r.I_bar, rel=1e-12)
    assert t.delta_E == pytest.approx(r.delta_E, rel=1e-12)


# On symmetric quartics 7 to 10 spacings deep the splitting is at most a
# few ulp(E_bar), so two roots in absolute E would lose it.  The solve
# works on the offsets from E_bar and keeps it to rounding.
@pytest.mark.parametrize("depth", [7.0, 8.0, 9.0, 10.0])
def test_transcendental_splitting_resolves_deep_symmetric_wells(depth):
    spec = deep_quartic(depth, 1.0, 0.0)
    r = compute_splitting(spec, C)
    assert r.delta_E_transcendental == pytest.approx(r.delta_E, rel=1e-4, abs=0.0)


def test_newton_starts_inside_its_side_of_an_eight_spacing_symmetric_well():
    # E_bar + dE_plus rounds to E_bar = 32; the offset dE_plus does not.
    spec = deep_quartic(8.0, 1.0, 0.0)
    a = analyze(spec, C)
    shifts = level_shifts(a, evaluate_action(spec, C, analysis=a))
    lo_lim, _ = splitting._energy_window(a, a.v(a.x_R))
    assert a.E_bar + shifts.dE_plus == a.E_bar
    [end] = splitting._newton_root([a], [shifts.dE_plus], [(lo_lim - a.E_bar, 0.0)], 1e-12, [None])
    assert isinstance(end, tuple), end


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(spec=DEEP_WELLS, mirrored=st.booleans())
def test_the_three_routes_agree_on_deep_wells(spec, mirrored):
    if mirrored:
        spec = mirror(spec)
    r = compute_splitting(spec, C)
    assert r.delta_E_quadratic == pytest.approx(r.delta_E, rel=1e-4, abs=0.0)
    assert r.delta_E_transcendental == pytest.approx(r.delta_E, rel=1e-4, abs=0.0)


# Deep wells whose doublet is split mostly by the bias, |eps| >= 0.02 hbar
# omega_L, so that every route resolves it well above ulp(E_bar) (the
# symmetric limit is pinned above).  The sextic's frequency ratio
# alone gives eps = -0.115 hbar omega_L, and its tilt adds at most 0.05.
# Each shape comes with the constants that should leave every energy
# unchanged: (hbar, m) -> (lam hbar, lam^2 m) for the smooth families,
# whose shape is fixed in x, and m -> lam m for the double oscillator,
# whose frequencies are.
SCALED_WELLS = st.one_of(
    st.tuples(
        st.builds(deep_quartic, st.floats(4.0, 8.0), st.floats(0.8, 1.5), st.floats(0.02, 0.15)),
        st.floats(0.5, 2.0).map(lambda lam: PhysConstants(hbar=lam, mass=lam * lam)),
    ),
    st.tuples(
        st.builds(deep_sextic, st.floats(4.0, 8.0), st.floats(0.0, 0.05)),
        st.floats(0.5, 2.0).map(lambda lam: PhysConstants(hbar=lam, mass=lam * lam)),
    ),
    st.tuples(
        st.builds(
            DoubleOscillator,
            st.just(1.0),
            st.floats(1.0, 1.3),
            st.floats(0.02, 0.15),
            st.floats(4.0, 8.0),
        ),
        st.floats(0.5, 2.0).map(lambda lam: PhysConstants(hbar=1.0, mass=lam)),
    ),
)


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(case=SCALED_WELLS)
def test_energies_and_action_are_invariant_under_unit_scaling(case):
    spec, scaled = case
    a, b = analyze(spec, C), analyze(spec, scaled)
    r = compute_splitting(spec, C, analysis=a)
    t = compute_splitting(spec, scaled, analysis=b)
    assert b.E_bar == pytest.approx(a.E_bar, rel=1e-12, abs=0.0)
    for name in ("I_bar", "delta_E", "delta_E_quadratic", "delta_E_transcendental"):
        assert getattr(t, name) == pytest.approx(getattr(r, name), rel=1e-12, abs=0.0), name


def _hbar_twin(spec):
    # V'(x) = 4 V(x / 2) with hbar = 4: the action is unchanged, the
    # frequencies too, and every energy is 4 times larger.
    if isinstance(spec, BiasedQuartic):
        return BiasedQuartic(spec.alpha / 4.0, 2.0 * spec.a, 2.0 * spec.beta)
    if isinstance(spec, DoubleOscillator):
        return DoubleOscillator(spec.omega_L, spec.omega_R, 4.0 * spec.tilde_eps, 4.0 * spec.V0)
    return Polynomial(tuple(c * 4.0 ** (1.0 - i / 2.0) for i, c in enumerate(spec.coeffs)))


def _mass_twin(spec):
    # V'(x) = V(2 x) with mass = 4: the action, the frequencies and every
    # energy are unchanged.  The double oscillator's branches are fixed by
    # their frequencies, so it stays as it is.
    if isinstance(spec, BiasedQuartic):
        return BiasedQuartic(16.0 * spec.alpha, spec.a / 2.0, 2.0 * spec.beta)
    if isinstance(spec, DoubleOscillator):
        return spec
    return Polynomial(tuple(c * 2.0**i for i, c in enumerate(spec.coeffs)))


def _doublet(spec, consts):
    # I_bar and the three splittings in units of hbar omega_L, and the
    # (zeta_L, zeta_R) of each root
    a = analyze(spec, consts)
    r = compute_splitting(spec, consts, analysis=a)
    q, hw = r.roots, consts.hbar * a.omega_L
    values = {
        "I_bar": r.I_bar,
        "delta_E": r.delta_E / hw,
        "delta_E_quadratic": r.delta_E_quadratic / hw,
        "delta_E_transcendental": r.delta_E_transcendental / hw,
    }
    zetas = {
        "E_plus": (q.zeta_L_plus, q.zeta_R_plus),
        "E_minus": (q.zeta_L_minus, q.zeta_R_minus),
    }
    return values, zetas


# Every scale is a power of 2, so each twin is the same well in other
# units up to the roundings of its own arithmetic.
@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(spec=DEEP_WELLS, mirrored=st.booleans())
def test_hbar_and_mass_twins_give_the_same_doublet(spec, mirrored):
    flip = mirror if mirrored else (lambda s: s)
    values, zetas = _doublet(flip(spec), C)
    for twin, consts in (
        (_hbar_twin(spec), PhysConstants(hbar=4.0)),
        (_mass_twin(spec), PhysConstants(mass=4.0)),
    ):
        twin_values, twin_zetas = _doublet(flip(twin), consts)
        for name, value in values.items():
            assert twin_values[name] == pytest.approx(value, rel=1e-12, abs=0.0), (consts, name)
        for root, pair in zetas.items():
            assert twin_zetas[root] == pytest.approx(pair, rel=1e-12, abs=0.0), (consts, root)


def _outcome(call):
    # the repr of a call's value, which shows every bit of its floats, or
    # the type and message of the TunnelkitError it raised
    try:
        return repr(call())
    except TunnelkitError as exc:
        return f"{type(exc).__name__}: {exc}"


# hbar and m enter every route together, in the action and in each zeta,
# so a call handed an analysis takes both from it.  The constants passed
# beside the analysis only build a missing one.
@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(spec=DEEP_WELLS)
def test_hbar_and_mass_come_from_the_analysis(spec):
    for twin, consts in (
        (_hbar_twin(spec), PhysConstants(hbar=4.0)),
        (_mass_twin(spec), PhysConstants(mass=4.0)),
    ):
        a = analyze(twin, consts)
        grid = dataclasses.replace(default_grid(twin, consts, a), n_points=401, richardson=False)
        calls = {
            "gamow_integral": lambda c: gamow_integral(twin, c, a.E_bar, a),
            "action_slope": lambda c: action_slope(twin, c, a.E_bar, a),
            "evaluate_action": lambda c: evaluate_action(twin, c, analysis=a),
            "compute_splitting": lambda c: compute_splitting(twin, c, analysis=a),
            "solve_quantization": lambda c: solve_quantization(twin, c, analysis=a),
            "eigen_lowest_two": lambda c: eigen_lowest_two(twin, c, grid, analysis=a),
        }
        for name, call in calls.items():
            own = _outcome(lambda: call(consts))
            assert _outcome(lambda: call(C)) == own, (consts, name)


def _unguessed(analyses, energies, *, tentative=0, **kwargs):
    # action_rows with every tentative row None, as the kernel returns a
    # guess that does not settle: no Newton start takes a guess
    firm = len(energies) - tentative
    return action_rows(analyses[:firm], energies[:firm], **kwargs) + [None] * tentative


def _with_and_without_guesses(call):
    # the _outcome of call as it runs, and with no guess taken
    outcomes = [_outcome(call)]
    with unittest.mock.patch.object(splitting, "action_rows", _unguessed):
        outcomes.append(_outcome(call))
    return outcomes


# A single point takes its guesses into the first batch, as a sweep does.
# Taken or not, each point has the same bits, or the same error: on deep
# wells, on shallow ones whose starts miss, on mirrored specs and on hbar
# and mass twins.
@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(spec=DEEP_WELLS, mirrored=st.booleans())
def test_the_single_point_guesses_move_no_bit(spec, mirrored):
    flip = mirror if mirrored else (lambda s: s)
    for twin, consts in (
        (spec, C),
        (_hbar_twin(spec), PhysConstants(hbar=4.0)),
        (_mass_twin(spec), PhysConstants(mass=4.0)),
    ):
        twin = flip(twin)
        guessed, alone = _with_and_without_guesses(lambda: compute_splitting(twin, consts))
        assert guessed == alone, (consts, twin)


@pytest.mark.parametrize(
    "spec",
    [
        BiasedQuartic(3.0, 1.0, 0.15),
        BiasedQuartic(3.0, 2.0, 0.15),
        DoubleOscillator(1.0, 1.3, 0.3, 4.0),
        DoubleOscillator(1.3, 0.9, 0.4, 8.0),
        Polynomial((0.0, 0.0, -4.0, 0.3, 1.0)),
        mirror(deep_sextic(4.0, 0.1)),
    ],
)
def test_the_single_point_guesses_move_no_error(spec):
    guessed, alone = _with_and_without_guesses(lambda: compute_splitting(spec, C))
    assert guessed == alone


def _dialed(spec, span, steps):
    # the analyses of a sweep of tilde_eps over span level spacings, as
    # run_sweep dials them
    a = analyze(spec, C, require_wkb=True)
    hw = C.hbar * a.omega_L
    return [
        dataclasses.replace(a, tilde_eps=a.tilde_eps + span * i / (steps - 1) * hw)
        for i in range(steps)
    ]


def _spied_batches(monkeypatch):
    # the energies of every action_rows batch of the splitting module
    batches = []

    def spy(analyses, energies, **kwargs):
        batches.append(list(energies))
        return action_rows(analyses, energies, **kwargs)

    monkeypatch.setattr(splitting, "action_rows", spy)
    return batches


class TestComputeSplitting:
    def test_collects_all_three_routes(self):
        spec = DoubleOscillator(1.0, 1.4, 0.1, 8.0)
        a = analyze(spec, C)
        r = compute_splitting(spec, C, analysis=a)
        act = evaluate_action(spec, C, analysis=a)
        assert r.action == act
        assert r.I_bar == act.I
        assert r.shifts == level_shifts(a, act)
        assert r.delta_E == level_splitting(a.eps, r.shifts.delta)
        assert r.delta_E_quadratic == r.shifts.dE_minus - r.shifts.dE_plus
        assert r.roots == solve_quantization(spec, C, analysis=a)
        assert r.delta_E_transcendental == C.hbar * a.omega_L * (
            r.roots.zeta_L_minus - r.roots.zeta_L_plus
        )
        assert r.delta_E_transcendental == pytest.approx(
            r.roots.E_minus - r.roots.E_plus, rel=1e-12, abs=0.0
        )
        assert r.delta_E_transcendental == pytest.approx(r.delta_E, rel=1e-4)

    def test_each_point_of_a_batch_is_its_own_compute_splitting(self):
        # Dialed as run_sweep dials them, these points end in three
        # outcomes: solved; RootNotBracketed, which keeps the result without
        # roots (past the zeta bound, or where a Newton iterate would leave
        # the window above the curve's right floor); and an
        # EnergyBelowWellBottom of the action at E_bar, which leaves no result.
        spec = Polynomial((0.0, 0.0, -4.0, 0.3, 1.0))
        base = analyze(spec, C, require_wkb=True)
        points = [dataclasses.replace(base, tilde_eps=-1.0 + i * 3.0 / 30) for i in range(31)]
        assert compute_splittings([]) == []
        outcomes = []
        for point, (result, error) in zip(points, compute_splittings(points)):
            try:
                expected = compute_splitting(spec, C, analysis=point)
            except TunnelkitError as exc:
                assert type(error) is type(exc) and str(error) == str(exc)
                if result is not None:
                    assert result == compute_splitting(spec, C, analysis=point, solve=False)
                outcomes.append((type(error), result is not None))
            else:
                assert error is None and result == expected
                outcomes.append((None, True))
        assert collections.Counter(outcomes) == {
            (None, True): 19,
            (RootNotBracketed, True): 7,
            (EnergyBelowWellBottom, False): 5,
        }

    def test_a_deep_sweep_is_one_batch_of_the_action_kernel(self, monkeypatch):
        # Every Newton start of this 41-point sweep lands bit for bit on its
        # guess E_bar -/+ |eps|/2, which the batch of the mean levels takes
        # too, and settles there, where d(ln f)/dzeta cannot move its slope.
        points = _dialed(deep_quartic(6.0, 1.0, 0.1), 0.1, 41)
        batches = _spied_batches(monkeypatch)
        dlnf, log_slope = [], splitting._dlnf
        monkeypatch.setattr(splitting, "_dlnf", lambda z: dlnf.append(z) or log_slope(z))
        outcomes = compute_splittings(points)
        monkeypatch.undo()
        assert [len(energies) for energies in batches] == [123] and dlnf == []
        for point, (result, error) in zip(points, outcomes):
            assert error is None
            assert result == compute_splitting(point.spec, C, analysis=point)

    def test_a_deep_point_is_one_batch_of_three_energies(self, monkeypatch):
        # Both starts land on the guesses, which the one batch takes beside
        # E_bar, so no root goes back.
        spec = deep_quartic(6.0, 1.0, 0.1)
        a = analyze(spec, C)
        half = 0.5 * abs(a.eps)
        batches = _spied_batches(monkeypatch)
        result = compute_splitting(spec, C, analysis=a)
        monkeypatch.undo()
        assert batches == [[a.E_bar, a.E_bar - half, a.E_bar + half]]
        with unittest.mock.patch.object(splitting, "action_rows", _unguessed):
            assert repr(compute_splitting(spec, C, analysis=a)) == repr(result)

    def test_a_double_oscillator_point_takes_its_guesses_and_misses(self, monkeypatch):
        # I_bar is about 11 here: Delta moves the starts off the guesses,
        # which the first batch takes all the same, so the roots take the
        # batches after it, to the bits of a solve with no guess taken.
        spec = DoubleOscillator(1.0, 1.4, 0.1, 8.0)
        a = analyze(spec, C)
        half = 0.5 * abs(a.eps)
        batches = _spied_batches(monkeypatch)
        result = compute_splitting(spec, C, analysis=a)
        monkeypatch.undo()
        assert batches[0] == [a.E_bar, a.E_bar - half, a.E_bar + half] and len(batches) > 1
        starts = {a.E_bar + result.shifts.dE_plus, a.E_bar + result.shifts.dE_minus}
        assert not starts & {a.E_bar - half, a.E_bar + half} and batches[1] == sorted(starts)
        with unittest.mock.patch.object(splitting, "action_rows", _unguessed):
            assert repr(compute_splitting(spec, C, analysis=a)) == repr(result)

    @pytest.mark.parametrize(
        "spec,consts",
        [
            # hbar omega_L underflows to 0 while E_bar clears both floors:
            # Delta's first-order term divides by it
            (DoubleOscillator(1e-30, 1e30, 0.0, 1e-100), PhysConstants(hbar=1e-300)),
            # hbar omega_L and so E_bar underflow to 0, below the floor
            (
                BiasedQuartic(1.8564933371216466e-267, 1.1690832898342962),
                PhysConstants(hbar=1.8564933371216466e-267, mass=1.1690832898342962),
            ),
        ],
        ids=["delta_divides_by_zero", "mean_level_at_zero"],
    )
    def test_the_guesses_move_no_error_where_the_quantum_underflows(self, spec, consts):
        a = analyze(spec, consts)
        assert consts.hbar * a.omega_L == 0.0
        with pytest.raises(TunnelkitError):
            compute_splitting(spec, consts, analysis=a)
        guessed, alone = _with_and_without_guesses(lambda: compute_splitting(spec, consts, analysis=a))
        assert guessed == alone

    @pytest.mark.parametrize(
        "spec,missed",
        [(deep_quartic(5.0, 1.0, 0.0), 2), (DoubleOscillator(1.0, 1.3, 0.0, 3.0), 42)],
        ids=["symmetric_first_point", "three_spacings"],
    )
    def test_only_the_roots_that_miss_their_guesses_go_to_the_kernel_again(
        self, monkeypatch, spec, missed
    ):
        # The quartic's first point has eps = 0, where Delta is above an
        # ulp of the guess; on the shallow oscillator every start misses.
        points = _dialed(spec, 0.1, 21)
        batches = _spied_batches(monkeypatch)
        outcomes = compute_splittings(points)
        monkeypatch.undo()
        misses = []
        for point, (result, error) in zip(points, outcomes):
            assert error is None
            assert result == compute_splitting(spec, C, analysis=point)
            e_bar, half = point.E_bar, 0.5 * abs(point.eps)
            starts = (e_bar + result.shifts.dE_plus, e_bar + result.shifts.dE_minus)
            misses += [e for e in starts if e not in (e_bar - half, e_bar + half)]
        assert len(batches[0]) == 63 and len(misses) == missed
        assert batches[1] == misses

    def test_guesses_near_the_barrier_top_cost_one_pass_and_move_no_point(self, monkeypatch):
        # The README's shallow quartic dialed up by 0.1 of a level spacing
        # puts upper guesses next to the barrier top, where the quadrature
        # does not settle: those come back None from the first batch, and
        # every point is still its own compute_splitting.
        points = _dialed(BiasedQuartic(3.0, 1.0, 0.15), 0.1, 41)
        batches = []

        def spy(analyses, energies, **kwargs):
            batches.append(action_rows(analyses, energies, **kwargs))
            return batches[-1]

        monkeypatch.setattr(splitting, "action_rows", spy)
        outcomes = compute_splittings(points)
        monkeypatch.undo()
        assert None in batches[0][41:]
        for point, (result, error) in zip(points, outcomes):
            with pytest.raises(RootNotBracketed) as raised:
                compute_splitting(point.spec, C, analysis=point)
            assert type(error) is RootNotBracketed and str(error) == str(raised.value)
            assert result == compute_splitting(point.spec, C, analysis=point, solve=False)

    def test_an_action_error_in_a_newton_iterate_ends_the_solve(self, monkeypatch, tmp_path, capsys):
        # One row of the second action_rows batch fails: an iterate of
        # E_plus, since compute_splittings and run_analyze take the mean
        # level's action in the first batch and compute_splitting takes it
        # from evaluate_action.  The action's error is the solve's: every
        # caller raises it, and none reads it as an unbracketed root.
        error = QuadratureNonConvergence("injected into a Newton iterate")

        def inject():
            batches = []

            def second_fails(analyses, E, *, rtol, tentative=0):
                rows = action_rows(analyses, E, rtol=rtol, tentative=tentative)
                batches.append(rows)
                if len(batches) == 2:
                    rows[0] = error
                return rows

            monkeypatch.setattr(splitting, "action_rows", second_fails)

        spec = DoubleOscillator(1.0, 1.4, 0.1, 8.0)
        a = analyze(spec, C, require_wkb=True)
        inject()
        [(result, err)] = compute_splittings([a])
        assert err is error
        assert result.roots is None and result == compute_splitting(spec, C, analysis=a, solve=False)
        inject()
        with pytest.raises(QuadratureNonConvergence) as raised:
            compute_splitting(spec, C, analysis=a)
        assert raised.value is error
        doc = {
            "schema": "tunnelkit/1",
            "potential": {
                "family": "double_oscillator", "omega_L": 1.0, "omega_R": 1.4, "tilde_eps": 0.1, "V0": 8.0,
            },
        }
        inject()
        with pytest.raises(QuadratureNonConvergence) as raised:
            cli.run_analyze(parse_config(doc))
        assert raised.value is error
        path = tmp_path / "analyze.json"
        path.write_text(json.dumps(doc))
        inject()
        assert cli.main(["analyze", str(path)]) == 4
        assert capsys.readouterr().err == "numerical error: injected into a Newton iterate\n"

    def test_solve_flag_off_leaves_transcendental_fields_empty(self):
        spec = BiasedQuartic(3.0, 1.0, 0.15)
        r = compute_splitting(spec, C, solve=False)
        assert r.roots is None
        assert math.isnan(r.delta_E_transcendental)
        assert r.delta_E > 0.0
