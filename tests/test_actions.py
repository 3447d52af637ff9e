"""Barrier actions: quadrature, closed forms, slopes, asymptotic expansion."""
import dataclasses
import math

import numpy as np
import pytest
import tunnelkit.actions
import tunnelkit.potentials
from hypothesis import given, settings, strategies as st

from tunnelkit import (
    BiasedQuartic,
    DEFAULT_CONSTANTS as C,
    DoubleOscillator,
    EnergyAboveBarrier,
    EnergyBelowWellBottom,
    Mirrored,
    NumericsError,
    PhysConstants,
    Polynomial,
    QuadratureNonConvergence,
    TunnelkitError,
    action_slope,
    adaptive_quadrature,
    analyze,
    double_oscillator_action,
    evaluate,
    evaluate_action,
    gamow_integral,
    mirror,
    panel_quadrature,
    turning_points,
)
from tunnelkit.actions import action_rows
from tunnelkit.quadrature import _panel_nodes, _panel_sums
from tunnelkit.splitting import compute_splittings
from util import (
    DEEP_WELLS,
    deep_quartic,
    reference_action,
    reference_asymptotic_action,
    reference_flank_integrals,
    reference_gamow_parts,
    reference_slope,
    reference_turning_points,
    sextic_coeffs,
)


class TestQuadrature:
    def test_panel_quadrature_matches_analytic_integral(self):
        val = panel_quadrature(np.exp, 0.0, 1.0, 4)
        assert val == pytest.approx(math.e - 1.0, rel=1e-14)

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(a=st.floats(-20.0, 20.0), width=st.floats(0.0, 20.0), panels=st.integers(1, 4096))
    def test_panel_nodes_lie_in_order_on_their_interval(self, a, width, panels):
        # panel_quadrature takes any a: the tests' reference expansion starts
        # at x_L < 0, the barrier actions at 0.
        b = a + width
        nodes, got_width = _panel_nodes(a, b, (panels,))
        assert nodes.shape == (16 * panels,) and got_width == b - a
        assert a <= nodes[0] and nodes[-1] <= b and np.all(np.diff(nodes) >= 0.0)
        # an array of right ends gives each row the bits of its scalar call
        ends = np.array([b, a, a + 0.5 * width, a + 20.0])
        rows, widths = _panel_nodes(a, ends, (panels,))
        sums = _panel_sums(np.cos(rows), widths, (panels,))[0]
        for row, end in enumerate(ends):
            alone, alone_width = _panel_nodes(a, end, (panels,))
            assert np.array_equal(rows[row], alone) and widths[row] == alone_width
            assert sums[row] == _panel_sums(np.cos(alone), alone_width, (panels,))[0]

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(
        coeffs=st.lists(st.integers(-1000, 1000), min_size=1, max_size=32),
        shift=st.floats(-16.0, 16.0),
        width=st.floats(1e-100, 20.0),
        panels=st.integers(1, 4096),
    )
    def test_panel_quadrature_is_exact_to_degree_31(self, coeffs, shift, width, panels):
        # 16 Gauss-Legendre nodes per panel integrate p((x - a) / (b - a))
        # of degree <= 31 exactly, up to rounding.  a stays within 16
        # widths of 0, as a node is rounded to an ulp of a.
        c = np.array(coeffs, dtype=float)
        a = shift * width
        b = a + width
        k = np.arange(c.size)
        got = panel_quadrature(
            lambda x: np.polynomial.polynomial.polyval((x - a) / (b - a), c), a, b, panels
        )
        exact = (b - a) * np.sum(c / (k + 1))
        assert abs(got - exact) <= 1e-13 * (b - a) * np.sum(np.abs(c) / (k + 1))

    def test_a_pass_of_two_counts_is_each_count_alone(self):
        # the action kernel's first pass takes depths 0 and 1 of every
        # flank from one call of the builder
        b = np.array([0.0, 1e-300, 0.3, 1.0, 7.25, 123.456])
        vals = np.cos(3.0 * b[:, None] * np.arange(48.0))
        nodes, width = _panel_nodes(0.0, b, (1, 2))
        one, one_width = _panel_nodes(0.0, b, (1,))
        two, two_width = _panel_nodes(0.0, b, (2,))
        assert np.array_equal(nodes, np.concatenate([one, two], axis=1))
        assert np.array_equal(width, one_width) and np.array_equal(width, two_width)
        sums = _panel_sums(vals, width, (1, 2))
        assert np.array_equal(sums[0], _panel_sums(vals[:, :16], one_width, (1,))[0])
        assert np.array_equal(sums[1], _panel_sums(vals[:, 16:], two_width, (2,))[0])

    def test_one_and_two_panels_sum_to_the_bits_of_numpys_sum(self):
        # _panel_sums adds one or two panel sums itself; on signed zeros,
        # cancelling pairs and values 600 decades apart it gives what
        # numpy's sum over the panels gives
        rng = np.random.default_rng(42)
        weights = np.polynomial.legendre.leggauss(16)[1]
        for _ in range(200):
            vals = rng.standard_normal((2, 3, 64)) * 10.0 ** rng.integers(-300, 300, (2, 3, 64))
            vals[rng.random(vals.shape) < 0.3] = -0.0
            # whole panels of -0.0, whose panel sums are -0.0 where the
            # product with the weights keeps the sign of zero
            for row, col, panel in zip(*(rng.integers(0, n, 4) for n in (2, 3, 4))):
                vals[row, col, 16 * panel:16 * panel + 16] = -0.0
            vals[0, 0, 16:32] = -vals[0, 0, 32:48]
            width = rng.random(3)
            got = _panel_sums(vals, width, (1, 2, 1))
            for count, start, total in zip((1, 2, 1), (0, 16, 48), got):
                panels = vals[..., start:start + 16 * count].reshape(2, 3, count, 16)
                expected = (panels @ weights).sum(axis=-1) * (width / (2 * count))
                assert total.tobytes() == expected.tobytes()

    def test_adaptive_quadrature_matches_analytic_integral(self):
        val = adaptive_quadrature(np.sin, 0.0, math.pi, rtol=1e-13)
        assert val == pytest.approx(2.0, rel=1e-13)

    def test_adaptive_quadrature_zero_width_interval(self):
        assert adaptive_quadrature(np.exp, 2.0, 2.0) == 0.0

    def test_adaptive_quadrature_rejects_reversed_limits(self):
        with pytest.raises(ValueError):
            adaptive_quadrature(np.exp, 1.0, 0.0)

    def test_unresolvable_integrand_raises_after_max_depth(self):
        # An integrable inverse-square-root edge singularity defeats fixed
        # Gauss-Legendre panels at any affordable depth.
        def singular(x):
            return 1.0 / np.sqrt(np.abs(x))

        with pytest.raises(QuadratureNonConvergence):
            adaptive_quadrature(singular, 0.0, 1.0, rtol=1e-12)


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


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(spec=WELLS, frac=st.floats(0.02, 0.98))
def test_turning_points_are_brentqs_roots_to_rounding(spec, frac):
    # actions.turning_points (Newton steps, then the crossing in floats)
    # against one scalar scipy brentq per flank on the same flanks, the
    # accuracy reference.  Over 20000 draws of this strategy (40000 roots)
    # the two were at most 2140 ulps apart (99th percentile 50, median 1),
    # the most at a root next to x = 0, whose ulp is far finer than the
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


# a sextic of perfbench's bias_sweep inputs (seed 1, the second of six)
# and an energy at which rounding makes v - E change sign three times
# across four floats next to the left turning point
SIGN_FLIP_SEXTIC = Polynomial((
    665.9697777370652, 183.9329736566128, -1162.5593510175618, -364.56565014487995,
    332.1598145764462, 182.28282507243998, 166.0799072882231,
))
SIGN_FLIP_E = 52.25718045981107


class TestTurningPoints:
    def test_symmetric_quartic_at_half_depth(self):
        spec = BiasedQuartic(1.0, 1.0)
        a = analyze(spec, C)
        inner = math.sqrt(1.0 - math.sqrt(0.5))
        a_bar, b_bar = turning_points(spec, C, 0.5, a)
        assert a_bar == pytest.approx(-inner, rel=1e-13)
        assert b_bar == pytest.approx(inner, rel=1e-13)

    def test_double_oscillator_left_edge_is_analytic(self):
        spec = DoubleOscillator(1.3, 0.9, 0.4, 8.0)
        a = analyze(spec, C)
        a_bar, b_bar = turning_points(spec, C, 1.1, a)
        predicted = a.x_L + math.sqrt(2.0 * 1.1) / a.omega_L
        assert a_bar == pytest.approx(predicted, abs=1e-12)
        assert a_bar < a.x_m < b_bar

    def test_turning_points_sit_on_the_energy_contour(self):
        spec = BiasedQuartic(0.8, 2.2, 0.4)
        a = analyze(spec, C)
        e = 0.45 * a.V0
        a_bar, b_bar = turning_points(spec, C, e, a)
        assert a.v(a_bar) == pytest.approx(e, rel=1e-10)
        assert a.v(b_bar) == pytest.approx(e, rel=1e-10)

    def test_energy_above_barrier_rejected(self):
        spec = BiasedQuartic(1.0, 2.1)
        a = analyze(spec, C)
        with pytest.raises(EnergyAboveBarrier):
            turning_points(spec, C, a.V0 * 1.01, a)

    @pytest.mark.parametrize(
        "spec,extra",
        [
            (BiasedQuartic(1.0, 2.1, 0.2), []),
            (DoubleOscillator(1.3, 0.9, 0.4, 8.0), []),
            (SIGN_FLIP_SEXTIC, [SIGN_FLIP_E]),
        ],
        ids=["quartic", "oscillator", "sextic"],
    )
    def test_each_root_is_the_last_allowed_float(self, spec, extra):
        # v(x) < E at each root, and v(x) >= E at the next float toward
        # the barrier top, on both paths, and each batch row (the lockstep
        # path) is its one-row call (the float path)
        a = analyze(spec, C)
        floor = max(0.0, a.tilde_eps)
        energies = [floor + (a.V0 - floor) * (0.05 + 0.9 * i / 23) for i in range(24)] + extra
        batch = action_rows([a] * len(energies), energies)
        one_row = [action_rows([a], [e])[0] for e in energies]
        assert batch == one_row
        for e, row in zip(energies, batch):
            for x in (row.a_bar, row.b_bar):
                assert a.v(x) < e <= a.v(math.nextafter(x, a.x_m))

    def test_the_start_picks_the_sign_change_a_root_ends_on(self):
        # On four consecutive floats next to the left turning point v - E
        # reads - + - +: two floats qualify as the root, and the Newton
        # start decides which one the crossing ends on.
        a = analyze(SIGN_FLIP_SEXTIC, C)
        e = SIGN_FLIP_E
        x = turning_points(SIGN_FLIP_SEXTIC, C, e, a)[0]
        floats = [x]
        for _ in range(3):
            floats.append(math.nextafter(floats[-1], math.inf))
        assert [a.v(p) < e for p in floats] == [True, False, True, False]
        assert x == -0.8440533288381391
        other = tunnelkit.potentials._flank_roots(a, [e], [a.x_L], [a.x_m], [-0.8440533279940858], [True])
        assert other.tolist() == [floats[2]]

    def test_a_zero_slope_steps_to_the_midpoint_on_both_paths(self):
        # v - E = (x - 0.5)^3 - 0.001 from x = 0.5, where v' = 0: no
        # ZeroDivisionError on floats, and the same root on arrays
        def v(x, e):
            d = x - 0.5
            return d * d * d - e

        def dv(x):
            return 3.0 * (x - 0.5) * (x - 0.5)

        one = tunnelkit.potentials._newton(v, dv, 0.001, 0.0, 1.0, 0.5, True)
        with np.errstate(all="ignore"):
            rows = tunnelkit.potentials._newton_rows(
                v, dv, np.full(2, 0.001), np.zeros(2), np.ones(2), np.full(2, 0.5), np.ones(2, dtype=bool)
            )
        assert rows.tolist() == [one, one]
        assert one == pytest.approx(0.6, rel=1e-15)

    def test_newton_steps_that_do_not_settle_are_a_numerical_error(self, monkeypatch):
        a = analyze(BiasedQuartic(1.0, 2.1), C)
        # one limit for the float and the array path
        monkeypatch.setattr(tunnelkit.potentials, "_MAX_ITERATES", 2)
        for count in (1, 30):  # one root pair, and 60 roots in lockstep
            with pytest.raises(NumericsError, match="did not converge in 2 Newton iterates"):
                action_rows([a] * count, [a.E_bar + 0.01 * i for i in range(count)])


class TestGamowIntegral:
    def test_reference_half_action_of_the_parabolic_well(self):
        # For the symmetric piecewise-parabolic well at V0 = 10, hbar = 1,
        # omega = 1, E = 0.6, the left half-action has the closed form
        # (V0 / hbar omega) [sqrt(1 - u) - u ln((1 + sqrt(1 - u)) / sqrt(u))]
        # with u = E / V0, equal to 8.44465771928436.
        spec = DoubleOscillator(1.0, 1.0, 0.0, 10.0)
        a = analyze(spec, C)
        i_l, i_r = double_oscillator_action(spec, C, 0.6)
        res = evaluate_action(spec, C, E=0.6, analysis=a)
        assert i_l == pytest.approx(8.44465771928436, rel=1e-13)
        assert i_r == pytest.approx(i_l, rel=1e-13)
        assert res.I_L == pytest.approx(i_l, rel=1e-12)
        assert res.I == pytest.approx(2.0 * i_l, rel=1e-12)

    def test_reference_quartic_action_value(self):
        spec = BiasedQuartic(1.0, 2.1)
        a = analyze(spec, C)
        res = evaluate_action(spec, C, analysis=a)
        assert res.I == pytest.approx(13.919561194152585, rel=1e-12)

    def test_half_actions_add_up_to_the_full_action(self):
        spec = BiasedQuartic(1.0, 2.1)
        a = analyze(spec, C)
        res = evaluate_action(spec, C, analysis=a)
        assert res.I_L + res.I_R == pytest.approx(res.I, rel=1e-14)

    def test_tighter_tolerance_does_not_move_the_value(self):
        spec = BiasedQuartic(1.0, 2.1)
        a = analyze(spec, C)
        coarse = gamow_integral(spec, C, a.E_bar, a, rtol=1e-9)
        fine = gamow_integral(spec, C, a.E_bar, a, rtol=1e-12)
        assert abs(fine - coarse) / fine < 1e-11

    def test_action_decreases_with_energy(self):
        spec = BiasedQuartic(1.0, 2.1)
        a = analyze(spec, C)
        low = gamow_integral(spec, C, 0.3 * a.V0, a)
        high = gamow_integral(spec, C, 0.9 * a.V0, a)
        assert low > high > 0.0

    def test_midpoint_rule_brute_force_agreement(self):
        spec = BiasedQuartic(1.0, 2.1)
        a = analyze(spec, C)
        res = evaluate_action(spec, C, analysis=a)
        a_bar, b_bar = turning_points(spec, C, a.E_bar, a)
        n = 200_000
        xs = np.linspace(a_bar, b_bar, n + 1)
        mids = 0.5 * (xs[1:] + xs[:-1])
        integrand = np.sqrt(
            np.maximum(2.0 * C.mass * (a.v(mids) - a.E_bar), 0.0)
        )
        brute = float(np.sum(integrand) * (b_bar - a_bar) / n) / C.hbar
        assert brute == pytest.approx(res.I, rel=1e-6)

    def test_vanishes_as_energy_reaches_the_barrier_top(self):
        # The piecewise-parabolic barrier meets its top in a kink, so the
        # remaining action scales as (V0 - E)^(3/2): every hundredfold step
        # toward the top divides the integral by a thousand.
        spec = DoubleOscillator(1.3, 0.9, 0.4, 8.0)
        a = analyze(spec, C)
        i4 = gamow_integral(spec, C, a.V0 * (1.0 - 1e-4), a)
        i6 = gamow_integral(spec, C, a.V0 * (1.0 - 1e-6), a)
        i8 = gamow_integral(spec, C, a.V0 * (1.0 - 1e-8), a, rtol=1e-9)
        assert i4 == pytest.approx(1.018265e-05, rel=1e-4)
        assert i6 / i4 == pytest.approx(1e-3, rel=1e-3)
        assert i8 / i6 == pytest.approx(1e-3, rel=1e-3)

    def test_barrier_top_tolerance_starvation_is_reported(self):
        # At one part in 1e9 below the top the integral is ~1e-11 and float
        # cancellation in the integrand leaves more relative noise than the
        # requested 1e-12, which must surface as an explicit error rather
        # than a silent wrong answer.
        spec = DoubleOscillator(1.3, 0.9, 0.4, 8.0)
        a = analyze(spec, C)
        with pytest.raises(QuadratureNonConvergence):
            gamow_integral(spec, C, a.V0 * (1.0 - 1e-9), a, rtol=1e-12)


def _outcome(fn):
    # a value, or the type and message of the error it raised
    try:
        return fn()
    except TunnelkitError as exc:
        return type(exc), str(exc)


def sampled_sizes(monkeypatch):
    """The size of every sample of v on a block of t-nodes, in call order:
    each call of a family's ``derivative`` for V on a 2-D array, as the
    action kernel makes them (the turning points' array calls are 1-D)."""
    sizes = []

    def spying(derivative):
        def spy(spec, x, k, consts):
            if k == 0 and np.ndim(x) == 2:
                sizes.append(np.size(x))
            return derivative(spec, x, k, consts)

        return spy

    for family in tunnelkit.potentials.FAMILIES.values():
        monkeypatch.setattr(family, "derivative", spying(family.derivative))
    return sizes


def _outcomes(rows):
    # the rows of a batch, each error as its type and message
    return [(type(r), str(r)) if isinstance(r, TunnelkitError) else r for r in rows]


class TestActionKernel:
    """One sample of v per pass serves I and dI/dE of both flanks; every
    value must equal the per-integrand quadratures it replaced, bit for bit."""

    @staticmethod
    def check_against_reference(spec, a, e, rtol=1e-12):
        def reference_action():
            i_l, i_r = reference_gamow_parts(C, e, a, rtol)
            return i_l + i_r

        def reference_pair():
            i_l, i_r = reference_gamow_parts(C, e, a, rtol)
            return i_l, i_r, i_l + i_r, reference_slope(C, e, a, rtol)

        def pair():
            res = evaluate_action(spec, C, E=e, analysis=a, rtol=rtol)
            return res.I_L, res.I_R, res.I, res.I_slope

        assert _outcome(pair) == _outcome(reference_pair)
        assert _outcome(lambda: gamow_integral(spec, C, e, a, rtol=rtol)) == _outcome(
            reference_action
        )
        assert _outcome(lambda: action_slope(spec, C, e, a, rtol=rtol)) == _outcome(
            lambda: reference_slope(C, e, a, rtol)
        )

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(
        spec=DEEP_WELLS,
        mirrored=st.booleans(),
        efrac=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    )
    def test_matches_the_per_integrand_reference_bit_for_bit(self, spec, mirrored, efrac):
        if mirrored:
            spec = mirror(spec)
        a = analyze(spec, C)
        lo = max(0.0, a.tilde_eps)
        self.check_against_reference(spec, a, lo + (a.V0 - lo) * efrac)

    def test_action_settles_where_the_slope_cannot(self):
        # One part in 1e8 below the kinked top, I still converges to 1e-9
        # while dI/dE, which diverges there, never does: I alone returns,
        # and the pair fails on dI_L/dE with the reference's own message.
        spec = DoubleOscillator(1.3, 0.9, 0.4, 8.0)
        a = analyze(spec, C)
        e = a.V0 * (1.0 - 1e-8)
        i_l, i_r = reference_gamow_parts(C, e, a, rtol=1e-9)
        assert gamow_integral(spec, C, e, a, rtol=1e-9) == i_l + i_r
        with pytest.raises(QuadratureNonConvergence):
            evaluate_action(spec, C, E=e, analysis=a, rtol=1e-9)
        self.check_against_reference(spec, a, e, rtol=1e-9)

    def test_the_first_failing_component_is_named(self):
        # At 1e-9 below the top I_L fails first, so the pair reports its
        # last value, as the per-integrand quadratures did.
        spec = DoubleOscillator(1.3, 0.9, 0.4, 8.0)
        a = analyze(spec, C)
        e = a.V0 * (1.0 - 1e-9)
        with pytest.raises(QuadratureNonConvergence):
            evaluate_action(spec, C, E=e, analysis=a)
        self.check_against_reference(spec, a, e)

    def test_one_flank_refines_while_the_other_has_stopped(self, monkeypatch):
        spec = deep_quartic(6.0, 1.0, 0.1)
        a = analyze(spec, C)
        e = a.tilde_eps + (a.V0 - a.tilde_eps) * 0.99
        sizes = sampled_sizes(monkeypatch)
        evaluate_action(spec, C, E=e, analysis=a)
        # depths 0 and 1 of both flanks (2 x 48 nodes), then one flank alone
        # at depth 2 (64 nodes) and 3 (128 nodes)
        assert sizes == [96, 64, 128]
        self.check_against_reference(spec, a, e)

    def test_each_flank_stops_at_its_own_depth(self, monkeypatch):
        # An integrand of t alone, with no rounding of v in it: on [0, T]
        # one 16-node panel of 2t (2 + cos(36 t)) is exact to about 1e-16
        # once T is below 0.5, and off by about 1e-7 at T = 0.92.  The
        # right flank of this well (T = 0.46) settles at depth 1; the left
        # one is 4 times as long and refines to depth 3.
        spec = DoubleOscillator(1.0, 16.0, 0.0, 20.0)
        a = analyze(spec, C)
        e = a.E_bar
        a_bar, b_bar = turning_points(spec, C, e, a)
        sizes = sampled_sizes(monkeypatch)

        def wavy(two_t, w, m, out=None):
            return np.multiply(two_t, 2.0 + np.cos(18.0 * two_t), out=out)

        values, errors = tunnelkit.actions._flank_integrals(
            a, np.array([e]), np.array([a_bar, b_bar]), 1e-12, (wavy,)
        )
        # depths 0 and 1 of both flanks, then the left flank alone at
        # depths 2 and 3
        assert sizes == [96, 64, 128]
        assert errors == {}
        assert [tuple(values[0, :, 0].tolist())] == reference_flank_integrals(
            C, e, a, a_bar, b_bar, 1e-12, (wavy,)
        )

    def test_a_settled_first_pass_samples_v_once(self, monkeypatch):
        spec = deep_quartic(6.0, 1.0, 0.1)
        a = analyze(spec, C)
        sizes = sampled_sizes(monkeypatch)
        evaluate_action(spec, C, analysis=a)
        assert sizes == [96]

    def test_a_zero_width_flank_is_zero_in_the_one_pass(self):
        # a_bar = x_m on the middle row: its left flank has all its nodes
        # at t = 0, so both depths sum to 0.0 and it settles at once, as
        # adaptive_quadrature gives a zero-width interval 0.0.
        spec = BiasedQuartic(0.7, 2.3, 0.3)
        a = analyze(spec, C)
        energies = [a.V0 * f for f in (0.2, 0.5, 0.8)]
        turns = [turning_points(spec, C, e, a) for e in energies]
        a_bar = np.array([turns[0][0], a.x_m, turns[2][0]])
        b_bar = np.array([b for _, b in turns])
        integrands = (tunnelkit.actions._momentum, tunnelkit.actions._inverse_momentum)
        values, errors = tunnelkit.actions._flank_integrals(
            a, np.array(energies), np.concatenate([a_bar, b_bar]), 1e-12, integrands
        )
        assert errors == {}
        assert values[:, 0, 1].tolist() == [0.0, 0.0]
        assert not np.signbit(values[:, 0, 1]).any()
        for row, e in enumerate(energies):
            assert [tuple(pair) for pair in values[:, :, row].tolist()] == (
                reference_flank_integrals(C, e, a, a_bar[row], b_bar[row], 1e-12, integrands)
            )

    def test_turning_points_make_no_array_call_of_v(self, monkeypatch):
        spec = deep_quartic(6.0, 1.0, 0.1)
        a = analyze(spec, C)
        sizes = sampled_sizes(monkeypatch)
        a_bar, b_bar = turning_points(spec, C, a.E_bar, a)
        assert a.x_L < a_bar < a.x_m < b_bar < a.x_R
        assert sizes == []


class TestActionBatch:
    """``action_rows`` takes many energies on one curve at once; every row
    must be what the per-point kernel it replaced (tests/util.py: scalar
    brentq turning points and one dict entry per component) gives at that
    energy alone, bit for bit."""

    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(
        spec=DEEP_WELLS,
        mirrored=st.booleans(),
        rows=st.lists(
            st.tuples(st.floats(-0.05, 1.05), st.floats(-1.0, 1.0)), min_size=1, max_size=123
        ),
    )
    def test_each_row_is_the_per_point_kernel(self, spec, mirrored, rows):
        # Each row dials the bias by up to one level spacing, as a sweep
        # does, and takes an energy from below its floor to above the top.
        if mirrored:
            spec = mirror(spec)
        a = analyze(spec, C)
        analyses, energies = [], []
        for frac, dial in rows:
            dialed = dataclasses.replace(a, tilde_eps=a.tilde_eps + dial * C.hbar * a.omega_L)
            floor = max(0.0, dialed.tilde_eps)
            analyses.append(dialed)
            energies.append(floor + (a.V0 - floor) * frac)
        batch = _outcomes(action_rows(analyses, energies))
        assert batch == [
            _outcome(lambda: reference_action(C, dialed, e)) for dialed, e in zip(analyses, energies)
        ]

    def test_passes_sampled_in_chunks_give_the_same_rows(self, monkeypatch):
        # Room for two pairs per block at depths 0 and 1, one at depth 2
        # on: every pass of a 9-row batch runs in chunks.
        spec = deep_quartic(6.0, 1.0, 0.1)
        a = analyze(spec, C)
        lo = max(0.0, a.tilde_eps)
        energies = [lo + (a.V0 - lo) * f for f in (0.05, 0.2, 0.4, 0.6, 0.8, 0.9, 0.95, 0.99, 0.999)]
        whole = _outcomes(action_rows([a] * 9, energies))
        monkeypatch.setattr(tunnelkit.actions, "_PASS_NODES", 100)
        assert _outcomes(action_rows([a] * 9, energies)) == whole
        assert whole == [_outcome(lambda: reference_action(C, a, e)) for e in energies]

    def test_each_batch_of_a_sweep_samples_v_once(self, monkeypatch):
        # 41 points dialed by up to 0.1 of a level spacing, every component
        # settled at depth 1: one call of v on 96 nodes per distinct energy
        # of each batch.  The sweep is one batch: the 41 E_bar and the 82
        # guesses E_bar -/+ |eps|/2, on which every Newton start lands and
        # settles; the lower guesses share energies.
        spec = deep_quartic(6.0, 1.0, 0.1)
        a = analyze(spec, C)
        points = [
            dataclasses.replace(a, tilde_eps=a.tilde_eps + 0.1 * i / 40 * C.hbar * a.omega_L)
            for i in range(41)
        ]
        batches = []

        def spy(analyses, energies, **kwargs):
            batches.append([float(e) for e in energies])
            return action_rows(analyses, energies, **kwargs)

        monkeypatch.setattr(tunnelkit.splitting, "action_rows", spy)
        sizes = sampled_sizes(monkeypatch)
        outcomes = compute_splittings(points)
        assert all(error is None for _, error in outcomes)
        assert [len(energies) for energies in batches] == [123]
        assert len(set(batches[0])) < 123
        assert sizes == [len(set(energies)) * 96 for energies in batches]

    def test_repeated_energies_on_mixed_floors_are_their_one_row_calls(self):
        # 20 energies, each taken by three rows dialed to different floors
        # and shuffled, so the 60 rows hold 20 distinct energies (40 roots,
        # the lockstep path) and some rows lie below their own floor.
        spec = deep_quartic(6.0, 1.0, 0.1)
        a = analyze(spec, C)
        hw = C.hbar * a.omega_L
        energies = [a.V0 * (0.02 + 0.045 * i) for i in range(20)]
        rows = [(e, dial) for e in energies for dial in (-0.5, 0.0, 3.0)]
        rows = rows[1::2] + rows[::2]
        analyses = [dataclasses.replace(a, tilde_eps=a.tilde_eps + dial * hw) for _, dial in rows]
        batch = _outcomes(action_rows(analyses, [e for e, _ in rows]))
        assert batch == [
            _outcome(lambda: evaluate_action(spec, C, E=e, analysis=dialed))
            for (e, _), dialed in zip(rows, analyses)
        ]
        assert EnergyBelowWellBottom in [r[0] for r in batch if isinstance(r, tuple)]

    def test_only_the_row_below_its_floor_is_refused(self):
        spec = deep_quartic(6.0, 1.0, 0.1)
        a = analyze(spec, C)
        e = a.tilde_eps + 0.5 * C.hbar * a.omega_L
        raised = dataclasses.replace(a, tilde_eps=e + C.hbar * a.omega_L)
        low, high = action_rows([a, raised], [e, e])
        assert low == evaluate_action(spec, C, E=e, analysis=a)
        assert isinstance(high, EnergyBelowWellBottom)
        assert str(high) == f"E = {e:g} does not exceed the higher well floor {raised.tilde_eps:g}"

    def test_a_quadrature_error_reaches_every_row_at_its_energy(self):
        # 1e-9 below the kinked top the quadrature does not settle
        spec = DoubleOscillator(1.3, 0.9, 0.4, 8.0)
        a = analyze(spec, C)
        top, fine = a.V0 * (1.0 - 1e-9), a.E_bar
        dialed = [dataclasses.replace(a, tilde_eps=a.tilde_eps * f) for f in (1.0, 0.5, 0.9, 0.1)]
        batch = action_rows(dialed, [top, fine, top, top])
        [error] = {type(batch[r]) for r in (0, 2, 3)}
        assert error is QuadratureNonConvergence
        assert batch[1] == evaluate_action(spec, C, E=fine, analysis=a)
        assert _outcomes(batch) == [
            _outcome(lambda: evaluate_action(spec, C, E=e, analysis=d))
            for d, e in zip(dialed, [top, fine, top, top])
        ]

    def test_a_tentative_row_that_does_not_settle_stops_after_one_pass(self, monkeypatch):
        # 1e-9 below the kinked top the quadrature does not settle: as the
        # one tentative energy it is None after the first pass, one call of
        # v on 96 nodes per energy; a tentative row that settles there, or
        # that shares its energy with a firm row, is the firm row's value.
        spec = DoubleOscillator(1.3, 0.9, 0.4, 8.0)
        a = analyze(spec, C)
        top, fine = a.V0 * (1.0 - 1e-9), a.E_bar
        sizes = sampled_sizes(monkeypatch)
        low, high = action_rows([a, a], [fine, top], tentative=1)
        assert high is None and sizes == [2 * 96]
        monkeypatch.undo()
        assert low == evaluate_action(spec, C, E=fine, analysis=a)
        firm, shared, settled = action_rows([a] * 3, [top, top, 0.9 * fine], tentative=2)
        assert type(firm) is type(shared) is QuadratureNonConvergence
        assert str(shared) == str(firm)
        assert settled == evaluate_action(spec, C, E=0.9 * fine, analysis=a)

    def test_one_row_calls_are_the_batch(self):
        spec = BiasedQuartic(0.7, 2.3, 0.3)
        a = analyze(spec, C)
        energies = [a.V0 * f for f in (0.2, 0.35, 0.5, 0.8)]
        batch = action_rows([a] * 4, energies)
        for e, row in zip(energies, batch):
            assert evaluate_action(spec, C, E=e, analysis=a) == row
            assert turning_points(spec, C, e, a) == (row.a_bar, row.b_bar)
            assert gamow_integral(spec, C, e, a) == row.I_L + row.I_R
            assert action_slope(spec, C, e, a) == row.I_slope


class TestActionSlope:
    @pytest.mark.parametrize(
        "spec,efrac",
        [
            (BiasedQuartic(1.0, 2.1), 0.25),
            (BiasedQuartic(0.7, 2.3, 0.3), 0.4),
            (DoubleOscillator(1.0, 1.4, 0.1, 8.0), 0.3),
        ],
        ids=["quartic", "tilted_quartic", "double_oscillator"],
    )
    def test_matches_central_finite_difference(self, spec, efrac):
        a = analyze(spec, C)
        lo = max(0.0, a.tilde_eps)
        e = lo + (a.V0 - lo) * efrac
        h = 1e-5 * e
        fd = (
            gamow_integral(spec, C, e + h, a) - gamow_integral(spec, C, e - h, a)
        ) / (2.0 * h)
        slope = action_slope(spec, C, e, a)
        assert slope == pytest.approx(fd, rel=1e-8)
        assert slope < 0.0

    def test_parabolic_well_slope_has_a_closed_form(self):
        # dI_L/dE = -ln((1 + sqrt(1 - u)) / sqrt(u)) / (hbar omega_L) with
        # u = E / V0, and the mirrored expression on the right.
        spec = DoubleOscillator(1.0, 1.4, 0.1, 8.0)
        a = analyze(spec, C)
        e = 1.3
        u_l = e / a.V0
        u_r = (e - a.tilde_eps) / (a.V0 - a.tilde_eps)
        expected = -(
            math.log((1.0 + math.sqrt(1.0 - u_l)) / math.sqrt(u_l)) / a.omega_L
            + math.log((1.0 + math.sqrt(1.0 - u_r)) / math.sqrt(u_r)) / a.omega_R
        ) / C.hbar
        assert action_slope(spec, C, e, a) == pytest.approx(expected, rel=1e-12)


class TestAsymptoticAction:
    # the small-energy expansion of I(E_bar), on its reference in tests/util.py
    @pytest.mark.parametrize(
        "alpha,a",
        [(1.0, 2.1), (1.0, 3.0), (0.5, 2.5), (2.0, 1.9), (1.0, 1.9)],
    )
    def test_quartic_counterterm_equals_log_two(self, alpha, a):
        # For V = alpha (x^2 - a^2)^2 the soft-edge counterterm integral has
        # the exact value ln 2 on both sides, a sharp cross-check of the
        # regularized integrand.
        _, _, a_l, a_r, _ = reference_asymptotic_action(C, analyze(BiasedQuartic(alpha, a), C))
        assert a_l == pytest.approx(math.log(2.0), abs=1e-12)
        assert a_r == pytest.approx(a_l, abs=1e-12)

    def test_parabolic_wells_have_zero_counterterm(self):
        a = analyze(DoubleOscillator(1.0, 1.3, 0.05, 9.0), C)
        _, _, a_l, a_r, _ = reference_asymptotic_action(C, a)
        assert a_l == pytest.approx(0.0, abs=1e-12)
        assert a_r == pytest.approx(0.0, abs=1e-12)

    def test_expansion_error_shrinks_as_hbar_drops(self):
        spec = BiasedQuartic(1.0, 2.3)
        gaps = []
        for hbar in (1.0, 0.5, 0.25):
            consts = PhysConstants(hbar=hbar, mass=1.0)
            a = analyze(spec, consts)
            *_, i_asym = reference_asymptotic_action(consts, a)
            exact = gamow_integral(spec, consts, a.E_bar, a)
            gaps.append(abs(i_asym - exact))
        ratios = [gaps[i] / gaps[i + 1] for i in range(len(gaps) - 1)]
        # The leading neglected term is quadratic in the mean level, which
        # scales linearly in hbar, so each halving shrinks the gap by about
        # a factor of two (and exactly 2 would need the next order too).
        for r in ratios:
            assert 1.4 < r < 2.6

    def test_parabolic_expansion_gap_is_the_quadratic_term(self):
        spec = DoubleOscillator(1.0, 1.0, 0.0, 10.0)
        a = analyze(spec, C)
        *_, i_asym = reference_asymptotic_action(C, a)
        exact = gamow_integral(spec, C, a.E_bar, a)
        lam = a.E_bar / a.V0
        # Closed-form expansion of the parabolic action leaves lam^2/8 per
        # side at second order, i.e. (V0 / hbar omega) lam^2 / 4 in total.
        predicted_gap = (a.V0 / (C.hbar * a.omega_L)) * lam**2 / 4.0
        assert abs(i_asym - exact) == pytest.approx(predicted_gap, rel=0.05)


class TestEnergyIdentities:
    def test_depth_ratio_times_energy_fraction_is_the_level_count(self):
        spec = DoubleOscillator(1.0, 1.4, 0.1, 8.0)
        a = analyze(spec, C)
        lam_l = a.E_bar / a.V0
        lam_r = (a.E_bar - a.tilde_eps) / (a.V0 - a.tilde_eps)
        left = (a.V0 / (C.hbar * a.omega_L)) * lam_l
        right = ((a.V0 - a.tilde_eps) / (C.hbar * a.omega_R)) * lam_r
        assert left == pytest.approx(a.E_bar / (C.hbar * a.omega_L), rel=1e-15)
        assert right == pytest.approx(
            (a.E_bar - a.tilde_eps) / (C.hbar * a.omega_R), rel=1e-15
        )

    def test_action_result_records_the_requested_energy(self):
        spec = BiasedQuartic(1.0, 2.1)
        a = analyze(spec, C)
        res = evaluate_action(spec, C, E=2.0, analysis=a)
        assert res.E == 2.0
        assert res.a_bar < a.x_m < res.b_bar
        assert evaluate(spec, res.a_bar) == pytest.approx(2.0, rel=1e-10)
