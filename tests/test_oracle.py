"""Finite-difference eigensolver: accuracy, convergence, and guard rails."""
import dataclasses
import decimal
import json
import math
import os
import re
import subprocess
import sys
import threading
import tracemalloc
import types
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import eigh_tridiagonal
from scipy.linalg.lapack import dstebz

from tunnelkit import (
    BiasedQuartic,
    ConfigError,
    DEFAULT_CONSTANTS as C,
    DomainTooSmall,
    DoubleOscillator,
    GridSpec,
    GridTooCoarse,
    NumericsError,
    PhysConstants,
    Polynomial,
    WellAnalysis,
    WellStructureError,
    analyze,
    compute_splitting,
    default_grid,
    eigen_lowest_two,
    evaluate,
    mirror,
)
from tunnelkit import oracle
from tunnelkit.errors import RegimeError
from util import DEEP_WELLS, deep_quartic, deep_sextic, reference_lowest_two

HARMONIC = Polynomial((0.0, 0.0, 0.5))
HARMONIC_GRID = GridSpec(-8.0, 8.0, 2001, richardson=True)
LAPACK_ROUTINES = ("dstebz", "dstein", "dgtsv", "dpttrf", "dpttrs")


def spied_lapack(monkeypatch):
    """A namespace of the real routines that ``oracle._lapack()`` returns for the test.

    Each routine is an attribute the test may monkeypatch with a spy.
    """
    real = oracle._lapack()
    lapack = types.SimpleNamespace(**{name: getattr(real, name) for name in LAPACK_ROUTINES})
    monkeypatch.setattr(oracle, "_lapack", lambda: lapack)
    return lapack


class TestGridSpec:
    def test_rejects_reversed_walls(self):
        with pytest.raises(ConfigError):
            GridSpec(2.0, -2.0, 2001)

    def test_rejects_tiny_grids(self):
        with pytest.raises(ConfigError):
            GridSpec(-2.0, 2.0, 32)

    def test_rejects_non_finite_walls(self):
        with pytest.raises(ConfigError):
            GridSpec(-math.inf, 2.0, 2001)

    def test_rejects_walls_whose_span_overflows(self):
        with pytest.raises(ConfigError, match="span"):
            GridSpec(-1.7e308, 1.7e308, 2001)


class TestHarmonicReference:
    def test_ground_state_with_extrapolation(self):
        sp = eigen_lowest_two(HARMONIC, C, HARMONIC_GRID)
        assert sp.E0 == pytest.approx(0.5, abs=1e-10)
        assert sp.E1 == pytest.approx(1.5, abs=1e-9)
        assert sp.splitting == pytest.approx(1.0, abs=1e-9)
        assert sp.est_error > 0.0

    def test_extrapolation_beats_the_raw_grid(self):
        raw = eigen_lowest_two(
            HARMONIC, C, GridSpec(-8.0, 8.0, 2001, richardson=False)
        )
        rich = eigen_lowest_two(HARMONIC, C, HARMONIC_GRID)
        assert abs(rich.E0 - 0.5) < abs(raw.E0 - 0.5) / 100.0

    def test_eigenvalues_rise_toward_the_limit_as_the_grid_refines(self):
        # The three-point Laplacian underestimates curvature, so each level
        # approaches its continuum value strictly from below.
        values = [
            eigen_lowest_two(
                HARMONIC, C, GridSpec(-8.0, 8.0, n, richardson=False)
            ).E0
            for n in (201, 401, 801, 1601)
        ]
        assert all(b > a for a, b in zip(values, values[1:]))
        assert all(v < 0.5 for v in values)

    def test_error_drops_fourfold_per_grid_doubling(self):
        errs = [
            abs(
                eigen_lowest_two(
                    HARMONIC, C, GridSpec(-8.0, 8.0, n, richardson=False)
                ).E0
                - 0.5
            )
            for n in (201, 401, 801)
        ]
        assert errs[0] / errs[1] == pytest.approx(4.0, abs=0.05)
        assert errs[1] / errs[2] == pytest.approx(4.0, abs=0.05)


class TestDoubleWellAccuracy:
    @pytest.mark.parametrize("v0,expected_ratio", [(8.0, 0.9908), (10.0, 0.9930)])
    def test_symmetric_parabolic_doublet_matches_the_root_solve(
        self, v0, expected_ratio
    ):
        spec = DoubleOscillator(1.0, 1.0, 0.0, v0)
        a = analyze(spec, C)
        r = compute_splitting(spec, C, analysis=a)
        sp = eigen_lowest_two(spec, C, default_grid(spec, C, a), analysis=a)
        ratio = r.delta_E_transcendental / sp.splitting
        assert ratio == pytest.approx(expected_ratio, abs=0.004)
        assert abs(ratio - 1.0) < 0.15

    def test_bias_response_matches_the_two_level_prediction(self):
        # d(splitting)/d(bias) should equal eps / splitting; probe the
        # eigensolver with a central difference in the static bias.
        h = 0.005

        def split_at(te):
            spec = DoubleOscillator(1.0, 1.2, te, 8.0)
            a = analyze(spec, C)
            sp = eigen_lowest_two(spec, C, default_grid(spec, C, a), analysis=a)
            return sp.splitting, a

        up, _ = split_at(0.05 + h)
        down, _ = split_at(0.05 - h)
        mid, a_mid = split_at(0.05)
        r = compute_splitting(DoubleOscillator(1.0, 1.2, 0.05, 8.0), C)
        predicted = a_mid.eps / r.delta_E
        fd = (up - down) / (2.0 * h)
        assert fd == pytest.approx(predicted, rel=0.2)

    def test_off_center_box_still_resolves_the_kinked_barrier(self):
        # The piecewise-parabolic barrier needs a node pinned on the kink;
        # a box whose natural spacing misses x = 0 must still deliver the
        # same doublet because the solver snaps a node onto it.
        spec = DoubleOscillator(1.0, 1.0, 0.0, 8.0)
        a = analyze(spec, C)
        centred = eigen_lowest_two(spec, C, GridSpec(-10.0, 10.0, 8001), analysis=a)
        shifted = eigen_lowest_two(
            spec, C, GridSpec(-10.37, 10.11, 8001), analysis=a
        )
        assert shifted.splitting == pytest.approx(centred.splitting, rel=5e-3)

    def test_quartic_reference_box(self):
        spec = BiasedQuartic(1.0, 2.1)
        a = analyze(spec, C)
        sp = eigen_lowest_two(
            spec, C, GridSpec(-4.8, 4.8, 8001, richardson=True), analysis=a
        )
        assert sp.splitting == pytest.approx(1.683085e-06, rel=1e-4)


class TestBisectionReference:
    """The levels of each grid against LAPACK bisection at abstol 2 tiny."""

    @staticmethod
    def assert_within_bisection_noise(spec, grid, analysis=None):
        sp = eigen_lowest_two(spec, C, grid, analysis=analysis)
        e0, e1, noise = reference_lowest_two(spec, C, grid, analysis)
        # measured: at most 0.16 noise over these wells and grids
        assert abs(sp.E0 - e0) <= noise
        assert abs(sp.E1 - e1) <= noise

    @settings(max_examples=24, deadline=None, derandomize=True, database=None)
    @given(DEEP_WELLS, st.sampled_from([2001, 4001, 8001, 16001]))
    def test_deep_wells(self, spec, n):
        a = analyze(spec, C)
        grid = dataclasses.replace(default_grid(spec, C, a), n_points=n, richardson=False)
        self.assert_within_bisection_noise(spec, grid, a)

    @pytest.mark.parametrize("n", [2001, 16001])
    def test_single_well(self, n):
        self.assert_within_bisection_noise(HARMONIC, GridSpec(-8.0, 8.0, n, richardson=False))

    def test_walls_far_out(self):
        # the first seed, 626 nodes 1.3 apart, is too coarse for wells whose
        # decay length is 0.41; the pair comes from the next finer one
        spec = BiasedQuartic(1.0, 2.1)
        grid = GridSpec(-400.0, 400.0, 20001, richardson=False)
        self.assert_within_bisection_noise(spec, grid, analyze(spec, C))

    @pytest.mark.parametrize("n", [2001, 16001])
    def test_kinked_double_oscillator_off_centre(self, n):
        # the walls miss x = 0 on the natural spacing, so a node is snapped on
        spec = DoubleOscillator(1.0, 1.3, 0.05, 9.0)
        a = analyze(spec, C)
        self.assert_within_bisection_noise(spec, GridSpec(-10.37, 10.11, n, richardson=False), a)


def test_deep_quartic_richardson_gap_holds_across_grid_doublings():
    # The gap is 1.683085e-6 on levels near 2.9: bisection's absolute
    # tolerance, eps times the 1-norm of H, moved it by up to 7e-3 here.
    spec = BiasedQuartic(1.0, 2.1)
    a = analyze(spec, C)
    grid = default_grid(spec, C, a)
    gaps = [
        eigen_lowest_two(spec, C, dataclasses.replace(grid, n_points=n), analysis=a).splitting
        for n in (8001, 16001, 32001, 64001)
    ]
    assert max(gaps) / min(gaps) - 1.0 <= 1e-6
    assert gaps[0] == pytest.approx(1.683085e-06, rel=1e-6)


def test_levels_do_not_follow_the_blas_thread_count():
    # BLAS splits a long dot product among its threads, and the split moves
    # the last bits: with the Rayleigh-Ritz sums in BLAS, 1 and 2 threads
    # gave E0 0x1.7489d57e48a4dp+1 and 0x1.7489d57e48a44p+1 here
    script = (
        "from tunnelkit import BiasedQuartic, GridSpec, eigen_lowest_two\n"
        "sp = eigen_lowest_two(BiasedQuartic(1.0, 2.1), grid=GridSpec(-4.8, 4.8, 32001))\n"
        "print(*(e.hex() for e in (sp.E0, sp.E1, *sp.coarse, *sp.fine)))\n"
    )
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        r = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, env=env
        )
        assert r.returncode == 0, r.stderr
        outputs.append(r.stdout)
    assert outputs[0] == outputs[1]


def solved_seeds(monkeypatch):
    """The node counts of the seeds ``oracle._seed`` solves, in order."""
    sizes = []
    seed = oracle._seed

    def spy(v, consts, grid, n_points, snap):
        sizes.append(n_points)
        return seed(v, consts, grid, n_points, snap)

    monkeypatch.setattr(oracle, "_seed", spy)
    return sizes


class TestSeeds:
    def test_each_halving_up_to_the_grid_itself(self):
        assert oracle._seed_sizes(20001) == [626, 1251, 2501, 5001, 10001, 20001]
        assert oracle._seed_sizes(1023) == [1023]

    def test_halving_goes_on_while_it_keeps_the_fewest_nodes(self):
        assert oracle._seed_sizes(8001, 251.0) == [251, 501, 1001, 2001, 4001, 8001]
        assert oracle._seed_sizes(8001, 251.5) == [501, 1001, 2001, 4001, 8001]
        # never finer than the first halving under _SEED_POINTS, never under 64 nodes
        assert oracle._seed_sizes(8001, 5000.0) == oracle._seed_sizes(8001)
        assert oracle._seed_sizes(8001, 0.0) == [126, 251, 501, 1001, 2001, 4001, 8001]

    @pytest.mark.parametrize("n", [513, 1001, 8001, 16001])
    def test_a_richardson_partner_shares_the_seeds_of_its_grid(self, n):
        for fewest in (math.inf, 100.0, 300.0, 0.0):
            assert oracle._seed_sizes(2 * n - 1, fewest)[:-1] == oracle._seed_sizes(n, fewest)

    def test_the_default_walls_seed_from_the_coarsest_halving_that_resolves_the_wells(
        self, monkeypatch
    ):
        # one seed for the 8001-point grid and its 16001-point partner:
        # 251 nodes, at least _SEED_PER_DECAY in the decay length, where
        # the next halving, 126 nodes, would hold fewer
        spec = BiasedQuartic(1.0, 2.1)
        a = analyze(spec, C)
        grid = default_grid(spec, C, a)
        seeds = solved_seeds(monkeypatch)
        eigen_lowest_two(spec, C, grid, analysis=a)
        assert seeds == [251]
        per_node = min(oracle._decay_lengths(a)) / (grid.x_max - grid.x_min)
        assert 250 * per_node >= oracle._SEED_PER_DECAY > 125 * per_node

    def test_a_solve_with_no_analysis_keeps_the_first_halving_under_the_cap(
        self, monkeypatch
    ):
        # the harmonic well's decay length is 1, 16 times less than the span:
        # a two-well rule would seed from 126 nodes
        seeds = solved_seeds(monkeypatch)
        eigen_lowest_two(HARMONIC, C, dataclasses.replace(HARMONIC_GRID, n_points=8001))
        assert seeds == [1001]


class TestInertiaProof:
    """``_polish``'s Sturm count on the harmonic grid, whose levels it must tell apart.

    Each pair starts from its own eigenvectors, so the residual bound
    certifies it after one sweep and the count alone decides.
    """

    @pytest.fixture
    def harmonic(self):
        x = np.linspace(-8.0, 8.0, 401)
        t, vx = oracle._hamiltonian(lambda x: 0.5 * x * x, C, x)
        levels, vectors = eigh_tridiagonal(
            vx + 2.0 * t, np.full(vx.size - 1, -t), select="i", select_range=(0, 3)
        )

        def polish(pair, ceiling):
            block = np.asfortranarray(vectors[:, pair])
            return oracle._polish(t, vx, block, levels[pair], ceiling, "the grid")

        return levels, polish

    def test_the_two_lowest_pass(self, harmonic):
        levels, polish = harmonic
        ritz = polish([0, 1], levels[2])
        assert ritz == pytest.approx(levels[:2], abs=1e-12)

    def test_a_level_below_the_pair_is_found(self, harmonic):
        levels, polish = harmonic
        with pytest.raises(GridTooCoarse, match="puts 3 levels of the grid at or below"):
            polish([1, 2], levels[3])

    def test_a_third_level_under_the_ceiling_is_counted(self, harmonic):
        levels, polish = harmonic
        with pytest.raises(GridTooCoarse, match="puts 3 levels"):
            polish([0, 1], levels[3] + 0.5)

    def test_a_ceiling_under_the_pair_is_refused(self, harmonic):
        levels, polish = harmonic
        # a ceiling equal to the pair's own theta_1 leaves no gap: each call
        # starts from the same eigenvectors, so theta_1 repeats bit for bit
        ritz = polish([0, 1], levels[2])
        for ceiling in (ritz[1], levels[0]):
            with pytest.raises(GridTooCoarse, match="not above"):
                polish([0, 1], ceiling)

    def test_one_count_proves_each_grid(self, monkeypatch):
        # the default 8001-point grid and its Richardson partner: one LDL^T
        # pass each, a pttrf call at the start and after each of the two
        # levels below hi, and no weighted bound (no pttrs) on the quadratic
        # bound's path; stebz bisects the one seed the two grids share, of
        # 251 nodes, and counts no grid's levels
        lapack = spied_lapack(monkeypatch)
        calls, seeds = [], []
        for name in ("dpttrf", "dpttrs"):
            real = getattr(lapack, name)

            def spy(*args, name=name, real=real, **kwargs):
                calls.append(name)
                return real(*args, **kwargs)

            monkeypatch.setattr(lapack, name, spy)
        stebz = lapack.dstebz

        def seed_spy(d, *args):
            seeds.append(d.size)
            return stebz(d, *args)

        monkeypatch.setattr(lapack, "dstebz", seed_spy)
        sp = eigen_lowest_two(BiasedQuartic(1.0, 2.1))
        assert calls == ["dpttrf"] * 6
        assert seeds == [249]
        assert sp.splitting == pytest.approx(1.683085e-06, rel=1e-6)


# a single well and two double wells on walls clear of their levels
COUNT_WELLS = {
    "harmonic": (HARMONIC, -8.0, 8.0),
    "quartic": (BiasedQuartic(1.0, 2.1, 0.1), -4.8, 4.8),
    "double_oscillator": (DoubleOscillator(1.0, 1.3, 0.05, 9.0), -10.4, 10.1),
}


class TestLevelCount:
    """``_levels_at_or_below`` against LAPACK's Sturm count (stebz) of the same H - shift."""

    @staticmethod
    def grid(name, n):
        spec, x_min, x_max = COUNT_WELLS[name]
        return oracle._hamiltonian(
            lambda x: evaluate(spec, x, C), C, np.linspace(x_min, x_max, n)
        )

    @staticmethod
    def assert_count_is_stebz(t, vx, shift):
        n = vx.size
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)  # none, whatever the pivots
            count = oracle._levels_at_or_below(t, vx, shift, np.empty(n), np.empty(n - 1))
        # stebz on the very diagonal the count factors, over (vl, 0]: every
        # level of H - shift lies above vl (Gershgorin)
        shifted = vx + (2.0 * t - shift)
        vl = min(shifted.min() - 2.0 * t, 0.0) - 1.0
        reference, _, _, _, info = dstebz(shifted, np.full(n - 1, -t), 1, vl, 0.0, 0, 0, 0.0, "E")
        assert info == 0
        assert type(count) is int and count == reference
        return count

    @settings(max_examples=120, deadline=None, derandomize=True, database=None)
    @given(
        st.sampled_from(sorted(COUNT_WELLS)),
        st.integers(64, 600),
        st.booleans(),
        st.floats(0.0, 1.0),
    )
    def test_matches_stebz(self, name, n, on_diagonal, u):
        # the shift is a diagonal entry of H, or it runs from below min(v)
        # to above the eighth level
        t, vx = self.grid(name, n)
        if on_diagonal:
            shift = vx[int(u * (vx.size - 1))] + 2.0 * t
        else:
            levels = eigh_tridiagonal(
                vx + 2.0 * t, np.full(vx.size - 1, -t), eigvals_only=True,
                select="i", select_range=(0, 8),
            )
            low = vx.min() - 1.0
            shift = low + u * (levels[8] + 1.0 - low)
        self.assert_count_is_stebz(t, vx, shift)

    @pytest.fixture
    def dyadic(self):
        # spacing 1/16: t = 128 and the harmonic v are exact binary fractions
        t, vx = self.grid("harmonic", 257)
        assert t == 128.0
        return t, vx

    def test_a_zero_pivot_counts_as_negative(self, dyadic):
        t, vx = dyadic
        shift = vx[0] + 2.0 * t
        assert vx[0] + (2.0 * t - shift) == 0.0  # the first pivot
        assert self.assert_count_is_stebz(t, vx, shift) > 0

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_a_tiny_pivot_whose_multiplier_overflows(self, dyadic, sign):
        # the first pivot is the least subnormal, and t over it overflows:
        # positive, pttrf's second pivot is -inf; negative, the count's own
        # elimination makes it +inf
        t, vx = dyadic
        vx = vx.copy()
        vx[0] = sign * 5e-324
        assert abs(float(t) / float(vx[0])) == math.inf
        assert self.assert_count_is_stebz(t, vx, 2.0 * t) > 0

    @pytest.mark.parametrize("last", [False, True])
    def test_a_negative_pivot_next_to_the_wall(self, dyadic, last):
        # every pivot is positive up to node n - 2, which leaves a one-node
        # remainder: positive, or negative too
        t, vx = dyadic
        vx = vx.copy()
        vx[-2] = -10.0 * t
        if last:
            vx[-1] = -10.0 * t
        assert self.assert_count_is_stebz(t, vx, 0.0) == 1 + last

    def test_a_shift_below_min_v_counts_none(self, dyadic):
        t, vx = dyadic
        assert self.assert_count_is_stebz(t, vx, vx.min() - 1e-3) == 0

    def test_a_shift_above_the_fifth_level_counts_five(self, dyadic):
        # harmonic levels near 0.5, 1.5, ..., 4.5, and the sixth near 5.5
        t, vx = dyadic
        assert self.assert_count_is_stebz(t, vx, 5.0) == 5


EPS = math.ulp(1.0)
# Ritz matrix entries: zero or of magnitude 1e-6 to 1e3, clear of the
# subnormals, where no relative tolerance holds
ENTRIES = st.just(0.0) | st.builds(
    lambda m, sign: sign * m, st.floats(1e-6, 1e3), st.sampled_from([1.0, -1.0])
)


class TestRitzStep:
    @staticmethod
    def exact_levels(a, b, c):
        with decimal.localcontext() as ctx:
            ctx.prec = 50
            a, b, c = decimal.Decimal(a), decimal.Decimal(b), decimal.Decimal(c)
            mean, radius = (a + c) / 2, (((a - c) / 2) ** 2 + b * b).sqrt()
            return float(mean - radius), float(mean + radius)

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(ENTRIES, ENTRIES, ENTRIES, st.sampled_from([1.0, 1e-9, 0.0]))
    def test_closed_form_rotation_is_an_ascending_eigendecomposition(self, a, b, c, scale):
        b *= scale  # a tiny or zero coupling, as a doublet's Ritz matrix has
        low, high, cs, sn = oracle._eigh2(a, b, c)
        m = np.array([[a, b], [b, c]])
        exact = self.exact_levels(a, b, c)
        size = np.abs(m).max()
        assert low <= high
        # within three roundings of the exact levels; np.linalg.eigvalsh
        # itself strays up to about 2.5 eps times the size
        assert abs(low - exact[0]) <= 3.0 * EPS * size
        assert abs(high - exact[1]) <= 3.0 * EPS * size
        assert abs(cs * cs + sn * sn - 1.0) <= 1e-15
        # (cs, sn) belongs to the lower level and (-sn, cs) to the upper
        assert np.abs(m @ [cs, sn] - low * np.array([cs, sn])).max() <= 1e-15 * size
        assert np.abs(m @ [-sn, cs] - high * np.array([-sn, cs])).max() <= 1e-15 * size

    def test_ritz_vectors_stay_orthonormal(self):
        spec = BiasedQuartic(1.0, 2.1)
        a = analyze(spec, C)
        x = np.linspace(-4.8, 4.8, 8001)
        t, vx = oracle._hamiltonian(a.v, C, x)
        rng = np.random.default_rng(7)
        block = np.asfortranarray(rng.standard_normal((vx.size, 2)))
        work = np.empty((vx.size, 2), order="F")
        levels, _ = oracle._rayleigh_ritz(block, t, vx, work, np.empty(vx.size - 1))
        assert levels[0] <= levels[1]
        gram = block.T @ block
        assert np.abs(gram - np.eye(2)).max() <= 1e-15


class TestCertificate:
    """``_polish`` returns a Ritz pair only once a residual bound certifies it."""

    @staticmethod
    def ritz_steps(monkeypatch):
        steps = []
        ritz = oracle._rayleigh_ritz

        def spy(block, t, vx, *work):
            steps.append(vx.size)
            return ritz(block, t, vx, *work)

        monkeypatch.setattr(oracle, "_rayleigh_ritz", spy)
        return steps

    def test_each_grid_is_certified_after_one_sweep(self, monkeypatch):
        # the default 8001-point grid and its 16001-point Richardson partner:
        # one sweep each, that is one Rayleigh-Ritz step and two solves
        lapack = spied_lapack(monkeypatch)
        solves = []
        dgtsv = lapack.dgtsv

        def spy(dl, d, du, b, **kwargs):
            solves.append(d.size)
            return dgtsv(dl, d, du, b, **kwargs)

        steps = self.ritz_steps(monkeypatch)
        monkeypatch.setattr(lapack, "dgtsv", spy)
        sp = eigen_lowest_two(BiasedQuartic(1.0, 2.1))
        assert steps == [7999, 15999]
        assert solves == [7999, 7999, 15999, 15999]
        assert sp.splitting == pytest.approx(1.683085e-06, rel=1e-6)

    @settings(max_examples=10, deadline=None, derandomize=True, database=None)
    @given(DEEP_WELLS)
    def test_each_deep_well_is_certified_after_one_sweep_from_its_seed(self, spec):
        # a seed too coarse for the wells costs a second sweep on each grid
        with pytest.MonkeyPatch.context() as monkeypatch:
            steps = self.ritz_steps(monkeypatch)
            eigen_lowest_two(spec, C)
        assert steps == [7999, 15999]

    def test_a_grid_past_the_quadratic_bounds_reach_is_certified(self, monkeypatch):
        # on 1536001 nodes the rounding of the stored Ritz vectors keeps
        # |r|^2 / gap above _SETTLE of the scale; the residual weighed by
        # (H - sigma)^-1 certifies the coarsest seed's pair after one sweep
        spec = BiasedQuartic(1.0, 2.1)
        a = analyze(spec, C)
        grid = dataclasses.replace(default_grid(spec, C, a), n_points=1536001, richardson=False)
        steps = self.ritz_steps(monkeypatch)
        bounds = []
        weighted = oracle._weighted_bound

        def spy(*args):
            bounds.append(weighted(*args))
            return bounds[-1]

        monkeypatch.setattr(oracle, "_weighted_bound", spy)
        sp = eigen_lowest_two(spec, C, grid, analysis=a)
        assert steps == [1535999]
        assert len(bounds) == 1 and bounds[0] <= oracle._SETTLE * (sp.E0 + sp.E1)
        assert type(sp.E0) is float and type(sp.E1) is float
        # the default grid's Richardson gap, to its est_error
        assert sp.splitting == pytest.approx(1.683085e-06, rel=1e-6)

    @pytest.fixture
    def far_start(self):
        # the seed's second and third vectors on an 8001-point grid: the
        # first of them is the pair's upper level, the second is no part of it
        spec = BiasedQuartic(1.0, 2.1)
        a = analyze(spec, C)
        grid = dataclasses.replace(default_grid(spec, C, a), n_points=8001, richardson=False)
        x = oracle._grid_nodes(grid, grid.n_points, False)
        t, vx = oracle._hamiltonian(a.v, C, x)
        m = oracle._seed_sizes(grid.n_points)[0]
        x_seed, levels, vectors = oracle._seed(a.v, C, grid, m, False)
        block = np.empty((vx.size, 2), order="F")
        for j in range(2):
            block[:, j] = np.interp(x[1:-1], x_seed, np.pad(vectors[:, j + 1], 1))
        return spec, a, grid, t, vx, block, levels

    def test_a_far_start_sweeps_until_certified(self, far_start, monkeypatch):
        spec, a, grid, t, vx, block, levels = far_start
        steps = self.ritz_steps(monkeypatch)
        ritz = oracle._polish(t, vx, block, levels[:2], levels[2], "the grid")
        assert len(steps) > 1
        e0, e1, noise = reference_lowest_two(spec, C, grid, a)
        assert abs(ritz[0] - e0) <= noise
        assert abs(ritz[1] - e1) <= noise
        # the bound again, in extended precision from 2t + v: the pair
        # returned is certified, its scale being at least E0 + E1 as v >= 0
        h, q = np.longdouble(t), block.astype(np.longdouble)
        squares = 0.0
        for j, level in enumerate(ritz):
            r = (vx + 2.0 * h - np.longdouble(level)) * q[:, j]
            r[:-1] -= h * q[1:, j]
            r[1:] -= h * q[:-1, j]
            squares += float(np.sum(r * r))
        gap = 0.5 * (levels[2] - ritz[1])
        assert squares / gap <= oracle._SETTLE * (ritz[0] + ritz[1])

    def test_a_pair_no_sweep_certifies_is_refused_by_its_bound(self, far_start, monkeypatch):
        spec, a, grid, t, vx, block, levels = far_start
        monkeypatch.setattr(oracle, "_MAX_SWEEPS", 1)
        with pytest.raises(GridTooCoarse, match=r"the residual bound \S+ of the Ritz pair is above"):
            oracle._polish(t, vx, block, levels[:2], levels[2], "the grid")

    def test_an_uncertified_grid_is_a_regime_error(self, tmp_path, monkeypatch, capsys):
        from tunnelkit.cli import main

        doc = {
            "schema": "tunnelkit/1",
            "potential": {"family": "biased_quartic", "alpha": 1.0, "a": 2.1},
            "oracle_grid": {"x_min": -4.8, "x_max": 4.8, "n_points": 2001, "richardson": False},
        }
        path = tmp_path / "quartic.json"
        path.write_text(json.dumps(doc))
        monkeypatch.setattr(oracle, "_SETTLE", 0.0)  # no bound is small enough
        assert main(["oracle", str(path)]) == 3
        err = capsys.readouterr().err
        assert err.startswith(
            "regime error: no seed gives a proven pair, the grid itself included: "
            "the residual bound "
        )


def checked_samples(monkeypatch):
    """(nodes, v on the interior nodes) of each ``_hamiltonian`` call."""
    calls = []
    hamiltonian = oracle._hamiltonian

    def spy(v, consts, x):
        t, samples = hamiltonian(v, consts, x)
        calls.append((x, samples))
        return t, samples

    monkeypatch.setattr(oracle, "_hamiltonian", spy)
    return calls


class TestGridSamples:
    """Each grid, a Richardson partner too, samples v on its own nodes when it is solved."""

    KINKED = DoubleOscillator(1.0, 1.3, 0.05, 9.0)

    # -x_min / h = 1000 + fraction: on the kinked wells, snapping rounds the
    # partner's zero-node index, 2000 + 2 fraction, up from twice the
    # grid's at 0.4 and down at 0.6, so that node i of the grid is node
    # 2i, 2i + 1 or 2i - 1 of its partner
    @pytest.mark.parametrize(
        "spec, fraction",
        [(BiasedQuartic(1.0, 2.1, 0.1), 0.4), (KINKED, 0.1), (KINKED, 0.4), (KINKED, 0.6)],
    )
    def test_each_grid_of_a_pair_samples_v_once_on_its_own_nodes(
        self, monkeypatch, spec, fraction
    ):
        h, n = 0.0105, 2001
        grid = GridSpec(-(1000 + fraction) * h, (1000 - fraction) * h, n)
        a = analyze(spec, C)
        assert not a.mirrored  # the grid is solved on its own axis
        calls = checked_samples(monkeypatch)
        eigen_lowest_two(spec, C, grid, analysis=a)
        for size in (n, 2 * n - 1):
            [(x, vx)] = [call for call in calls if call[0].size == size]
            assert np.array_equal(x, oracle._grid_nodes(grid, size, spec.kink))
            assert np.array_equal(vx, a.v(x[1:-1]))

    def test_a_partner_spacing_below_the_smallest_normal_float_is_sampled_on_its_own_nodes(
        self, monkeypatch
    ):
        # halving a spacing of 3e-308 rounds, and so would every node
        spec, grid = HARMONIC, GridSpec(0.0, 3e-306, 101)
        nodes = oracle._grid_nodes(grid, 101, False)
        partner = oracle._grid_nodes(grid, 201, False)
        assert not np.array_equal(nodes, partner[::2])
        calls = checked_samples(monkeypatch)
        # hbar and the mass keep t = hbar^2 / (2 m h^2) finite on such a grid
        eigen_lowest_two(spec, PhysConstants(hbar=4e-158, mass=1e300), grid)
        # each grid is its own seed, and each samples v on its own nodes
        for size, own in ((101, nodes), (201, partner)):
            grid_calls = [x for x, _ in calls if x.size == size]
            assert grid_calls and all(np.array_equal(x, own) for x in grid_calls)

    def test_a_partner_not_finite_between_the_nodes_of_its_grid_is_refused_after_it(
        self, monkeypatch
    ):
        n = HARMONIC_GRID.n_points
        evaluate = oracle.evaluate

        def midpoints_nan(spec, x, consts):
            v = evaluate(spec, x, consts)
            if np.size(x) == 2 * n - 3:  # the partner's interior, whose even entries lie between
                v[::2] = math.nan
            return v

        monkeypatch.setattr(oracle, "evaluate", midpoints_nan)
        steps = TestCertificate.ritz_steps(monkeypatch)
        with pytest.raises(
            ConfigError,
            match=rf"with n_points = {2 * n - 1} give no finite Hamiltonian: t = \S+, "
            rf"and v is not finite on {n - 1} nodes$",
        ):
            eigen_lowest_two(HARMONIC, C, HARMONIC_GRID)
        assert steps == [n - 2]  # the n-point grid is solved first


# interior nodes in three full chunks and a part of one
CHUNKED_POINTS = 3 * oracle._SAMPLE_NODES + 1002
# the kinked wells' x = 0 node is grid node 2 _SAMPLE_NODES + 1, interior
# node 2 _SAMPLE_NODES: the first of the third chunk
KINK_NODE = 2 * oracle._SAMPLE_NODES + 1


class TestChunkedSampling:
    """v and the seed vectors are sampled in chunks with the bits of one call on the interior."""

    @pytest.mark.parametrize(
        "spec, grid",
        [
            (BiasedQuartic(1.0, 2.1, 0.05), GridSpec(-4.8, 4.8, CHUNKED_POINTS, richardson=False)),
            (deep_sextic(6.0, 0.05), None),
            (
                TestGridSamples.KINKED,
                GridSpec(
                    -KINK_NODE * 5e-4,
                    (CHUNKED_POINTS - 1 - KINK_NODE) * 5e-4,
                    CHUNKED_POINTS,
                    richardson=False,
                ),
            ),
            (mirror(BiasedQuartic(1.0, 2.1, 0.05)), GridSpec(-4.8, 4.8, CHUNKED_POINTS, richardson=False)),
            (HARMONIC, GridSpec(-8.0, 8.0, CHUNKED_POINTS, richardson=False)),
        ],
        ids=["quartic", "sextic", "double_oscillator", "mirrored", "single_well"],
    )
    def test_samples_and_start_blocks_are_one_call_on_the_whole_interior(
        self, monkeypatch, spec, grid
    ):
        try:
            v = analyze(spec, C).v
        except WellStructureError:
            v = lambda x: evaluate(spec, x, C)  # noqa: E731
        if grid is None:
            grid = dataclasses.replace(
                default_grid(spec, C), n_points=CHUNKED_POINTS, richardson=False
            )
        samples = checked_samples(monkeypatch)
        seeds, starts = {}, []
        seed, polish = oracle._seed, oracle._polish

        def seed_spy(v, consts, grid, n_points, snap):
            seeds[n_points] = seed(v, consts, grid, n_points, snap)
            return seeds[n_points]

        def polish_spy(t, vx, block, shifts, ceiling, where):
            m = int(re.search(r"seeded from (\d+) points", where)[1])
            starts.append((m, block.copy()))
            return polish(t, vx, block, shifts, ceiling, where)

        monkeypatch.setattr(oracle, "_seed", seed_spy)
        monkeypatch.setattr(oracle, "_polish", polish_spy)
        eigen_lowest_two(spec, C, grid)
        for x, vx in samples:  # the grid's and each seed's
            assert np.array_equal(vx, v(x[1:-1]))
        [x] = [x for x, _ in samples if x.size == CHUNKED_POINTS]
        if spec.kink:
            assert x[KINK_NODE] == 0.0
        assert starts
        for m, block in starts:
            x_seed, _, vectors = seeds[m]
            for j in range(2):
                whole = np.interp(x[1:-1], x_seed, np.pad(vectors[:, j], 1))
                assert np.array_equal(block[:, j], whole)


WORKSPACE_SCRIPT = """\
from tunnelkit import BiasedQuartic, GridSpec, eigen_lowest_two
sp = eigen_lowest_two(BiasedQuartic(1.0, 2.1), grid=GridSpec(-4.8, 4.8, 2001))
print(*(e.hex() for e in (sp.E0, sp.E1, *sp.coarse, *sp.fine)))
"""


class TestWorkspace:
    """Each thread solves in its own work space, kept from one grid to the next."""

    def test_a_smaller_grid_after_a_larger_one_gives_the_bits_of_a_fresh_process(self):
        r = subprocess.run([sys.executable, "-c", WORKSPACE_SCRIPT], capture_output=True, text=True)
        assert r.returncode == 0, r.stderr
        spec = BiasedQuartic(1.0, 2.1)
        eigen_lowest_two(spec, C, GridSpec(-4.8, 4.8, 8001))  # leaves its vectors in the work space
        sp = eigen_lowest_two(spec, C, GridSpec(-4.8, 4.8, 2001))
        assert " ".join(e.hex() for e in (sp.E0, sp.E1, *sp.coarse, *sp.fine)) == r.stdout.strip()

    def test_threads_solving_different_grids_at_once_give_the_serial_bits(self):
        # more threads than cores, each solving its own grid three times,
        # with the interpreter switching threads as often as it can
        spec = BiasedQuartic(1.0, 2.1, 0.1)
        grids = [GridSpec(-4.8, 4.8, n) for n in (2001, 3001, 4001, 5001)]
        serial = [repr(eigen_lowest_two(spec, C, grid)) for grid in grids]
        found = [[] for _ in grids]
        start = threading.Barrier(len(grids))

        def solve(i):
            start.wait()
            for _ in range(3):
                found[i].append(repr(eigen_lowest_two(spec, C, grids[i])))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=solve, args=(i,)) for i in range(len(grids))]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert found == [[level] * 3 for level in serial]

    def test_a_solve_allocates_at_most_20_bytes_a_node_beyond_its_work_space(self):
        # the grid's nodes and v on them take 16 bytes a node; v's
        # temporaries and the seeds' interpolants are of a chunk's size
        n = 262145
        spec, grid = BiasedQuartic(1.0, 2.1, 0.05), GridSpec(-4.8, 4.8, n, richardson=False)
        eigen_lowest_two(spec, C, grid)  # grows this thread's work space to the grid
        started = not tracemalloc.is_tracing()
        if started:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            eigen_lowest_two(spec, C, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            if started:
                tracemalloc.stop()
        assert peak - before <= 20 * n


class TestGuardRails:
    def test_walls_too_close_to_the_wells(self):
        spec = BiasedQuartic(1.0, 2.1)
        with pytest.raises(DomainTooSmall, match="five decay lengths"):
            eigen_lowest_two(spec, C, GridSpec(-2.2, 2.2, 2001))

    def test_grid_too_coarse_for_the_splitting(self):
        spec = BiasedQuartic(1.0, 2.1)
        with pytest.raises(GridTooCoarse, match="grid doubling"):
            eigen_lowest_two(spec, C, GridSpec(-5.5, 5.5, 101))

    def test_analysis_none_is_analyzed(self):
        spec = BiasedQuartic(1.0, 2.1)
        grid = GridSpec(-4.8, 4.8, 2001)
        assert eigen_lowest_two(spec, C, grid, analysis=None) == eigen_lowest_two(
            spec, C, grid, analysis=analyze(spec, C)
        )

    def test_single_well_requires_an_explicit_grid(self):
        with pytest.raises(ConfigError, match="explicit grid"):
            eigen_lowest_two(HARMONIC, C, None)

    def test_default_grid_clears_both_wells(self):
        spec = DoubleOscillator(1.0, 1.3, 0.05, 9.0)
        a = analyze(spec, C)
        grid = default_grid(spec, C, a)
        ell = math.sqrt(C.hbar / C.mass)
        assert grid.x_min < a.x_L - 5.0 * ell / math.sqrt(a.omega_L)
        assert grid.x_max > a.x_R + 5.0 * ell / math.sqrt(a.omega_R)
        sp = eigen_lowest_two(spec, C, grid, analysis=a)
        assert sp.E0 < sp.E1

    @pytest.mark.parametrize(
        "spec, walls",
        [
            (DoubleOscillator(1.0, 1.3, 0.05, 9.0), (-14.458002611281403, 11.644217168988515)),
            (BiasedQuartic(1.0, 2.1, 0.3), (-5.566246514259147, 5.559769595578402)),
            (Polynomial((0.0, -0.05, 8.0, -4.0, 0.5)), (-4.1300010062710815, 8.12959087651818)),
        ],
    )
    def test_default_walls_keep_their_bits(self, spec, walls):
        # walls whose energy clears both floors; reprs round-trip
        grid = default_grid(spec, C)
        assert (grid.x_min, grid.x_max) == walls

    def test_default_grid_takes_a_right_floor_above_its_energy(self):
        # A bias of some 20 level spacings puts E_bar + 10 hbar max(w)
        # under the right floor, so the right wall comes from
        # v(x_R) + 10 hbar w_R.
        spec, consts = BiasedQuartic(0.01, 5.0, 1.5), PhysConstants(hbar=0.01)
        a = analyze(spec, consts)
        assert not a.mirrored
        e_hi = a.E_bar + 10.0 * consts.hbar * max(a.omega_L, a.omega_R)
        right_floor = a.v(a.x_R)
        assert e_hi < right_floor
        grid = default_grid(spec, consts, a)
        ell_l, ell_r = (math.sqrt(consts.hbar / (consts.mass * w)) for w in (a.omega_L, a.omega_R))
        assert a.v(grid.x_min + 5.0 * ell_l) == pytest.approx(e_hi, rel=1e-12)
        e_right = right_floor + 10.0 * consts.hbar * a.omega_R
        assert a.v(grid.x_max - 5.0 * ell_r) == pytest.approx(e_right, rel=1e-12)
        assert default_grid(mirror(spec), consts) == GridSpec(-grid.x_max, -grid.x_min)
        sp = eigen_lowest_two(spec, consts)
        assert 0.0 < sp.E0 < sp.E1
        # Kept on the axis of the mirror, the deeper well is the right one
        # and the energy lies under the left floor, so the left wall comes
        # from v(x_L) + 10 hbar w_L: the same walls as the auto analysis.
        kept = analyze(mirror(spec), consts, orient="keep")
        assert kept.E_bar + 10.0 * consts.hbar * max(kept.omega_L, kept.omega_R) < kept.v(kept.x_L)
        walls, auto = default_grid(mirror(spec), consts, kept), default_grid(mirror(spec), consts)
        assert walls.x_min == pytest.approx(auto.x_min, rel=1e-12)
        assert walls.x_max == pytest.approx(auto.x_max, rel=1e-12)
        sp_kept = eigen_lowest_two(mirror(spec), consts, analysis=kept)
        assert sp_kept.splitting == pytest.approx(sp.splitting, rel=1e-9)
        # the kept levels are measured from the higher, left floor
        assert sp_kept.E0 - kept.tilde_eps == pytest.approx(sp.E0, rel=1e-9)

    def test_default_grid_doubles_its_bracket_as_far_as_the_floats_reach(self):
        # decay lengths of 1.4e-61: the left wall lies some 202 doublings
        # of the bracket out, past the 200 that once ended the search; the
        # right wall rounds onto its well, which the domain check refuses
        spec = BiasedQuartic(0.3521807734937822, 1.8761212304758723, -1.9952623149688795)
        consts = PhysConstants(hbar=1.0, mass=2.2730636299860123e242)
        a = analyze(spec, consts)
        assert a.mirrored  # the walls are the analysis axis's, reflected
        grid = default_grid(spec, consts, a)
        assert (a.x_L + grid.x_max) / min(oracle._decay_lengths(a)) > 2.0**201
        with pytest.raises(DomainTooSmall, match="five decay lengths"):
            eigen_lowest_two(spec, consts, grid, analysis=a)

    def test_a_wall_on_its_well_is_refused_where_five_decay_lengths_are_under_an_ulp(
        self, monkeypatch
    ):
        # decay lengths of 1.6e-61: the bound x_R + 5 ell rounds onto x_R,
        # which the default walls, mirrored, put a wall on bit for bit
        spec = BiasedQuartic(0.3521807734937822, 1.8761212304758723, -1.9952623149688795)
        consts = PhysConstants(hbar=1.0, mass=2.2730636299860123e242)
        a = analyze(spec, consts)
        grid = dataclasses.replace(default_grid(spec, consts, a), n_points=64, richardson=False)
        ell_r = oracle._decay_lengths(a)[1]
        assert a.mirrored and grid.x_min == -a.x_R and a.x_R + 5.0 * ell_r == a.x_R
        with pytest.raises(
            DomainTooSmall,
            match=r"^walls must clear each well by five decay lengths: need x_min <= -1\.6278 "
            r"and x_max >= 2\.05186, got \[-1\.6278, 2\.714\]$",
        ):
            eigen_lowest_two(spec, consts, grid, analysis=a)
        # one ulp further out the wall clears its well by far more than 5 ell
        monkeypatch.setattr(oracle, "_lowest_two_on_grid", lambda *args: (1.0, 2.0))
        clear = dataclasses.replace(grid, x_min=math.nextafter(grid.x_min, -math.inf))
        assert eigen_lowest_two(spec, consts, clear, analysis=a).splitting == 1.0

    def test_default_grid_refuses_a_bracket_that_leaves_the_float_range(self, monkeypatch):
        spec = BiasedQuartic(1.0, 2.1)
        a = analyze(spec, C)
        v = WellAnalysis.v
        monkeypatch.setattr(WellAnalysis, "v", lambda self, x: v(self, x) if abs(x) < 3.0 else math.nan)
        with pytest.raises(ConfigError, match="potential does not confine"):
            default_grid(spec, C, a)

    def test_a_seed_whose_off_diagonal_squares_past_the_floats_is_refused(self, tmp_path, capsys):
        from tunnelkit.cli import main

        # t = hbar^2 / (2 m h^2) on the 351-point grid, its own seed: 1.7e143
        # at m = 1e-140, and 1.7e155 at m = 1e-152, whose t * t is inf
        doc = {
            "schema": "tunnelkit/1",
            "potential": {"family": "polynomial", "coeffs": [0, 0, 1]},
            "oracle_grid": {"x_min": -3, "x_max": 3, "n_points": 351, "richardson": False},
        }
        path = tmp_path / "harmonic.json"
        path.write_text(json.dumps(dict(doc, constants={"hbar": 1.0, "mass": 1e-140})))
        assert main(["oracle", str(path)]) == 0
        assert json.loads(capsys.readouterr().out)["spectrum"]["E0"] == pytest.approx(1.3707692e139)
        path.write_text(json.dumps(dict(doc, constants={"hbar": 1.0, "mass": 1e-152})))
        assert main(["oracle", str(path)]) == 2
        assert capsys.readouterr().err == (
            "config error: walls [-3, 3] with n_points = 351 give a seed whose off-diagonal "
            "t = 1.70139e+155 squares past the float range, which its bisection (stebz) "
            "cannot take\n"
        )

    def test_a_seed_whose_bisection_fails_is_a_numerics_error(self, monkeypatch):
        lapack = spied_lapack(monkeypatch)
        stebz = lapack.dstebz
        monkeypatch.setattr(lapack, "dstebz", lambda *args: (*stebz(*args)[:4], 4))
        with pytest.raises(
            NumericsError,
            match=r"^the 501-point seed grid is not solved: stebz \(eigh_tridiagonal\) did not "
            r"converge \(LAPACK info=4\)$",
        ):
            eigen_lowest_two(HARMONIC, C, GridSpec(-8.0, 8.0, 501, richardson=False))

    def test_default_grid_lies_on_the_axis_of_the_spec(self):
        # the right well is the deeper one, so "auto" analyzes the mirror
        spec = Polynomial((0.0, -0.05, 8.0, -4.0, 0.5))
        auto = default_grid(spec, C)
        keep = default_grid(spec, C, analyze(spec, C, orient="keep"))
        assert auto.x_min == pytest.approx(keep.x_min, rel=1e-9)
        assert auto.x_max == pytest.approx(keep.x_max, rel=1e-9)
        assert eigen_lowest_two(spec, C, auto) == eigen_lowest_two(spec, C)

    @pytest.mark.xfail(
        strict=True,
        reason=(
            "no check compares the spacing h with the decay length: here h is "
            "2.25e9 decay lengths, the levels are v at the nodes nearest the "
            "wells (E0 = 8.64e-6 against hbar omega_L / 2 = 1.55e-22), and the "
            "Richardson gap check passes by chance"
        ),
    )
    def test_a_grid_far_coarser_than_the_decay_length_is_refused(self):
        spec = DoubleOscillator(3.582323165050119, 1.0183123663254736, 0.0, 2.154434690031884)
        consts = PhysConstants(hbar=3.053738811630323e-22, mass=1.0)
        walls = 3.7365974766501795
        with pytest.raises(RegimeError):
            eigen_lowest_two(spec, consts, GridSpec(-walls, walls, 361, richardson=True))


# a quartic and a double oscillator on walls clear of their levels, with and
# without Richardson; Spectrum reprs, whose floats round-trip, compare bits
ROUTE_CASES = [
    (spec, GridSpec(x_min, x_max, 2001, richardson=richardson))
    for _, (spec, x_min, x_max) in list(COUNT_WELLS.items())[1:]
    for richardson in (False, True)
]
ROUTE_SCRIPT = """\
import json, sys
from tunnelkit import BiasedQuartic, DoubleOscillator, GridSpec, eigen_lowest_two, oracle

def solve():
    return [repr(eigen_lowest_two(spec, grid=grid)) for spec, grid in eval(sys.argv[1])]

direct, route = solve(), oracle._lapack().__name__
loaded = sorted(name for name in sys.modules if name.startswith("scipy.linalg"))
import scipy.linalg
oracle._lapack.cache_clear()
later = solve()
same = all(getattr(scipy.linalg.lapack, name) is getattr(oracle._lapack(), name)
           for name in ("dstebz", "dstein", "dgtsv", "dpttrf", "dpttrs"))
levels = scipy.linalg.eigh_tridiagonal([2.0, 2.0, 2.0], [-1.0, -1.0], eigvals_only=True)
print(json.dumps({"direct": direct, "route": route, "loaded": loaded, "later": later,
                  "same_routines": same, "levels": levels.tolist()}))
"""


@pytest.fixture(scope="module")
def fresh_process():
    """What ROUTE_SCRIPT saw in a fresh process: ROUTE_CASES solved before and after
    ``import scipy.linalg``, and the scipy.linalg modules loaded before it."""
    r = subprocess.run(
        [sys.executable, "-c", ROUTE_SCRIPT, repr(ROUTE_CASES)], capture_output=True, text=True
    )
    assert r.returncode == 0, r.stderr
    return json.loads(r.stdout)


class TestLapackRoute:
    """The solver's LAPACK routines come from scipy's extension, not from ``scipy.linalg``."""

    def test_a_solve_loads_no_scipy_linalg_module(self, fresh_process):
        assert fresh_process["route"] == "scipy.linalg._flapack"
        assert fresh_process["loaded"] == []

    def test_the_direct_route_gives_the_bits_of_scipy_linalg(self, fresh_process):
        # in this process scipy.linalg is loaded, and its extension serves
        assert fresh_process["direct"] == [
            repr(eigen_lowest_two(spec, grid=grid)) for spec, grid in ROUTE_CASES
        ]

    def test_a_later_import_of_scipy_linalg_works(self, fresh_process):
        assert fresh_process["same_routines"]
        assert fresh_process["later"] == fresh_process["direct"]
        assert fresh_process["levels"] == pytest.approx([2.0 - math.sqrt(2.0), 2.0, 2.0 + math.sqrt(2.0)])

    @pytest.mark.parametrize("failure", [ImportError, OSError])
    def test_the_fallback_gives_the_same_bits(self, monkeypatch, fresh_process, failure):
        from scipy.linalg import lapack

        def unloadable():
            raise failure("the extension cannot be loaded")

        monkeypatch.setattr(oracle, "_load_flapack", unloadable)
        monkeypatch.delitem(sys.modules, oracle._FLAPACK)
        oracle._lapack.cache_clear()
        try:
            assert oracle._lapack() is lapack
            fallback = [repr(eigen_lowest_two(spec, grid=grid)) for spec, grid in ROUTE_CASES]
        finally:
            oracle._lapack.cache_clear()
        assert fallback == fresh_process["direct"]

    def test_loading_leaves_sys_modules_as_it_was(self):
        before = sys.modules[oracle._FLAPACK]
        module = oracle._load_flapack()
        assert sys.modules[oracle._FLAPACK] is before
        assert all(getattr(module, name) is getattr(before, name) for name in LAPACK_ROUTINES)


# wells 4 to 8 level spacings deep, as DEEP_WELLS draws them, with a bias of
# at least 1e-3 hbar omega_L, or none for the oscillators: a gap the grid
# resolves, and floors or else frequencies that differ, so that "auto" solves
# a well and its mirror on one axis (the one oscillator whose wells match in
# both is symmetric, its own mirror)
QUARTICS = st.builds(deep_quartic, st.floats(4.0, 8.0), st.floats(0.8, 1.5), st.floats(5e-4, 0.15))
OSCILLATORS = st.builds(
    DoubleOscillator,
    st.just(1.0),
    st.floats(0.85, 1.3),
    st.one_of(st.just(0.0), st.floats(1e-3, 0.15)),
    st.floats(4.0, 8.0),
)
# (hbar, m) -> (lam hbar, lam^2 m) leaves hbar^2 / 2m, and with it H, as it
# was, but t = hbar^2 / (2 m h^2) and the walls round otherwise: each level
# moves by a few ulps of the level scale, and Richardson's (4 E_fine -
# E_coarse) / 3 by up to 5/3 as much.  So the margin is on the scale of E1,
# not on the gap's, which would tie it to the barrier's depth.  Measured: at
# most 17 ulps of E1 in E0 and 25 in the gap (3.4e-12 of the gap itself)
# over 360 quartics of this range; the margin is about 4 times that.
SCALING_MARGIN = 96 * math.ulp(1.0)


class TestInvariants:
    """Properties of the spectrum over generated wells."""

    @settings(max_examples=24, deadline=None, derandomize=True, database=None)
    @given(st.one_of(QUARTICS, OSCILLATORS), st.booleans())
    def test_the_mirror_on_the_reflected_walls_is_the_plain_spectrum(self, spec, richardson):
        grid = dataclasses.replace(default_grid(spec, C), n_points=2001, richardson=richardson)
        reflected = dataclasses.replace(grid, x_min=-grid.x_max, x_max=-grid.x_min)
        assert repr(eigen_lowest_two(mirror(spec), C, reflected)) == repr(
            eigen_lowest_two(spec, C, grid)
        )

    @settings(max_examples=24, deadline=None, derandomize=True, database=None)
    @given(QUARTICS, st.floats(0.5, 3.0), st.booleans())
    def test_hbar_and_mass_scaling_keeps_the_doublet(self, spec, lam, richardson):
        def solve(consts):
            grid = default_grid(spec, consts)
            return eigen_lowest_two(
                spec, consts, dataclasses.replace(grid, n_points=2001, richardson=richardson)
            )

        plain = solve(C)
        scaled = solve(PhysConstants(hbar=lam * C.hbar, mass=lam * lam * C.mass))
        assert abs(scaled.E0 - plain.E0) <= SCALING_MARGIN * plain.E1
        assert abs(scaled.splitting - plain.splitting) <= SCALING_MARGIN * plain.E1
