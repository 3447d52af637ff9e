"""Finite-difference eigensolver: accuracy, convergence, and guard rails."""
import math

import pytest

from tunnelkit import (
    BiasedQuartic,
    ConfigError,
    DEFAULT_CONSTANTS as C,
    DomainTooSmall,
    DoubleOscillator,
    GridSpec,
    GridTooCoarse,
    Polynomial,
    analyze,
    compute_splitting,
    default_grid,
    eigen_lowest_two,
)

HARMONIC = Polynomial((0.0, 0.0, 0.5))
HARMONIC_GRID = GridSpec(-8.0, 8.0, 2001, richardson=True)


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
    @pytest.mark.parametrize("v0,expected_ratio", [(8.0, 0.9908), (10.0, 0.9807)])
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
        assert sp.splitting == pytest.approx(1.684249724576e-06, rel=1e-4)


class TestGuardRails:
    def test_walls_too_close_to_the_wells(self):
        spec = BiasedQuartic(1.0, 2.1)
        with pytest.raises(DomainTooSmall, match="five decay lengths"):
            eigen_lowest_two(spec, C, GridSpec(-2.2, 2.2, 2001))

    def test_grid_too_coarse_for_the_splitting(self):
        spec = BiasedQuartic(1.0, 2.1)
        with pytest.raises(GridTooCoarse, match="grid doubling"):
            eigen_lowest_two(spec, C, GridSpec(-5.5, 5.5, 101))

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

    def test_default_grid_lies_on_the_axis_of_the_spec(self):
        # the right well is the deeper one, so "auto" analyzes the mirror
        spec = Polynomial((0.0, -0.05, 8.0, -4.0, 0.5))
        auto = default_grid(spec, C)
        keep = default_grid(spec, C, analyze(spec, C, orient="keep"))
        assert auto.x_min == pytest.approx(keep.x_min, rel=1e-9)
        assert auto.x_max == pytest.approx(keep.x_max, rel=1e-9)
        assert eigen_lowest_two(spec, C, auto) == eigen_lowest_two(spec, C)
