"""Command-line interface: documents, CSV schemas, exit codes, determinism."""
import dataclasses
import json
import math
import pathlib
import re
import shutil
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings

import tunnelkit.cli
import tunnelkit.oracle
import tunnelkit.potentials
import tunnelkit.splitting
from tunnelkit import (
    DegenerateBarrier,
    DoubleOscillator,
    PhysConstants,
    RootNotBracketed,
    TunnelkitError,
    DomainTooSmall,
    EnergyBelowWellBottom,
    FitIllConditioned,
    GridTooCoarse,
    WellStructureError,
    analyze,
    compute_splitting,
    eigen_lowest_two,
    evaluate_action,
    parse_config,
    Polynomial,
)
from tunnelkit.actions import ActionResult, action_rows, double_oscillator_action
from tunnelkit.oracle import Spectrum
from tunnelkit.splitting import LevelShifts, QuantizationResult, SplittingResult
from tunnelkit.cli import (
    CSV_HEADER,
    _spectrum_doc,
    _splitting_doc,
    main,
    run_analyze,
    run_compare,
    run_oracle,
    run_sweep,
)
from generated_configs import GENERATED_CONFIGS
from util import reference_point, sextic_coeffs, sextic_scale_for_depth

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"

TILTED_QUARTIC = {
    "schema": "tunnelkit/1",
    "potential": {"family": "biased_quartic", "alpha": 3.0, "a": 1.0, "beta": 0.15},
    "oracle_grid": {"x_min": -4.0, "x_max": 4.0, "n_points": 8001, "richardson": True},
}

# Key order of an analyze splitting block: the closed formula and the
# quadratic shifts, then the nine keys of the transcendental roots.
SPLITTING_KEYS = [
    "I_bar",
    "I_slope",
    "delta",
    "delta_E",
    "dE_plus",
    "dE_minus",
    "E_plus",
    "E_minus",
    "b_prime",
    "u",
    "delta_E_quadratic",
]
ROOT_KEYS = [
    "E_trans_plus",
    "E_trans_minus",
    "delta_E_transcendental",
    "zeta_L_plus",
    "zeta_R_plus",
    "zeta_L_minus",
    "zeta_R_minus",
    "residual_plus",
    "residual_minus",
]

DO_SWEEP = {
    "schema": "tunnelkit/1",
    "potential": {
        "family": "double_oscillator",
        "omega_L": 1.0,
        "omega_R": 1.3,
        "tilde_eps": 0.0,
        "V0": 9.0,
    },
    "sweep": {"parameter": "tilde_eps", "from": 0.0, "to": 0.1, "steps": 7},
}


def readme_config():
    block = re.search(r"```json\n(.*?)```", README.read_text(), re.S).group(1)
    return json.loads(block)


def cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "tunnelkit", *args], capture_output=True, text=True
    )


def write_json(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture
def solve_sizes(monkeypatch):
    """Matrix size (interior nodes) of every per-grid solve, in call order."""
    sizes = []
    solve = tunnelkit.oracle._lowest_two_on_grid

    def spy(v, consts, grid, n_points, *args):
        sizes.append(n_points - 2)
        return solve(v, consts, grid, n_points, *args)

    monkeypatch.setattr(tunnelkit.oracle, "_lowest_two_on_grid", spy)
    return sizes


class TestAnalyze:
    def test_csv_offsets_keep_a_splitting_below_ulp_of_the_mean_level(self):
        # Eight spacings deep and symmetric: E_trans_pm both round to
        # E_bar = 32, while the solved offsets keep the 3.45e-16 gap.
        doc = {
            "schema": "tunnelkit/1",
            "potential": {"family": "biased_quartic", "alpha": 512, "a": 1, "beta": 0},
        }
        jdoc, csv_text = run_analyze(parse_config(doc))
        header, line = csv_text.splitlines()
        cells = dict(zip(header.split(","), line.split(",")))
        split = jdoc["splitting"]
        assert split["E_trans_plus"] == split["E_trans_minus"] == 32.0
        gap = split["delta_E_transcendental"]
        assert gap == pytest.approx(3.45e-16, rel=1e-3)
        offsets = float(cells["dE_trans_minus"]) - float(cells["dE_trans_plus"])
        assert offsets == pytest.approx(gap, rel=1e-12, abs=0.0)

    def test_reference_tilted_quartic_report(self):
        doc, csv_text = run_analyze(parse_config(TILTED_QUARTIC))
        s = doc["splitting"]
        assert s["I_bar"] == pytest.approx(0.5101901829289663, rel=1e-12)
        assert s["delta"] == pytest.approx(1.0063736510385806, rel=1e-12)
        assert s["delta_E"] == pytest.approx(1.0379464766920916, rel=1e-12)
        assert doc["well"]["tilde_eps"] == pytest.approx(
            0.29999413942289066, rel=1e-12
        )
        assert doc["well"]["eps"] == pytest.approx(0.25405700732867786, rel=1e-12)
        assert doc["oracle"]["splitting"] == pytest.approx(
            0.616455218199967, rel=1e-6
        )
        assert doc["oracle"]["wkb_ratio"] == pytest.approx(
            1.6837337831657393, rel=1e-6
        )
        assert doc["warn_flags"] == ["gamow", "transcendental_unbracketed"]
        assert s["E_trans_plus"] is None
        assert csv_text.splitlines()[0] == CSV_HEADER

    @pytest.mark.parametrize(
        "potential, solved",
        [
            ({"family": "biased_quartic", "alpha": 3.0, "a": 1.0, "beta": 0.15}, False),
            ({"family": "biased_quartic", "alpha": 1.0, "a": 2.1, "beta": 0.2}, True),
        ],
        ids=["fallback", "newton"],
    )
    def test_action_block_is_the_action_at_the_mean_level(self, potential, solved):
        config = parse_config({"schema": "tunnelkit/1", "potential": potential})
        doc, csv_text = run_analyze(config)
        spec, consts = config.potential, config.constants
        a = analyze(spec, consts, orient=config.orient, require_wkb=True)
        act = evaluate_action(
            spec, consts, analysis=a, rtol=config.tolerances.quad_rtol
        )
        assert list(doc["action"].items()) == [
            ("E", act.E),
            ("a_bar", act.a_bar),
            ("b_bar", act.b_bar),
            ("I", act.I),
            ("I_slope", act.I_slope),
            ("I_L", act.I_L),
            ("I_R", act.I_R),
        ]
        assert list(doc["splitting"]) == SPLITTING_KEYS + ROOT_KEYS
        roots = [doc["splitting"][key] for key in ROOT_KEYS]
        if solved:
            assert all(type(value) is float for value in roots)
        else:
            assert roots == [None] * len(ROOT_KEYS)
        cols = dict(zip(CSV_HEADER.split(","), csv_text.splitlines()[1].split(",")))
        assert cols["I_bar"] == f"{act.I:.17g}"
        assert cols["I_slope"] == f"{act.I_slope:.17g}"

    def test_document_is_json_serializable_and_complete(self):
        doc, _ = run_analyze(parse_config(TILTED_QUARTIC))
        text = json.dumps(doc)
        again = json.loads(text)
        for key in (
            "schema",
            "command",
            "potential",
            "constants",
            "well",
            "action",
            "splitting",
            "oracle",
            "warn_flags",
        ):
            assert key in again
        assert again["command"] == "analyze"

    def test_no_oracle_block_without_a_grid(self):
        doc, _ = run_analyze(
            parse_config(
                {
                    "schema": "tunnelkit/1",
                    "potential": {
                        "family": "biased_quartic",
                        "alpha": 1.0,
                        "a": 2.1,
                    },
                }
            )
        )
        assert doc["oracle"] is None
        assert doc["warn_flags"] == []
        assert doc["splitting"]["E_trans_plus"] is not None


class TestSweep:
    def test_row_count_and_header(self):
        doc, csv_text = run_sweep(parse_config(DO_SWEEP))
        lines = csv_text.splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 1 + 7
        assert len(doc["rows"]) == 7

    def test_bias_column_spans_the_requested_range(self):
        _, csv_text = run_sweep(parse_config(DO_SWEEP))
        rows = [line.split(",") for line in csv_text.splitlines()[1:]]
        tilde = [float(r[0]) for r in rows]
        assert tilde[0] == 0.0
        assert tilde[-1] == pytest.approx(0.1, rel=1e-15)
        assert all(b > a for a, b in zip(tilde, tilde[1:]))

    def test_monotone_splitting_growth_with_bias(self):
        _, csv_text = run_sweep(parse_config(DO_SWEEP))
        header = csv_text.splitlines()[0].split(",")
        i_de = header.index("delta_E")
        values = [float(l.split(",")[i_de]) for l in csv_text.splitlines()[1:]]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_oracle_columns_need_an_explicit_grid(self):
        doc, csv_text = run_sweep(parse_config(DO_SWEEP))
        header = csv_text.splitlines()[0].split(",")
        row = csv_text.splitlines()[1].split(",")
        cols = dict(zip(header, row))
        assert cols["oracle_E0"] == ""
        assert cols["oracle_split"] == ""
        assert "barrier_kink" in cols["warn_flags"]

    def test_oracle_columns_fill_for_the_parabolic_family(self):
        cfg = dict(DO_SWEEP)
        cfg["oracle_grid"] = {
            "x_min": -11.0,
            "x_max": 10.0,
            "n_points": 4001,
            "richardson": True,
        }
        doc, csv_text = run_sweep(parse_config(cfg))
        header = csv_text.splitlines()[0].split(",")
        last = dict(zip(header, csv_text.splitlines()[-1].split(",")))
        assert last["oracle_E0"] != ""
        ratio = float(last["delta_E"]) / float(last["oracle_split"])
        assert ratio == pytest.approx(1.0, abs=5e-3)

    def test_fit_block_reports_the_bias_slope(self):
        doc, _ = run_sweep(parse_config(DO_SWEEP))
        fit = doc["fit"]
        for key in ("c0", "c1", "c2", "rms_residual", "c1_analytic"):
            assert key in fit
        assert fit["rms_residual"] < 1e-4
        assert abs(fit["c1"] - fit["c1_analytic"]) / abs(fit["c1_analytic"]) < 1e-3

    def test_runs_are_deterministic(self):
        _, first = run_sweep(parse_config(DO_SWEEP))
        _, second = run_sweep(parse_config(DO_SWEEP))
        assert first == second


def _sweep_doc(potential, start, stop, steps=21):
    return {
        "schema": "tunnelkit/1",
        "potential": potential,
        "sweep": {"parameter": "tilde_eps", "from": start, "to": stop, "steps": steps},
    }


def _no_grid(doc):
    return {k: v for k, v in doc.items() if k != "oracle_grid"}


# Sweeps whose points are solved in one batch: all rows solved, all rows
# falling back (the README example), rows flagged past the zeta bound, a
# mirrored sextic, rows flagged where a Newton iterate would fall under
# the curve's right floor, and a sweep whose first point fails.
BATCHED_SWEEPS = {
    "double_oscillator": DO_SWEEP,
    "readme": _no_grid(readme_config()),
    "quartic": _sweep_doc(
        {"family": "biased_quartic", "alpha": 1.0, "a": 2.1, "beta": 0.05}, -0.1, 0.4
    ),
    "sextic_mirror": _sweep_doc(
        {"family": "polynomial", "coeffs": [float(c) for c in sextic_coeffs(20.0)], "mirror": True},
        0.0,
        0.3,
    ),
    "past_the_zeta_bound": _sweep_doc(
        {"family": "polynomial", "coeffs": [0, 0, -4, 0.3, 1]}, 1.0, 2.0, steps=11
    ),
    "iterates_under_the_right_floor": _sweep_doc(
        {"family": "polynomial", "coeffs": [0, 0, -4, 0.3, 1]}, -0.5, 0.5, steps=11
    ),
    "below_the_curves_bias": _sweep_doc(
        {"family": "polynomial", "coeffs": [0, 0, -4, 0.3, 1]}, -1.0, 0.0, steps=11
    ),
}


class TestBatchedSweep:
    """``run_sweep`` solves its points in one batch; every row, or the
    error, must be what building the points one by one gives."""

    @staticmethod
    def point_by_point(config):
        base = analyze(config.potential, config.constants, orient=config.orient, require_wkb=True)
        sweep = config.sweep
        rows = []
        for i in range(sweep.steps):
            value = sweep.start + i * (sweep.stop - sweep.start) / (sweep.steps - 1)
            try:
                rows.append(reference_point(config, dataclasses.replace(base, tilde_eps=value)))
            except TunnelkitError as exc:
                return type(exc), str(exc)
        return rows

    @pytest.mark.parametrize("name", list(BATCHED_SWEEPS))
    def test_rows_are_the_point_by_point_rows(self, name):
        config = parse_config(BATCHED_SWEEPS[name])
        try:
            got = run_sweep(config)[0]["rows"]
        except TunnelkitError as exc:
            got = type(exc), str(exc)
        # bit for bit, which is stronger than the 1e-12 the batch promises
        assert got == self.point_by_point(config)

    def test_the_failing_sweep_raises_its_first_points_error(self):
        with pytest.raises(EnergyBelowWellBottom, match="E = 1.50474 is below the right well floor"):
            run_sweep(parse_config(BATCHED_SWEEPS["below_the_curves_bias"]))

    def test_iterates_under_the_right_floor_flag_their_rows(self, tmp_path, capsys):
        # E_bar clears the curve's right floor 1.71319 from tilde_eps -0.5
        # on, but the first Newton iterates of the three lowest points do
        # not: their roots fall back, and the sweep still ends
        path = write_json(tmp_path, "under.json", BATCHED_SWEEPS["iterates_under_the_right_floor"])
        assert main(["sweep", path, "--format", "json"]) == 0
        rows = json.loads(capsys.readouterr().out)["rows"]
        flagged = [
            row["tilde_eps"] for row in rows if "transcendental_unbracketed" in row["warn_flags"]
        ]
        assert flagged == [row["tilde_eps"] for row in rows[:3]]
        assert all(row["E_bar"] > 1.71319 for row in rows)

    def test_rows_past_the_zeta_bound_are_the_flagged_ones(self):
        doc, _ = run_sweep(parse_config(BATCHED_SWEEPS["past_the_zeta_bound"]))
        flagged = [
            row["tilde_eps"] for row in doc["rows"] if "transcendental_unbracketed" in row["warn_flags"]
        ]
        assert flagged == [row["tilde_eps"] for row in doc["rows"] if row["tilde_eps"] >= 1.7]
        assert len(flagged) == 4

    @pytest.mark.parametrize("name", ["readme", "quartic", "past_the_zeta_bound"])
    def test_reruns_are_byte_identical(self, name):
        config = parse_config(BATCHED_SWEEPS[name])
        first, second = run_sweep(config), run_sweep(config)
        assert json.dumps(first[0]) == json.dumps(second[0])
        assert first[1] == second[1]


class TestOracleCommand:
    def test_halving_report(self):
        cfg = {
            "schema": "tunnelkit/1",
            "potential": {"family": "polynomial", "coeffs": [0.0, 0.0, 0.5]},
            "oracle_grid": {
                "x_min": -8.0,
                "x_max": 8.0,
                "n_points": 2001,
                "richardson": True,
            },
        }
        doc, _ = run_oracle(parse_config(cfg))
        assert doc["spectrum"]["E0"] == pytest.approx(0.5, abs=1e-9)
        halving = doc["halving"]
        assert halving["n_fine"] == 2 * halving["n_coarse"] - 1
        assert abs(halving["E0_fine"] - 0.5) < abs(halving["E0_coarse"] - 0.5)
        assert halving["E0_change"] > 0.0

    @pytest.mark.parametrize("richardson", [True, False])
    @pytest.mark.parametrize(
        "potential,walls",
        [
            ({"family": "biased_quartic", "alpha": 1.0, "a": 2.1, "beta": 0.2}, 4.8),
            (
                {
                    "family": "double_oscillator",
                    "omega_L": 1.0,
                    "omega_R": 1.3,
                    "tilde_eps": 0.1,
                    "V0": 8.0,
                    "mirror": True,
                },
                11.0,
            ),
            ({"family": "polynomial", "coeffs": [0.0, 0.0, 0.5]}, 8.0),
        ],
        ids=["biased_quartic", "mirrored_double_oscillator", "single_well"],
    )
    def test_halving_comes_from_two_solves(
        self, solve_sizes, potential, walls, richardson
    ):
        n = 2001
        config = parse_config(
            {
                "schema": "tunnelkit/1",
                "potential": potential,
                "oracle_grid": {
                    "x_min": -walls,
                    "x_max": walls,
                    "n_points": n,
                    "richardson": richardson,
                },
            }
        )
        doc, _ = run_oracle(config)
        assert solve_sizes == [n - 2, 2 * n - 3]

        # Reference: one non-Richardson solve per grid, run on its own.
        spec, consts, grid = config.potential, config.constants, config.oracle_grid
        try:
            a = analyze(spec, consts, orient=config.orient)
        except WellStructureError:
            a = None
        assert (a is None) == (potential["family"] == "polynomial")
        coarse = eigen_lowest_two(
            spec, consts, dataclasses.replace(grid, richardson=False), analysis=a
        )
        fine = eigen_lowest_two(
            spec,
            consts,
            dataclasses.replace(grid, n_points=2 * n - 1, richardson=False),
            analysis=a,
        )
        assert doc["halving"] == {
            "n_coarse": n,
            "E0_coarse": coarse.E0,
            "E1_coarse": coarse.E1,
            "n_fine": 2 * n - 1,
            "E0_fine": fine.E0,
            "E1_fine": fine.E1,
            "E0_change": fine.E0 - coarse.E0,
            "E1_change": fine.E1 - coarse.E1,
        }

    def test_too_coarse_grid_raises_before_any_halving_solve(self, solve_sizes):
        config = parse_config(
            {
                "schema": "tunnelkit/1",
                "potential": {"family": "biased_quartic", "alpha": 1.0, "a": 2.1},
                "oracle_grid": {"x_min": -5.5, "x_max": 5.5, "n_points": 101},
            }
        )
        with pytest.raises(GridTooCoarse, match="grid doubling"):
            run_oracle(config)
        assert solve_sizes == [99, 199]

    def test_a_single_well_is_solved_as_the_raw_potential(self, monkeypatch):
        # under "keep" too: the command's analysis fails, and so does the
        # one "auto" analysis of the eigensolver's entry
        doc = {
            "schema": "tunnelkit/1",
            "potential": {"family": "polynomial", "coeffs": [0, 0, 0.5], "orient": "keep"},
            "oracle_grid": {"x_min": -8.0, "x_max": 8.0, "n_points": 2001},
        }
        config = parse_config(doc)
        spec, consts, grid = config.potential, config.constants, config.oracle_grid
        expected = _spectrum_doc(eigen_lowest_two(spec, consts, grid))
        orients = []
        real = tunnelkit.potentials.analyze

        def spy(*args, **kwargs):
            orients.append(kwargs.get("orient"))
            return real(*args, **kwargs)

        monkeypatch.setattr(tunnelkit.cli, "analyze", spy)
        monkeypatch.setattr(tunnelkit.oracle, "analyze", spy)
        out, _ = run_oracle(config)
        assert orients == ["keep", None]
        assert out["spectrum"] == expected

    @pytest.mark.parametrize("richardson", [True, False])
    @pytest.mark.parametrize(
        "potential,walls",
        [
            ({"family": "polynomial", "coeffs": [80, 0, 40, 0, -35, 0, 5]}, 4.0),
            ({"family": "biased_quartic", "alpha": 1.0, "a": 2.1, "beta": 0.2}, 4.8),
        ],
        ids=["three_wells", "double_well"],
    )
    def test_a_zero_gap_is_refused_with_or_without_two_wells(
        self, monkeypatch, potential, walls, richardson
    ):
        # two equal levels from every grid, whatever the CPU's rounding
        monkeypatch.setattr(tunnelkit.oracle, "_lowest_two_on_grid", lambda *args: (1.0, 1.0))
        config = parse_config(
            {
                "schema": "tunnelkit/1",
                "potential": potential,
                "oracle_grid": {
                    "x_min": -walls, "x_max": walls, "n_points": 2001, "richardson": richardson,
                },
            }
        )
        if potential["family"] == "polynomial":  # the path with no analysis
            with pytest.raises(WellStructureError):
                analyze(config.potential, config.constants, orient=config.orient)
        with pytest.raises(GridTooCoarse, match="the doublet gap is 0 on the grid"):
            run_oracle(config)

    def test_walls_far_out_are_solved_from_a_finer_seed(self, tmp_path, capsys, monkeypatch):
        # walls 190 well separations out: the 626-node seed puts 1.3 length
        # units between nodes against a decay length of 0.41, no sweep from
        # it certifies a pair, and each grid is solved again from the
        # 1251-node seed
        doc = {
            "schema": "tunnelkit/1",
            "potential": {"family": "biased_quartic", "alpha": 1.0, "a": 2.1},
            "oracle_grid": {"x_min": -400.0, "x_max": 400.0, "n_points": 20001},
        }
        seeds = []
        seed = tunnelkit.oracle._seed

        def spy(v, consts, grid, n_points, snap):
            seeds.append(n_points)
            return seed(v, consts, grid, n_points, snap)

        monkeypatch.setattr(tunnelkit.oracle, "_seed", spy)
        assert main(["oracle", write_json(tmp_path, "wide.json", doc)]) == 0
        assert seeds == [626, 1251]
        out = json.loads(capsys.readouterr().out)
        # the gap of the default walls' Richardson pair, 1.683085e-6
        assert out["spectrum"]["splitting"] == pytest.approx(1.683085e-06, rel=1e-4)

    @pytest.mark.parametrize("richardson", [True, False])
    def test_the_two_grids_solve_each_seed_once(self, monkeypatch, richardson):
        # a Richardson pair shares its seed; without Richardson the halving
        # report solves the 16001-point grid on its own, from the same seed
        seeds = []
        seed = tunnelkit.oracle._seed

        def spy(v, consts, grid, n_points, snap):
            seeds.append(n_points)
            return seed(v, consts, grid, n_points, snap)

        monkeypatch.setattr(tunnelkit.oracle, "_seed", spy)
        config = parse_config(
            {
                "schema": "tunnelkit/1",
                "potential": {"family": "biased_quartic", "alpha": 1.0, "a": 2.1},
                "oracle_grid": {
                    "x_min": -4.8, "x_max": 4.8, "n_points": 8001, "richardson": richardson,
                },
            }
        )
        out, _ = run_oracle(config)
        assert seeds == ([251] if richardson else [251, 251])
        assert out["halving"]["n_fine"] == 16001

    @pytest.mark.parametrize("richardson", [True, False])
    def test_every_grid_is_solved_through_eigen_lowest_two(self, monkeypatch, richardson):
        grids = []
        real = tunnelkit.cli.eigen_lowest_two

        def spy(spec, consts, grid, **kwargs):
            grids.append((grid.n_points, grid.richardson))
            return real(spec, consts, grid, **kwargs)

        monkeypatch.setattr(tunnelkit.cli, "eigen_lowest_two", spy)
        config = parse_config(
            {
                "schema": "tunnelkit/1",
                "potential": {"family": "biased_quartic", "alpha": 1.0, "a": 2.1},
                "oracle_grid": {
                    "x_min": -4.8, "x_max": 4.8, "n_points": 2001, "richardson": richardson,
                },
            }
        )
        run_oracle(config)
        assert grids == ([(2001, True)] if richardson else [(2001, False), (4001, False)])

    @pytest.mark.parametrize("command", ["oracle", "analyze"])
    def test_walls_where_v_overflows_are_a_config_error(self, tmp_path, capsys, command):
        # the spacing, 2e298, squares past the largest float, and so does
        # v on every interior node
        doc = dict(
            readme_config(), oracle_grid={"x_min": -1e300, "x_max": 1e300, "n_points": 101}
        )
        assert main([command, write_json(tmp_path, "huge.json", doc)]) == 2
        assert capsys.readouterr().err == (
            "config error: walls [-1e+300, 1e+300] with n_points = 101 give no finite "
            "Hamiltonian: t = 0, and v is not finite on 98 nodes\n"
        )

    def test_a_grid_too_large_to_allocate_is_a_config_error(self, tmp_path, capsys):
        # 10^12 nodes need 7.28 TiB for the nodes alone; the very first
        # allocation fails, so nothing gets allocated
        config = readme_config()
        doc = dict(config, oracle_grid=dict(config["oracle_grid"], n_points=10**12))
        assert main(["oracle", write_json(tmp_path, "vast.json", doc)]) == 2
        assert capsys.readouterr().err == (
            "config error: n_points = 1000000000000 is too large: its oracle grid "
            "cannot be allocated\n"
        )

    def test_unresolved_levels_are_a_regime_error(self, tmp_path, capsys):
        # three deep wells, the outer two alike: the second and third levels
        # coincide to rounding, so no seed, the grid itself included, gives
        # a pair that a Sturm count proves to be the two lowest
        doc = {
            "schema": "tunnelkit/1",
            "potential": {"family": "polynomial", "coeffs": [0, 0, 162, 0, -36, 0, 2]},
            "oracle_grid": {"x_min": -5.0, "x_max": 5.0, "n_points": 2001},
        }
        assert main(["oracle", write_json(tmp_path, "triple.json", doc)]) == 3
        err = capsys.readouterr().err
        assert err.startswith(
            "regime error: no seed gives a proven pair, the grid itself included: "
        )
        assert "of the 2001-point grid seeded from 2001 points" in err

    def test_grid_is_required(self):
        cfg = {
            "schema": "tunnelkit/1",
            "potential": {"family": "biased_quartic", "alpha": 1.0, "a": 2.1},
        }
        from tunnelkit import ConfigError

        with pytest.raises(ConfigError, match="oracle_grid"):
            run_oracle(parse_config(cfg))


    # wells near x = 0 and x = 4, the right one deeper: "auto" mirrors the axis
    SKEWED = {"family": "polynomial", "coeffs": [0, -0.05, 8, -4, 0.5]}

    def skewed(self, orient, x_min, x_max):
        return parse_config(
            {
                "schema": "tunnelkit/1",
                "potential": dict(self.SKEWED, orient=orient),
                "oracle_grid": {"x_min": x_min, "x_max": x_max, "n_points": 4001},
            }
        )

    def test_walls_lie_on_the_config_axis_under_either_orientation(self):
        keep, _ = run_oracle(self.skewed("keep", -3.0, 7.0))
        auto, _ = run_oracle(self.skewed("auto", -3.0, 7.0))
        assert auto["spectrum"]["splitting"] == pytest.approx(
            keep["spectrum"]["splitting"], rel=1e-9, abs=0.0
        )

    @pytest.mark.parametrize("orient", ["keep", "auto"])
    def test_walls_through_the_right_well_are_too_small(self, orient):
        with pytest.raises(DomainTooSmall, match=r"need x_min <= -2\.49981 and x_max >= 6\.5002"):
            run_oracle(self.skewed(orient, -7.0, 3.0))


    # E_bar = 0.5 over a 0.4 barrier, and E_bar = 1.5 under the right floor
    # at 2: neither mean level has a sub-barrier action.
    @pytest.mark.parametrize(
        "tilde_eps,V0,flags,error",
        [
            (0.0, 0.4, ["gamow", "barrier_kink"], DegenerateBarrier),
            (2.0, 6.0, ["eps_over_hw", "barrier_kink"], EnergyBelowWellBottom),
        ],
        ids=["mean_level_over_the_barrier", "mean_level_under_the_right_floor"],
    )
    def test_warn_flags_never_fail_the_spectrum(
        self, tmp_path, capsys, tilde_eps, V0, flags, error
    ):
        doc = {
            "schema": "tunnelkit/1",
            "potential": {
                "family": "double_oscillator",
                "omega_L": 1.0,
                "omega_R": 1.0,
                "tilde_eps": tilde_eps,
                "V0": V0,
            },
            "oracle_grid": {"x_min": -10.0, "x_max": 10.0, "n_points": 2001},
        }
        path = write_json(tmp_path, "no_action.json", doc)
        assert main(["oracle", path]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["spectrum"] == run_oracle(parse_config(doc))[0]["spectrum"]
        assert out["spectrum"]["splitting"] > 0.0
        assert out["warn_flags"] == flags
        # the semiclassical commands still refuse the same well
        for command, runner in (("analyze", run_analyze), ("compare", run_compare)):
            assert main([command, path]) == 3
            assert "regime error" in capsys.readouterr().err
            with pytest.raises(error):
                runner(parse_config(doc))


class TestCompare:
    def test_symmetric_well_gives_identical_semiclassical_rows(self):
        cfg = {
            "schema": "tunnelkit/1",
            "potential": {"family": "biased_quartic", "alpha": 1.0, "a": 2.1},
            "oracle_grid": {
                "x_min": -4.8,
                "x_max": 4.8,
                "n_points": 8001,
                "richardson": True,
            },
        }
        doc, csv_text = run_compare(parse_config(cfg))
        lines = csv_text.splitlines()
        assert lines[0] == "method,delta_E,rel_err_vs_oracle"
        by = {row["method"]: row for row in doc["methods"]}
        assert set(by) == {"zeroth_order", "first_order", "transcendental", "oracle"}
        assert by["zeroth_order"]["delta_E"] == by["first_order"]["delta_E"]
        assert by["oracle"]["rel_err_vs_oracle"] == 0.0
        assert by["zeroth_order"]["rel_err_vs_oracle"] == pytest.approx(
            0.0875444308789302, abs=2e-3
        )

    def test_first_order_beats_zeroth_order_on_asymmetric_wells(self):
        # Ten tilted sextic wells with distinct frequencies in each well.
        # The correction factor shrinks the splitting, which is the right
        # direction because the semiclassical value overshoots here.
        scale = sextic_scale_for_depth(1.5)
        base = analyze(Polynomial(tuple(sextic_coeffs(scale))))
        wins = 0
        for tilt_frac in np.linspace(0.002, 0.05, 10):
            tilt = 0.5 * tilt_frac * base.omega_L
            cfg = {
                "schema": "tunnelkit/1",
                "potential": {
                    "family": "polynomial",
                    "coeffs": sextic_coeffs(scale, tilt),
                },
                "oracle_grid": {
                    "x_min": -3.0,
                    "x_max": 3.0,
                    "n_points": 6001,
                    "richardson": True,
                },
            }
            doc, _ = run_compare(parse_config(cfg))
            by = {row["method"]: row["rel_err_vs_oracle"] for row in doc["methods"]}
            if by["first_order"] < by["zeroth_order"]:
                wins += 1
        assert wins >= 8


HEAVY_OSCILLATOR = {
    "family": "double_oscillator", "omega_L": 1.0, "omega_R": 1.1, "tilde_eps": 0.05, "V0": 8.0,
}


# A double oscillator whose bookkeeping reads in short decimals:
# tilde_eps = eps = 0.1 and E_bar = 0.55.
CELLS_WELL = {
    "family": "double_oscillator", "omega_L": 1.0, "omega_R": 1.0, "tilde_eps": 0.1, "V0": 8.0,
}
CELLS_GRID = {"x_min": -9.0, "x_max": 9.0, "n_points": 1001, "richardson": True}


def _crafted(analysis, delta=math.inf, I_slope=math.nan, offsets=(-0.0, 1e-300 / 7.0)):
    """A SplittingResult with set values: I_bar = 1/3, E_plus = E_bar - 0.25,
    E_minus NaN, and the roots' offsets (no roots when ``offsets`` is None)."""
    action = ActionResult(
        E=analysis.E_bar, a_bar=-1.0, b_bar=1.0, I=1.0 / 3.0, I_slope=I_slope, I_L=0.25, I_R=1.0 / 12.0
    )
    shifts = LevelShifts(dE_plus=-0.25, dE_minus=math.nan, b_prime=0.0, u=-1.0, delta=delta)
    roots = None
    if offsets is not None:
        zeros = dict.fromkeys(("zeta_L_plus", "zeta_R_plus", "zeta_L_minus", "zeta_R_minus"), 0.0)
        roots = QuantizationResult(
            E_plus=0.3, E_minus=0.8, residual_plus=0.0, residual_minus=0.0,
            delta_plus=offsets[0], delta_minus=offsets[1], **zeros,
        )
    return SplittingResult(analysis, action, shifts, roots)


def _crafted_spectrum():
    return Spectrum(
        E0=-0.0, E1=math.inf, splitting=1.0 / 3.0, est_error=math.nan, coarse=(0.0, 1.0), fine=(0.0, 1.0)
    )


def _config(**blocks):
    return parse_config({"schema": "tunnelkit/1", "potential": CELLS_WELL, **blocks})


class TestCsvCells:
    """Every CSV line, of every command, writes a None or NaN as an empty
    cell, inf as "inf" and -0.0 as "-0", any other float with 17
    significant digits, and a string (a flag list, a method) verbatim."""

    def test_analyze_line(self, monkeypatch):
        monkeypatch.setattr(
            tunnelkit.cli, "compute_splittings", lambda points, rtol: [(_crafted(points[0]), None)]
        )
        monkeypatch.setattr(tunnelkit.cli, "eigen_lowest_two", lambda *args, **kwargs: _crafted_spectrum())
        doc, text = run_analyze(_config(oracle_grid=CELLS_GRID))
        assert text == CSV_HEADER + "\n" + doc["csv"]["row"] + "\n"
        assert doc["csv"]["row"] == ",".join([
            "0.10000000000000001",  # tilde_eps
            "0.10000000000000001",  # eps
            "0.55000000000000004",  # E_bar
            "0.33333333333333331",  # I_bar
            "",  # I_slope: NaN
            "inf",  # delta
            "inf",  # delta_E
            "0.30000000000000004",  # E_plus
            "",  # E_minus: NaN
            "-0",  # dE_trans_plus
            "1.4285714285714285e-301",  # dE_trans_minus
            "-0",  # oracle_E0
            "inf",  # oracle_E1
            "0.33333333333333331",  # oracle_split
            "gamow;barrier_kink",
        ])

    def test_sweep_lines(self, monkeypatch):
        # even points solve their roots; odd ones fall back, so their root
        # cells are None
        def crafted(points, rtol):
            return [
                (_crafted(p, delta=0.5, I_slope=-math.inf, offsets=None), RootNotBracketed("no root"))
                if i % 2 else (_crafted(p, delta=0.5, I_slope=-math.inf), None)
                for i, p in enumerate(points)
            ]

        monkeypatch.setattr(tunnelkit.cli, "compute_splittings", crafted)
        sweep = {"parameter": "tilde_eps", "from": 0.0, "to": 0.2, "steps": 5}
        doc, text = run_sweep(_config(sweep=sweep))
        lines = doc["csv"]["rows"]
        assert text == CSV_HEADER + "\n" + "".join(line + "\n" for line in lines)
        for i, (row, line) in enumerate(zip(doc["rows"], lines)):
            split = row["splitting"]
            numbers = [row["tilde_eps"], row["eps"], row["E_bar"], split["I_bar"]]
            cells = line.split(",")
            assert cells[:4] == [format(v, ".17g") for v in numbers]
            assert cells[4:7] == ["-inf", "0.5", format(math.hypot(row["eps"], 0.5), ".17g")]
            assert cells[7:9] == [format(split["E_plus"], ".17g"), ""]
            assert cells[9:11] == (["", ""] if i % 2 else ["-0", "1.4285714285714285e-301"])
            assert cells[11:14] == ["", "", ""]
            flags = "gamow;barrier_kink" + (";transcendental_unbracketed" if i % 2 else "")
            assert cells[14] == flags
        assert lines[0].startswith("0,0,0.5,0.33333333333333331,")
        assert lines[2].startswith("0.10000000000000001,0.10000000000000001,0.55000000000000004,")

    def test_oracle_line(self, monkeypatch):
        monkeypatch.setattr(tunnelkit.cli, "eigen_lowest_two", lambda *args, **kwargs: _crafted_spectrum())
        doc, text = run_oracle(_config(oracle_grid=CELLS_GRID))
        # est_error NaN is null in the JSON, and an empty cell
        assert text == "E0,E1,splitting,est_error\n-0,inf,0.33333333333333331,\n"

    def test_compare_lines(self, monkeypatch):
        # no roots: the transcendental delta_E is NaN, and so its error
        monkeypatch.setattr(
            tunnelkit.cli, "compute_splitting",
            lambda spec, consts, analysis, rtol: _crafted(analysis, offsets=None),
        )
        monkeypatch.setattr(tunnelkit.cli, "eigen_lowest_two", lambda *args, **kwargs: _crafted_spectrum())
        doc, text = run_compare(_config(oracle_grid=CELLS_GRID))
        exact, i_bar = 1.0 / 3.0, 1.0 / 3.0
        prefactor = tunnelkit.cli._delta_prefactor(analyze(DoubleOscillator(1.0, 1.0, 0.1, 8.0)))
        zeroth = math.hypot(0.1, prefactor * math.exp(-i_bar))
        assert doc["csv"]["rows"] == [
            f"zeroth_order,{zeroth:.17g},{abs(zeroth - exact) / exact:.17g}",
            "first_order,inf,inf",
            "transcendental,,",
            "oracle,0.33333333333333331,0",
        ]
        lines = "".join(row + "\n" for row in doc["csv"]["rows"])
        assert text == "method,delta_E,rel_err_vs_oracle\n" + lines


class TestExitCodes:
    def test_unsupported_schema(self, tmp_path):
        path = write_json(
            tmp_path,
            "bad.json",
            {
                "schema": "tunnelkit/99",
                "potential": {"family": "biased_quartic", "alpha": 1.0, "a": 2.0},
            },
        )
        r = cli("analyze", path)
        assert r.returncode == 2
        assert "config error" in r.stderr

    def test_missing_potential(self, tmp_path):
        path = write_json(tmp_path, "nopot.json", {"schema": "tunnelkit/1"})
        assert cli("analyze", path).returncode == 2

    def test_missing_file(self, tmp_path):
        r = cli("analyze", str(tmp_path / "absent.json"))
        assert r.returncode == 2
        assert "config error" in r.stderr

    def test_an_output_file_that_cannot_be_written_is_a_config_error(self, tmp_path, capsys):
        out = tmp_path / "missing" / "out.json"
        path = write_json(tmp_path, "ok.json", readme_config())
        assert main(["analyze", path, "--out", str(out)]) == 2
        _, err = capsys.readouterr()
        assert err.startswith(f"config error: cannot write output file {out}: ")
        assert not out.parent.exists()

    @pytest.mark.parametrize("command", ["analyze", "oracle"])
    @pytest.mark.parametrize("n_points", [2**60, 10**30])
    def test_a_grid_past_any_address_space_is_a_config_error(self, tmp_path, capsys, command, n_points):
        # GridSpec refuses these before any array is made: numpy would
        # raise ValueError on them, not MemoryError
        config = readme_config()
        doc = dict(config, oracle_grid=dict(config["oracle_grid"], n_points=n_points))
        assert main([command, write_json(tmp_path, "vast.json", doc)]) == 2
        assert capsys.readouterr().err == (
            f"config error: n_points = {n_points} is too large: its oracle grid "
            "cannot be allocated\n"
        )

    def test_a_sweep_of_four_steps_cannot_be_fitted(self, tmp_path, capsys):
        sweep = {"parameter": "tilde_eps", "from": 0.0, "to": 0.1, "steps": 4}
        config = dict(DO_SWEEP, sweep=sweep)
        message = "sweep needs at least 5 steps for a 3-parameter fit, got 4"
        with pytest.raises(FitIllConditioned, match=f"^{message}$"):
            run_sweep(parse_config(config))
        assert main(["sweep", write_json(tmp_path, "four.json", config)]) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"

    def test_a_sweep_whose_span_overflows_is_a_config_error(self, tmp_path, capsys):
        # to - from is inf, which would make the first bias 0 * inf = NaN
        sweep = {"parameter": "tilde_eps", "from": -1.7e308, "to": 1.7e308, "steps": 11}
        path = write_json(tmp_path, "span.json", dict(readme_config(), sweep=sweep))
        assert main(["sweep", path]) == 2
        assert capsys.readouterr().err == (
            'config error: the span from "from" to "to" in "sweep" must be finite\n'
        )

    @pytest.mark.parametrize("command", ["analyze", "sweep"])
    @pytest.mark.parametrize(
        "omega_L, omega_R, V0",
        [(1e153, 3e153, 1e158), (1e151, 3e151, 1e156)],
        ids=["squares_overflow", "b_prime_overflows"],
    )
    def test_quanta_past_the_root_of_the_float_range_give_finite_levels(
        self, tmp_path, capsys, command, omega_L, omega_R, V0
    ):
        # DoubleOscillator(1, 3, 0, 100) in units of hbar omega_L, with
        # hbar = 1e3.  (eps/2)^2 in the level shifts overflowed at
        # omega_L = 1e153 (an internal OverflowError, exit 4), and
        # hbar^2 w_L w_R at 1e151 (exit 0 with E_plus empty and E_minus
        # inf).  The levels are those of the unit well, scaled.
        hw = 1e3 * omega_L
        doc = {
            "schema": "tunnelkit/1",
            "potential": {
                "family": "double_oscillator",
                "omega_L": omega_L, "omega_R": omega_R, "tilde_eps": 0.0, "V0": V0,
            },
            "constants": {"hbar": 1e3, "mass": 1.0},
            "sweep": {"parameter": "tilde_eps", "from": 0.0, "to": 1e-3 * hw, "steps": 5},
        }
        path = write_json(tmp_path, "quanta.json", doc)
        assert main([command, path, "--format", "json"]) == 0
        out = json.loads(capsys.readouterr().out)
        rows = [out] if command == "analyze" else out["rows"]
        for row in rows:
            split = row["splitting"]
            assert all(math.isfinite(split[k]) for k in ("E_plus", "E_minus", "b_prime", "u"))
        unit = compute_splitting(DoubleOscillator(1.0, 3.0, 0.0, 100.0), solve=False).shifts
        split = rows[0]["splitting"]
        for key in ("dE_plus", "dE_minus", "b_prime", "delta"):
            assert split[key] / hw == pytest.approx(getattr(unit, key), rel=1e-12), key
        assert split["u"] * hw == pytest.approx(unit.u, rel=1e-12)

    def test_shallow_barrier_is_a_regime_error(self, tmp_path):
        path = write_json(
            tmp_path,
            "shallow.json",
            {
                "schema": "tunnelkit/1",
                "potential": {
                    "family": "double_oscillator",
                    "omega_L": 1.0,
                    "omega_R": 1.0,
                    "tilde_eps": 0.0,
                    "V0": 0.4,
                },
            },
        )
        r = cli("analyze", path)
        assert r.returncode == 3
        assert "regime error" in r.stderr

    def test_sweep_below_the_curves_own_bias_is_a_regime_error(self, tmp_path):
        # The shape's own tilde_eps is 1.713; dialed to -1.0, the mean level
        # E_bar = 1.505 itself lies under the curve's right floor.
        path = write_json(
            tmp_path,
            "below.json",
            {
                "schema": "tunnelkit/1",
                "potential": {"family": "polynomial", "coeffs": [0, 0, -4, 0.3, 1]},
                "sweep": {"parameter": "tilde_eps", "from": -1.0, "to": 0.0, "steps": 11},
            },
        )
        r = cli("sweep", path)
        assert r.returncode == 3
        assert "regime error" in r.stderr
        assert "E = 1.50474 is below the right well floor" in r.stderr

    def test_analyze_whose_splitting_underflows_is_flagged(self, tmp_path, capsys):
        # I_bar = 1368.9: exp(-I_bar) underflows, and delta and delta_E read
        # 0.  A flag never fails a run, so analyze still exits 0.
        doc = {
            "schema": "tunnelkit/1",
            "potential": {"family": "biased_quartic", "alpha": 1, "a": 9, "beta": 0},
        }
        path = write_json(tmp_path, "underflow.json", doc)
        assert main(["analyze", path]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["splitting"]["I_bar"] == pytest.approx(1368.9129, rel=1e-6)
        assert out["splitting"]["delta"] == out["splitting"]["delta_E"] == 0.0
        assert out["warn_flags"] == ["delta_underflow", "transcendental_unbracketed"]
        assert main(["analyze", path, "--format", "csv"]) == 0
        row = capsys.readouterr().out.splitlines()[1]
        assert row.endswith(",0,0,12.727922061357855,12.727922061357855,,,,,,"
                            "delta_underflow;transcendental_unbracketed")

    def test_analyze_whose_splitting_is_negative_is_flagged(self, tmp_path, capsys):
        # A right well 100 times stiffer makes the first-order factor about
        # -1.57, so delta is negative.  A flag never fails a run; a
        # positive delta is not flagged.
        negative = {
            "schema": "tunnelkit/1",
            "potential": {"family": "double_oscillator", "omega_L": 1.0, "omega_R": 100.0,
                          "tilde_eps": 40.0, "V0": 400.0},
        }
        path = write_json(tmp_path, "negative.json", negative)
        assert main(["analyze", path]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["splitting"]["delta"] == pytest.approx(-1.254165e-130, rel=1e-6)
        assert out["warn_flags"] == [
            "eps_over_hw", "barrier_kink", "delta_negative", "transcendental_unbracketed",
        ]
        assert main(["analyze", path, "--format", "csv"]) == 0
        row = capsys.readouterr().out.splitlines()[1]
        assert row.endswith(",eps_over_hw;barrier_kink;delta_negative;transcendental_unbracketed")
        path = write_json(tmp_path, "positive.json", DO_SWEEP)
        assert main(["analyze", path]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["splitting"]["delta"] > 0.0
        assert "delta_negative" not in out["warn_flags"]

    @pytest.mark.parametrize(
        "potential,sweep,message",
        [
            # I_bar = 844.7, so delta underflows to 0 on every row
            (
                {
                    "family": "biased_quartic",
                    "alpha": 62.64365154815492,
                    "a": 3.845467281649521,
                    "beta": -3.2396766803991324,
                },
                {"from": 0.0634162680636503, "to": 0.630445146288632, "steps": 11},
                "config error: delta underflows to 0 at tilde_eps = 0.063416268063650305 "
                "(I_bar = 844.696), so ln(delta) cannot be fitted",
            ),
            # a right well 100 times stiffer makes the first-order factor
            # 1 + (k/4)(eps/hbar omega_L)(omega_R - omega_L)/omega_R about
            # -1.57 (k < 0), so delta is negative on every row
            (
                {"family": "double_oscillator", "omega_L": 1.0, "omega_R": 100.0,
                 "tilde_eps": 40.0, "V0": 400.0},
                {"from": 40.0, "to": 48.0, "steps": 5},
                "config error: delta = -1.25417e-130 is not positive at tilde_eps = 40, "
                "so ln(delta) cannot be fitted",
            ),
        ],
        ids=["underflow", "negative"],
    )
    def test_sweep_whose_splitting_underflows_is_a_config_error(
        self, tmp_path, capsys, potential, sweep, message
    ):
        # ln(delta) has nothing to fit, and the sweep is refused before the log
        path = write_json(
            tmp_path,
            "underflow.json",
            {
                "schema": "tunnelkit/1",
                "potential": potential,
                "sweep": dict(sweep, parameter="tilde_eps"),
            },
        )
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["sweep", path])
        assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
        assert code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert message in err

    def test_sweep_rows_past_the_zeta_bound_are_flagged_unbracketed(self, tmp_path):
        # Dialed from 1.0 to 2.0 the same curve keeps every mean level above
        # its right floor.  From tilde_eps = 1.7 on, zeta_R of a root leaves
        # |zeta| < 0.4, so those rows keep the unsolved splitting and the
        # sweep still succeeds.
        path = write_json(
            tmp_path,
            "above.json",
            {
                "schema": "tunnelkit/1",
                "potential": {"family": "polynomial", "coeffs": [0, 0, -4, 0.3, 1]},
                "sweep": {"parameter": "tilde_eps", "from": 1.0, "to": 2.0, "steps": 11},
            },
        )
        out = tmp_path / "out.csv"
        assert main(["sweep", path, "--format", "csv", "--out", str(out)]) == 0
        header, *rows = out.read_text().splitlines()
        assert len(rows) == 11
        for row in rows:
            cells = dict(zip(header.split(","), row.split(",")))
            unbracketed = float(cells["tilde_eps"]) >= 1.7
            assert ("transcendental_unbracketed" in cells["warn_flags"]) == unbracketed
            assert (cells["dE_trans_plus"] == cells["dE_trans_minus"] == "") == unbracketed

    def test_equal_well_floors_end_in_a_classified_outcome(self, tmp_path):
        path = write_json(
            tmp_path,
            "equal.json",
            {
                "schema": "tunnelkit/1",
                # floors equal but for rounding (see
                # TestAnalyzeQuartic::test_equal_floors_mirror_at_most_once)
                "potential": {
                    "family": "polynomial",
                    "coeffs": [
                        -0.7008217478617969,
                        -5.252305213632848,
                        -9.707421835517414,
                        0.6686193182191998,
                        0.6291844552657135,
                    ],
                },
            },
        )
        r = cli("analyze", path)
        assert r.returncode == 0, r.stderr
        assert json.loads(r.stdout)["well"]["mirrored"] is True

    def test_integer_beyond_float_range_is_a_config_error(self, tmp_path, capsys):
        doc = {
            "schema": "tunnelkit/1",
            "potential": {"family": "biased_quartic", "alpha": 10**400, "a": 2.0},
        }
        assert main(["analyze", write_json(tmp_path, "huge.json", doc)]) == 2
        assert '"alpha" in "potential" must be finite' in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command,doc,cause",
        [
            (
                "oracle",
                {
                    "potential": {"family": "polynomial", "coeffs": [0, 0, 0.5]},
                    "constants": {"hbar": 1e200},
                    "oracle_grid": {"x_min": -8.0, "x_max": 8.0, "n_points": 101},
                },
                "PhysConstants hbar = 1e+200",
            ),
            (
                "analyze",
                {"potential": {"family": "biased_quartic", "alpha": 1.0, "a": 1.4e154}},
                "BiasedQuartic a = 1.4e+154",
            ),
            (
                "oracle",
                {
                    "potential": {
                        "family": "double_oscillator",
                        "omega_L": 1e200,
                        "omega_R": 1e200,
                        "tilde_eps": 0.0,
                        "V0": 5.0,
                    },
                    "oracle_grid": {"x_min": -1.0, "x_max": 1.0, "n_points": 101},
                },
                "DoubleOscillator omega_L = 1e+200",
            ),
        ],
        ids=["hbar", "quartic_a", "omega"],
    )
    def test_a_field_whose_square_overflows_is_a_config_error(
        self, tmp_path, capsys, command, doc, cause
    ):
        # a float's ** raises OverflowError where y * y and numpy give inf
        doc = {"schema": "tunnelkit/1", **doc}
        assert main([command, write_json(tmp_path, "huge.json", doc)]) == 2
        assert capsys.readouterr().err == (
            f"config error: {cause} overflows when squared\n"
        )

    @pytest.mark.parametrize(
        "fields,message",
        [
            # omega_L ** 2 is 0, which met an infinite square at x = 0 (a NaN)
            (
                {"omega_L": 1e-300},
                "DoubleOscillator omega_L = 1e-300 underflows when squared",
            ),
            # omega_L ** 2 is subnormal, and x_L ** 2 overflowed on the scan
            (
                {"omega_L": 1e-160},
                "DoubleOscillator omega_L = 1e-160 underflows when squared",
            ),
            (
                {"omega_R": 1e-150, "V0": 1e10},
                "DoubleOscillator omega_R = 1e-150 puts its well at x = 1.41421e+155, "
                "whose square overflows",
            ),
        ],
        ids=["omega_L_1e-300", "omega_L_1e-160", "x_R"],
    )
    def test_a_double_oscillator_out_of_float_range_is_a_config_error(
        self, tmp_path, capsys, fields, message
    ):
        potential = {
            "family": "double_oscillator",
            "omega_L": 1.0,
            "omega_R": 1.0,
            "tilde_eps": 0.0,
            "V0": 5.0,
            **fields,
        }
        doc = {"schema": "tunnelkit/1", "potential": potential}
        assert main(["analyze", write_json(tmp_path, "scale.json", doc)]) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"

    @pytest.mark.parametrize("command", ["analyze", "sweep", "oracle"])
    def test_a_double_oscillator_whose_curvature_overflows_is_a_config_error(
        self, tmp_path, capsys, command
    ):
        # mass * omega_L ** 2 is inf, which would make V NaN at the wells;
        # every command refuses it before it solves anything
        path = write_json(tmp_path, "stiff.json", OVERFLOWING_CURVATURE)
        assert main([command, path]) == 2
        assert capsys.readouterr().err == (
            "config error: DoubleOscillator omega_L = 2 and mass 1.7e+308 "
            "make mass * omega_L^2 overflow\n"
        )

    def test_a_double_oscillator_whose_squares_stay_normal_is_analyzed(self, tmp_path):
        # omega_L ** 2 = 1e-300 and x_L ** 2 = 1e301 are normal floats; a
        # RuntimeWarning on the way fails this test
        potential = {
            "family": "double_oscillator",
            "omega_L": 1e-150,
            "omega_R": 1.0,
            "tilde_eps": 0.0,
            "V0": 5.0,
        }
        doc = {"schema": "tunnelkit/1", "potential": potential}
        assert main(["analyze", write_json(tmp_path, "scale.json", doc)]) == 0

    @pytest.mark.parametrize("a", [1.3e154, 1e100, 1e77])
    def test_a_quartic_whose_v_overflows_on_its_scan_window_is_a_config_error(
        self, tmp_path, capsys, a
    ):
        # 9 alpha a^4, V at x = 2a, is past the largest float; a ** 2 is not
        doc = {
            "schema": "tunnelkit/1",
            "potential": {"family": "biased_quartic", "alpha": 1.0, "a": a},
        }
        assert main(["analyze", write_json(tmp_path, "wide.json", doc)]) == 2
        assert capsys.readouterr().err == (
            f"config error: BiasedQuartic a = {a:g} takes V past the float range on "
            "its scan window [-2a, 2a], with alpha = 1\n"
        )

    def test_a_quartic_whose_v_stays_finite_keeps_its_quadrature_error(
        self, tmp_path, capsys
    ):
        # 9 alpha a^4 = 9e304 is finite: the wells are analyzed, and the
        # action's quadrature does not settle on their scale
        doc = {
            "schema": "tunnelkit/1",
            "potential": {"family": "biased_quartic", "alpha": 1.0, "a": 1e76},
        }
        assert main(["analyze", write_json(tmp_path, "wide.json", doc)]) == 4
        assert capsys.readouterr().err.startswith(
            "numerical error: quadrature did not settle"
        )

    @pytest.mark.parametrize(
        "coeffs,cause",
        [
            # the scan window reaches past x = 2.8e299
            (
                [0, 0, -4, 0.3, 1e-300],
                "take V or a derivative on the scan window [-2.81475e+299, 5.6475e+298]",
            ),
            # the third derivative is 2.4e308
            (
                [0, 0, -1e307, 0, 1e307],
                "take V or a derivative on the scan window [-1.06307, 1.06307]",
            ),
            # x^4 overflows on the window; the Brent steps at the barrier top
            # x = 0 overflowed, bisected, and did not converge in 100
            (
                [0, 0, -1e200, 0, 1],
                "take V or a derivative on the scan window [-1.06207e+100, 1.06207e+100]",
            ),
            # the companion matrix of V' would hold 1.95e252 / 1.6e-281
            (
                [0, 1.95e252, -2.4e90, 3.3e-17, 4.05e-282],
                "put a ratio of the coefficients of V'",
            ),
        ],
        ids=["tiny_lead", "huge_d3", "huge_v", "huge_ratio"],
    )
    def test_a_polynomial_past_the_float_range_is_a_config_error(
        self, tmp_path, capsys, coeffs, cause
    ):
        doc = {"schema": "tunnelkit/1", "potential": {"family": "polynomial", "coeffs": coeffs}}
        assert main(["analyze", write_json(tmp_path, "wide.json", doc)]) == 2
        named = ", ".join(f"{c:g}" for c in coeffs)
        assert capsys.readouterr().err == (
            f"config error: Polynomial coeffs [{named}] {cause} past the float range\n"
        )

    def test_a_quartic_whose_slope_ratio_overflows_is_a_regime_error(self, tmp_path, capsys):
        # beta / (4 alpha) = 1.8e372 overflows as an entry of the companion
        # matrix of V'; its one real root lies near x = -1.2e124
        doc = {
            "schema": "tunnelkit/1",
            "potential": {
                "family": "biased_quartic",
                "alpha": 5.205673908249191e-287,
                "a": 0.6611037889181619,
                "beta": 3.689615175251747e86,
            },
        }
        assert main(["analyze", write_json(tmp_path, "steep.json", doc)]) == 3
        assert capsys.readouterr().err == (
            "regime error: found 0 local minima in window "
            "(-1.3222075778363238, 1.3222075778363238), need 2\n"
        )

    def test_an_underflowed_brent_denominator_bisects(self, tmp_path, capsys):
        # V' is below 1e-112 on the scan window, where the inverse-quadratic
        # denominator of the Brent steps that once found its stationary
        # points underflowed to 0; the companion roots and the crossing
        # keep its outcome
        doc = {
            "schema": "tunnelkit/1",
            "potential": {
                "family": "biased_quartic",
                "alpha": 2.5262682534183503e-111,
                "a": 0.0251262186202353,
            },
            "constants": {"hbar": 0.7449, "mass": 0.1126},
        }
        assert main(["analyze", write_json(tmp_path, "flat.json", doc)]) == 3
        assert capsys.readouterr().err == (
            "regime error: barrier height 1.0069e-117 does not exceed mean level 3.9647e-57\n"
        )

    def test_a_decay_length_that_underflows_is_a_config_error(self, tmp_path, capsys):
        # sqrt(hbar / (m omega_L)) is 0, which the seed grid's node count
        # would divide by
        path = write_json(tmp_path, "ell.json", UNDERFLOWING_DECAY_LENGTH)
        assert main(["oracle", path]) == 2
        assert capsys.readouterr().err == f"config error: {DECAY_LENGTH_REFUSAL}\n"

    def test_analyze_refuses_a_decay_length_that_underflows_in_its_oracle(self, tmp_path, capsys):
        # The decay length is 0 only where hbar omega / V0, about
        # (decay length / well width)^2, is so small that the action's
        # quadrature does not settle: analyze ends there, with exit 4,
        # before its oracle runs.  The oracle that it runs on its analysis
        # refuses as the oracle command does.
        path = write_json(tmp_path, "ell.json", UNDERFLOWING_DECAY_LENGTH)
        assert main(["analyze", path]) == 4
        assert capsys.readouterr().err.startswith("numerical error: quadrature did not settle")
        config = parse_config(UNDERFLOWING_DECAY_LENGTH)
        spec, consts = config.potential, config.constants
        analysis = analyze(spec, consts, orient=config.orient, require_wkb=True)
        with pytest.raises(tunnelkit.ConfigError) as refused:
            eigen_lowest_two(spec, consts, config.oracle_grid, analysis=analysis)
        assert str(refused.value) == DECAY_LENGTH_REFUSAL

    def test_a_seed_grid_whose_off_diagonal_squares_past_the_floats_is_a_config_error(
        self, tmp_path, capsys
    ):
        # t = hbar^2 / (2 m h^2) is about 2e244, where LAPACK's bisection
        # does not converge
        doc = {
            "schema": "tunnelkit/1",
            "potential": {"family": "biased_quartic", "alpha": 0.302, "a": 0.282, "beta": -1.16e24},
            "constants": {"hbar": 0.40, "mass": 9.1e-246},
            "oracle_grid": {"x_min": -23.0, "x_max": 23.0, "n_points": 64},
        }
        assert main(["oracle", write_json(tmp_path, "light.json", doc)]) == 2
        assert capsys.readouterr().err == (
            "config error: walls [-23, 23] with n_points = 64 give a seed whose off-diagonal "
            "t = 1.64897e+244 squares past the float range, which its bisection (stebz) "
            "cannot take\n"
        )

    @pytest.mark.parametrize(
        "command,doc,code,message",
        [
            # E1 == E0 on the grid: analyze and compare divide by the gap
            (
                "analyze",
                {
                    "potential": {"family": "biased_quartic", "alpha": 1.0, "a": 4.0},
                    "oracle_grid": {"x_min": -8.0, "x_max": 8.0, "n_points": 501, "richardson": False},
                },
                3,
                "regime error: the doublet gap is 0 on the grid; increase n_points",
            ),
            (
                "oracle",
                {
                    "potential": {"family": "double_oscillator", "omega_L": 1.091022224970456e-129,
                                  "omega_R": 1.0, "tilde_eps": 0.0, "V0": 6.007249319720353e-237},
                    "constants": {"hbar": 0.4173607550686218, "mass": 6.007249319720353e-237},
                    "oracle_grid": {"x_min": -3.0937948949832648, "x_max": 1.3704375478982846,
                                    "n_points": 370},
                },
                2,
                "config error: mass 6.00725e-237 times omega_L = 1.09102e-129 underflows",
            ),
            # v reaches 1e272 at the nodes, and a shift at a diagonal entry
            # leaves a solve infinite
            (
                "oracle",
                {
                    "potential": {"family": "polynomial",
                                  "coeffs": [-1.0421505558402072e+68, -1.0, -1.0, 0.0, 1.0]},
                    "oracle_grid": {"x_min": -1.0, "x_max": 1.0421505558402072e+68, "n_points": 64,
                                    "richardson": False},
                },
                3,
                "regime error: no seed gives a proven pair, the grid itself included: the "
                "iterated vectors vanish or overflow",
            ),
            # the seed's second and third levels are 1 ulp apart
            (
                "oracle",
                {
                    "potential": {"family": "polynomial", "coeffs": [
                        -1.8762081107313213, 0.0, -6.210971730094722, -0.01, 1.1627569938494708e+151,
                    ]},
                    "constants": {"hbar": 0.43034712057767305},
                    "oracle_grid": {"x_min": -1.0, "x_max": 1.0, "n_points": 281},
                },
                3,
                "regime error: no seed gives a proven pair, the grid itself included: the "
                "seed's third level 1.89172e+141 is not above the second level",
            ),
            # the Rayleigh-Ritz matrix overflowed in numpy scalars, where
            # floats give the limit
            (
                "oracle",
                {
                    "potential": {"family": "biased_quartic", "alpha": 2.4708450579716265e+155,
                                  "a": 0.1},
                    "constants": {"hbar": 0.38457563017125085, "mass": 1.2098099159478002},
                    "oracle_grid": {"x_min": -1.0, "x_max": 8.88034544029244, "n_points": 64,
                                    "richardson": False},
                },
                0,
                "",
            ),
            # t = hbar^2 / (2 m h^2) = 1.21e308 is finite, but 2t is not
            (
                "oracle",
                {
                    "potential": {"family": "polynomial", "coeffs": [0, 0, 0.5]},
                    "constants": {"hbar": 1.0, "mass": 4.1e-306},
                    "oracle_grid": {"x_min": -1.0, "x_max": 1.0, "n_points": 64,
                                    "richardson": False},
                },
                2,
                "config error: walls [-1, 1] with n_points = 64 give a Hamiltonian whose "
                "diagonal 2t + v overflows: t = 1.21006e+308, and 2t + v is not finite on "
                "62 nodes\n",
            ),
        ],
        ids=[
            "zero_gap", "mass_omega", "infinite_solve", "no_gap_to_hi", "huge_ritz_matrix",
            "diagonal_overflow",
        ],
    )
    def test_an_oracle_grid_it_cannot_solve_is_classified(
        self, tmp_path, capsys, command, doc, code, message
    ):
        doc = {"schema": "tunnelkit/1", **doc}
        assert main([command, write_json(tmp_path, "grid.json", doc)]) == code
        assert capsys.readouterr().err.startswith(message)

    @pytest.mark.parametrize(
        "potential,mass,message",
        [
            # x^2 - a^2 near the wells keeps about ten digits: v - E at the
            # quadrature's nodes is too coarse for it to settle at 1e-12
            (
                {"family": "biased_quartic", "alpha": 1.0, "a": 2.0},
                1e20,
                "quadrature did not settle within depth 12",
            ),
            # the turning points lie 5e-51 from the wells, below an ulp of
            # x_L: nodes beside them are not forbidden, and there the slope's
            # integrand overflows
            (
                {"family": "polynomial", "coeffs": [0, 0, -4, 0, 1]},
                1e200,
                "the action's integrands leave the float range at E = 2e-100\n",
            ),
        ],
        ids=["quartic_1e20", "polynomial_1e200"],
    )
    def test_a_heavy_mass_is_a_numerical_error(self, tmp_path, capsys, potential, mass, message):
        doc = {"schema": "tunnelkit/1", "potential": potential, "constants": {"mass": mass}}
        assert main(["analyze", write_json(tmp_path, "heavy.json", doc)]) == 4
        assert capsys.readouterr().err.startswith(f"numerical error: {message}")

    @pytest.mark.parametrize("mass", [1e10, 1e250, 9e253, 1e300], ids=["1e10", "1e250", "9e253", "1e300"])
    def test_a_heavy_double_oscillator_keeps_its_closed_form_action(self, tmp_path, capsys, mass):
        # The oscillator's action does not depend on m.  Its turning points
        # lie within sqrt(2 V0 / m) of x = 0 (4e-150 at m = 1e300), and
        # Newton steps relative to |x| resolve them.
        doc = {"schema": "tunnelkit/1", "potential": HEAVY_OSCILLATOR, "constants": {"mass": mass}}
        assert main(["analyze", write_json(tmp_path, "heavy.json", doc)]) == 0
        out = json.loads(capsys.readouterr().out)
        spec = DoubleOscillator(1.0, 1.1, 0.05, 8.0)
        i_l, i_r = double_oscillator_action(spec, PhysConstants(1.0, mass), out["well"]["E_bar"])
        assert out["action"]["I"] == pytest.approx(i_l + i_r, rel=1e-14, abs=0.0)

    @pytest.mark.parametrize(
        "data,message",
        [
            (b"\xff\xfe" + json.dumps(TILTED_QUARTIC).encode("utf-16-le"), "not UTF-8 text"),
            (b'{"schema": "tunnelkit/1", "potential": ' + b"[" * 100000, "too deeply"),
            (
                b'{"schema": "tunnelkit/1", "potential": {"family": "biased_quartic", '
                b'"alpha": ' + b"1" * 5000 + b', "a": 2.0}}',
                "integer literal with too many digits",
            ),
        ],
        ids=["utf16_bom", "nested_100000", "digits_5000"],
    )
    def test_undecodable_config_is_a_config_error(self, tmp_path, capsys, data, message):
        path = tmp_path / "bad.json"
        path.write_bytes(data)
        assert main(["analyze", str(path)]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and message in err

    def test_sweep_point_splitting_runs_before_its_member_is_built(self, tmp_path, capsys):
        # The first point dials tilde_eps = -0.6: its E_bar lies under the
        # curve's right floor (exit 3).  The splitting comes first, so its
        # regime error ends the run before the point's member is solved.
        doc = {
            "schema": "tunnelkit/1",
            "potential": {
                "family": "double_oscillator",
                "omega_L": 1.0,
                "omega_R": 1.0,
                "tilde_eps": 0.5,
                "V0": 6.0,
            },
            "oracle_grid": {"x_min": -8.0, "x_max": 8.0, "n_points": 2001},
            "sweep": {"parameter": "tilde_eps", "from": -0.6, "to": 0.6, "steps": 7},
        }
        assert main(["sweep", write_json(tmp_path, "order.json", doc)]) == 3
        assert "E = 0.2 is below the right well floor 0.5" in capsys.readouterr().err

    def test_oracle_without_grid(self, tmp_path):
        path = write_json(
            tmp_path,
            "nogrid.json",
            {
                "schema": "tunnelkit/1",
                "potential": {"family": "polynomial", "coeffs": [0.0, 0.0, 0.5]},
            },
        )
        r = cli("oracle", path)
        assert r.returncode == 2
        assert "oracle_grid" in r.stderr

    def test_successful_analyze(self, tmp_path):
        path = write_json(tmp_path, "fig.json", TILTED_QUARTIC)
        r = cli("analyze", path)
        assert r.returncode == 0
        doc = json.loads(r.stdout)
        assert doc["splitting"]["I_bar"] == pytest.approx(
            0.5101901829289663, rel=1e-12
        )


SEXTIC = [float(c) for c in sextic_coeffs(20.0)]


# hbar / (m omega) underflows to 0, and with it the decay length that
# the oracle's seed grid divides by
UNDERFLOWING_DECAY_LENGTH = {
    "schema": "tunnelkit/1",
    "potential": {"family": "biased_quartic", "alpha": 3.04e285, "a": 1.051, "beta": 0.0},
    "constants": {"hbar": 1e-300, "mass": 1.0},
    "oracle_grid": {"x_min": -3.0, "x_max": 9.5, "n_points": 118, "richardson": True},
    "sweep": {"parameter": "tilde_eps", "from": -0.4, "to": 0.4, "steps": 9},
}
DECAY_LENGTH_REFUSAL = (
    "the decay length sqrt(hbar / (mass omega_L)) underflows: "
    "hbar = 1e-300, mass = 1, omega_L = 1.63902e+143"
)

# m omega^2 of the double oscillator's left well overflows a float
OVERFLOWING_CURVATURE = {
    "schema": "tunnelkit/1",
    "potential": {
        "family": "double_oscillator",
        "omega_L": 2.0,
        "omega_R": 2.2,
        "tilde_eps": 2.5e17,
        "V0": 1e20,
    },
    "constants": {"hbar": 2.5e18, "mass": 1.7e308},
    "oracle_grid": {"x_min": -1.0, "x_max": 1.0, "n_points": 101},
    "sweep": {"parameter": "tilde_eps", "from": 0.0, "to": 1e17, "steps": 5},
}


class TestGeneratedConfigs:
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(doc=GENERATED_CONFIGS)
    @example(doc=UNDERFLOWING_DECAY_LENGTH)
    @example(doc=OVERFLOWING_CURVATURE)
    def test_every_runner_ends_in_a_classified_outcome(self, doc):
        # each run returns a document that dumps as strict JSON, or raises
        # a TunnelkitError; a RuntimeWarning, like any other exception,
        # fails the test
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            for runner in (run_analyze, run_sweep, run_oracle, run_compare):
                try:
                    out, _ = runner(parse_config(doc))
                except TunnelkitError:
                    continue
                json.dumps(out, allow_nan=False)


class TestPotentialBlock:
    @pytest.mark.parametrize("mirrored", [False, True], ids=["plain", "mirror"])
    @pytest.mark.parametrize(
        "potential,expected",
        [
            (
                {"family": "biased_quartic", "alpha": 1.0, "a": 2.1},
                {"family": "biased_quartic", "alpha": 1.0, "a": 2.1, "beta": 0.0},
            ),
            (
                {"family": "double_oscillator", "omega_L": 1.0, "omega_R": 1.3,
                 "tilde_eps": 0.05, "V0": 9.0},
                {"family": "double_oscillator", "omega_L": 1.0, "omega_R": 1.3,
                 "tilde_eps": 0.05, "V0": 9.0},
            ),
            (
                {"family": "polynomial", "coeffs": SEXTIC},
                {"family": "polynomial", "coeffs": SEXTIC, "window": None},
            ),
            (
                {"family": "polynomial", "coeffs": SEXTIC, "window": [-1.8, 1.8]},
                {"family": "polynomial", "coeffs": SEXTIC, "window": [-1.8, 1.8]},
            ),
        ],
        ids=["quartic", "double_oscillator", "sextic", "windowed_sextic"],
    )
    def test_potential_block_and_kink_flag(self, potential, expected, mirrored):
        if mirrored:
            potential = dict(potential, mirror=True)
            expected = dict(expected, mirror=True)
        doc, _ = run_analyze(parse_config({"schema": "tunnelkit/1", "potential": potential}))
        # lists, not tuples, and the keys in the order JSON prints them
        assert list(doc["potential"].items()) == list(expected.items())
        kinked = expected["family"] == "double_oscillator"
        assert ("barrier_kink" in doc["warn_flags"]) == kinked


class TestMirroredGrid:
    @pytest.mark.parametrize(
        "runner", [run_analyze, run_sweep, run_oracle, run_compare],
        ids=["analyze", "sweep", "oracle", "compare"],
    )
    def test_mirrored_walls_give_the_plain_output(self, runner):
        # "auto" analyzes the mirrored double oscillator on the plain axis;
        # the walls are read on the config's axis, so mirroring them too
        # reproduces the plain run bit for bit.
        potential = {"family": "double_oscillator", "omega_L": 1.0, "omega_R": 1.2,
                     "tilde_eps": 0.1, "V0": 6.0}
        sweep = {"parameter": "tilde_eps", "from": -0.2, "to": 0.2, "steps": 5}

        def config(potential, x_min, x_max):
            return parse_config({
                "schema": "tunnelkit/1",
                "potential": potential,
                "oracle_grid": {"x_min": x_min, "x_max": x_max, "n_points": 2001},
                "sweep": sweep,
            })

        _, plain = runner(config(potential, -9.0, 8.0))
        _, mirrored = runner(config(dict(potential, mirror=True), -8.0, 9.0))
        assert mirrored == plain

    @pytest.mark.parametrize(
        "mirrored,plain",
        [
            # "keep" stays on the config's axis, where the wells trade
            # frequencies and the barrier stands V0 - tilde_eps above the
            # left floor (dyadic values make that exact)
            ({"omega_L": 1.0, "omega_R": 1.25, "tilde_eps": 0.125, "V0": 4.0, "orient": "keep"},
             {"omega_L": 1.25, "omega_R": 1.0, "tilde_eps": 0.125, "V0": 3.875}),
            # "auto" puts the softer of equal floors on the left, so both
            # analyses see the same plain double oscillator
            ({"omega_L": 1.0, "omega_R": 1.25, "tilde_eps": 0.0, "V0": 4.0},
             {"omega_L": 1.25, "omega_R": 1.0, "tilde_eps": 0.0, "V0": 4.0}),
        ],
        ids=["keep", "auto_equal_floors"],
    )
    def test_a_mirror_analyzed_on_its_axis_solves_its_own_members(self, mirrored, plain):
        # each oracle member is the analyzed well with the dialed bias, on
        # the same walls: the plain double oscillator the analysis sees
        def oracle_columns(potential):
            doc, _ = run_sweep(parse_config({
                "schema": "tunnelkit/1",
                "potential": dict(potential, family="double_oscillator"),
                "oracle_grid": {"x_min": -9.0, "x_max": 8.0, "n_points": 2001},
                "sweep": {"parameter": "tilde_eps", "from": 0.125, "to": 0.25, "steps": 5},
            }))
            return [row["oracle"] for row in doc["rows"]]

        assert oracle_columns(dict(mirrored, mirror=True)) == oracle_columns(plain)

    @pytest.mark.parametrize(
        "orientation",
        [{}, {"orient": "keep"}, {"mirror": True}, {"mirror": True, "orient": "keep"}],
        ids=["auto", "keep", "mirror", "mirror_keep"],
    )
    def test_a_sweep_through_zero_bias_fills_every_oracle_row(self, tmp_path, capsys, orientation):
        # below zero bias the right well is the deeper, and the member is
        # the mirror of the family with the wells swapped; its levels are
        # measured from the floor at x_L, as E_bar is
        potential = {"family": "double_oscillator", "omega_L": 1.0, "omega_R": 1.2,
                     "tilde_eps": 0.1, "V0": 6.0, **orientation}
        doc = {
            "schema": "tunnelkit/1",
            "potential": potential,
            "oracle_grid": {"x_min": -9.0, "x_max": 9.0, "n_points": 2001},
            "sweep": {"parameter": "tilde_eps", "from": -0.3, "to": 0.3, "steps": 7},
        }
        path = write_json(tmp_path, "through.json", doc)
        assert main(["sweep", path, "--format", "json"]) == 0
        rows = json.loads(capsys.readouterr().out)["rows"]
        assert min(row["tilde_eps"] for row in rows) < 0.0
        for row in rows:
            oracle = row["oracle"]
            assert abs(0.5 * (oracle["E0"] + oracle["E1"]) - row["E_bar"]) < 1e-5
        if orientation.get("orient") == "keep" and "mirror" in orientation:
            # the row at the bias of the config's own well, -0.1 on the
            # config's axis, solves that well
            [own] = [row for row in rows if row["tilde_eps"] == -0.1]
            out, _ = run_oracle(parse_config(doc))
            assert own["oracle"] == out["spectrum"]


class TestMirroredSmoothWell:
    @pytest.mark.parametrize(
        "potential,start,stop",
        [
            ({"family": "biased_quartic", "alpha": 3.0, "a": 1.0, "beta": 0.15}, 0.2, 0.4),
            ({"family": "polynomial", "coeffs": [0, 0, -4, 0.3, 1]}, 0.3, 0.8),
            ({"family": "polynomial", "coeffs": [float(c) for c in sextic_coeffs(20.0, 0.05)]}, 0.0, 0.3),
        ],
        ids=["quartic", "polynomial", "sextic"],
    )
    def test_a_mirrored_config_writes_the_plain_output(self, potential, start, stop):
        # "auto" analyzes the mirror of a left-deep well on the plain axis
        def outputs(potential):
            config = parse_config(_sweep_doc(potential, start, stop, steps=5))
            (analyzed, analyze_csv), (swept, sweep_csv) = run_analyze(config), run_sweep(config)
            return (
                {key: analyzed[key] for key in ("well", "action", "splitting")},
                {key: swept[key] for key in ("rows", "fit")},
                analyze_csv,
                sweep_csv,
            )

        plain = outputs(potential)
        assert not plain[0]["well"]["mirrored"]
        assert outputs(dict(potential, mirror=True)) == plain


class TestParser:
    def test_help_lists_the_commands(self, monkeypatch, capsys):
        monkeypatch.setenv("COLUMNS", "200")
        with pytest.raises(SystemExit) as stop:
            main(["--help"])
        assert stop.value.code == 0
        out = capsys.readouterr().out
        for name, help_text in [
            ("analyze", "full single-point report for one potential"),
            ("sweep", "dial tilde_eps, emit per-point CSV rows and a log fit"),
            ("oracle", "finite-difference doublet with a grid-halving report"),
            ("compare", "splitting per method versus the reference spectrum"),
        ]:
            assert re.search(rf"^ +{name} +{re.escape(help_text)}$", out, re.M), name

    def test_command_help_names_the_options(self, capsys):
        with pytest.raises(SystemExit) as stop:
            main(["sweep", "--help"])
        assert stop.value.code == 0
        out = capsys.readouterr().out
        assert "--out" in out and "--format" in out


class TestReadmeConfig:
    @pytest.mark.parametrize(
        "command,code",
        [("analyze", 0), ("sweep", 0), ("oracle", 0), ("compare", 3)],
    )
    def test_documented_config_exit_codes(self, tmp_path, capsys, command, code):
        # The sweep starts at the shape's own tilde_eps, 0.29999 (from 0.0
        # it completes as well, below); the barrier is too shallow for a
        # sub-barrier root, so compare (which has no fallback) is a regime
        # error.
        path = write_json(tmp_path, "run.json", readme_config())
        out = tmp_path / "out.txt"
        assert main([command, path, "--out", str(out)]) == code
        err = capsys.readouterr().err
        if code == 0:
            assert out.read_text()
        else:
            assert "regime error" in err

    def test_sweep_from_zero_completes(self, tmp_path):
        # Swept from 0.0, below the shape's own tilde_eps, every point's
        # E_bar still lies above the curve's right floor: the sweep exits
        # 0, and each row keeps the unsolved splitting of a shallow barrier.
        doc = readme_config()
        doc["sweep"]["from"] = 0.0
        path = write_json(tmp_path, "run.json", doc)
        out = tmp_path / "out.csv"
        assert main(["sweep", path, "--out", str(out)]) == 0
        header, *rows = out.read_text().splitlines()
        assert header == CSV_HEADER
        assert len(rows) == 11
        assert float(rows[0].split(",")[0]) == 0.0
        assert [row.rsplit(",", 1)[1] for row in rows] == ["gamow;transcendental_unbracketed"] * 11

    @pytest.mark.parametrize("command", ["analyze", "sweep"])
    def test_fallback_rows_leave_the_root_cells_empty(self, tmp_path, command):
        # The README example falls back on every row: its root cells must
        # be empty, as the CSV schema section says, and never "nan".
        path = write_json(tmp_path, "run.json", readme_config())
        out = tmp_path / "out.csv"
        assert main([command, path, "--format", "csv", "--out", str(out)]) == 0
        header, *rows = out.read_text().splitlines()
        assert "nan" not in out.read_text()
        assert rows
        for row in rows:
            cells = dict(zip(header.split(","), row.split(",")))
            assert "transcendental_unbracketed" in cells["warn_flags"]
            assert cells["dE_trans_plus"] == cells["dE_trans_minus"] == ""

    @pytest.mark.parametrize("runner", [run_analyze, run_sweep], ids=["analyze", "sweep"])
    def test_fallback_evaluates_each_mean_level_action_once(self, monkeypatch, runner):
        # Every point of the README example falls back.  The failed root
        # solve and the fallback result share one action at E_bar, and the
        # result is the one an unsolved compute_splitting gives.
        energies = []

        def spy(*args, **kwargs):
            acts = action_rows(*args, **kwargs)
            energies.extend(act.E for act in acts if isinstance(act, ActionResult))
            return acts

        monkeypatch.setattr(tunnelkit.splitting, "action_rows", spy)
        config = parse_config(readme_config())
        doc, _ = runner(config)
        spied = list(energies)
        monkeypatch.undo()

        spec, consts = config.potential, config.constants
        base = analyze(spec, consts, orient=config.orient, require_wkb=True)
        points = doc.get("rows") or [{**doc, "tilde_eps": base.tilde_eps}]
        for point in points:
            assert "transcendental_unbracketed" in point["warn_flags"]
            dialed = dataclasses.replace(base, tilde_eps=point["tilde_eps"])
            assert spied.count(dialed.E_bar) == 1
            unsolved = compute_splitting(
                spec,
                consts,
                analysis=dialed,
                solve=False,
                rtol=config.tolerances.quad_rtol,
            )
            assert point["splitting"] == _splitting_doc(unsolved)


class TestProcessOutput:
    def test_sweep_stdout_is_csv_with_fit_on_stderr(self, tmp_path):
        path = write_json(tmp_path, "sweep.json", DO_SWEEP)
        r = cli("sweep", path)
        assert r.returncode == 0
        assert r.stdout.splitlines()[0] == CSV_HEADER
        fit = json.loads(r.stderr)
        assert "c1" in fit

    def test_json_format_flag(self, tmp_path):
        path = write_json(tmp_path, "sweep.json", DO_SWEEP)
        r = cli("sweep", path, "--format", "json")
        doc = json.loads(r.stdout)
        assert len(doc["rows"]) == 7

    def test_out_file(self, tmp_path):
        path = write_json(tmp_path, "fig.json", TILTED_QUARTIC)
        out = tmp_path / "report.json"
        r = cli("analyze", path, "--out", str(out))
        assert r.returncode == 0
        assert json.loads(out.read_text())["command"] == "analyze"

    def test_reruns_write_the_same_bytes(self, tmp_path):
        # Two processes running the same sweep write the same bytes.
        path = write_json(tmp_path, "sweep.json", DO_SWEEP)
        first = cli("sweep", path)
        second = cli("sweep", path)
        assert first.returncode == second.returncode == 0
        assert first.stdout == second.stdout
        assert len(first.stdout) > 200

    def test_semiclassical_runs_load_no_scipy(self):
        # scipy's LAPACK extension is loaded by the first eigensolve only.
        # The README config without its grid runs analyze and sweep with
        # no solve.
        doc = readme_config()
        del doc["oracle_grid"]
        script = (
            "import json, sys\n"
            "import tunnelkit\n"
            "from tunnelkit.cli import run_analyze, run_sweep\n"
            "config = tunnelkit.parse_config(json.loads(sys.argv[1]))\n"
            "run_analyze(config)\n"
            "run_sweep(config)\n"
            "print(sorted(name for name in sys.modules if name.startswith('scipy')))\n"
        )
        r = subprocess.run(
            [sys.executable, "-c", script, json.dumps(doc)], capture_output=True, text=True
        )
        assert r.returncode == 0, r.stderr
        assert r.stdout == "[]\n"

    def test_no_run_loads_numpy_polynomial(self):
        # the quadrature's Gauss-Legendre table is written out and analyze
        # builds its companion matrices itself: an analyze, whose splitting
        # runs the action kernel, and an oracle solve import none of
        # numpy.polynomial's modules (numpy 2.4 leaves them to their first
        # use; an older numpy may import them with itself)
        script = (
            "import json, sys\n"
            "import numpy\n"
            "def polynomial(): return {m for m in sys.modules if m.startswith('numpy.polynomial')}\n"
            "before = polynomial()\n"
            "import tunnelkit, tunnelkit.cli\n"
            "config = tunnelkit.parse_config(json.loads(sys.argv[1]))\n"
            "tunnelkit.cli.run_analyze(config)\n"
            "tunnelkit.cli.run_oracle(config)\n"
            "print(sorted(polynomial() - before))\n"
        )
        r = subprocess.run(
            [sys.executable, "-c", script, json.dumps(readme_config())],
            capture_output=True,
            text=True,
        )
        assert r.returncode == 0, r.stderr
        assert r.stdout == "[]\n"

    def test_console_script_is_installed(self, tmp_path):
        exe = shutil.which("tunnelkit")
        if exe is None:
            pytest.skip("console script not on PATH in this environment")
        path = write_json(tmp_path, "fig.json", TILTED_QUARTIC)
        r = subprocess.run(
            [exe, "analyze", path], capture_output=True, text=True
        )
        assert r.returncode == 0
