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

import tunnelkit.cli
import tunnelkit.oracle
import tunnelkit.potentials
import tunnelkit.splitting
from tunnelkit import (
    DegenerateBarrier,
    TunnelkitError,
    DomainTooSmall,
    EnergyBelowWellBottom,
    GridTooCoarse,
    WellStructureError,
    analyze,
    compute_splitting,
    eigen_lowest_two,
    evaluate_action,
    parse_config,
    Polynomial,
)
from tunnelkit.actions import ActionResult, action_rows
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

    def test_a_single_well_is_analyzed_once(self, monkeypatch):
        # under "keep" too: the eigensolver used to analyze it again, "auto"
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
        assert orients == ["keep"]
        assert out["spectrum"] == expected

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

    def test_sweep_whose_splitting_underflows_is_a_config_error(self, tmp_path, capsys):
        # I_bar = 844.7, so delta underflows to 0 on every row: ln(delta)
        # has nothing to fit, and the sweep is refused before the log.
        path = write_json(
            tmp_path,
            "underflow.json",
            {
                "schema": "tunnelkit/1",
                "potential": {
                    "family": "biased_quartic",
                    "alpha": 62.64365154815492,
                    "a": 3.845467281649521,
                    "beta": -3.2396766803991324,
                },
                "sweep": {
                    "parameter": "tilde_eps",
                    "from": 0.0634162680636503,
                    "to": 0.630445146288632,
                    "steps": 11,
                },
            },
        )
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["sweep", path])
        assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
        assert code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert (
            "config error: delta underflows to 0 at tilde_eps = 0.063416268063650305 "
            "(I_bar = 844.696)" in err
        )

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
                "potential": {
                    "family": "biased_quartic",
                    "alpha": 0.9971007842314095,
                    "a": 1.6288123492366189,
                    "beta": 0.0,
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
        "potential,message",
        [
            (
                # omega_L ** 2 underflows to 0 and meets an infinite square at x = 0
                {
                    "family": "double_oscillator",
                    "omega_L": 1e-300,
                    "omega_R": 1.0,
                    "tilde_eps": 0.0,
                    "V0": 5.0,
                },
                "The function value at x=0.0 is NaN; solver cannot continue.",
            ),
            (
                # V' overflows on the brackets of its stationary points
                {"family": "polynomial", "coeffs": [0, 0, -1e200, 0, 1]},
                "Failed to converge after 100 iterations.",
            ),
        ],
        ids=["nan", "no_convergence"],
    )
    def test_a_failed_root_solve_is_a_numerical_error(self, tmp_path, capsys, potential, message):
        doc = {"schema": "tunnelkit/1", "potential": potential}
        assert main(["analyze", write_json(tmp_path, "root.json", doc)]) == 4
        assert capsys.readouterr().err == f"numerical error: {message}\n"

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
            # "auto" reflects equal floors onto the config's axis too
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
        # scipy is imported by the first eigensolve only.  The README
        # config without its grid runs analyze and sweep with no solve.
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

    def test_console_script_is_installed(self, tmp_path):
        exe = shutil.which("tunnelkit")
        if exe is None:
            pytest.skip("console script not on PATH in this environment")
        path = write_json(tmp_path, "fig.json", TILTED_QUARTIC)
        r = subprocess.run(
            [exe, "analyze", path], capture_output=True, text=True
        )
        assert r.returncode == 0
