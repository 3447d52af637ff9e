"""Command-line interface: documents, CSV schemas, exit codes, determinism."""
import dataclasses
import json
import math
import pathlib
import re
import shutil
import subprocess
import sys

import numpy as np
import pytest

import tunnelkit.cli
import tunnelkit.oracle
import tunnelkit.splitting
from tunnelkit import (
    GridTooCoarse,
    WellStructureError,
    analyze,
    compute_splitting,
    eigen_lowest_two,
    evaluate_action,
    parse_config,
    Polynomial,
)
from tunnelkit.cli import (
    CSV_HEADER,
    _dial_bias,
    _splitting_doc,
    main,
    run_analyze,
    run_compare,
    run_oracle,
    run_sweep,
)
from util import sextic_coeffs, sextic_scale_for_depth

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
    """Matrix size of every tridiagonal eigensolve, in call order."""
    sizes = []
    solve = tunnelkit.oracle.eigh_tridiagonal

    def spy(d, e, **kwargs):
        sizes.append(d.size)
        return solve(d, e, **kwargs)

    monkeypatch.setattr(tunnelkit.oracle, "eigh_tridiagonal", spy)
    return sizes


class TestAnalyze:
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

    def test_grid_is_required(self):
        cfg = {
            "schema": "tunnelkit/1",
            "potential": {"family": "biased_quartic", "alpha": 1.0, "a": 2.1},
        }
        from tunnelkit import ConfigError

        with pytest.raises(ConfigError, match="oracle_grid"):
            run_oracle(parse_config(cfg))


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
        # The shape's own tilde_eps is 1.713; dialing below it puts the
        # probed energies under the curve's right floor.
        path = write_json(
            tmp_path,
            "below.json",
            {
                "schema": "tunnelkit/1",
                "potential": {"family": "polynomial", "coeffs": [0, 0, -4, 0.3, 1]},
                "sweep": {"parameter": "tilde_eps", "from": 1.0, "to": 2.0, "steps": 11},
            },
        )
        r = cli("sweep", path)
        assert r.returncode == 3
        assert "regime error" in r.stderr
        assert "below the right well floor" in r.stderr

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


class TestReadmeConfig:
    @pytest.mark.parametrize(
        "command,code",
        [("analyze", 0), ("sweep", 0), ("oracle", 0), ("compare", 3)],
    )
    def test_documented_config_exit_codes(self, tmp_path, capsys, command, code):
        # The shape's own tilde_eps is 0.29999, so the sweep starts at 0.3;
        # the barrier is too shallow for a sub-barrier root, so compare
        # (which has no fallback) is a regime error.
        path = write_json(tmp_path, "run.json", readme_config())
        out = tmp_path / "out.txt"
        assert main([command, path, "--out", str(out)]) == code
        err = capsys.readouterr().err
        if code == 0:
            assert out.read_text()
        else:
            assert "regime error" in err

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
            act = evaluate_action(*args, **kwargs)
            energies.append(act.E)
            return act

        monkeypatch.setattr(tunnelkit.cli, "evaluate_action", spy, raising=False)
        monkeypatch.setattr(tunnelkit.splitting, "evaluate_action", spy)
        config = parse_config(readme_config())
        doc, _ = runner(config)
        spied = list(energies)
        monkeypatch.undo()

        spec, consts = config.potential, config.constants
        base = analyze(spec, consts, orient=config.orient, require_wkb=True)
        points = doc.get("rows") or [{**doc, "tilde_eps": base.tilde_eps}]
        for point in points:
            assert "transcendental_unbracketed" in point["warn_flags"]
            dialed = _dial_bias(base, point["tilde_eps"])
            assert spied.count(dialed.E_bar) == 1
            unsolved = compute_splitting(
                spec,
                consts,
                analysis=dialed,
                solve=False,
                rtol=config.tolerances.quad_rtol,
            )
            assert point["splitting"] == _splitting_doc(dialed.E_bar, unsolved)


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

    def test_thread_count_does_not_change_the_bytes(self, tmp_path):
        # Sweep points run in one thread; two processes write the same bytes.
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
