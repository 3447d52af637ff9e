"""tools/output_digest.py: its --diff mode, on the corpus and on generated configs."""
import importlib.util
import json
import math
import pathlib
import shutil
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "output_digest.py"


def load_tool(name="output_digest"):
    spec = importlib.util.spec_from_file_location(name, TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_two_identical_trees_differ_in_no_output(tmp_path):
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    r = subprocess.run(
        [sys.executable, str(TOOL), str(ROOT / "src"), "--diff", str(tmp_path / "src")],
        capture_output=True, text=True,
    )
    assert r.returncode == 0, r.stderr
    [line] = r.stdout.splitlines()
    assert line.startswith("0 of ") and line.endswith(f" outputs differ from {tmp_path / 'src'}")


# SRC's outcomes over 20 --generated draws; every generated config has a
# sweep and an oracle grid: four runs each
TABLE_OF_20 = [
    "runs of SRC that exit 0/2/3/4:",
    "  run_analyze 0/2/17/1",
    "  run_sweep 1/11/8/0",
    "  run_oracle 4/3/13/0",
    "  run_compare 0/2/17/1",
    "runs of SRC that exit 2, 3 or 4, per error class:",
    "  run_analyze 2 ConfigError 2",
    "  run_analyze 3 DegenerateBarrier 5",
    "  run_analyze 3 DomainTooSmall 10",
    "  run_analyze 3 FewerThanTwoMinima 2",
    "  run_analyze 4 QuadratureNonConvergence 1",
    "  run_sweep 2 ConfigError 2",
    "  run_sweep 2 FitIllConditioned 9",
    "  run_sweep 3 DomainTooSmall 4",
    "  run_sweep 3 EnergyBelowWellBottom 2",
    "  run_sweep 3 FewerThanTwoMinima 2",
    "  run_oracle 2 ConfigError 3",
    "  run_oracle 3 DomainTooSmall 13",
    "  run_compare 2 ConfigError 2",
    "  run_compare 3 DegenerateBarrier 5",
    "  run_compare 3 FewerThanTwoMinima 2",
    "  run_compare 3 RootNotBracketed 10",
    "  run_compare 4 QuadratureNonConvergence 1",
]


def generated_20(src, old):
    r = subprocess.run(
        [sys.executable, str(TOOL), str(src), "--diff", str(old), "--generated", "20"],
        capture_output=True, text=True,
    )
    assert r.returncode == 0, r.stderr
    return r.stdout.splitlines()


def test_two_identical_trees_differ_in_no_generated_output(tmp_path):
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    assert generated_20(ROOT / "src", tmp_path / "src") == [
        "20 of 20 generated configs",
        "0 of 80 runs flip their exit code or error class",
        f"0 of 80 outputs differ from {tmp_path / 'src'}",
        *TABLE_OF_20,
    ]


def test_the_draw_does_not_move_with_a_literal_of_src(tmp_path):
    # hypothesis mixes the literals of the loaded non-test modules into
    # its draws; the tool draws before it loads either tree
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    with open(tmp_path / "src" / "tunnelkit" / "errors.py", "a") as f:
        f.write("\n_PROBE = 0.4321\n")
    assert generated_20(tmp_path / "src", ROOT / "src")[3:] == TABLE_OF_20


def test_generated_configs_do_not_depend_on_the_tools_module_name():
    # the draw must not move with the name the tool is loaded under
    first, second = (load_tool(name).generated(50, False) for name in ("output_digest", "copy"))
    assert json.dumps(first) == json.dumps(second)


def test_moves_name_the_largest_relative_move_of_each_field():
    tool = load_tool()
    old = ("", {"rows": [{"d": 1.0}, {"d": 4.0}], "flags": ["gamow"], "n": 3}, "E0,flags\n2.0,\n")
    new = ("", {"rows": [{"d": 1.5}, {"d": 4.0}], "flags": ["kink"], "n": 3}, "E0,flags\n2.0,x\n")
    assert tool.moves(old, new) == {"rows[].d": 0.5, "flags[]": "changed", "csv.flags": "changed"}
    zero = ("", {"d": 0.0, "e": math.nan}, "")
    assert tool.moves(zero, ("", {"d": 1e-300, "e": math.nan}, "")) == {"d": math.inf}
    error = ("", {"error": "GridTooCoarse: ...\n"}, "")
    assert tool.moves(old, error) == {"structure": "changed"}


def test_the_diff_closes_with_the_largest_move_of_each_numeric_field(monkeypatch, capsys):
    tool = load_tool()
    old = {
        "a run_oracle": ("1", {"E0": 1.0, "E1": 2.0}, ""),
        "b run_oracle": ("2", {"E0": 4.0, "E1": 2.0}, ""),
        "c run_analyze": ("3", {"flags": ["gamow"]}, "E0\n1.0\n"),
        "d run_analyze": ("4", {"E0": 1.0}, ""),
    }
    new = {
        "a run_oracle": ("1'", {"E0": 1.5, "E1": 2.0}, ""),
        "b run_oracle": ("2'", {"E0": 5.0, "E1": 3.0}, ""),
        "c run_analyze": ("3'", {"flags": ["kink"]}, "E0\n1.1\n"),
        "d run_analyze": ("4", {"E0": 1.0}, ""),
    }
    monkeypatch.setattr(tool, "run_corpus", lambda src: (old if src.name == "old" else new, False))
    assert tool.main(["output_digest.py", "new", "--diff", "old"]) == 1
    lines = capsys.readouterr().out.splitlines()
    summary = lines.index("largest move of each numeric field over the outputs that differ:")
    assert lines[summary + 1 :] == [
        "  E0 0.5",
        "  E1 0.5",
        "  csv.E0 0.1",
        "3 of 4 outputs differ from old",
    ]
    assert tool.largest_moves([{"x": "changed"}, {"structure": "changed"}]) == {}


def test_the_diff_counts_the_runs_whose_outcome_flips(monkeypatch, capsys):
    tool = load_tool()
    coarse = ("GridTooCoarse: ...\n", {"error": "GridTooCoarse: ...\n", "outcome": "3 GridTooCoarse"}, "")
    old = {"a run_analyze": ("1", {"E0": 1.0}, ""), "b run_oracle": coarse, "c run_oracle": coarse}
    new = {
        "a run_analyze": ("Q: ...\n", {"error": "Q: ...\n", "outcome": "4 QuadratureNonConvergence"}, ""),
        "b run_oracle": coarse,
        "c run_oracle": ("2", {"E0": 1.0}, ""),
    }
    monkeypatch.setattr(tool, "run_corpus", lambda src: (old if src.name == "old" else new, False))
    assert tool.main(["output_digest.py", "new", "--diff", "old"]) == 1
    lines = capsys.readouterr().out.splitlines()
    flips = lines.index("2 of 3 runs flip their exit code or error class, OLD_SRC -> SRC:")
    assert lines[flips + 1 : flips + 5] == [
        "  0 -> 4 QuadratureNonConvergence: 1",
        "    a run_analyze",
        "  3 GridTooCoarse -> 0: 1",
        "    c run_oracle",
    ]
    assert tool.outcome(old["a run_analyze"]) == "0" and tool.outcome(coarse) == "3 GridTooCoarse"


def test_the_diff_names_the_first_ten_runs_of_each_flip(monkeypatch, capsys):
    tool = load_tool()
    coarse = ("GridTooCoarse: ...\n", {"error": "GridTooCoarse: ...\n", "outcome": "3 GridTooCoarse"}, "")
    keys = [f"generated:{i} run_oracle" for i in range(12)]
    old = {key: ("1", {"E0": 1.0}, "") for key in keys}
    new = dict(old, **{key: coarse for key in keys[1:]})
    monkeypatch.setattr(tool, "run_corpus", lambda src: (old if src.name == "old" else new, False))
    assert tool.main(["output_digest.py", "new", "--diff", "old"]) == 1
    lines = capsys.readouterr().out.splitlines()
    flips = lines.index("11 of 12 runs flip their exit code or error class, OLD_SRC -> SRC:")
    assert lines[flips + 1 : flips + 13] == [
        "  0 -> 3 GridTooCoarse: 11",
        *(f"    generated:{i} run_oracle" for i in range(1, 11)),
        "largest move of each numeric field over the outputs that differ:",
    ]
