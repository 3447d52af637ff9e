"""Smoke test of the benchmark itself, at a tiny size.

    python3 perfbench/smoke.py        # from the repository root

Checks, for every workload in BENCHMARK.json:

* a plain run prints every end-to-end metric with its unit, every value
  positive, and every failure is a known defect of the package;
* a traced run prints every per-layer metric with its unit, and a second
  traced run with the same seed gives identical counts;
* the counters of the layer each workload exists to exercise are nonzero.

It also checks that the tracer refuses to run when a function it wraps is
missing, and that ``run.py`` fails without printing a result in a
directory that holds only BENCHMARK.json and the benchmark's files.
Exits 0 when every check passes.
"""

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
sys.path.insert(0, HERE)

import run  # noqa: E402

TINY_ROUND = {"wells": 12, "bias_sweep": 2, "oracle": 8}
SECONDS = 1
# per workload: counters of its mechanism layer that must not read zero
MECHANISM = {
    "wells": ("actions.gamow_integral.calls", "splitting.solve_quantization.calls", "potentials.evaluate.scalar_calls"),
    "bias_sweep": ("cli.run_sweep.self_ms", "actions.gamow_integral.calls", "quadrature.panel_quadrature.calls"),
    "oracle": ("oracle.eigen_lowest_two.calls", "oracle.tridiagonal_solves", "oracle.bytes_computed"),
}

failures = []


def check(ok, message):
    if not ok:
        failures.append(message)
        print("FAIL " + message)


def run_tiny(workload, trace, seed=7):
    argv = ["--workload", workload, "--seed", str(seed), "--seconds", str(SECONDS), "--trace", str(trace)]
    out = io.StringIO()
    saved = sys.argv
    sys.argv = ["run.py"] + argv
    try:
        with contextlib.redirect_stdout(out):
            code = run.main()
    finally:
        sys.argv = saved
    lines = out.getvalue().strip().splitlines()
    return code, json.loads(lines[-1]) if lines else None


def check_metrics(tag, result, expected):
    got = result["metrics"]
    for spec in expected:
        name = spec["name"]
        check(name in got, f"{tag}: metric {name} missing")
        if name in got:
            check(got[name]["unit"] == spec["unit"], f"{tag}: {name} unit {got[name]['unit']} != {spec['unit']}")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    run.ROUND_SIZE.update(TINY_ROUND)
    for workload in [w["name"] for w in bench["workloads"]]:
        code, plain = run_tiny(workload, 0)
        check(code == 0 and plain and plain["correct"], f"{workload}: plain run failed ({code})")
        if plain:
            check_metrics(f"{workload} plain", plain, bench["end_to_end"])
            for name, m in plain["metrics"].items():
                check(m["value"] > 0, f"{workload}: {name} = {m['value']} is not positive")
        code, traced = run_tiny(workload, 1)
        _, again = run_tiny(workload, 1)
        check(code == 0 and traced and traced["correct"], f"{workload}: traced run failed ({code})")
        if traced and again:
            check_metrics(f"{workload} traced", traced, bench["per_layer"])
            counts = {k: m["value"] for k, m in traced["metrics"].items() if m["unit"] in ("count", "B")}
            counts2 = {k: m["value"] for k, m in again["metrics"].items() if m["unit"] in ("count", "B")}
            check(counts == counts2, f"{workload}: counts differ between two traced runs")
            for name in MECHANISM[workload]:
                check(traced["metrics"].get(name, {}).get("value", 0) > 0, f"{workload}: {name} reads zero")
        print(f"ok {workload}" if not failures else f"after {workload}: {len(failures)} failure(s)")

    check_missing_site()
    check_bare_directory()
    print("smoke: all checks passed" if not failures else f"smoke: {len(failures)} failure(s)")
    return 0 if not failures else 1


def check_missing_site():
    """Installing the tracer must fail when a wrapped function is gone."""
    code = (
        "import sys; sys.path.insert(0, %r)\n"
        "import tracing, tunnelkit.actions as a\n"
        "del a.gamow_integral\n"
        "try:\n"
        "    tracing.Tracer().install_package()\n"
        "except tracing.SiteMissing:\n"
        "    sys.exit(0)\n"
        "sys.exit(1)\n" % HERE
    )
    env = run._child_env(os.path.join(ROOT, "src"))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, timeout=120)
    check(proc.returncode == 0, "tracer did not refuse a missing wrapped function")


def check_bare_directory():
    """Without src/, run.py exits nonzero and prints no result."""
    bare = os.path.join(ROOT, ".perfbench-work", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, os.path.join(bare, "perfbench"), ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "wells", "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare,
            capture_output=True,
            text=True,
            timeout=170,
        )
        check(proc.returncode != 0, "run.py succeeded in a directory without src/")
        check('"correct"' not in proc.stdout, "run.py printed a result in a directory without src/")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        parent = os.path.dirname(bare)
        if os.path.isdir(parent) and not os.listdir(parent):
            os.rmdir(parent)


if __name__ == "__main__":
    sys.exit(main())
