"""tunnelkit benchmark entry point.

    python3 perfbench/run.py --workload {wells,bias_sweep,oracle} \
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout: the package is imported from ``./src``
and nothing else.  Inputs are generated from ``--seed`` and written as
config files under ``.perfbench-work/`` (removed at exit); tunnelkit sees
only those files.  The workload itself runs in a fresh process
(``worker.py``), one client in a closed loop.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a separate traced run.  Every time ``--trace 0`` reports is
scaled to the nominal speed of a reference kernel timed next to it
(``reference.py``), since the host's own speed drifts by up to 2x.  Human-readable lines come first; the
last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``failed`` counts every op
that raised or failed its output check; ``correct`` is false, and the exit
code 1, when one of them is not a known defect of the package (see
``worker.KNOWN_DEFECTS``).  The exit code is 2 when the run could not
start.
"""

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import inputs  # noqa: E402
import reference  # noqa: E402

WORKLOADS = ("wells", "bias_sweep", "oracle")
# A timed run repeats one round of ROUND_SIZE distinct inputs a fixed
# number of times: ROUNDS_PER_SECOND * --seconds rounds, set so that the
# seed commit needs about --seconds for them.  Round r runs twin r of each
# input (the same well, scaled by 1 + r * 1e-9).  Each op's latency is
# scaled to the nominal speed of the workload's reference kernel, timed
# around its round (around each op on bias_sweep), and each input's
# latency is the median of its twins.
# Every commit thus takes the same number of samples.  A run stops early,
# after whole rounds, once CEILING * --seconds have passed.  Rounds are
# whole cycles of each workload's input mix.
ROUND_SIZE = {"wells": 24, "bias_sweep": 6, "oracle": 8}
ROUNDS_PER_SECOND = {"wells": 2.2, "bias_sweep": 0.45, "oracle": 1.6}
CEILING = 1.15
# Traced runs execute a fixed op count (so counts repeat exactly), scaled
# with --seconds and rounded up to whole rounds.
TRACE_OPS_PER_SECOND = {"wells": 6, "bias_sweep": 0.5, "oracle": 2}
SETUP_PROBES = 4  # fresh set-up-only processes before the run and again after it
# Set-up is mostly Python importing modules: each probe is scaled by the
# python reference kernel, timed before it and after it.
SETUP_REFERENCE_PASSES = 3
IMPORT_PROBES = 3
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
CHILD_TIMEOUT_S = 170


def _args():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args()


def _write_inputs(workload, seed, directory):
    """Write one round of generated configs; the worker derives the twins."""
    gen = {"wells": inputs.wells, "bias_sweep": inputs.bias_sweeps, "oracle": inputs.oracle_wells}
    os.makedirs(directory)
    files = []
    for j, doc in enumerate(gen[workload](seed, ROUND_SIZE[workload])):
        files.append(f"{j:03d}.json")
        with open(os.path.join(directory, files[-1]), "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
    with open(os.path.join(directory, "index.json"), "w", encoding="utf-8") as fh:
        json.dump({"files": files}, fh)


def _child_env(src):
    env = dict(os.environ)
    env.pop("TUNNELKIT_THREADS", None)  # the sweep pool runs as users get it
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in BLAS_VARS:
        env[var] = "1"
    return env


def _run_child(argv, env):
    # own process group, so a timeout also stops the worker's CLI children
    proc = subprocess.Popen(
        [sys.executable] + argv,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=env,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    if proc.returncode != 0:
        raise RuntimeError(f"{argv[0]} exited {proc.returncode}: {err.strip()[-800:]}")
    return json.loads(out.strip().splitlines()[-1])


def _setup_samples(probe, env, ref):
    """Set-up times of SETUP_PROBES fresh processes, scaled to nominal speed."""
    samples = []
    before = ref.time()
    for _ in range(SETUP_PROBES):
        setup_s = _run_child(probe, env)["setup_s"]
        after = ref.time()
        samples.append(setup_s * ref.nominal / (0.5 * (before + after)))
        before = after
    return samples


def _wall(argv, env):
    t0 = time.perf_counter()
    subprocess.run([sys.executable] + argv, env=env, check=True, timeout=CHILD_TIMEOUT_S, stdout=subprocess.DEVNULL)
    return time.perf_counter() - t0


def _quantile(sorted_vals, q):
    # linear interpolation between closest ranks
    pos = q * (len(sorted_vals) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(sorted_vals) - 1)
    return sorted_vals[lo] + (sorted_vals[hi] - sorted_vals[lo]) * (pos - lo)


def _end_to_end(res, setup_samples):
    # inputs that failed in every round have no latency; error_rate shows them
    lats = sorted(t for t in res["latencies_s"] if math.isfinite(t))
    if not lats:
        raise RuntimeError("every input failed in every round; no latency to report")
    return {
        "ops_per_s": (len(lats) / sum(lats), "1/s"),
        "latency_p50_ms": (1e3 * _quantile(lats, 0.5), "ms"),
        "latency_p90_ms": (1e3 * _quantile(lats, 0.9), "ms"),
        "setup_s": (statistics.median(setup_samples), "s"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB"),
    }


def _per_layer(res, env):
    metrics = {k: tuple(v) for k, v in res["metrics"].items()}
    walls = {"bare": [], "import": []}
    for _ in range(IMPORT_PROBES):  # interleaved, so drift hits both alike
        walls["bare"].append(_wall(["-c", "pass"], env))
        walls["import"].append(_wall(["-c", "import tunnelkit"], env))
    import_s = statistics.median(walls["import"]) - statistics.median(walls["bare"])
    metrics["cli.import_s"] = (import_s, "s")
    return metrics


def _provenance(args, res, env):
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "pinned_to_cpus": sorted(os.sched_getaffinity(0)),
        "versions": res.get("versions"),
        "blas_threads": {v: env[v] for v in BLAS_VARS},
        "tunnelkit_threads_in_caller_env": os.environ.get("TUNNELKIT_THREADS"),
        "tunnelkit_threads_in_workload": "unset",
        "attempted": res["attempted"],
        "completed": res["completed"],
        "rounds": res["rounds"],
        "elapsed_s": res["elapsed_s"],
        "wall_ops_per_s": res["completed"] / res["elapsed_s"],
        "reference": res.get("reference"),
    }


def main():
    args = _args()
    if args.seconds < 1:
        print("perfbench: --seconds must be at least 1", file=sys.stderr)
        return 2
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "tunnelkit", "__init__.py")):
        print(f"perfbench: no src/tunnelkit under {root}; run from the repository root", file=sys.stderr)
        return 2
    # One core for the benchmark and every process it starts.  The host's
    # slow spells hit a process that moves between cores, and most of all
    # the sweep pool's two threads handing the GIL across cores; pinned,
    # both pool threads share one core (see README.md).
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    work_root = os.path.join(root, ".perfbench-work")
    workdir = os.path.join(work_root, f"{args.workload}-{args.seed}-{os.getpid()}")
    env = _child_env(src)
    worker = [os.path.join(HERE, "worker.py"), "--workload", args.workload, "--inputs", workdir, "--src", src]
    try:
        _write_inputs(args.workload, args.seed, workdir)
        if args.trace == 0:
            probe = worker + ["--mode", "setup"]
            rounds = max(1, round(ROUNDS_PER_SECOND[args.workload] * args.seconds))
            ceiling = CEILING * args.seconds
            with reference.Reference("python", SETUP_REFERENCE_PASSES) as ref:
                setup = _setup_samples(probe, env, ref)
                res = _run_child(worker + ["--rounds", str(rounds), "--ceiling", str(ceiling)], env)
                setup += _setup_samples(probe, env, ref)
            metrics = _end_to_end(res, setup)
            correct = res["unexplained"] == 0
        else:
            k = ROUND_SIZE[args.workload]
            ops = math.ceil(TRACE_OPS_PER_SECOND[args.workload] * args.seconds / k) * k
            res = _run_child(worker + ["--trace", "1", "--ops", str(ops)], env)
            metrics = _per_layer(res, env)
            correct = res["unexplained"] == 0 and not res["repeat_mismatch"]
    except (RuntimeError, subprocess.SubprocessError, OSError, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if os.path.isdir(work_root) and not os.listdir(work_root):
            os.rmdir(work_root)

    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:44s} {value:>16.6g} {unit}")
    rate = res["failed"] / res["attempted"]
    print(f"  {'error_rate':44s} {rate:>16.6g} ratio ({res['failed']} of {res['attempted']} ops)")
    for note in res["failure_notes"]:
        print(f"  failed: {note}")
    if res["failed"] and not res["unexplained"]:
        print("  every failure is a known defect of the package (see perfbench/README.md)")
    if args.trace:
        for name, pair in res["repeat_mismatch"].items():
            print(f"  counts differ between two traced passes: {name} {pair}")
    print("provenance: " + json.dumps(_provenance(args, res, env)))
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": res["attempted"],
                "failed": res["failed"],
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
