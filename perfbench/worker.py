"""One workload process: set up, run the closed loop, check the outputs.

Started by ``run.py`` with ``PYTHONPATH`` pointing at the checkout's
``src``.  It prints one JSON line on stdout.

``--mode setup`` stops once the first op is ready and reports only the
set-up time (``run.py`` starts several such processes per run).
``--mode run`` with ``--trace 0`` runs a fixed number of rounds back to
back, timing the workload's reference kernel (``reference.py``) before
each round (each op on ``bias_sweep``) and after the last, and reports
latencies scaled to the reference's nominal speed.  With ``--trace 1`` it
runs a fixed number of ops three times: untraced, traced, traced again;
the two traced passes must give identical counts.
"""

import time

T_START = time.perf_counter()  # before any tunnelkit import

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import inputs  # noqa: E402

ROUTE_RTOL = 1e-4  # pairwise agreement of the three splitting routes
DO_ACTION_RTOL = 1e-8  # quadrature action vs the double-oscillator closed form
C1_RTOL = 1e-3  # sweep fit c1 vs c1_analytic
ORACLE_BUDGET = 0.10  # closed formula vs eigensolver, wells >= 3.3 spacings
ORACLE_MIN_DEPTH = 3.3
MAX_FAILURE_NOTES = 5
MIN_ROUNDS = 2
# The reference kernel that does each workload's kind of work, how many
# ops run between two timings of it (a whole round of the short ops), and
# how many passes of the kernel one timing takes.
REFERENCE = {"wells": ("python", 24, 1), "bias_sweep": ("python", 1, 3), "oracle": ("lapack", 8, 1)}

# Failures traced to a named defect of the package that predates the
# benchmark: (workload, exception type, message fragment, defect).  They
# count in ``failed`` like any other failure; any failure not listed here
# makes the run incorrect.
KNOWN_DEFECTS = (
    (
        "bias_sweep",
        "ValueError",
        "f(a) and f(b) must have different signs",
        "ROADMAP item 5: _dial_bias below the shape's own bias leaks a brentq ValueError",
    ),
)


def _args():
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--inputs", required=True, help="directory of generated configs")
    p.add_argument("--src", required=True, help="the checkout's src directory")
    p.add_argument("--mode", choices=("setup", "run"), default="run")
    p.add_argument("--rounds", type=int, default=MIN_ROUNDS, help="rounds of a timed run")
    p.add_argument("--ceiling", type=float, default=60.0, help="seconds after which a timed run stops early")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--ops", type=int, default=0, help="op count of a traced run")
    return p.parse_args()


def _load_round0(tk, workload, directory):
    """Read one round of generated configs with the package's own loader.

    Returns (items, docs): what the ops take, and the raw documents.
    """
    with open(os.path.join(directory, "index.json"), encoding="utf-8") as fh:
        index = json.load(fh)
    items, docs = [], []
    for name in index["files"]:
        path = os.path.join(directory, name)
        config = tk.load_config(path)
        with open(path, encoding="utf-8") as fh:
            docs.append(json.load(fh))
        items.append(docs[-1] if workload == "bias_sweep" else config)
    return items, docs


def _twins(tk, workload, docs, rounds):
    """The inputs of rounds 1 .. rounds-1: twin r of each round-0 document."""
    items = []
    for r in range(1, rounds):
        for doc in docs:
            twin = inputs.twin(doc, r)
            items.append(twin if workload == "bias_sweep" else tk.parse_config(twin))
    return items


# --- ops --------------------------------------------------------------------
# Each op returns what its check needs; the checks run after the timed part.


def _op_wells(tk, config):
    analysis = tk.analyze(config.potential, config.constants, orient=config.orient)
    result = tk.compute_splitting(config.potential, config.constants, analysis=analysis, solve=True)
    return analysis, result


def _op_bias_sweep(tk, cli, doc):
    return cli.run_sweep(tk.parse_config(doc))


def _op_oracle(cli, config):
    return cli.run_oracle(config)


# --- checks -----------------------------------------------------------------


def _check_wells(tk, item, out):
    analysis, r = out
    trans = r.delta_E_transcendental
    routes = (r.delta_E, r.delta_E_quadratic, trans)
    worst = max(abs(p - q) for p in routes for q in routes) / trans
    if not worst <= ROUTE_RTOL:
        return f"routes disagree by {worst:.3g} (> {ROUTE_RTOL:g})"
    inner = analysis.spec.inner if isinstance(analysis.spec, tk.Mirrored) else analysis.spec
    if isinstance(inner, tk.DoubleOscillator):
        oriented = tk.DoubleOscillator(analysis.omega_L, analysis.omega_R, abs(analysis.tilde_eps), analysis.V0)
        i_l, i_r = tk.double_oscillator_action(oriented, analysis.consts, analysis.E_bar)
        err = abs(r.I_bar - (i_l + i_r)) / (i_l + i_r)
        if not err <= DO_ACTION_RTOL:
            return f"double-oscillator action off by {err:.3g} (> {DO_ACTION_RTOL:g})"
    return None


def _check_bias_sweep(tk, cli, doc, out, rerun):
    jdoc, csv_text = out
    if rerun:
        os.environ["TUNNELKIT_THREADS"] = "1"
        try:
            _, serial_csv = cli.run_sweep(tk.parse_config(doc))
        finally:
            del os.environ["TUNNELKIT_THREADS"]
        if serial_csv != csv_text:
            return "rows differ from a TUNNELKIT_THREADS=1 rerun"
    fit = jdoc["fit"]
    rel = abs(fit["c1"] - fit["c1_analytic"]) / abs(fit["c1_analytic"])
    if not rel <= C1_RTOL:
        return f"fit c1 off c1_analytic by {rel:.3g} (> {C1_RTOL:g})"
    return None


def _check_oracle(tk, config, out):
    jdoc, _ = out
    spec, consts = config.potential, config.constants
    analysis = tk.analyze(spec, consts, orient=config.orient)
    depth = analysis.V0 / (consts.hbar * analysis.omega_L)
    if depth < ORACLE_MIN_DEPTH:
        return None  # the ten-percent budget is only claimed from 3.3 spacings
    closed = tk.compute_splitting(spec, consts, analysis=analysis, solve=False).delta_E
    exact = jdoc["spectrum"]["splitting"]
    err = abs(closed - exact) / exact
    if not err <= ORACLE_BUDGET:
        return f"closed formula {err:.3g} off the eigensolver (> {ORACLE_BUDGET:g})"
    return None


def _known_defect(workload, exc):
    for name, kind, fragment, defect in KNOWN_DEFECTS:
        if name == workload and type(exc).__name__ == kind and fragment in str(exc):
            return defect
    return None


# --- the loop ---------------------------------------------------------------


class Workload:
    def __init__(self, name, tk, cli, items, round_size, tracer):
        self.name, self.tk, self.cli, self.items, self.tracer = name, tk, cli, items, tracer
        self.round_size = round_size

    def item(self, i):
        return self.items[i % len(self.items)]

    def call(self, i):
        tk, cli, item = self.tk, self.cli, self.item(i)
        if self.name == "wells":
            return _op_wells(tk, item)
        if self.name == "bias_sweep":
            return _op_bias_sweep(tk, cli, item)
        return _op_oracle(cli, item)

    def check(self, i, out, rerun):
        tk, cli, item = self.tk, self.cli, self.item(i)
        if self.name == "wells":
            return _check_wells(tk, item, out)
        if self.name == "bias_sweep":
            # later rounds repeat round 0's shapes (as twins): one serial
            # rerun per distinct shape checks the thread-count contract
            return _check_bias_sweep(tk, cli, item, out, rerun=rerun and i < self.round_size)
        return _check_oracle(tk, item, out)

    def _one(self, i, outs, errors, traced):
        """Run op i; return its latency in seconds, or inf when it raised."""
        token = self.tracer.begin_op(i) if traced else None
        t0 = time.perf_counter()
        try:
            outs.append(self.call(i))
            t1 = time.perf_counter()
        except Exception as exc:  # every failure counts; the loop goes on
            outs.append(None)
            errors[i] = exc
            t1 = math.inf
        if traced:
            self.tracer.end_op(token)
        return t1 - t0

    def run_count(self, count, traced=False):
        """Ops 0 .. count-1 back to back.  Returns (outputs, errors, wall_s)."""
        outs, errors = [], {}
        start = time.perf_counter()
        for i in range(count):
            self._one(i, outs, errors, traced)
        return outs, errors, time.perf_counter() - start

    def run_rounds(self, rounds, ceiling, reference_s, nominal, every):
        """``rounds`` whole rounds back to back, fewer if ``ceiling`` seconds pass.

        ``reference_s()`` times the reference kernel once; it runs first
        and after every ``every`` ops.  Each op's latency is scaled by
        ``nominal`` over the mean of the two reference times around it.
        Returns (outputs, errors, per input of a round the median of its
        scaled latencies, rounds run, reference times, wall_s);
        ``outputs[i]`` is None where op i raised, and an input with no
        completed op has latency inf.
        """
        k = self.round_size
        outs, errors = [], {}
        scaled = [[] for _ in range(k)]
        refs = [reference_s()]
        start = time.perf_counter()
        done = 0
        while done < rounds:
            for g in range(0, k, every):
                group = range(g, min(g + every, k))
                raw = [self._one(done * k + j, outs, errors, False) for j in group]
                refs.append(reference_s())
                factor = nominal / (0.5 * (refs[-2] + refs[-1]))
                for j, t in zip(group, raw):
                    if math.isfinite(t):
                        scaled[j].append(t * factor)
            done += 1
            if done >= MIN_ROUNDS and time.perf_counter() - start >= ceiling:
                break
        medians = [statistics.median(v) if v else math.inf for v in scaled]
        return outs, errors, medians, done, refs, time.perf_counter() - start

    def failures(self, outs, errors, rerun=True):
        """Failure notes by op: (text, known defect or None)."""
        notes = {i: (f"{type(exc).__name__}: {exc}", _known_defect(self.name, exc)) for i, exc in errors.items()}
        for i, out in enumerate(outs):
            if out is None:
                continue
            try:
                note = self.check(i, out, rerun)
            except Exception as exc:
                note = f"check raised {type(exc).__name__}: {exc}"
            if note is not None:
                notes[i] = (note, None)
        return notes


def _versions():
    import numpy
    import scipy

    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def main():
    args = _args()
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install_dependencies()

    import tunnelkit as tk
    import tunnelkit.cli as cli

    if not os.path.abspath(tk.__file__).startswith(os.path.abspath(args.src) + os.sep):
        raise SystemExit(f"tunnelkit imported from {tk.__file__}, not from {args.src}")
    if tracer is not None:
        tracer.install_package()
    items, docs = _load_round0(tk, args.workload, args.inputs)
    setup_s = time.perf_counter() - T_START
    if args.mode == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return

    round_size = len(items)
    result = {"setup_s": setup_s, "versions": _versions()}
    if tracer is None:
        rounds = max(args.rounds, MIN_ROUNDS)
        items += _twins(tk, args.workload, docs, rounds)
        work = Workload(args.workload, tk, cli, items, round_size, None)
        import reference  # after set-up is timed

        kernel, every, passes = REFERENCE[args.workload]
        with reference.Reference(kernel, passes) as ref:
            outs, errors, lats, done, refs, wall = work.run_rounds(rounds, args.ceiling, ref.time, ref.nominal, every)
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux
        notes = work.failures(outs, errors)
        result["latencies_s"] = lats
        result["reference"] = {
            "kernel": kernel,
            "nominal_s": ref.nominal,
            "median_s": statistics.median(refs),
            "min_s": min(refs),
            "max_s": max(refs),
        }
        result["rounds"] = done
        attempted = len(outs)
    else:
        setup_spans = tracer.take()
        tracer.uninstall()
        items += _twins(tk, args.workload, docs, math.ceil(args.ops / round_size))
        work = Workload(args.workload, tk, cli, items, round_size, tracer)
        outs, errors, wall = work.run_count(args.ops)
        plain_rate = (len(outs) - len(errors)) / wall
        tracer.reinstall()
        # Per-layer figures cover the ops that completed.  A sweep that
        # raises stops part way, at a point that depends on thread timing
        # (the pool cancels the points not yet started), so its work would
        # not repeat; failed ops count in ``failed`` instead.
        outs_a, errors_a, wall_a = work.run_count(args.ops, traced=True)
        pass_a = tracer.take(drop=errors_a)
        outs_b, errors_b, wall_b = work.run_count(args.ops, traced=True)
        pass_b = tracer.take(drop=errors_b)
        tracer.uninstall()
        metrics = tracing.layer_metrics(setup_spans[0] + pass_a[0], tracing.merge_counts([setup_spans[1], pass_a[1]]))
        counts_a = tracing.count_metrics(tracing.layer_metrics(*pass_a))
        counts_b = tracing.count_metrics(tracing.layer_metrics(*pass_b))
        traced_rate = (args.ops - len(errors_a)) / wall_a
        metrics["trace.overhead_ratio"] = (traced_rate / plain_rate, "ratio")
        metrics["trace.ops"] = (args.ops - len(errors_a), "count")
        result["metrics"] = metrics
        result["repeat_mismatch"] = {
            k: [counts_a[k], counts_b[k]] for k in counts_a if counts_a[k] != counts_b[k]
        }
        result["rounds"] = args.ops // round_size
        # every pass counts: failures of the traced passes are failures too
        notes = work.failures(outs, errors)
        for p, (o, e) in enumerate(((outs_a, errors_a), (outs_b, errors_b)), start=1):
            notes.update({(p, i): n for i, n in work.failures(o, e, rerun=False).items()})
        attempted = 3 * args.ops
        wall += wall_a + wall_b
        errors = {**errors, **{(1, i): e for i, e in errors_a.items()}, **{(2, i): e for i, e in errors_b.items()}}
    result["elapsed_s"] = wall
    result["attempted"] = attempted
    result["completed"] = attempted - len(errors)
    result["failed"] = len(notes)
    result["unexplained"] = sum(1 for _, defect in notes.values() if defect is None)
    by_cause = {}
    for text, defect in notes.values():
        by_cause[defect or text] = by_cause.get(defect or text, 0) + 1
    result["failure_notes"] = [
        f"{n} op(s): {cause}" for cause, n in sorted(by_cause.items(), key=lambda kv: -kv[1])[:MAX_FAILURE_NOTES]
    ]
    print(json.dumps(result))


if __name__ == "__main__":
    main()
