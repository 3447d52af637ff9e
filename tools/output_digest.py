"""One sha256 over the CLI output of a fixed corpus of configs.

    python3 tools/output_digest.py SRC

imports ``tunnelkit`` from the directory SRC (a checkout's ``src``) and
runs ``run_analyze`` on every config of the corpus, ``run_sweep`` on
those with a "sweep" block, and ``run_oracle`` and ``run_compare`` on
those with an "oracle_grid".  Each run contributes
``json.dumps(doc, indent=2)`` plus its CSV text, or the type and message
of the ``TunnelkitError`` it raised.  The script prints the number of
outputs and their combined sha256; two source trees that print the same
line write the same bytes on the corpus.  It exits 1 when a run raises
anything other than a ``TunnelkitError``.  ``tools/output_digest.txt``
holds the line of the committed sources, so a change of any output
shows as a diff against it:

    python3 tools/output_digest.py src | diff - tools/output_digest.txt

With ``--diff OLD_SRC`` it runs the corpus on both trees, one after the
other in the same process, and lists each output of SRC that differs
from OLD_SRC's, with the largest relative move |new - old| / |old| of
each numeric field of its JSON document and CSV (a field of the rows of
a sweep counts once, over all rows; ``changed`` marks a field that is
not a number, ``structure`` an output whose fields differ), then the
largest relative move of each numeric field over all the outputs that
differ; it exits 1 when any output differs:

    python3 tools/output_digest.py src --diff ../parent/src

With ``--generated N`` as well, the diff runs on the N configs of
``draw(N)`` of ``tests/generated_configs.py`` instead of the corpus, each
through all four runners, and lists no output by itself, only the
largest moves.  Config i is a function of its index alone, labelled
``generated:i``.  ``--normal-ranges`` draws every magnitude inside its
normal range, so that every float lies in [1e-3, 20] in magnitude or is
0.  It closes with SRC's outcomes: for each runner, how many of its runs
exit 0, 2, 3 and 4, then how many of its runs end in each error class
(``run_oracle 4 NumericsError 31``).
A RuntimeWarning is an error in every run, of the corpus too.  Both
modes print how many runs flip their exit code or error class, with a
from -> to table of the flips, each line followed by the labels of up to
FLIP_LABELS of its runs (``generated:926 run_oracle``); the corpus prints
it only when one does:

    python3 tools/output_digest.py src --diff ../parent/src --generated 3000

On a 2-core x86-64 machine (Python 3.11.7, numpy 2.4.6, scipy 1.17.1)
the 12000 runs of 3000 configs take 16-17 s per tree.

The corpus:

* the ``perfbench/inputs.py`` inputs of seeds 1-3: 12 ``wells``,
  4 ``bias_sweeps`` and 4 ``oracle_wells`` each;
* the ``"mirror": true, "orient": "keep"`` twin of each quartic and
  polynomial among those ``wells`` and ``bias_sweeps`` (``wells`` 3 and
  11 are mirrored already, so their twin only keeps the axis), and the
  x -> -x twin of each polynomial among them (odd coefficients negated,
  no ``"mirror"``): a bare well with the deeper well on the right;
* a ``"richardson": false`` twin of each of those oracle inputs;
* the config of README.md;
* for each double oscillator among those oracle inputs, a 5-step bias
  sweep on a 2001-point grid, its ``"mirror": true`` twin on walls
  symmetric about x = 0, and the ``"orient": "keep"`` twin of that one;
  then a 5-step sweep through zero bias, from -(tilde_eps + 0.05 omega_L)
  to tilde_eps + 0.05 omega_L, on the same grid, its ``"mirror": true``
  twin on the symmetric walls, which "auto" analyzes on the reflected
  axis, and the ``"orient": "keep"`` twin of that one, which keeps the
  config's axis, where the bias runs negative;
* the single well V = x^2 / 2 on a 2001-point grid over [-8, 8];
* the deep quartics ``BiasedQuartic(1, 3.0)`` and
  ``BiasedQuartic(1, 3.0, 0.01)``, each on an 8001-point grid between its
  ``default_grid`` walls (written out as floats, so both trees of a diff
  see the same walls), with Richardson and without.  They reach the
  oracle's floor: the symmetric one's gap, 1.5e-14 without Richardson,
  is a rounding residue of 17 ulps of E1, and with Richardson it raises
  ``GridTooCoarse``; the asymmetric one's gap is 0.0594 both ways.
"""

import argparse
import collections
import functools
import hashlib
import json
import math
import pathlib
import re
import runpy
import sys
import warnings

ROOT = pathlib.Path(__file__).resolve().parent.parent
SEEDS = (1, 2, 3)
FLIP_LABELS = 10  # runs named under each line of the table of flips
# (potential, x_min, x_max) of the deep quartics: default_grid's walls
DEEP_QUARTICS = (
    ({"family": "biased_quartic", "alpha": 1.0, "a": 3.0}, -6.010542816244191, 6.010542816244191),
    ({"family": "biased_quartic", "alpha": 1.0, "a": 3.0, "beta": 0.01},
     -6.010784386465445, 6.010373888509969),
)


def _smooth_twins(name, seed, group):
    # the "mirror": true, "orient": "keep" twin of each quartic and
    # polynomial, and the x -> -x twin of each polynomial
    docs = []
    for i, d in enumerate(group):
        pot = d["potential"]
        if pot["family"] == "double_oscillator":
            continue
        docs.append((f"{name}_mirror_keep:{seed}:{i}", dict(d, potential=dict(pot, mirror=True, orient="keep"))))
        if pot["family"] == "polynomial":
            coeffs = [-c if k % 2 else c for k, c in enumerate(pot["coeffs"])]
            bare = {"family": "polynomial", "coeffs": coeffs}
            docs.append((f"{name}_reflected:{seed}:{i}", dict(d, potential=bare)))
    return docs


def corpus():
    """(label, config document) pairs, in a fixed order."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    import inputs

    docs = []
    for seed in SEEDS:
        for name, group in (("wells", inputs.wells(seed, 12)), ("sweep", inputs.bias_sweeps(seed, 4))):
            docs += [(f"{name}:{seed}:{i}", d) for i, d in enumerate(group)]
            docs += _smooth_twins(name, seed, group)
        oracle = inputs.oracle_wells(seed, 4)
        docs += [(f"oracle:{seed}:{i}", d) for i, d in enumerate(oracle)]
        docs += [
            (f"oracle_plain:{seed}:{i}", dict(d, oracle_grid=dict(d["oracle_grid"], richardson=False)))
            for i, d in enumerate(oracle)
        ]
        for i, d in enumerate(oracle):
            pot, grid = d["potential"], d["oracle_grid"]
            if pot["family"] != "double_oscillator":
                continue
            te = pot["tilde_eps"]
            sweep = {"parameter": "tilde_eps", "from": te,
                     "to": te + 0.05 * pot["omega_L"], "steps": 5}
            plain = dict(d, oracle_grid=dict(grid, n_points=2001), sweep=sweep)
            wall = max(-grid["x_min"], grid["x_max"])
            mirrored = dict(
                plain,
                potential=dict(pot, mirror=True),
                oracle_grid=dict(plain["oracle_grid"], x_min=-wall, x_max=wall),
            )
            kept = dict(mirrored, potential=dict(mirrored["potential"], orient="keep"))
            reach = te + 0.05 * pot["omega_L"]
            through = dict(plain, sweep=dict(sweep, **{"from": -reach, "to": reach}))
            through_mirrored = dict(mirrored, sweep=through["sweep"])
            through_kept = dict(kept, sweep=through["sweep"])
            docs += [
                (f"do_sweep:{seed}:{i}", plain),
                (f"do_sweep_mirror:{seed}:{i}", mirrored),
                (f"do_sweep_mirror_keep:{seed}:{i}", kept),
                (f"do_sweep_zero:{seed}:{i}", through),
                (f"do_sweep_zero_keep:{seed}:{i}", through_kept),
                (f"do_sweep_zero_mirror:{seed}:{i}", through_mirrored),
            ]
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    docs.append(("readme", json.loads(re.search(r"```json\n(.*?)```", readme, re.S).group(1))))
    single = {"family": "polynomial", "coeffs": [0, 0, 0.5]}
    grid = {"x_min": -8.0, "x_max": 8.0, "n_points": 2001}
    docs.append(("single_well", {"schema": "tunnelkit/1", "potential": single, "oracle_grid": grid}))
    for i, (pot, x_min, x_max) in enumerate(DEEP_QUARTICS):
        for richardson in (True, False):
            grid = {"x_min": x_min, "x_max": x_max, "n_points": 8001, "richardson": richardson}
            label = f"deep_quartic{'' if richardson else '_plain'}:{i}"
            docs.append((label, {"schema": "tunnelkit/1", "potential": pot, "oracle_grid": grid}))
    return docs


def _fields(value, path):
    # (path, leaf) of each leaf of a JSON value; list items share a path
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _fields(item, f"{path}.{key}" if path else key)
    elif isinstance(value, list):
        for item in value:
            yield from _fields(item, path + "[]")
    else:
        yield path, value


def _csv_fields(csv_text):
    header, *lines = csv_text.splitlines() or [""]
    for line in lines:
        for name, cell in zip(header.split(","), line.split(",")):
            try:
                yield f"csv.{name}", float(cell)
            except ValueError:
                yield f"csv.{name}", cell


def generated(n, normal_ranges):
    """(label, config document) pairs of ``tests/generated_configs.py``'s
    ``draw(n, normal_ranges)``."""
    draw = runpy.run_path(str(ROOT / "tests" / "generated_configs.py"))["draw"]
    return [(f"generated:{i}", doc) for i, doc in enumerate(draw(n, normal_ranges))]


def outcome(run):
    """The exit code of a run of ``run_corpus`` and the class of its error: "0",
    "3 GridTooCoarse", or "4 internal ValueError" for an error that leaked."""
    return run[1].get("outcome", "0")


def run_corpus(src, docs=None):
    """{"label runner": (text, document, csv)} of the corpus, or of the
    (label, config document) pairs ``docs``, on the ``tunnelkit`` of SRC.

    ``text`` is what the digest hashes; the document and the CSV text are
    the run's, or {"error": text, "outcome": ``outcome``} and "" for a run
    that raised.  Returns the runs, None when ``tunnelkit`` cannot be
    imported from SRC, and a flag that is true when a run leaked an error
    that is not a ``TunnelkitError``; a RuntimeWarning is raised as one.
    """
    for name in [name for name in sys.modules if name.split(".")[0] == "tunnelkit"]:
        del sys.modules[name]  # a tree imported before
    sys.path.insert(0, str(src))
    try:
        import tunnelkit
        from tunnelkit import cli
    finally:
        sys.path.remove(str(src))
    if src not in pathlib.Path(tunnelkit.__file__).resolve().parents:
        print(f"tunnelkit was imported from {tunnelkit.__file__}, not {src}", file=sys.stderr)
        return None, True
    runs, failed = {}, False
    for label, doc in corpus() if docs is None else docs:
        runners = [cli.run_analyze]
        if "sweep" in doc:
            runners.append(cli.run_sweep)
        if "oracle_grid" in doc:
            runners += [cli.run_oracle, cli.run_compare]
        for runner in runners:
            try:
                with warnings.catch_warnings():
                    warnings.simplefilter("error", RuntimeWarning)
                    out, csv_text = runner(tunnelkit.parse_config(doc))
                text = json.dumps(out, indent=2, allow_nan=False) + "\n" + csv_text
            except tunnelkit.TunnelkitError as exc:
                text = f"{type(exc).__name__}: {exc}\n"
                code = (2 if isinstance(exc, tunnelkit.ConfigError)
                        else 3 if isinstance(exc, tunnelkit.RegimeError) else 4)
                out, csv_text = {"error": text, "outcome": f"{code} {type(exc).__name__}"}, ""
            except Exception as exc:  # a leak past the error hierarchy
                print(f"{label} {runner.__name__}: {type(exc).__name__}: {exc}", file=sys.stderr)
                text, failed = f"leaked {type(exc).__name__}: {exc}\n", True
                out, csv_text = {"error": text, "outcome": f"4 internal {type(exc).__name__}"}, ""
            runs[f"{label} {runner.__name__}"] = text, out, csv_text
    return runs, failed


def moves(old_run, new_run):
    """{path: largest relative move} of the fields of one output, in path order.

    Each run is its (text, document, csv) of ``run_corpus``.
    A number's move is |new - old| / |old| (inf from 0, 0 between equal
    values, NaN included); a leaf that is not a number and differs is
    "changed".  Outputs whose paths differ give {"structure": "changed"}.
    """
    old_fields, new_fields = (
        [*_fields(out, ""), *_csv_fields(csv_text)] for _, out, csv_text in (old_run, new_run)
    )
    if [path for path, _ in old_fields] != [path for path, _ in new_fields]:
        return {"structure": "changed"}
    largest = {}
    for (path, old), (_, new) in zip(old_fields, new_fields):
        numbers = all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in (old, new))
        if numbers and (old == new or math.isnan(old) and math.isnan(new)):
            move = 0.0
        elif numbers:
            move = abs(new - old) / abs(old) if old else math.inf
        else:
            move = 0.0 if old == new else "changed"
        if move != 0.0 and (path not in largest or move == "changed" or move > largest[path]):
            largest[path] = move
    return largest


def largest_moves(found):
    """{path: largest relative move} of each numeric field over several ``moves`` results.

    Paths come in sorted order; "changed" and "structure" marks are left
    out, as each output's own list names them.
    """
    largest = {}
    for fields in found:
        for path, move in fields.items():
            if not isinstance(move, str) and move > largest.get(path, 0.0):
                largest[path] = move
    return dict(sorted(largest.items()))


def main(argv):
    parser = argparse.ArgumentParser(
        prog="python3 tools/output_digest.py",
        description="sha256 of the CLI output of a fixed corpus, or its diff against another tree",
    )
    parser.add_argument("src", type=pathlib.Path, help="the src directory to import tunnelkit from")
    parser.add_argument("--diff", type=pathlib.Path, metavar="OLD_SRC",
                        help="list the outputs that differ from those of OLD_SRC")
    parser.add_argument("--generated", type=int, metavar="N",
                        help="with --diff: run N generated configs instead of the corpus")
    parser.add_argument("--normal-ranges", action="store_true",
                        help="with --generated: draw every magnitude inside its normal range")
    args = parser.parse_args(argv[1:])
    if args.generated is not None and args.diff is None:
        parser.error("--generated needs --diff")
    if args.normal_ranges and args.generated is None:
        parser.error("--normal-ranges needs --generated")
    if args.diff is None:
        runs, failed = run_corpus(args.src.resolve())
        if runs is None:
            return 2
        digest = hashlib.sha256()
        for key, (text, _, _) in runs.items():
            digest.update(f"{key}\n{text}".encode())
        print(f"{len(runs)} outputs sha256 {digest.hexdigest()}")
        return 1 if failed else 0
    run = run_corpus
    if args.generated is not None:
        docs = generated(args.generated, args.normal_ranges)
        print(f"{len(docs)} generated configs")
        run = functools.partial(run_corpus, docs=docs)
    old, old_failed = run(args.diff.resolve())
    runs, failed = run(args.src.resolve())
    if old is None or runs is None:
        return 2
    differ, found, flips = 0, [], collections.defaultdict(list)
    for key in [*runs, *(key for key in old if key not in runs)]:
        if key in runs and key in old and runs[key][0] == old[key][0]:
            continue
        differ += 1
        if key not in runs or key not in old:
            print(f"{key}: only in {'OLD_SRC' if key in old else 'SRC'}")
            continue
        found.append(moves(old[key], runs[key]))
        if outcome(old[key]) != outcome(runs[key]):
            flips[outcome(old[key]), outcome(runs[key])].append(key)
        if args.generated is None:
            print(f"{key}:")
            for path, move in found[-1].items():
                print(f"  {path} {move if isinstance(move, str) else f'{move:.3g}'}")
    if flips or args.generated is not None:
        print(f"{sum(map(len, flips.values()))} of {len(runs)} runs flip their exit code "
              "or error class" + (", OLD_SRC -> SRC:" if flips else ""))
        for (was, now), keys in sorted(flips.items()):
            print(f"  {was} -> {now}: {len(keys)}")
            for key in keys[:FLIP_LABELS]:
                print(f"    {key}")
    if found:
        print("largest move of each numeric field over the outputs that differ:")
        for path, move in largest_moves(found).items():
            print(f"  {path} {move:.3g}")
    print(f"{differ} of {len(runs)} outputs differ from {args.diff}")
    if args.generated is not None:
        outcomes = collections.defaultdict(collections.Counter)  # runner -> outcome -> runs
        for key, run in runs.items():
            outcomes[key.rsplit(" ", 1)[1]][outcome(run)] += 1
        print("runs of SRC that exit 0/2/3/4:")
        for runner, count in outcomes.items():
            codes = collections.Counter(cause.split()[0] for cause in count.elements())
            print(f"  {runner} " + "/".join(str(codes[code]) for code in "0234"))
        print("runs of SRC that exit 2, 3 or 4, per error class:")
        for runner, count in outcomes.items():
            for cause in sorted(count.keys() - {"0"}):
                print(f"  {runner} {cause} {count[cause]}")
    return 1 if differ or failed or old_failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
