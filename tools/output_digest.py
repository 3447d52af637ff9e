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
* the single well V = x^2 / 2 on a 2001-point grid over [-8, 8].
"""

import hashlib
import json
import pathlib
import re
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
SEEDS = (1, 2, 3)


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
    return docs


def main(argv):
    if len(argv) != 2:
        print("usage: python3 tools/output_digest.py SRC", file=sys.stderr)
        return 2
    src = pathlib.Path(argv[1]).resolve()
    sys.path.insert(0, str(src))
    import tunnelkit
    from tunnelkit import cli

    if src not in pathlib.Path(tunnelkit.__file__).resolve().parents:
        print(f"tunnelkit was imported from {tunnelkit.__file__}, not {src}", file=sys.stderr)
        return 2
    digest, count, failed = hashlib.sha256(), 0, False
    for label, doc in corpus():
        runners = [cli.run_analyze]
        if "sweep" in doc:
            runners.append(cli.run_sweep)
        if "oracle_grid" in doc:
            runners += [cli.run_oracle, cli.run_compare]
        for runner in runners:
            try:
                out, csv_text = runner(tunnelkit.parse_config(doc))
                text = json.dumps(out, indent=2) + "\n" + csv_text
            except tunnelkit.TunnelkitError as exc:
                text = f"{type(exc).__name__}: {exc}\n"
            except Exception as exc:  # a leak past the error hierarchy
                print(f"{label} {runner.__name__}: {type(exc).__name__}: {exc}", file=sys.stderr)
                text, failed = f"leaked {type(exc).__name__}: {exc}\n", True
            digest.update(f"{label} {runner.__name__}\n{text}".encode())
            count += 1
    print(f"{count} outputs sha256 {digest.hexdigest()}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
