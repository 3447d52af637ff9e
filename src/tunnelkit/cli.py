"""Command-line entry points: analyze, sweep, oracle, compare.

Each command reads one JSON config (see ``tunnelkit.config``), runs the
corresponding pipeline, and emits either a structured JSON document or
CSV with a frozen schema.  Exit codes are a stable contract:

    0  success
    2  config error (bad file, bad schema, missing keys, bad sweep)
    3  regime error (no double well, barrier too low, energy below a
       well floor, root not bracketed, grid too coarse, domain too small)
    4  numerical non-convergence or any other internal failure

Every emitted document carries ``warn_flags``, machine-readable tokens
set by the validity thresholds:

    eps_over_hw   |eps| / (hbar w_L) exceeds max_eps_over_hw
    gamow         exp(-I_bar) exceeds max_gamow
    barrier_kink  piecewise-parabolic barrier top (V'' jumps at x = 0);
                  semiclassical error terms assume a smooth barrier

The sweep command dials the spectral bias tilde_eps while keeping the
potential shape fixed: eps, E_bar, and the action I(E_bar) are
recomputed per point on the same curve.  Oracle columns are filled only
for the double-oscillator family, where the dialed bias corresponds to
an actual member of the family that can be rediagonalized; for other
families no potential realizes the dialed bias exactly and the columns
stay empty.

A bias point, of ``analyze`` or of one sweep step, is built once as a
JSON row (``_point``), and its CSV line is rendered from that row
(``_csv_row``), so the two formats cannot disagree.  Only the CSV's
``dE_trans_plus``/``dE_trans_minus`` come from the solved offsets of the
roots themselves, which the JSON's ``E_trans_plus``/``E_trans_minus``
round to ulp(E_bar).
"""

import argparse
import json
import math
import sys
from dataclasses import asdict, fields, replace

import numpy as np

from .actions import gamow_integral
from .config import RunConfig, SCHEMA, load_config
from .errors import (
    ConfigError,
    FitIllConditioned,
    RegimeError,
    RootNotBracketed,
    TunnelkitError,
    WellStructureError,
)
from .oracle import eigen_lowest_two
from .potentials import Mirrored, WellAnalysis, analyze
from .splitting import (
    K_FIRST_ORDER,
    QuantizationResult,
    compute_splitting,
    compute_splittings,
    level_splitting,
)

__all__ = [
    "CSV_HEADER",
    "COMPARE_HEADER",
    "run_analyze",
    "run_sweep",
    "run_oracle",
    "run_compare",
    "main",
    "run",
]

CSV_HEADER = (
    "tilde_eps,eps,E_bar,I_bar,I_slope,delta,delta_E,E_plus,E_minus,"
    "dE_trans_plus,dE_trans_minus,oracle_E0,oracle_E1,oracle_split,warn_flags"
)
COMPARE_HEADER = "method,delta_E,rel_err_vs_oracle"
# the JSON keys of the roots; their solved offsets go to the CSV alone
_ROOT_FIELDS = [
    f.name for f in fields(QuantizationResult) if f.name not in ("delta_plus", "delta_minus")
]
# the WellAnalysis attributes of an analyze "well" block, in JSON order
_WELL_KEYS = (
    "x_L", "x_R", "x_m", "omega_L", "omega_R", "tilde_eps", "eps", "E_bar", "V0",
    "zero_shift", "mirrored",
)


def _jf(x):
    # JSON-safe float: NaN/inf become null.
    if isinstance(x, float) and not math.isfinite(x):
        return None
    return x


def _cells(values) -> str:
    # one CSV line; an empty cell is a value not computed (no grid, or
    # the root solve fell back)
    return ",".join(
        v if isinstance(v, str) else "" if v is None or math.isnan(v) else f"{v:.17g}"
        for v in values
    )


def _csv_text(header, lines) -> str:
    return header + "\n" + "".join(line + "\n" for line in lines)


def _potential_doc(spec):
    mirrored = isinstance(spec, Mirrored)
    fields = asdict(spec.inner if mirrored else spec)
    doc = {"family": spec.family}
    doc.update((k, list(v) if isinstance(v, tuple) else v) for k, v in fields.items())
    if mirrored:
        doc["mirror"] = True
    return doc


def _splitting_doc(result):
    # JSON names and key order of a splitting block; the nine root keys
    # are null when the root solve was skipped.
    e_bar, shifts = result.analysis.E_bar, result.shifts
    roots = dict.fromkeys(_ROOT_FIELDS)
    if result.roots is not None:
        roots = {key: getattr(result.roots, key) for key in _ROOT_FIELDS}
    doc = {
        "I_bar": result.I_bar,
        "I_slope": result.action.I_slope,
        "delta": shifts.delta,
        "delta_E": result.delta_E,
        "dE_plus": shifts.dE_plus,
        "dE_minus": shifts.dE_minus,
        "E_plus": e_bar + shifts.dE_plus,
        "E_minus": e_bar + shifts.dE_minus,
        "b_prime": shifts.b_prime,
        "u": shifts.u,
        "delta_E_quadratic": result.delta_E_quadratic,
        "E_trans_plus": roots.pop("E_plus"),
        "E_trans_minus": roots.pop("E_minus"),
        "delta_E_transcendental": _jf(result.delta_E_transcendental),
    }
    doc.update(roots)  # zeta_L_plus ... residual_minus
    return doc


def _spectrum_doc(spectrum):
    return {
        "E0": spectrum.E0,
        "E1": spectrum.E1,
        "splitting": spectrum.splitting,
        "est_error": _jf(spectrum.est_error),
    }


def _warn_flags(config: RunConfig, analysis: WellAnalysis | None, I_bar: float | None):
    flags = []
    th = config.validity_thresholds
    if analysis is not None:
        hw_l = analysis.consts.hbar * analysis.omega_L
        if abs(analysis.eps) / hw_l > th.max_eps_over_hw:
            flags.append("eps_over_hw")
        if I_bar is not None and math.exp(-I_bar) > th.max_gamow:
            flags.append("gamow")
    if config.potential.kink:
        flags.append("barrier_kink")
    return flags


def _point(config: RunConfig, analysis: WellAnalysis, outcome, oracle=None):
    """One bias point: its JSON row, its SplittingResult and its Spectrum.

    ``outcome`` is the point's (result, error) pair from
    ``compute_splittings``.  When the quantization equation has no
    sub-barrier root (shallow barriers: the upper doublet member merges
    with the continuum above V0) the point keeps the unsolved splitting
    and flags "transcendental_unbracketed"; any other error is raised
    here.  Then come the warn flags, and only then ``oracle(analysis)``,
    which returns the point's Spectrum (None without an oracle), so a
    regime error of the splitting is raised before any error of the
    eigensolve.
    """
    result, error = outcome
    if error is not None and not isinstance(error, RootNotBracketed):
        raise error
    fallback = [] if error is None else ["transcendental_unbracketed"]
    flags = _warn_flags(config, analysis, result.I_bar) + fallback
    spectrum = None if oracle is None else oracle(analysis)
    row = {
        "tilde_eps": analysis.tilde_eps,
        "eps": analysis.eps,
        "E_bar": analysis.E_bar,
        "splitting": _splitting_doc(result),
        "oracle": None if spectrum is None else _spectrum_doc(spectrum),
        "warn_flags": flags,
    }
    return row, result, spectrum


def _csv_row(row, roots) -> str:
    """The CSV_HEADER line of a point, read from its JSON row and, for the
    offsets dE_trans_plus/dE_trans_minus, from its roots (None when the
    solve was skipped)."""
    e_bar, split, oracle = row["E_bar"], row["splitting"], row["oracle"] or {}
    return _cells(
        [row["tilde_eps"], row["eps"], e_bar]
        + [split[k] for k in ("I_bar", "I_slope", "delta", "delta_E", "E_plus", "E_minus")]
        + ([None, None] if roots is None else [roots.delta_plus, roots.delta_minus])
        + [oracle.get(k) for k in ("E0", "E1", "splitting")]
        + [";".join(row["warn_flags"])]
    )


def _base_doc(command: str, config: RunConfig):
    return {
        "schema": SCHEMA,
        "command": command,
        "potential": _potential_doc(config.potential),
        "constants": {"hbar": config.constants.hbar, "mass": config.constants.mass},
    }


def run_analyze(config: RunConfig):
    """Full single-point pipeline.  Returns (json document, csv text)."""
    spec, consts, grid = config.potential, config.constants, config.oracle_grid
    analysis = analyze(spec, consts, orient=config.orient, require_wkb=True)
    oracle = None if grid is None else (
        lambda a: eigen_lowest_two(spec, consts, grid, analysis=a)
    )
    [outcome] = compute_splittings([analysis], rtol=config.tolerances.quad_rtol)
    row, result, spectrum = _point(config, analysis, outcome, oracle)
    doc = _base_doc("analyze", config)
    doc["well"] = {key: getattr(analysis, key) for key in _WELL_KEYS}
    doc["action"] = asdict(result.action)
    doc["splitting"] = row["splitting"]
    doc["oracle"] = row["oracle"]
    if spectrum is not None:
        doc["oracle"]["wkb_ratio"] = result.delta_E / spectrum.splitting
    doc["warn_flags"] = row["warn_flags"]
    line = _csv_row(row, result.roots)
    doc["csv"] = {"header": CSV_HEADER, "row": line}
    return doc, _csv_text(CSV_HEADER, [line])


def run_sweep(config: RunConfig):
    """Bias sweep plus log-quadratic fit.  Returns (json document, csv text)."""
    if config.sweep is None:
        raise ConfigError('missing required key "sweep"')
    sweep = config.sweep
    if sweep.steps < 5:
        raise FitIllConditioned(
            f"sweep needs at least 5 steps for a 3-parameter fit, got {sweep.steps}"
        )
    if sweep.start == sweep.stop:
        raise FitIllConditioned("zero-width sweep (from == to) cannot be fitted")
    spec, consts = config.potential, config.constants
    base = analyze(spec, consts, orient=config.orient, require_wkb=True)
    oracle = None
    if spec.kink and config.oracle_grid is not None:
        mirrored = isinstance(spec, Mirrored)
        inner = spec.inner if mirrored else spec

        def oracle(dialed):
            # the member of the family that realizes the dialed bias
            member = replace(inner, tilde_eps=dialed.tilde_eps)
            member_spec = Mirrored(member) if mirrored else member
            member_analysis = analyze(member_spec, consts, orient=config.orient)
            return eigen_lowest_two(
                member_spec, consts, config.oracle_grid, analysis=member_analysis
            )

    values = [
        sweep.start + i * (sweep.stop - sweep.start) / (sweep.steps - 1)
        for i in range(sweep.steps)
    ]
    # the points differ only in the dialed bias: one batch solves them
    # all, and each point then raises its own error in the sweep's order
    points = [replace(base, tilde_eps=v) for v in values]
    outcomes = compute_splittings(points, rtol=config.tolerances.quad_rtol)
    rows, lines = [], []
    for point, outcome in zip(points, outcomes):
        row, result, _ = _point(config, point, outcome, oracle)
        rows.append(row)
        lines.append(_csv_row(row, result.roots))

    x = np.array(values)
    y = np.log(np.array([row["splitting"]["delta"] for row in rows]))
    design = np.column_stack([np.ones_like(x), x, x * x])
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    slope = rows[0]["splitting"]["I_slope"]  # dI/dE at the start point's E_bar
    w_l, w_r = base.omega_L, base.omega_R
    c1_analytic = 0.25 * K_FIRST_ORDER / (consts.hbar * w_l) * (w_r - w_l) / w_r - 0.5 * slope
    doc = _base_doc("sweep", config)
    # the sweep block as the config spells it ("from", "to")
    doc["sweep"] = {f.metadata.get("key", f.name): getattr(sweep, f.name) for f in fields(sweep)}
    doc["rows"] = rows
    # ln Delta(tilde_eps) = ln c0 + c1 tilde_eps + c2 tilde_eps^2
    doc["fit"] = {
        "c0": float(np.exp(coef[0])),
        "c1": float(coef[1]),
        "c2": float(coef[2]),
        "rms_residual": float(np.sqrt(np.mean((y - design @ coef) ** 2))),
        "c1_analytic": c1_analytic,
    }
    doc["csv"] = {"header": CSV_HEADER, "rows": lines}
    return doc, _csv_text(CSV_HEADER, lines)


def run_oracle(config: RunConfig):
    """Reference spectrum plus a grid-halving report.

    The halving block reports the raw levels of the n-point grid and of
    the (2n - 1)-point grid that the Richardson step already solved.
    """
    if config.oracle_grid is None:
        raise ConfigError('missing required key "oracle_grid"')
    spec, consts, grid = config.potential, config.constants, config.oracle_grid
    try:
        analysis = analyze(spec, consts, orient=config.orient)
    except WellStructureError:
        analysis = None
    spectrum = eigen_lowest_two(spec, consts, grid, analysis=analysis)
    n_fine = 2 * grid.n_points - 1
    (e0_c, e1_c), fine = spectrum.coarse, spectrum.fine
    if fine is None:  # no Richardson: the fine grid is not solved yet
        fine = eigen_lowest_two(
            spec, consts, replace(grid, n_points=n_fine), analysis=analysis
        ).coarse
    e0_f, e1_f = fine
    # The action only feeds the gamow flag, and a flag never fails a run:
    # with E_bar at or over the barrier top nothing is forbidden (exp(-I)
    # = 1), and under the higher well floor there is no action at all.
    i_bar = None
    if analysis is not None:
        if analysis.E_bar >= analysis.V0:
            i_bar = 0.0
        elif analysis.E_bar > max(0.0, analysis.tilde_eps):
            i_bar = gamow_integral(
                spec, consts, analysis.E_bar, analysis, rtol=config.tolerances.quad_rtol
            )
    doc = _base_doc("oracle", config)
    doc["grid"] = asdict(grid)
    doc["spectrum"] = _spectrum_doc(spectrum)
    doc["halving"] = {
        "n_coarse": grid.n_points,
        "E0_coarse": e0_c,
        "E1_coarse": e1_c,
        "n_fine": n_fine,
        "E0_fine": e0_f,
        "E1_fine": e1_f,
        "E0_change": e0_f - e0_c,
        "E1_change": e1_f - e1_c,
    }
    doc["warn_flags"] = _warn_flags(config, analysis, i_bar)
    header = ",".join(doc["spectrum"])  # E0,E1,splitting,est_error
    return doc, _csv_text(header, [_cells(doc["spectrum"].values())])


def run_compare(config: RunConfig):
    """Per-method splitting table against the reference spectrum."""
    if config.oracle_grid is None:
        raise ConfigError('missing required key "oracle_grid"')
    spec, consts = config.potential, config.constants
    analysis = analyze(spec, consts, orient=config.orient, require_wkb=True)
    result = compute_splitting(
        spec, consts, analysis=analysis, rtol=config.tolerances.quad_rtol
    )
    spectrum = eigen_lowest_two(spec, consts, config.oracle_grid, analysis=analysis)
    delta_zeroth = (
        consts.hbar
        * math.sqrt(analysis.omega_L * analysis.omega_R)
        / math.sqrt(math.e * math.pi)
        * math.exp(-result.I_bar)
    )
    methods = [
        ("zeroth_order", level_splitting(analysis.eps, delta_zeroth)),
        ("first_order", result.delta_E),
        ("transcendental", result.delta_E_transcendental),
        ("oracle", spectrum.splitting),
    ]
    table = [
        {
            "method": name,
            "delta_E": value,
            "rel_err_vs_oracle": abs(value - spectrum.splitting) / spectrum.splitting,
        }
        for name, value in methods
    ]
    lines = [_cells(entry.values()) for entry in table]
    doc = _base_doc("compare", config)
    doc["oracle"] = _spectrum_doc(spectrum)
    doc["methods"] = table
    doc["warn_flags"] = _warn_flags(config, analysis, result.I_bar)
    doc["csv"] = {"header": COMPARE_HEADER, "rows": lines}
    return doc, _csv_text(COMPARE_HEADER, lines)


# command -> (runner, default output format, help text)
_COMMANDS = {
    "analyze": (run_analyze, "json", "full single-point report for one potential"),
    "sweep": (run_sweep, "csv", "dial tilde_eps, emit per-point CSV rows and a log fit"),
    "oracle": (run_oracle, "json", "finite-difference doublet with a grid-halving report"),
    "compare": (run_compare, "csv", "splitting per method versus the reference spectrum"),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tunnelkit",
        description=(
            "Ground-doublet tunnel splittings of one-dimensional double "
            "wells: semiclassical formulas cross-checked against a "
            "finite-difference eigensolver."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, _, help_text) in _COMMANDS.items():
        s = sub.add_parser(name, help=help_text)
        s.add_argument("config", help="path to a tunnelkit/1 JSON config file")
        s.add_argument("--out", help="write output to this path instead of stdout")
        s.add_argument(
            "--format",
            choices=("csv", "json"),
            help="output format (default: json for analyze/oracle, csv for "
            "sweep/compare)",
        )
    return parser


def main(argv=None) -> int:
    """Run one command; returns the process exit code."""
    args = _build_parser().parse_args(argv)
    runner, default_format, _ = _COMMANDS[args.command]
    out_format = args.format or default_format
    try:
        config = load_config(args.config)
        doc, csv_text = runner(config)
        text = csv_text if out_format == "csv" else json.dumps(doc, indent=2) + "\n"
        if args.out:
            with open(args.out, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
        if args.command == "sweep" and out_format == "csv":
            # the fit line goes where the CSV does not
            (sys.stdout if args.out else sys.stderr).write(json.dumps(doc["fit"]) + "\n")
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except RegimeError as exc:
        print(f"regime error: {exc}", file=sys.stderr)
        return 3
    except TunnelkitError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 4
    except Exception as exc:  # stable exit-code contract for callers
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4


def run():
    """Console-script entry point."""
    sys.exit(main())


if __name__ == "__main__":
    run()
