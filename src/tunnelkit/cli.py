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
"""

import argparse
import json
import math
import os
import sys
from dataclasses import asdict, dataclass, replace

import numpy as np

from .actions import evaluate_action, gamow_integral
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
from .splitting import K_FIRST_ORDER, compute_splitting

__all__ = [
    "CSV_HEADER",
    "COMPARE_HEADER",
    "FitResult",
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


@dataclass(frozen=True)
class FitResult:
    """ln Delta(tilde_eps) = ln c0 + c1 tilde_eps + c2 tilde_eps^2."""

    c0: float
    c1: float
    c2: float
    rms_residual: float


def _fmt(x) -> str:
    # empty cell: not computed (no grid, or the root solve fell back)
    return "" if x is None or math.isnan(x) else f"{x:.17g}"


def _jf(x):
    # JSON-safe float: NaN/inf become null.
    if isinstance(x, float) and not math.isfinite(x):
        return None
    return x


def _potential_doc(spec):
    mirrored = isinstance(spec, Mirrored)
    fields = asdict(spec.inner if mirrored else spec)
    doc = {"family": spec.family}
    doc.update((k, list(v) if isinstance(v, tuple) else v) for k, v in fields.items())
    if mirrored:
        doc["mirror"] = True
    return doc


def _well_doc(analysis: WellAnalysis):
    return {
        "x_L": analysis.x_L,
        "x_R": analysis.x_R,
        "x_m": analysis.x_m,
        "omega_L": analysis.omega_L,
        "omega_R": analysis.omega_R,
        "tilde_eps": analysis.tilde_eps,
        "eps": analysis.eps,
        "E_bar": analysis.E_bar,
        "V0": analysis.V0,
        "zero_shift": analysis.zero_shift,
        "mirrored": analysis.mirrored,
    }


def _splitting_doc(result):
    return {
        "I_bar": result.I_bar,
        "I_slope": result.I_slope,
        "delta": result.delta,
        "delta_E": result.delta_E,
        "dE_plus": result.dE_plus,
        "dE_minus": result.dE_minus,
        "E_plus": result.E_plus,
        "E_minus": result.E_minus,
        "b_prime": result.b_prime,
        "u": result.u,
        "delta_E_quadratic": result.delta_E_quadratic,
        "E_trans_plus": _jf(result.E_trans_plus),
        "E_trans_minus": _jf(result.E_trans_minus),
        "delta_E_transcendental": _jf(result.delta_E_transcendental),
        "zeta_L_plus": _jf(result.zeta_L_plus),
        "zeta_R_plus": _jf(result.zeta_R_plus),
        "zeta_L_minus": _jf(result.zeta_L_minus),
        "zeta_R_minus": _jf(result.zeta_R_minus),
        "residual_plus": _jf(result.residual_plus),
        "residual_minus": _jf(result.residual_minus),
    }


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


def _csv_row(analysis, result, spectrum, flags) -> str:
    e_bar = analysis.E_bar
    cells = [
        _fmt(analysis.tilde_eps),
        _fmt(analysis.eps),
        _fmt(e_bar),
        _fmt(result.I_bar),
        _fmt(result.I_slope),
        _fmt(result.delta),
        _fmt(result.delta_E),
        _fmt(result.E_plus),
        _fmt(result.E_minus),
        _fmt(result.E_trans_plus - e_bar),
        _fmt(result.E_trans_minus - e_bar),
    ]
    if spectrum is None:
        cells += ["", "", ""]
    else:
        cells += [_fmt(spectrum.E0), _fmt(spectrum.E1), _fmt(spectrum.splitting)]
    cells.append(";".join(flags))
    return ",".join(cells)


def _base_doc(command: str, config: RunConfig):
    return {
        "schema": SCHEMA,
        "command": command,
        "potential": _potential_doc(config.potential),
        "constants": {"hbar": config.constants.hbar, "mass": config.constants.mass},
    }


def _splitting_with_fallback(spec, consts, analysis, rtol):
    """compute_splitting, degrading gracefully when the quantization
    equation has no sub-barrier root (shallow barriers: the upper doublet
    member merges with the continuum above V0).  Returns (result, flags).

    The action at E_bar is evaluated once and shared by both attempts.
    """
    action = evaluate_action(spec, consts, analysis=analysis, rtol=rtol)
    try:
        result = compute_splitting(
            spec, consts, analysis=analysis, action=action, rtol=rtol
        )
        return result, []
    except RootNotBracketed:
        result = compute_splitting(
            spec, consts, analysis=analysis, action=action, solve=False, rtol=rtol
        )
        return result, ["transcendental_unbracketed"]


def run_analyze(config: RunConfig):
    """Full single-point pipeline.  Returns (json document, csv text)."""
    spec, consts = config.potential, config.constants
    analysis = analyze(spec, consts, orient=config.orient, require_wkb=True)
    result, extra_flags = _splitting_with_fallback(
        spec, consts, analysis, config.tolerances.quad_rtol
    )
    action = result.action
    spectrum = None
    if config.oracle_grid is not None:
        spectrum = eigen_lowest_two(spec, consts, config.oracle_grid, analysis=analysis)
    flags = _warn_flags(config, analysis, result.I_bar) + extra_flags
    row = _csv_row(analysis, result, spectrum, flags)
    doc = _base_doc("analyze", config)
    doc["well"] = _well_doc(analysis)
    doc["action"] = {
        "E": action.E,
        "a_bar": action.a_bar,
        "b_bar": action.b_bar,
        "I": action.I,
        "I_slope": action.I_slope,
        "I_L": action.I_L,
        "I_R": action.I_R,
    }
    doc["splitting"] = _splitting_doc(result)
    if spectrum is not None:
        oracle_doc = _spectrum_doc(spectrum)
        oracle_doc["wkb_ratio"] = result.delta_E / spectrum.splitting
        doc["oracle"] = oracle_doc
    else:
        doc["oracle"] = None
    doc["warn_flags"] = flags
    doc["csv"] = {"header": CSV_HEADER, "row": row}
    return doc, CSV_HEADER + "\n" + row + "\n"


def _check_threads_env():
    # TUNNELKIT_THREADS is validated for compatibility and changes nothing:
    # sweep points run one after another in the calling thread.
    env = os.environ.get("TUNNELKIT_THREADS")
    if env is None:
        return
    try:
        valid = int(env) >= 1
    except ValueError:
        valid = False
    if not valid:
        raise ConfigError(f"TUNNELKIT_THREADS must be a positive integer, got {env!r}")


def _dial_bias(analysis: WellAnalysis, tilde_eps: float) -> WellAnalysis:
    """Shift the spectral bias on a fixed potential shape.

    eps and E_bar follow their defining relations; the action is then
    re-evaluated at the new E_bar on the unchanged curve.
    """
    c = analysis.consts
    eps = tilde_eps + c.hbar * (analysis.omega_R - analysis.omega_L) / 2.0
    e_bar = c.hbar * (analysis.omega_L + analysis.omega_R) / 4.0 + tilde_eps / 2.0
    return replace(analysis, tilde_eps=tilde_eps, eps=eps, E_bar=e_bar)


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
    rtol = config.tolerances.quad_rtol
    base = analyze(spec, consts, orient=config.orient, require_wkb=True)
    mirrored = isinstance(spec, Mirrored)
    inner = spec.inner if mirrored else spec
    rebuild_oracle = spec.kink and config.oracle_grid is not None
    values = [
        sweep.start + i * (sweep.stop - sweep.start) / (sweep.steps - 1)
        for i in range(sweep.steps)
    ]

    def point(tilde_eps: float):
        dialed = _dial_bias(base, tilde_eps)
        result, extra_flags = _splitting_with_fallback(spec, consts, dialed, rtol)
        spectrum = None
        if rebuild_oracle:
            member = replace(inner, tilde_eps=tilde_eps)
            member_spec = Mirrored(member) if mirrored else member
            member_analysis = analyze(member_spec, consts, orient=config.orient)
            spectrum = eigen_lowest_two(
                member_spec, consts, config.oracle_grid, analysis=member_analysis
            )
        flags = _warn_flags(config, dialed, result.I_bar) + extra_flags
        return dialed, result, spectrum, flags

    _check_threads_env()
    points = [point(v) for v in values]

    x = np.array(values)
    y = np.log(np.array([result.delta for _, result, _, _ in points]))
    design = np.column_stack([np.ones_like(x), x, x * x])
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    rms = float(np.sqrt(np.mean((y - design @ coef) ** 2)))
    fit = FitResult(
        c0=float(np.exp(coef[0])), c1=float(coef[1]), c2=float(coef[2]), rms_residual=rms
    )
    slope = points[0][1].I_slope  # dI/dE at the start point's E_bar
    c1_analytic = (
        0.25
        * K_FIRST_ORDER
        / (consts.hbar * base.omega_L)
        * (base.omega_R - base.omega_L)
        / base.omega_R
        - 0.5 * slope
    )

    rows = [
        _csv_row(dialed, result, spectrum, flags)
        for dialed, result, spectrum, flags in points
    ]
    csv_text = CSV_HEADER + "\n" + "\n".join(rows) + "\n"
    doc = _base_doc("sweep", config)
    doc["sweep"] = {
        "parameter": sweep.parameter,
        "from": sweep.start,
        "to": sweep.stop,
        "steps": sweep.steps,
    }
    doc["rows"] = [
        {
            "tilde_eps": dialed.tilde_eps,
            "eps": dialed.eps,
            "E_bar": dialed.E_bar,
            "splitting": _splitting_doc(result),
            "oracle": _spectrum_doc(spectrum) if spectrum is not None else None,
            "warn_flags": flags,
        }
        for dialed, result, spectrum, flags in points
    ]
    doc["fit"] = {
        "c0": fit.c0,
        "c1": fit.c1,
        "c2": fit.c2,
        "rms_residual": fit.rms_residual,
        "c1_analytic": c1_analytic,
    }
    doc["csv"] = {"header": CSV_HEADER, "rows": rows}
    return doc, csv_text


def run_oracle(config: RunConfig):
    """Reference spectrum plus a grid-halving report.

    The halving block reports the raw levels of the n-point grid and of
    the (2n - 1)-point grid that the Richardson step already solved.
    """
    if config.oracle_grid is None:
        raise ConfigError('missing required key "oracle_grid"')
    spec, consts = config.potential, config.constants
    grid = config.oracle_grid
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
    i_bar = None
    if analysis is not None:
        i_bar = gamow_integral(
            spec, consts, analysis.E_bar, analysis, rtol=config.tolerances.quad_rtol
        )
    flags = _warn_flags(config, analysis, i_bar)
    doc = _base_doc("oracle", config)
    doc["grid"] = {
        "x_min": grid.x_min,
        "x_max": grid.x_max,
        "n_points": grid.n_points,
        "richardson": grid.richardson,
    }
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
    doc["warn_flags"] = flags
    csv_text = (
        "E0,E1,splitting,est_error\n"
        + ",".join(
            [
                _fmt(spectrum.E0),
                _fmt(spectrum.E1),
                _fmt(spectrum.splitting),
                _fmt(spectrum.est_error),
            ]
        )
        + "\n"
    )
    return doc, csv_text


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
        ("zeroth_order", math.hypot(analysis.eps, delta_zeroth)),
        ("first_order", result.delta_E),
        ("transcendental", result.delta_E_transcendental),
        ("oracle", spectrum.splitting),
    ]
    flags = _warn_flags(config, analysis, result.I_bar)
    rows = []
    table = []
    for name, value in methods:
        rel = abs(value - spectrum.splitting) / spectrum.splitting
        rows.append(f"{name},{_fmt(value)},{_fmt(rel)}")
        table.append({"method": name, "delta_E": value, "rel_err_vs_oracle": rel})
    doc = _base_doc("compare", config)
    doc["oracle"] = _spectrum_doc(spectrum)
    doc["methods"] = table
    doc["warn_flags"] = flags
    doc["csv"] = {"header": COMPARE_HEADER, "rows": rows}
    csv_text = COMPARE_HEADER + "\n" + "\n".join(rows) + "\n"
    return doc, csv_text


_COMMANDS = {
    "analyze": (run_analyze, "json"),
    "sweep": (run_sweep, "csv"),
    "oracle": (run_oracle, "json"),
    "compare": (run_compare, "csv"),
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
    helps = {
        "analyze": "full single-point report for one potential",
        "sweep": "dial tilde_eps, emit per-point CSV rows and a log fit",
        "oracle": "finite-difference doublet with a grid-halving report",
        "compare": "splitting per method versus the reference spectrum",
    }
    for name, help_text in helps.items():
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
    runner, default_format = _COMMANDS[args.command]
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
            fit_line = json.dumps(doc["fit"]) + "\n"
            if args.out:
                sys.stdout.write(fit_line)
            else:
                sys.stderr.write(fit_line)
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
