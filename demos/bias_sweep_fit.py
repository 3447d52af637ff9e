"""Bias sweep of an asymmetric sextic well and the log-splitting fit.

The potential is S (x^2 - 1)^2 (q2 x^2 + q1 x + q0) with coefficients
chosen so the two well frequencies differ by exactly 30 percent while
both minima stay at equal depth.  Sweeping a static bias tilde_eps and
fitting ln(splitting) with a quadratic in tilde_eps recovers the analytic
first-order coefficient: the sum of the action's energy slope term and
the frequency-mismatch correction factor.
"""
import json

from tunnelkit import DEFAULT_CONSTANTS as C, K_FIRST_ORDER, Polynomial, analyze, parse_config
from tunnelkit.cli import run_sweep

Q1 = (0.69 / 2.69) * (0.8 + 0.2)
BASE = [0.8, Q1, -1.4, -2.0 * Q1, 0.4, Q1, 0.2]


def coeffs(scale):
    return [scale * c for c in BASE]


shape = analyze(Polynomial(tuple(coeffs(1.0))), C)
scale = (12.0 * C.hbar * shape.omega_L / shape.V0) ** 2
deep = analyze(Polynomial(tuple(coeffs(scale))), C)
hw = C.hbar * deep.omega_L

print("Sextic double well")
print(f"  overall scale S = {scale:.4f}")
print(f"  barrier depth V0 / (hbar omega_L) = {deep.V0 / hw:.4f}")
print(f"  frequency ratio omega_R / omega_L = {deep.omega_R / deep.omega_L:.6f}")
print()

config = parse_config(
    {
        "schema": "tunnelkit/1",
        "potential": {"family": "polynomial", "coeffs": coeffs(scale)},
        "sweep": {
            "parameter": "tilde_eps",
            "from": 0.0,
            "to": 0.1 * hw,
            "steps": 11,
        },
    }
)
doc, csv_text = run_sweep(config)

print("Per-point CSV (first three rows):")
for line in csv_text.splitlines()[:4]:
    head = ",".join(line.split(",")[:7])
    print(f"  {head},...")
print()

fit = doc["fit"]
rel = abs(fit["c1"] - fit["c1_analytic"]) / abs(fit["c1_analytic"])
print("Quadratic fit of ln(delta_E) against tilde_eps:")
print(json.dumps(fit, indent=2))
print()
print(f"  fitted c1:   {fit['c1']:+.9f}")
print(f"  analytic c1: {fit['c1_analytic']:+.9f}")
print(f"  relative difference: {rel:.2e}")
correction = 0.25 * K_FIRST_ORDER * (deep.omega_R - deep.omega_L) / (hw * deep.omega_R)
ratio = abs(correction / (fit["c1"] - fit["c1_analytic"]))
print(
    "\nThe analytic value combines -(dI/dE)/2 with the frequency-mismatch\n"
    f"correction, here {correction:+.2e}, {ratio:.0f} times the fit's miss.\n"
    "The fit is to the closed formula's own Delta, so the agreement shows\n"
    "that the sweep reproduces the formula's bias dependence, correction\n"
    "included.  It does not test the correction against the exact spectrum:\n"
    "the correction is proportional to eps, and at this bias the exact\n"
    "splitting is eps to within Delta^2 / (2 eps), far below rounding."
)
