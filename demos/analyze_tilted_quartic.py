"""Full report for one tilted quartic double well.

V(x) = 3 (x^2 - 1)^2 + 0.15 (x + 1) has wells near -1 and +1, a barrier
of about 3 energy units, and a slight tilt that raises the right well.
The barrier here is shallow (the mean doublet level sits close to the
top), so this script also shows the degraded-regime behavior: the warn
flags fire and the row keeps the closed formula when the transcendental
root solve finds no root.

Run:  python3 demos/analyze_tilted_quartic.py
"""
import json

from tunnelkit import parse_config
from tunnelkit.cli import run_analyze

config = parse_config(
    {
        "schema": "tunnelkit/1",
        "potential": {
            "family": "biased_quartic",
            "alpha": 3.0,
            "a": 1.0,
            "beta": 0.15,
        },
        "oracle_grid": {
            "x_min": -4.0,
            "x_max": 4.0,
            "n_points": 8001,
            "richardson": True,
        },
    }
)

doc, csv_text = run_analyze(config)

well = doc["well"]
split = doc["splitting"]
oracle = doc["oracle"]

print("Well geometry")
print(f"  minima at x = {well['x_L']:+.4f} and x = {well['x_R']:+.4f}")
print(f"  frequencies omega_L = {well['omega_L']:.4f}, omega_R = {well['omega_R']:.4f}")
print(f"  static bias tilde_eps = {well['tilde_eps']:.6f}")
print(f"  effective bias eps    = {well['eps']:.6f}  (zero-point mismatch included)")
print(f"  barrier height V0     = {well['V0']:.4f}, mean level E_bar = {well['E_bar']:.4f}")
print()
print("Semiclassical splitting")
print(f"  barrier action I_bar  = {split['I_bar']:.6f}")
print(f"  tunneling matrix element delta = {split['delta']:.6f}")
print(f"  doublet splitting delta_E      = {split['delta_E']:.6f}")
print()
print("Reference eigensolver")
print(f"  E0 = {oracle['E0']:.6f}, E1 = {oracle['E1']:.6f}")
print(f"  exact splitting = {oracle['splitting']:.6f}")
print(f"  semiclassical / exact = {oracle['wkb_ratio']:.4f}")
print()
print(f"Warn flags: {doc['warn_flags']}")
print(
    "  'gamow' says the barrier transmission is too large for the deep-barrier\n"
    "  expansion to be trusted, and 'transcendental_unbracketed' says the root\n"
    "  solve found no root with |zeta| < 0.4 below the barrier top, so those\n"
    "  fields are empty.  The closed formula still evaluates, and the ratio\n"
    "  above quantifies how far it drifts in this regime (about 68 percent\n"
    "  high)."
)
print()
print("Machine-readable document (excerpt):")
print(json.dumps({"splitting": split, "warn_flags": doc["warn_flags"]}, indent=2))
