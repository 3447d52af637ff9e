"""Seeded input generators for the three workloads.

Only the standard library is used here, so run.py can generate and
write every config before any process imports tunnelkit.  Each generator
returns JSON-ready ``tunnelkit/1`` config documents.

Wells are placed in the deep, small-bias regime by closed-form criteria
alone, never by running tunnelkit and filtering on its output:

* depth ``D = V0 / (hbar omega_L)`` is the barrier height in level
  spacings;
* the bias between the unperturbed ground levels satisfies
  ``|eps| / (hbar omega_L) <= 0.2`` (eps = tilde_eps + (omega_R - omega_L)/2).

Natural units (hbar = mass = 1) throughout.  Family and grid-size mixes
follow a fixed cycle over the op index so that every seed has the same
proportions; the seed draws the parameters.
"""

import math
import random

SCHEMA = "tunnelkit/1"
EPS_MAX = 0.2  # |eps| / (hbar omega_L) ceiling shared by every family

# Sextic (x^2 - 1)^2 (Q2 x^2 + q1 x + Q0): minima at x = -1 and +1 with
# equal floors; q1 sets omega_R / omega_L (as in the package's own tests).
_Q0, _Q2 = 0.8, 0.2


def _doc(potential, **blocks):
    doc = {"schema": SCHEMA, "potential": potential}
    doc.update(blocks)
    return doc


def quartic(rng, depth, bias_frac):
    """BiasedQuartic with barrier ``depth`` spacings and tilde_eps/hbar w ~ bias_frac.

    For small beta, V0 ~ alpha a^4 and omega ~ 2 a sqrt(2 alpha), so
    D = sqrt(alpha) a^3 / (2 sqrt 2); tilde_eps ~ 2 a beta.
    """
    alpha = rng.uniform(0.5, 2.0)
    a = (depth * 2.0 * math.sqrt(2.0) / math.sqrt(alpha)) ** (1.0 / 3.0)
    omega = 2.0 * a * math.sqrt(2.0 * alpha)
    beta = bias_frac * omega / (2.0 * a)
    pot = {"family": "biased_quartic", "alpha": alpha, "a": a, "beta": beta}
    return pot, {"omega": omega, "alpha": alpha, "a": a}


def double_oscillator(rng, depth):
    """DoubleOscillator; depth and eps are exact closed forms for this family."""
    w_l = rng.uniform(0.7, 1.4)
    ratio = rng.uniform(1.0, 1.3)
    w_r = w_l * ratio
    # eps / hbar w_L = tilde_eps / w_L + (ratio - 1) / 2 stays <= 0.9 EPS_MAX
    te = w_l * rng.uniform(0.0, 0.9 * EPS_MAX - 0.5 * (ratio - 1.0))
    pot = {
        "family": "double_oscillator",
        "omega_L": w_l,
        "omega_R": w_r,
        "tilde_eps": te,
        "V0": depth * w_l,
    }
    return pot


def _sextic_barrier(q1):
    # max of (x^2 - 1)^2 (Q2 x^2 + q1 x + Q0) on (-1, 1): dense scan + ternary polish
    def f(x):
        return (x * x - 1.0) ** 2 * (_Q2 * x * x + q1 * x + _Q0)

    xs = [-1.0 + 2.0 * i / 400 for i in range(401)]
    best = max(xs, key=f)
    lo, hi = best - 0.005, best + 0.005
    for _ in range(100):
        m1, m2 = lo + (hi - lo) / 3.0, hi - (hi - lo) / 3.0
        if f(m1) < f(m2):
            lo = m1
        else:
            hi = m2
    return f(0.5 * (lo + hi))


def sextic(rng, depth, ratio=None, tilt=None):
    """Asymmetric sextic: omega_R / omega_L in [1, 1.3], small positive tilt.

    V''(-1) = 8 s (Q0 + Q2 - q1), so omega_L = sqrt(8 s (1 - q1)) and
    D = sqrt(s) V_max / sqrt(8 (1 - q1)) fixes the overall scale s.  The
    tilt t (x + 1) raises the right floor by about 2 t.  ``ratio`` and
    ``tilt`` (a share of the tilt range in [0, 1]) are drawn when not given.
    """
    if ratio is None:
        ratio = rng.uniform(1.0, 1.3)
    if tilt is None:
        tilt = rng.random()
    q1 = (ratio * ratio - 1.0) / (ratio * ratio + 1.0) * (_Q0 + _Q2)
    vmax = _sextic_barrier(q1)
    s = (depth * math.sqrt(8.0 * (1.0 - q1)) / vmax) ** 2
    omega_l = math.sqrt(8.0 * s * (1.0 - q1))
    te = omega_l * tilt * (0.9 * EPS_MAX - 0.5 * (ratio - 1.0))
    t = 0.5 * te
    base = (_Q0, q1, _Q2 - 2.0 * _Q0, -2.0 * q1, _Q0 - 2.0 * _Q2, q1, _Q2)
    coeffs = [s * c for c in base]
    coeffs[0] += t
    coeffs[1] += t
    return {"family": "polynomial", "coeffs": coeffs}, omega_l


# --- workloads -------------------------------------------------------------

WELL_DEPTH = (4.0, 8.0)
SWEEP_DEPTH = (6.0, 12.0)
ORACLE_DEPTH = (3.5, 6.0)
ORACLE_POINTS = (8001, 8001, 8001, 32001)  # per pair of wells, in turn
SWEEP_STEPS = 41


def wells(seed, n):
    """``n`` analyze + compute_splitting inputs; every fourth is mirrored."""
    rng = random.Random(f"wells:{seed}")
    docs = []
    for i in range(n):
        depth = rng.uniform(*WELL_DEPTH)
        kind = i % 3
        if kind == 0:
            pot, _ = quartic(rng, depth, rng.uniform(0.0, 0.75 * EPS_MAX))
        elif kind == 1:
            pot = double_oscillator(rng, depth)
        else:
            pot, _ = sextic(rng, depth)
        if i % 4 == 3:
            pot["mirror"] = True
        docs.append(_doc(pot))
    return docs


def _sweep_block(omega_l, span):
    """41 steps from tilde_eps = 0 up to 0.05 - 0.15 hbar omega_L (``span`` in [0, 1])."""
    return {
        "parameter": "tilde_eps",
        "from": 0.0,
        "to": (0.05 + 0.1 * span) * omega_l,
        "steps": SWEEP_STEPS,
    }


def bias_sweeps(seed, n):
    """``n`` sweeps of 41 points from tilde_eps = 0, no oracle grid.

    Shapes alternate between a biased quartic and an asymmetric sextic,
    ``SWEEP_DEPTH`` spacings deep, from the same small-bias regime as
    ``wells``, each with its own natural bias (omega_R / omega_L up to 1.3
    for the sextic).  The sweep starts below that bias, where dialing meets
    the ``_dial_bias`` defect for part of the shapes; those ops fail and
    count (see README.md).

    The bias, frequency ratio, tilt and sweep span decide which sweeps meet
    the defect, and the depth sets the cost of a sweep.  They sit on a
    fixed design over their full ranges: shape j of the m of a family
    takes the centre of stratum j of the bias, ratio and tilt ranges, and
    of stratum j + m/2 (span) and j + 2 (depth, drawn within it), modulo m.
    The seed draws the depth within its stratum, the scale and the order
    of the shapes, so every round holds the same mix of shapes and of
    failing shapes, and the work of a round is alike from seed to seed.
    """
    rng = random.Random(f"bias_sweep:{seed}")
    m = (n + 1) // 2
    docs = []
    for j in rng.sample(range(m), m):
        for family in (0, 1):
            if len(docs) == n:
                break
            u = ((j + 2) % m + rng.random()) / m
            depth = SWEEP_DEPTH[0] + u * (SWEEP_DEPTH[1] - SWEEP_DEPTH[0])
            share = (j + 0.5) / m
            span = ((j + m // 2) % m + 0.5) / m
            if family == 0:
                pot, geo = quartic(rng, depth, share * 0.75 * EPS_MAX)
                omega_l = geo["omega"]
            else:
                pot, omega_l = sextic(rng, depth, ratio=1.0 + 0.3 * share, tilt=share)
            docs.append(_doc(pot, sweep=_sweep_block(omega_l, span)))
    return docs


def _quartic_walls(geo, e_hi):
    # outer turning points of alpha (x^2 - a^2)^2 = e_hi, padded by 5 decay lengths
    x_out = math.sqrt(geo["a"] ** 2 + math.sqrt(e_hi / geo["alpha"]))
    pad = 5.0 / math.sqrt(geo["omega"])
    return -(x_out + pad), x_out + pad


def _oscillator_walls(pot, e_hi):
    w_l, w_r = pot["omega_L"], pot["omega_R"]
    x_l = -math.sqrt(2.0 * pot["V0"]) / w_l
    x_r = math.sqrt(2.0 * (pot["V0"] - pot["tilde_eps"])) / w_r
    lo = x_l - math.sqrt(2.0 * e_hi) / w_l - 5.0 / math.sqrt(w_l)
    hi = x_r + math.sqrt(2.0 * (e_hi - pot["tilde_eps"])) / w_r + 5.0 / math.sqrt(w_r)
    return lo, hi


def oracle_wells(seed, n):
    """``n`` run_oracle inputs: quartic / double oscillator, Richardson on.

    Walls follow the package's default-grid rule in closed form: the
    turning points at E_bar + 10 hbar omega, pushed out five harmonic
    decay lengths (with 20 percent extra reach for the quartic).
    """
    rng = random.Random(f"oracle:{seed}")
    docs = []
    for i in range(n):
        depth = rng.uniform(*ORACLE_DEPTH)
        if i % 2 == 0:
            pot, geo = quartic(rng, depth, rng.uniform(0.0, 0.75 * EPS_MAX))
            lo, hi = _quartic_walls(geo, 1.2 * 10.5 * geo["omega"])
        else:
            pot = double_oscillator(rng, depth)
            w = max(pot["omega_L"], pot["omega_R"])
            lo, hi = _oscillator_walls(pot, 0.5 * pot["omega_L"] + 10.0 * w)
        grid = {
            "x_min": lo,
            "x_max": hi,
            "n_points": ORACLE_POINTS[(i // 2) % len(ORACLE_POINTS)],
            "richardson": True,
        }
        docs.append(_doc(pot, oracle_grid=grid))
    return docs


def twin(doc, k):
    """Copy of ``doc`` whose potential is scaled by 1 + k * 1e-9.

    The same work as ``doc`` on an input that compares unequal to it, so
    repeating a measurement cannot be served by a cache keyed on the input.
    """
    factor = 1.0 + k * 1e-9
    pot = {}
    for key, value in doc["potential"].items():
        if isinstance(value, float):
            value *= factor
        elif isinstance(value, list):
            value = [v * factor for v in value]
        pot[key] = value
    out = dict(doc)
    out["potential"] = pot
    return out
