"""``draw(n)``: n whole configs over every family, for the classified-outcome
test of ``tests/test_cli.py`` and for ``tools/output_digest.py --generated``.

Config i is drawn from its own ``random.Random(f"generated:{i}")``, so it
is a function of i and ``normal_ranges`` alone: ``draw(20)`` is the head
of ``draw(1000)``, whatever else the process has loaded.  Each family is
a third of the draws.  Each magnitude is log-uniform on its normal range,
or in a quarter of the draws on [1e-300, 1e300]; each sign is even, and
each optional term is 0 in half of the draws.  With ``normal_ranges`` every
magnitude stays on its normal range, so every float is 0 or lies in
[1e-3, 20] in magnitude.  The module imports only ``math`` and ``random``.
"""
import math
import random


def _config(rng, normal_ranges):
    def magnitude(lo, hi):
        # the quarter's coin is tossed with normal_ranges too, so that a
        # config that took no far magnitude draws the same either way
        if rng.random() < 0.25 and not normal_ranges:
            lo, hi = 1e-300, 1e300
        return min(hi, max(lo, 10.0 ** rng.uniform(math.log10(lo), math.log10(hi))))

    def signed(lo, hi):
        return rng.choice((-1.0, 1.0)) * magnitude(lo, hi)

    def or_zero(value, lo, hi):
        return 0.0 if rng.random() < 0.5 else value(lo, hi)

    family = rng.choice(("biased_quartic", "double_oscillator", "polynomial"))
    if family == "biased_quartic":
        potential = {"family": family, "alpha": magnitude(0.1, 10.0), "a": magnitude(0.3, 3.0),
                     "beta": or_zero(signed, 1e-3, 3.0)}
    elif family == "double_oscillator":
        potential = {"family": family, "omega_L": magnitude(0.3, 3.0), "omega_R": magnitude(0.3, 3.0),
                     "tilde_eps": or_zero(magnitude, 1e-3, 1.0), "V0": magnitude(2.0, 20.0)}
    else:
        potential = {"family": family, "coeffs": [
            signed(1e-2, 10.0), or_zero(signed, 1e-3, 1.0), -magnitude(1.0, 10.0),
            or_zero(signed, 1e-3, 1.0), magnitude(0.3, 3.0),
        ]}
    return {
        "schema": "tunnelkit/1",
        "potential": potential,
        "constants": {"hbar": magnitude(0.1, 1.0), "mass": magnitude(0.3, 3.0)},
        # at most 1001 nodes, 2001 on the Richardson partner
        "oracle_grid": {"x_min": -magnitude(3.0, 10.0), "x_max": magnitude(3.0, 10.0),
                        "n_points": rng.randint(64, 1001), "richardson": rng.random() < 0.5},
        "sweep": {"parameter": "tilde_eps", "from": signed(1e-3, 1.0), "to": signed(1e-3, 1.0),
                  "steps": rng.randint(5, 11)},
    }


def draw(n, normal_ranges=False):
    """The first n generated config documents."""
    return [_config(random.Random(f"generated:{i}"), normal_ranges) for i in range(n)]
