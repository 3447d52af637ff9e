"""``GENERATED_CONFIGS``: whole configs drawn over every family, for the
classified-outcome test of ``tests/test_cli.py`` and for
``tools/output_digest.py --generated``.

It imports only ``math`` and hypothesis, never ``tunnelkit``.  Hypothesis
mixes the literals of the loaded non-test modules into its draws, so the
tool draws from this module before it loads a tree, and its draw does not
move with the literals of ``src``.
"""
import math

from hypothesis import strategies as st


def _log_uniform(lo, hi):
    return st.floats(math.log10(lo), math.log10(hi)).map(lambda e: 10.0**e)


def _magnitude(lo, hi):
    # log-uniform on [lo, hi], or in a quarter of the draws on [1e-300, 1e300]
    return st.sampled_from([(lo, hi)] * 3 + [(1e-300, 1e300)]).flatmap(lambda r: _log_uniform(*r))


def _signed(lo, hi):
    return st.builds(lambda sign, size: sign * size, st.sampled_from([-1.0, 1.0]), _magnitude(lo, hi))


def _or_zero(strategy):
    return st.one_of(st.just(0.0), strategy)


GENERATED_POTENTIALS = st.one_of(
    st.fixed_dictionaries({
        "family": st.just("biased_quartic"),
        "alpha": _magnitude(0.1, 10.0),
        "a": _magnitude(0.3, 3.0),
        "beta": _or_zero(_signed(1e-3, 3.0)),
    }),
    st.fixed_dictionaries({
        "family": st.just("double_oscillator"),
        "omega_L": _magnitude(0.3, 3.0),
        "omega_R": _magnitude(0.3, 3.0),
        "tilde_eps": _or_zero(_magnitude(1e-3, 1.0)),
        "V0": _magnitude(2.0, 20.0),
    }),
    st.builds(
        lambda c0, c1, c2, c3, c4: {"family": "polynomial", "coeffs": [c0, c1, -c2, c3, c4]},
        _signed(1e-2, 10.0),
        _or_zero(_signed(1e-3, 1.0)),
        _magnitude(1.0, 10.0),
        _or_zero(_signed(1e-3, 1.0)),
        _magnitude(0.3, 3.0),
    ),
)

GENERATED_CONFIGS = st.fixed_dictionaries({
    "schema": st.just("tunnelkit/1"),
    "potential": GENERATED_POTENTIALS,
    "constants": st.fixed_dictionaries({"hbar": _magnitude(0.1, 1.0), "mass": _magnitude(0.3, 3.0)}),
    # at most 1001 nodes, 2001 on the Richardson partner
    "oracle_grid": st.builds(
        lambda lo, hi, n, richardson: {
            "x_min": -lo, "x_max": hi, "n_points": n, "richardson": richardson,
        },
        _magnitude(3.0, 10.0),
        _magnitude(3.0, 10.0),
        st.integers(64, 1001),
        st.booleans(),
    ),
    "sweep": st.builds(
        lambda start, stop, steps: {
            "parameter": "tilde_eps", "from": start, "to": stop, "steps": steps,
        },
        _signed(1e-3, 1.0),
        _signed(1e-3, 1.0),
        st.integers(5, 11),
    ),
})
