"""JSON config validation: schema, families, grids, sweeps, thresholds."""
import copy
import json

import pytest
from hypothesis import example, given, settings, strategies as st

from tunnelkit import (
    BiasedQuartic,
    ConfigError,
    DoubleOscillator,
    Mirrored,
    Polynomial,
    RunConfig,
    load_config,
    parse_config,
)

# an integer JSON can carry but a float cannot hold
HUGE = 10**400

def _short_id(value):
    # "huge" in place of a 401-digit parameter id
    if isinstance(value, int) and abs(value) >= HUGE:
        return "-huge" if value < 0 else "huge"
    return None


# valid documents that between them set every key of every block
VALID_DOCS = [
    {
        "schema": "tunnelkit/1",
        "potential": {
            "family": "biased_quartic",
            "alpha": 3.0,
            "a": 1.0,
            "beta": 0.15,
            "mirror": False,
            "orient": "auto",
        },
        "constants": {"hbar": 1.0, "mass": 1.0},
        "oracle_grid": {"x_min": -4.0, "x_max": 4.0, "n_points": 8001, "richardson": True},
        "sweep": {"parameter": "tilde_eps", "from": 0.3, "to": 0.6, "steps": 11},
        "tolerances": {"quad_rtol": 1e-12},
        "validity_thresholds": {"max_eps_over_hw": 0.2, "max_gamow": 0.01},
    },
    {
        "schema": "tunnelkit/1",
        "potential": {
            "family": "double_oscillator",
            "omega_L": 1.0,
            "omega_R": 1.3,
            "tilde_eps": 0.05,
            "V0": 9.0,
            "orient": "keep",
        },
        "sweep": {"parameter": "tilde_eps", "from": 0.0, "to": 0.1, "steps": 7},
    },
    {
        "schema": "tunnelkit/1",
        "potential": {
            "family": "polynomial",
            "coeffs": [0.8, 0.0, -1.4, 0.0, 0.4, 0.0, 0.2],
            "window": [-1.8, 1.8],
            "mirror": True,
        },
        "oracle_grid": {"x_min": -3.0, "x_max": 3.0},
    },
]


def minimal(**extra):
    doc = {
        "schema": "tunnelkit/1",
        "potential": {"family": "biased_quartic", "alpha": 1.0, "a": 2.1},
    }
    doc.update(extra)
    return doc


class TestSchema:
    def test_minimal_document_parses(self):
        cfg = parse_config(minimal())
        assert cfg.potential == BiasedQuartic(1.0, 2.1, 0.0)
        assert cfg.sweep is None
        assert cfg.oracle_grid is None
        assert cfg.orient == "auto"

    def test_json_text_is_accepted(self):
        cfg = parse_config(json.dumps(minimal()))
        assert cfg.potential == BiasedQuartic(1.0, 2.1, 0.0)

    def test_missing_schema(self):
        doc = minimal()
        del doc["schema"]
        with pytest.raises(ConfigError, match='"schema"'):
            parse_config(doc)

    def test_wrong_schema_version(self):
        with pytest.raises(ConfigError, match="tunnelkit/99"):
            parse_config(minimal(schema="tunnelkit/99"))

    def test_missing_potential(self):
        with pytest.raises(ConfigError, match='"potential"'):
            parse_config({"schema": "tunnelkit/1"})

    def test_unknown_top_level_key_is_named_in_the_error(self):
        with pytest.raises(ConfigError, match='"sweeps"'):
            parse_config(minimal(sweeps={}))

    def test_invalid_json_text(self):
        with pytest.raises(ConfigError, match="not valid JSON"):
            parse_config("{this is not json")

    def test_non_finite_numbers_are_rejected(self):
        with pytest.raises(ConfigError, match="[Nn]on-finite|NaN"):
            parse_config(
                '{"schema": "tunnelkit/1", "potential": '
                '{"family": "biased_quartic", "alpha": NaN, "a": 2.0}}'
            )


class TestPotentialBlock:
    def test_quartic_defaults(self):
        cfg = parse_config(minimal())
        assert cfg.potential.beta == 0.0

    def test_double_oscillator(self):
        cfg = parse_config(
            {
                "schema": "tunnelkit/1",
                "potential": {
                    "family": "double_oscillator",
                    "omega_L": 1.0,
                    "omega_R": 1.3,
                    "tilde_eps": 0.05,
                    "V0": 9.0,
                },
            }
        )
        assert cfg.potential == DoubleOscillator(1.0, 1.3, 0.05, 9.0)

    def test_polynomial_with_window(self):
        cfg = parse_config(
            {
                "schema": "tunnelkit/1",
                "potential": {
                    "family": "polynomial",
                    "coeffs": [0.8, 0.0, -1.4, 0.0, 0.4, 0.0, 0.2],
                    "window": [-1.8, 1.8],
                },
            }
        )
        assert isinstance(cfg.potential, Polynomial)
        assert cfg.potential.window == (-1.8, 1.8)

    def test_mirror_flag_wraps_the_potential(self):
        doc = minimal()
        doc["potential"]["mirror"] = True
        cfg = parse_config(doc)
        assert isinstance(cfg.potential, Mirrored)

    def test_orient_keep(self):
        doc = minimal()
        doc["potential"]["orient"] = "keep"
        assert parse_config(doc).orient == "keep"

    def test_orient_rejects_other_words(self):
        doc = minimal()
        doc["potential"]["orient"] = "flip"
        with pytest.raises(ConfigError, match='"orient"'):
            parse_config(doc)

    def test_unknown_family(self):
        doc = minimal()
        doc["potential"]["family"] = "cubic"
        with pytest.raises(ConfigError, match="cubic"):
            parse_config(doc)

    def test_unknown_potential_key_is_named(self):
        doc = minimal()
        doc["potential"]["curvature"] = 2.0
        with pytest.raises(ConfigError, match='"curvature"'):
            parse_config(doc)

    def test_family_parameter_must_be_a_number(self):
        doc = minimal()
        doc["potential"]["alpha"] = "one"
        with pytest.raises(ConfigError, match='"alpha"'):
            parse_config(doc)

    def test_invalid_physical_parameters_fail_validation(self):
        doc = minimal()
        doc["potential"]["alpha"] = -1.0
        with pytest.raises(ConfigError):
            parse_config(doc)


class TestOptionalBlocks:
    def test_oracle_grid(self):
        cfg = parse_config(
            minimal(
                oracle_grid={
                    "x_min": -4.8,
                    "x_max": 4.8,
                    "n_points": 8001,
                    "richardson": True,
                }
            )
        )
        assert cfg.oracle_grid.x_min == -4.8
        assert cfg.oracle_grid.n_points == 8001
        assert cfg.oracle_grid.richardson is True

    def test_sweep_block(self):
        cfg = parse_config(
            minimal(
                sweep={"parameter": "tilde_eps", "from": 0.0, "to": 0.3, "steps": 11}
            )
        )
        assert cfg.sweep.parameter == "tilde_eps"
        assert cfg.sweep.start == 0.0
        assert cfg.sweep.stop == 0.3
        assert cfg.sweep.steps == 11

    def test_sweep_rejects_other_parameters(self):
        with pytest.raises(ConfigError, match="tilde_eps"):
            parse_config(
                minimal(
                    sweep={"parameter": "alpha", "from": 0.0, "to": 1.0, "steps": 3}
                )
            )

    def test_sweep_steps_must_be_an_integer(self):
        with pytest.raises(ConfigError, match='"steps"'):
            parse_config(
                minimal(
                    sweep={
                        "parameter": "tilde_eps",
                        "from": 0.0,
                        "to": 1.0,
                        "steps": 2.5,
                    }
                )
            )

    def test_constants_block(self):
        cfg = parse_config(minimal(constants={"hbar": 2.0, "mass": 0.5}))
        assert cfg.constants.hbar == 2.0
        assert cfg.constants.mass == 0.5

    def test_tolerances_block(self):
        cfg = parse_config(minimal(tolerances={"quad_rtol": 1e-10}))
        assert cfg.tolerances.quad_rtol == 1e-10
        with pytest.raises(ConfigError, match="quad_rtol"):
            parse_config(minimal(tolerances={"quad_rtol": 0.5}))

    def test_validity_thresholds_block(self):
        cfg = parse_config(
            minimal(
                validity_thresholds={"max_eps_over_hw": 0.3, "max_gamow": 0.05}
            )
        )
        assert cfg.validity_thresholds.max_eps_over_hw == 0.3
        assert cfg.validity_thresholds.max_gamow == 0.05

    def test_defaults_for_thresholds(self):
        cfg = parse_config(minimal())
        assert cfg.validity_thresholds.max_eps_over_hw == 0.2
        assert cfg.validity_thresholds.max_gamow == 1e-2
        assert cfg.tolerances.quad_rtol == 1e-12


def _with(path, value):
    """The first valid document with the value at ``path`` replaced."""
    doc = copy.deepcopy(VALID_DOCS[0])
    *parents, last = path
    node = doc
    for step in parents:
        node = node[step]
    node[last] = value
    return doc


class TestMalformedInput:
    def test_valid_documents_parse(self):
        for doc in VALID_DOCS:
            assert isinstance(parse_config(doc), RunConfig)
            assert parse_config(json.dumps(doc)) == parse_config(doc)

    def test_absent_keys_take_the_dataclass_defaults(self):
        cfg = parse_config(VALID_DOCS[2])
        assert cfg.oracle_grid.n_points == 8001
        assert cfg.oracle_grid.richardson is True
        assert cfg.constants.hbar == cfg.constants.mass == 1.0
        assert cfg.orient == "auto"

    def test_null_window_is_no_window(self):
        doc = copy.deepcopy(VALID_DOCS[2])
        doc["potential"]["window"] = None
        coeffs = doc["potential"]["coeffs"]
        assert parse_config(doc).potential == Mirrored(Polynomial(coeffs))

    @pytest.mark.parametrize(
        "path,value,match",
        [
            (("potential", "family"), [], "family"),
            (("potential", "family"), {}, "family"),
            (("potential", "family"), None, '"family"'),
            (("potential", "mirror"), "yes", '"mirror"'),
            (("potential", "orient"), ["keep"], '"orient"'),
            (("potential", "alpha"), HUGE, '"alpha"'),
            (("potential", "alpha"), -HUGE, '"alpha"'),
            (("potential", "alpha"), None, '"alpha"'),
            (("constants", "mass"), HUGE, '"mass"'),
            (("constants", "hbar"), 0.0, "hbar > 0 and mass > 0"),
            (("constants", "mass"), -1.0, "hbar > 0 and mass > 0"),
            (("oracle_grid", "n_points"), 8001.0, '"n_points"'),
            (("oracle_grid", "richardson"), 1, '"richardson"'),
            (("sweep", "from"), HUGE, '"from"'),
            (("sweep", "steps"), 0, '"steps"'),
            (("sweep", "steps"), True, '"steps"'),
            (("sweep", "parameter"), 5, '"parameter"'),
            (("sweep",), [], '"sweep"'),
            (("tolerances", "quad_rtol"), 0.5, "quad_rtol"),
            (("tolerances", "quad_rtol"), 0.0, "quad_rtol"),
            (("validity_thresholds", "max_gamow"), -1.0, "positive"),
            (("validity_thresholds", "max_eps_over_hw"), 0.0, "positive"),
        ],
        ids=_short_id,
    )
    def test_first_document_with_one_bad_value(self, path, value, match):
        with pytest.raises(ConfigError, match=match):
            parse_config(_with(path, value))

    @pytest.mark.parametrize(
        "key,value,match",
        [
            ("coeffs", [], '"coeffs"'),
            ("coeffs", "0.8 0 -1.4 0 0.4 0 0.2", '"coeffs"'),
            ("coeffs", [0.8, 0.0, -1.4, 0.0, 0.4, 0.0, HUGE], r'"coeffs\[6\]"'),
            ("coeffs", [0.8, None, -1.4, 0.0, 0.2], r'"coeffs\[1\]"'),
            ("coeffs", [0, 1, 0, 1], "positive leading coefficient of even degree"),
            ("coeffs", [0, 0, -1], "positive leading coefficient of even degree"),
            ("window", [-1.8, 0.0, 1.8], "window"),
            ("window", [-1.8], "window"),
            ("window", [-HUGE, 1.8], r'"window\[0\]"'),
            ("window", {"lo": -1.8, "hi": 1.8}, '"window"'),
            ("window", [1.8, -1.8], "hi > lo"),
        ],
        ids=_short_id,
    )
    def test_polynomial_with_one_bad_value(self, key, value, match):
        doc = copy.deepcopy(VALID_DOCS[2])
        doc["potential"][key] = value
        with pytest.raises(ConfigError, match=match):
            parse_config(doc)

    def test_integer_beyond_float_range_in_json_text(self):
        text = json.dumps(_with(("potential", "a"), HUGE))
        with pytest.raises(ConfigError, match='"a" in "potential" must be finite'):
            parse_config(text)


def _paths(node, prefix=()):
    # every key and index path below ``node``
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for step, child in items:
        yield prefix + (step,)
        if isinstance(child, (dict, list)):
            yield from _paths(child, prefix + (step,))


SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 10_000),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([HUGE, -HUGE, 2**1024]),
    st.text(max_size=8),
    st.sampled_from(["tilde_eps", "auto", "keep", "tunnelkit/1", "polynomial",
                     "double_oscillator", "biased_quartic"]),
)
JSON_VALUES = st.one_of(
    SCALARS,
    st.lists(SCALARS, max_size=4),
    st.dictionaries(st.sampled_from(["family", "alpha", "a", "from", "x"]), SCALARS,
                    max_size=3),
)


@st.composite
def mutated_documents(draw):
    """A valid document with one to three keys dropped or given other values."""
    doc = copy.deepcopy(draw(st.sampled_from(VALID_DOCS)))
    for _ in range(draw(st.integers(1, 3))):
        *parents, last = draw(st.sampled_from(list(_paths(doc))))
        node = doc
        for step in parents:
            node = node[step]
        if isinstance(node, dict) and draw(st.booleans()):
            del node[last]
        else:
            node[last] = draw(JSON_VALUES)
        if not doc:
            break
    return doc


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(mutated_documents())
def test_mutated_documents_parse_or_raise_config_error(doc):
    # ConfigError or a RunConfig, as an object and as JSON text; any
    # other exception fails the test
    for form in (doc, json.dumps(doc)):
        try:
            cfg = parse_config(form)
        except ConfigError:
            continue
        assert isinstance(cfg, RunConfig)


@st.composite
def corrupted_files(draw):
    """The bytes of a valid document, one to three times corrupted: a bit
    flipped, the tail cut off, or bytes that are not UTF-8 inserted."""
    data = bytearray(json.dumps(draw(st.sampled_from(VALID_DOCS))).encode())
    for _ in range(draw(st.integers(1, 3))):
        if not data:
            break
        i = draw(st.integers(0, len(data) - 1))
        kind = draw(st.sampled_from(["flip", "truncate", "insert"]))
        if kind == "flip":
            data[i] ^= 1 << draw(st.integers(0, 7))
        elif kind == "truncate":
            del data[i:]
        else:
            data[i:i] = bytes(draw(st.lists(st.integers(0x80, 0xFF), min_size=1, max_size=3)))
    return bytes(data)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(corrupted_files())
@example(b"\xff\xfe" + json.dumps(VALID_DOCS[0]).encode("utf-16-le"))
@example(b'{"schema": "tunnelkit/1", "potential": ' + b"[" * 100000)
@example(json.dumps(minimal()).encode().replace(b'"alpha": 1.0', b'"alpha": ' + b"7" * 5000))
@example(b"\x80abc")
def test_corrupted_files_load_or_raise_config_error(tmp_path_factory, data):
    # ConfigError or a RunConfig; any other exception fails the test
    path = tmp_path_factory.getbasetemp() / "corrupted.json"
    path.write_bytes(data)
    try:
        cfg = load_config(path)
    except ConfigError:
        return
    assert isinstance(cfg, RunConfig)


class TestLoadConfig:
    def test_round_trip_through_a_file(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps(minimal()))
        cfg = load_config(path)
        assert cfg.potential == BiasedQuartic(1.0, 2.1, 0.0)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_config(tmp_path / "absent.json")
