"""Run configuration: a small versioned JSON document.

Top-level shape (schema "tunnelkit/1"):

    {
      "schema": "tunnelkit/1",
      "potential": {"family": <name>, <fields of the family>,
                     "mirror": false, "orient": "auto"},
      "constants": {"hbar": 1.0, "mass": 1.0},
      "oracle_grid": {"x_min": -4.0, "x_max": 4.0, "n_points": 8001,
                       "richardson": true},
      "sweep": {"parameter": "tilde_eps", "from": 0.0, "to": 0.1,
                 "steps": 11},
      "tolerances": {"quad_rtol": 1e-12},
      "validity_thresholds": {"max_eps_over_hw": 0.2, "max_gamow": 0.01}
    }

Every block except "schema" and "potential" is optional.  Unknown keys
anywhere are rejected, every number must be finite, and malformed input
raises ConfigError with the offending key named.

One reader, ``_build``, turns each block into a dataclass: the potential
block into the family class that ``potentials.FAMILIES`` names for
"family" (its fields are that class's fields), every other block into
the ``RunConfig`` field of the block's name.  A key is a field's name
or its ``metadata["key"]``, and its JSON type follows the field's
annotation.  The defaults and the range checks live in the dataclasses,
not here: an absent key keeps the field's default, and ``__post_init__``
rejects a value out of range.
"""

import json
import math
import typing
from dataclasses import MISSING, dataclass, field, fields

from .errors import ConfigError
from .oracle import GridSpec
from .potentials import FAMILIES, Mirrored, PhysConstants

__all__ = [
    "SCHEMA",
    "SweepSpec",
    "Tolerances",
    "ValidityThresholds",
    "RunConfig",
    "parse_config",
    "load_config",
]

SCHEMA = "tunnelkit/1"


@dataclass(frozen=True)
class SweepSpec:
    """Bias sweep: dial tilde_eps from start to stop in `steps` points."""

    parameter: str
    start: float = field(metadata={"key": "from"})
    stop: float = field(metadata={"key": "to"})
    steps: int

    def __post_init__(self):
        if self.parameter != "tilde_eps":
            raise ConfigError(
                f'sweep parameter must be "tilde_eps", got {self.parameter!r}'
            )
        if self.steps < 1:
            raise ConfigError('"steps" in "sweep" must be at least 1')


@dataclass(frozen=True)
class Tolerances:
    quad_rtol: float = 1e-12

    def __post_init__(self):
        if not 0.0 < self.quad_rtol <= 1e-3:
            raise ConfigError('"quad_rtol" must lie in (0, 1e-3]')


@dataclass(frozen=True)
class ValidityThresholds:
    max_eps_over_hw: float = 0.2
    max_gamow: float = 1e-2

    def __post_init__(self):
        if not (self.max_eps_over_hw > 0.0 and self.max_gamow > 0.0):
            raise ConfigError("validity thresholds must be positive")


@dataclass(frozen=True)
class RunConfig:
    potential: object
    orient: str = "auto"
    constants: PhysConstants = field(default_factory=PhysConstants)
    oracle_grid: GridSpec | None = None
    sweep: SweepSpec | None = None
    tolerances: Tolerances = field(default_factory=Tolerances)
    validity_thresholds: ValidityThresholds = field(default_factory=ValidityThresholds)

    def __post_init__(self):
        if self.orient not in ("auto", "keep"):
            raise ConfigError('"orient" in "potential" must be "auto" or "keep"')


# the optional top-level blocks, each read into the RunConfig field of its name
_BLOCKS = {
    "constants": PhysConstants,
    "oracle_grid": GridSpec,
    "sweep": SweepSpec,
    "tolerances": Tolerances,
    "validity_thresholds": ValidityThresholds,
}


def _reject_nonfinite(token):
    raise ConfigError(f"non-finite number {token!r} in config")


def _as_mapping(value, name):
    if not isinstance(value, dict):
        raise ConfigError(f'"{name}" must be an object')
    return value


def _check_keys(mapping, allowed, context):
    unknown = sorted(set(mapping) - set(allowed))
    if unknown:
        raise ConfigError(
            f"unknown key{'s' if len(unknown) > 1 else ''} in {context}: "
            + ", ".join(f'"{k}"' for k in unknown)
        )


def _number(value, key, context):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f'"{key}" in {context} must be a number')
    try:
        value = float(value)
    except OverflowError:  # an integer beyond the float range
        value = math.inf
    if not math.isfinite(value):
        raise ConfigError(f'"{key}" in {context} must be finite')
    return value


def _read(value, kind, key, context):
    """The JSON ``value`` of ``key`` as a field annotated ``kind``."""
    if kind is float:
        return _number(value, key, context)
    if kind is int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(f'"{key}" in {context} must be an integer')
    elif kind is bool:
        if not isinstance(value, bool):
            raise ConfigError(f'"{key}" in {context} must be true or false')
    elif kind is str:
        if not isinstance(value, str):
            raise ConfigError(f'"{key}" in {context} must be a string')
    else:  # tuple, an array of numbers; tuple | None also takes null
        if value is None and type(None) in typing.get_args(kind):
            return None
        if not isinstance(value, list) or not value:
            raise ConfigError(f'"{key}" in {context} must be a non-empty array')
        value = tuple(_number(v, f"{key}[{i}]", context) for i, v in enumerate(value))
    return value


def _build(cls, block, context):
    """An instance of the dataclass ``cls`` from its JSON object ``block``.

    ``context`` names the block in errors.  Keys of the block that no
    field reads are rejected by name; a field whose key is absent keeps
    its default, and a field without a default makes the key required.
    """
    block = _as_mapping(block, context)
    context = f'"{context}"'
    by_key = {f.metadata.get("key", f.name): f for f in fields(cls)}
    _check_keys(block, by_key, context)
    kwargs = {}
    for key, f in by_key.items():
        if key in block:
            kwargs[f.name] = _read(block[key], f.type, key, context)
        elif f.default is MISSING and f.default_factory is MISSING:
            raise ConfigError(f'missing required key "{key}" in {context}')
    return cls(**kwargs)


def _parse_potential(block):
    """The potential spec, and the RunConfig keywords the block sets."""
    params = dict(_as_mapping(block, "potential"))
    family = params.pop("family", None)
    if family is None:
        raise ConfigError('missing required key "family" in "potential"')
    if not (isinstance(family, str) and family in FAMILIES):
        raise ConfigError(
            f"unknown potential family {family!r}; expected one of "
            + ", ".join(f'"{name}"' for name in FAMILIES)
        )
    mirror = _read(params.pop("mirror", False), bool, "mirror", '"potential"')
    extra = {"orient": params.pop("orient")} if "orient" in params else {}
    spec = _build(FAMILIES[family], params, "potential")
    return (Mirrored(spec) if mirror else spec), extra


def parse_config(document) -> RunConfig:
    """Validate a parsed JSON object (or JSON text) into a RunConfig."""
    if isinstance(document, (str, bytes)):
        try:
            document = json.loads(document, parse_constant=_reject_nonfinite)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
    document = _as_mapping(document, "config")
    _check_keys(document, ("schema", "potential", *_BLOCKS), "config")
    schema = document.get("schema")
    if schema is None:
        raise ConfigError('missing required key "schema" (expected "tunnelkit/1")')
    if schema != SCHEMA:
        raise ConfigError(f'unsupported schema {schema!r}; expected "{SCHEMA}"')
    if "potential" not in document:
        raise ConfigError('missing required key "potential"')
    potential, extra = _parse_potential(document["potential"])
    for name, cls in _BLOCKS.items():
        if name in document:
            extra[name] = _build(cls, document[name], name)
    return RunConfig(potential=potential, **extra)


def load_config(path) -> RunConfig:
    """Read and validate a config file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    return parse_config(text)
