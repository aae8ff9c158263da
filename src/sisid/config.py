"""Experiment configuration: a flat key-value text format.

A config file is a sequence of ``key = value`` lines; ``#`` starts a
comment and blank lines are ignored. Keys:

    beta, gamma           true SIS rates (floats in [0, 1])
    x0                    initial infected proportion
    steps                 number of simulated transitions (>= 1)
    seed                  trajectory noise seed (int, used when noise = on)
    noise                 on | off
    noise.process_std     process noise std (default 0.001)
    noise.observation_std observation noise std (default 0.0)
    noise.bound_nu        hard bound on realized process noise (default 0.005)
    estimators            comma list drawn from pure_gd, ef_rls, ie_mmai, grls
    <kind>.alpha          forgetting factor (default 0.94); pure_gd and ie_mmai have no
                          covariance, so theirs only sets their fim_cond column's discount
    <kind>.theta0         comma pair, initial estimate (default 1.0, 1.0)
    <kind>.p0_scale       initial covariance scale (default 100.0); ef_rls, grls only
    ie_mmai.models        model count (default 3, at most 1000)
    ie_mmai.seed          sub-seed for random model initialization (default 0)
    ie_mmai.spread        std of the model draws around theta0 (default 0.25); draws must be finite
    outputs               output directory for traces
    emit                  comma list drawn from metrics, trajectory, greedy
    clamp_estimates       on | off; clamp reported estimates at zero
                          (reporting only, estimator state is untouched)

``ESTIMATOR_FIELDS`` lists the ``EstimatorSettings`` fields each kind reads;
parsing, the config echo in manifests and validation go by it, so any other
``<kind>.<field>`` key (``pure_gd.p0_scale``, ``ie_mmai.p0_scale``) is unknown,
and an ``EstimatorSettings`` field its kind does not read must keep its default.
Defaults are the ``EstimatorSettings`` and ``NoiseSpec`` field defaults.

An ``ExperimentConfig`` checks itself when built: ``ConfigError`` names the
first field a run could not use.

Values round-trip losslessly: floats are written with repr().
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .dynamics import NoiseSpec, SisParams
from .estimators import MAX_IE_MMAI_MODELS, ie_mmai_init
from .linalg import finite_pair

TRACE_KINDS = ("metrics", "trajectory", "greedy")
CONFIG_SCHEMA = "sisid-config-v1"


class ConfigError(ValueError):
    """A config file is malformed; the message names the offending field."""


@dataclass(frozen=True)
class EstimatorSettings:
    kind: str
    alpha: float = 0.94
    p0_scale: float = 100.0
    theta0: tuple[float, float] = (1.0, 1.0)
    models: int = 3
    seed: int = 0
    spread: float = 0.25


# The EstimatorSettings fields each estimator kind reads, in config key order.
ESTIMATOR_FIELDS = {
    "pure_gd": ("alpha", "theta0"),
    "ef_rls": ("alpha", "p0_scale", "theta0"),
    "ie_mmai": ("alpha", "theta0", "models", "seed", "spread"),
    "grls": ("alpha", "p0_scale", "theta0"),
}
ESTIMATOR_KINDS = tuple(ESTIMATOR_FIELDS)

# Config key -> field, of NoiseSpec (read when noise = on) and of each kind's settings.
_NOISE_KEYS = {"noise.process_std": "process_std", "noise.observation_std": "observation_std",
               "noise.bound_nu": "bound_nu", "seed": "seed"}
_ESTIMATOR_KEYS = {k: {f"{k}.{f}": f for f in fields} for k, fields in ESTIMATOR_FIELDS.items()}


@dataclass(frozen=True)
class ExperimentConfig:
    sis: SisParams
    x0: float
    steps: int
    noise: NoiseSpec | None
    estimators: tuple[EstimatorSettings, ...]
    outputs: str = "runs/out"
    emit: tuple[str, ...] = ("metrics",)
    # clamp reported estimates at zero; estimator state is never touched
    clamp_estimates: bool = False

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        """Raise ``ConfigError`` naming the first field a run could not use."""
        if _number(self.steps, "steps", integer=True) < 1:
            raise ConfigError(f"steps: must be >= 1, got {self.steps}")
        if not 0.0 <= _number(self.x0, "x0") <= 1.0:
            raise ConfigError(f"x0: must lie in [0, 1], got {self.x0}")
        if self.noise is not None and _number(self.noise.seed, "seed", integer=True) < 0:
            raise ConfigError(f"seed: must be >= 0, got {self.noise.seed}")
        if not self.estimators:
            raise ConfigError("estimators: at least one estimator is required")
        seen = set()
        for est in self.estimators:
            if est.kind not in ESTIMATOR_FIELDS:
                raise ConfigError(
                    f"estimators: unknown kind {est.kind!r}, "
                    f"expected one of {', '.join(ESTIMATOR_KINDS)}"
                )
            if est.kind in seen:
                raise ConfigError(f"estimators: duplicate kind {est.kind!r}")
            seen.add(est.kind)
            for f in fields(EstimatorSettings)[1:]:  # every field but kind
                value = getattr(est, f.name)
                if f.name not in ESTIMATOR_FIELDS[est.kind] and value != f.default:
                    raise ConfigError(f"{est.kind}.{f.name}: ignored by {est.kind}, got {value!r}")
            alpha = _number(est.alpha, f"{est.kind}.alpha")
            if not 0.0 < alpha <= 1.0:
                raise ConfigError(f"{est.kind}.alpha: must be in (0, 1], got {est.alpha}")
            if est.kind == "grls" and alpha == 1.0:
                raise ConfigError("grls.alpha: must be strictly below 1")
            # a kind that does not read p0_scale has its default, which passes
            p0_scale = _number(est.p0_scale, f"{est.kind}.p0_scale")
            if not math.isfinite(p0_scale):
                raise ConfigError(f"{est.kind}.p0_scale: must be finite, got {est.p0_scale}")
            if p0_scale <= 0:
                raise ConfigError(f"{est.kind}.p0_scale: must be positive")
            _pair(est.theta0, f"{est.kind}.theta0")
            if est.kind == "ie_mmai":
                models = _number(est.models, "ie_mmai.models", integer=True)
                if not 1 <= models <= MAX_IE_MMAI_MODELS:
                    raise ConfigError(
                        f"ie_mmai.models: must be in 1..{MAX_IE_MMAI_MODELS}, got {est.models}"
                    )
                if _number(est.seed, "ie_mmai.seed", integer=True) < 0:
                    raise ConfigError(f"ie_mmai.seed: must be >= 0, got {est.seed}")
                _number(est.spread, "ie_mmai.spread")
                try:
                    ie_mmai_init(est.theta0, est.models, est.spread, est.seed)
                except ValueError:
                    msg = f"{est.spread!r} draws a non-finite model at ie_mmai.seed = {est.seed}"
                    raise ConfigError(f"ie_mmai.spread: {msg}") from None
        for kind in self.emit:
            if kind not in TRACE_KINDS:
                raise ConfigError(
                    f"emit: unknown trace kind {kind!r}, "
                    f"expected one of {', '.join(TRACE_KINDS)}"
                )


def _number(value, key: str, integer: bool = False):
    """``value``, if the library's number rule reads it as one number, else
    ``ConfigError`` naming ``key``. With ``integer`` the number must be an
    integer (not a bool: a seed or a count of True means nothing). An int, or a
    float unless ``integer``, is returned as it is, with no numpy read."""
    if type(value) is int or type(value) is float and not integer:
        return value
    try:
        number = np.asarray(value)
    except ValueError:  # a ragged sequence
        number = np.asarray(None)
    if number.ndim or number.dtype.kind not in ("iu" if integer else "biuf"):
        raise ConfigError(
            f"{key}: must be {'an integer' if integer else 'a number'}, got {value!r}"
        )
    return number.item()


def _pair(value, key: str) -> tuple[float, float]:
    """``value`` as two finite floats, if it is a pair of numbers, else ``ConfigError``."""
    try:
        if np.shape(value) == (2,):
            return finite_pair(value, key)
    except ValueError:
        pass
    raise ConfigError(f"{key}: must be two finite numbers, got {value!r}")


def _parse_lines(text: str) -> dict[str, str]:
    mapping: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        if key in mapping:
            raise ConfigError(f"{key}: duplicate key")
        mapping[key] = value.strip()
    return mapping


# By field type (a tuple is a pair of floats): what _take expects, how it is written.
_EXPECTED = {float: "a number", int: "an integer", tuple: "numbers"}
_FORMATS = {float: repr, int: str, tuple: lambda pair: f"{pair[0]!r}, {pair[1]!r}"}


def _take(mapping: dict[str, str], key: str, type_: type, default=None):
    """Pop ``key`` and parse it as ``type_``; ``default`` when absent (None: required)."""
    if key not in mapping:
        if default is None:
            raise ConfigError(f"{key}: missing required key")
        return default
    value = mapping.pop(key)
    try:
        if type_ is not tuple:
            return type_(value)
        parts = value.split(",")
        if len(parts) == 2:
            return float(parts[0]), float(parts[1])
    except ValueError:
        raise ConfigError(f"{key}: expected {_EXPECTED[type_]}, got {value!r}") from None
    raise ConfigError(f"{key}: expected two comma-separated numbers, got {value!r}")


def _take_fields(mapping: dict[str, str], cls: type, keys: dict[str, str]) -> dict:
    """``_take`` each key -> field of ``keys``, typed and defaulted by the field's default."""
    return {f: _take(mapping, k, type(getattr(cls, f)), getattr(cls, f)) for k, f in keys.items()}


def _format_fields(obj, keys: dict[str, str]) -> dict[str, str]:
    """Each key -> field of ``keys``, written by the type of the field's default."""
    return {key: _FORMATS[type(getattr(type(obj), f))](getattr(obj, f)) for key, f in keys.items()}


def config_from_mapping(mapping: dict[str, str]) -> ExperimentConfig:
    mapping = dict(mapping)
    schema = mapping.pop("schema", CONFIG_SCHEMA)
    if schema != CONFIG_SCHEMA:
        raise ConfigError(f"schema: expected {CONFIG_SCHEMA}, got {schema!r}")

    try:
        sis = SisParams(beta=_take(mapping, "beta", float), gamma=_take(mapping, "gamma", float))
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    x0 = _take(mapping, "x0", float)
    steps = _take(mapping, "steps", int)

    noise_flag = mapping.pop("noise", "off")
    if noise_flag not in ("on", "off"):
        raise ConfigError(f"noise: expected on or off, got {noise_flag!r}")
    if noise_flag == "on":
        fields = _take_fields(mapping, NoiseSpec, _NOISE_KEYS)
        try:
            noise = NoiseSpec(**fields)
        except ValueError as exc:
            raise ConfigError(f"noise: {exc}") from None
    else:
        noise = None
        for key in _NOISE_KEYS:
            mapping.pop(key, None)

    names_value = mapping.pop("estimators", "")
    names = [n.strip() for n in names_value.split(",") if n.strip()]
    estimators = []
    for name in names:
        values = _take_fields(mapping, EstimatorSettings, _ESTIMATOR_KEYS.get(name, {}))
        estimators.append(EstimatorSettings(name, **values))

    outputs = mapping.pop("outputs", "runs/out")
    emit_value = mapping.pop("emit", "metrics")
    emit = tuple(k.strip() for k in emit_value.split(",") if k.strip())
    clamp_value = mapping.pop("clamp_estimates", "off")
    if clamp_value not in ("on", "off"):
        raise ConfigError(f"clamp_estimates: expected on or off, got {clamp_value!r}")

    config = ExperimentConfig(
        sis=sis, x0=x0, steps=steps, noise=noise,
        estimators=tuple(estimators), outputs=outputs, emit=emit,
        clamp_estimates=clamp_value == "on",
    )
    if mapping:
        raise ConfigError(f"unknown keys: {', '.join(sorted(mapping))}")
    return config


def config_to_mapping(config: ExperimentConfig) -> dict[str, str]:
    mapping = {
        "schema": CONFIG_SCHEMA, "beta": repr(config.sis.beta), "gamma": repr(config.sis.gamma),
        "x0": repr(config.x0), "steps": str(config.steps),
        "noise": "off" if config.noise is None else "on",
    }
    if config.noise is not None:
        mapping.update(_format_fields(config.noise, _NOISE_KEYS))
    mapping["estimators"] = ", ".join(est.kind for est in config.estimators)
    for est in config.estimators:
        mapping.update(_format_fields(est, _ESTIMATOR_KEYS[est.kind]))
    mapping["outputs"] = config.outputs
    mapping["emit"] = ", ".join(config.emit)
    if config.clamp_estimates:
        mapping["clamp_estimates"] = "on"
    return mapping


def parse_config_text(text: str) -> ExperimentConfig:
    return config_from_mapping(_parse_lines(text))


def format_config_text(config: ExperimentConfig) -> str:
    lines = [f"{key} = {value}" for key, value in config_to_mapping(config).items()]
    return "\n".join(lines) + "\n"


def _read_config(path: str | Path) -> str:
    """The text of a config file; ``ConfigError`` naming the path when unreadable."""
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"{path}: cannot read: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: cannot decode as {exc.encoding}: {exc.reason}") from None


def load_config(path: str | Path) -> ExperimentConfig:
    return parse_config_text(_read_config(path))


def load_config_mapping(path: str | Path) -> dict[str, str]:
    """Raw key-value view of a config file (sweeps override keys here)."""
    return _parse_lines(_read_config(path))


def bundled_config_path(name: str) -> Path:
    """Path of a config shipped with the package (fig1, fig2, fig3_noisefree, fig3_noisy)."""
    path = Path(__file__).parent / "configs" / f"{name}.cfg"
    if not path.exists():
        available = sorted(p.stem for p in path.parent.glob("*.cfg"))
        raise ConfigError(f"no bundled config {name!r}; available: {', '.join(available)}")
    return path
