"""Experiment configuration: a flat key-value text format.

A config file is a sequence of ``key = value`` lines; ``#`` starts a
comment and blank lines are ignored. Keys:

    beta, gamma           true SIS rates (floats in [0, 1])
    x0                    initial infected proportion
    steps                 number of simulated transitions (>= 1)
    seed                  trajectory noise seed (int; noise = on only, as is each noise.*)
    noise                 on | off (on with both stds 0.0 simulates as off)
    noise.process_std     process noise std (default 0.001)
    noise.observation_std observation noise std (default 0.0)
    noise.bound_nu        hard bound on realized process noise (default 0.005)
    estimators            comma list drawn from pure_gd, ef_rls, ie_mmai, grls
    <kind>.alpha          forgetting factor (default 0.94); ef_rls, grls only (pure GD and
                          IE-MMAI have no covariance; their rows' fim_cond uses 0.94)
    <kind>.theta0         comma pair, initial estimate (default 1.0, 1.0)
    <kind>.p0_scale       initial covariance scale (default 100.0); ef_rls, grls only
    ie_mmai.seed          sub-seed for random model initialization (default 0); the
                          model count and draw spread are ``estimators.IE_MODELS`` (3)
                          and ``IE_SPREAD`` (0.25)
    outputs               output directory for traces; a value that does not read back
                          from its own line (holding ``#``, a line break or edge
                          spaces) is refused
    emit                  comma list drawn from metrics, trajectory, greedy

A key is read or refused. ``ESTIMATOR_FIELDS`` lists the ``EstimatorSettings``
fields each kind reads; parsing, the config echo in manifests and validation go
by it, so any other ``<kind>.<field>`` key (``pure_gd.p0_scale``) is unknown, as
are ``noise.*`` and ``seed`` with noise = off, and an ``EstimatorSettings`` field
its kind does not read must keep its default. Defaults are the field defaults.

An ``ExperimentConfig`` checks itself when built: ``ConfigError`` names the
first field a run could not use. It reads each setting through the reader
the library applies to it (``read_x0``, ``read_steps``, ``read_alpha``,
``read_p0_scale``, ``read_theta0``, ``read_count``), named ``"<key>:"``,
and keeps what they return, so a config holds Python floats, ints and float
pairs whatever numbers it was built from, and its text reads back equal.

Values round-trip losslessly: floats are written with repr().
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from pathlib import Path

from .dynamics import NoiseSpec, SisParams, read_steps, read_x0
from .estimators import read_alpha, read_p0_scale, read_theta0
from .linalg import _shown, read_count, read_number

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
    seed: int = 0


# The EstimatorSettings fields each estimator kind reads, in config key order.
ESTIMATOR_FIELDS = {
    "pure_gd": ("theta0",),
    "ef_rls": ("alpha", "p0_scale", "theta0"),
    "ie_mmai": ("theta0", "seed"),
    "grls": ("alpha", "p0_scale", "theta0"),
}
ESTIMATOR_KINDS = tuple(ESTIMATOR_FIELDS)

# Config key -> field, of NoiseSpec (noise = on only) and of each kind's settings.
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

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        """Raise ``ConfigError`` naming the first field a run could not use, and
        keep each setting as its reader returns it."""
        try:
            read = {"steps": read_steps(self.steps, "steps:"), "x0": read_x0(self.x0, "x0:")}
            if self.noise is not None:
                read["noise"] = replace(self.noise, seed=read_count(self.noise.seed, "seed:", 0))
            if not self.estimators:
                raise ConfigError("estimators: at least one estimator is required")
            read["estimators"] = ()
            for est in self.estimators:
                if any(e.kind == est.kind for e in read["estimators"]):
                    raise ConfigError(f"estimators: duplicate kind {est.kind!r}")
                read["estimators"] += (_read_estimator(est),)
        except ValueError as exc:  # each reader names its field "<key>:"
            raise ConfigError(str(exc)) from None
        line = f"outputs = {self.outputs}"  # as the config echo writes it
        if len(line.splitlines()) > 1 or _parse_lines(line) != {"outputs": self.outputs}:
            raise ConfigError(f"outputs: {self.outputs!r} does not read back from its config line")
        for kind in self.emit:
            if kind not in TRACE_KINDS:
                expected = ", ".join(TRACE_KINDS)
                raise ConfigError(f"emit: unknown trace kind {kind!r}, expected one of {expected}")
        for name, value in read.items():
            object.__setattr__(self, name, value)


def _read_estimator(est: EstimatorSettings) -> EstimatorSettings:
    """``est`` with each field as its reader returns it, and each field its kind
    does not read, which must keep its default, as that default."""
    if est.kind not in ESTIMATOR_FIELDS:
        expected = ", ".join(ESTIMATOR_KINDS)
        raise ConfigError(f"estimators: unknown kind {est.kind!r}, expected one of {expected}")
    read = {}
    for f in fields(EstimatorSettings)[1:]:  # every field but kind
        value = getattr(est, f.name)
        if f.name not in ESTIMATOR_FIELDS[est.kind]:
            try:  # compared as one number: an array's comparison has no truth value
                kept = read_number(value, f.name) == f.default
            except ValueError:
                kept = False
            if not kept:
                got = _shown(value)
                raise ConfigError(f"{est.kind}.{f.name}: ignored by {est.kind}, got {got}")
            read[f.name] = f.default
    key = f"{est.kind}."
    # alpha and p0_scale are read as the default when the kind does not read them
    read["alpha"] = read_alpha(est.alpha, key + "alpha:", below_one=est.kind == "grls")
    read["p0_scale"] = read_p0_scale(est.p0_scale, key + "p0_scale:")
    read["theta0"] = read_theta0(est.theta0, key + "theta0:")
    if est.kind == "ie_mmai":
        read["seed"] = read_count(est.seed, "ie_mmai.seed:", 0)
    return replace(est, **read)


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
    else:  # noise.* and seed, unread, are unknown keys
        noise = None

    names_value = mapping.pop("estimators", "")
    names = [n.strip() for n in names_value.split(",") if n.strip()]
    estimators = []
    for name in names:
        values = _take_fields(mapping, EstimatorSettings, _ESTIMATOR_KEYS.get(name, {}))
        estimators.append(EstimatorSettings(name, **values))

    outputs = mapping.pop("outputs", "runs/out")
    emit_value = mapping.pop("emit", "metrics")
    emit = tuple(k.strip() for k in emit_value.split(",") if k.strip())

    config = ExperimentConfig(
        sis=sis, x0=x0, steps=steps, noise=noise,
        estimators=tuple(estimators), outputs=outputs, emit=emit,
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
