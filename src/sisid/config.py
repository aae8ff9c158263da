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
    <name>.alpha          forgetting factor of estimator <name> (default 0.94)
    <name>.p0_scale       initial covariance scale (default 100.0)
    <name>.theta0         comma pair, initial estimate (default 1.0, 1.0)
    ie_mmai.models        model count (default 3, at most 1000)
    ie_mmai.seed          sub-seed for random model initialization (default 0)
    ie_mmai.spread        std of the random initialization around theta0
    outputs               output directory for traces
    emit                  comma list drawn from metrics, trajectory, greedy
    clamp_estimates       on | off; clamp reported estimates at zero
                          (reporting only, estimator state is untouched)

Values round-trip losslessly: floats are written with repr().
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from pathlib import Path

from .dynamics import NoiseSpec, SisParams
from .estimators import MAX_IE_MMAI_MODELS

ESTIMATOR_KINDS = ("pure_gd", "ef_rls", "ie_mmai", "grls")
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

    def validate(self) -> None:
        if self.steps < 1:
            raise ConfigError(f"steps: must be >= 1, got {self.steps}")
        if not 0.0 <= self.x0 <= 1.0:
            raise ConfigError(f"x0: must lie in [0, 1], got {self.x0}")
        if self.noise is not None and self.noise.seed < 0:
            raise ConfigError(f"seed: must be >= 0, got {self.noise.seed}")
        if not self.estimators:
            raise ConfigError("estimators: at least one estimator is required")
        seen = set()
        for est in self.estimators:
            if est.kind not in ESTIMATOR_KINDS:
                raise ConfigError(
                    f"estimators: unknown kind {est.kind!r}, "
                    f"expected one of {', '.join(ESTIMATOR_KINDS)}"
                )
            if est.kind in seen:
                raise ConfigError(f"estimators: duplicate kind {est.kind!r}")
            seen.add(est.kind)
            if not 0.0 < est.alpha <= 1.0:
                raise ConfigError(f"{est.kind}.alpha: must be in (0, 1], got {est.alpha}")
            if est.kind == "grls" and est.alpha == 1.0:
                raise ConfigError("grls.alpha: must be strictly below 1")
            if not math.isfinite(est.p0_scale):
                raise ConfigError(f"{est.kind}.p0_scale: must be finite, got {est.p0_scale}")
            if est.p0_scale <= 0:
                raise ConfigError(f"{est.kind}.p0_scale: must be positive")
            if not all(map(math.isfinite, est.theta0)):
                raise ConfigError(f"{est.kind}.theta0: must be finite, got {est.theta0}")
            if est.kind == "ie_mmai":
                if est.models < 1:
                    raise ConfigError("ie_mmai.models: must be >= 1")
                if est.models > MAX_IE_MMAI_MODELS:
                    raise ConfigError(
                        f"ie_mmai.models: must be <= {MAX_IE_MMAI_MODELS}, got {est.models}"
                    )
                if est.seed < 0:
                    raise ConfigError(f"ie_mmai.seed: must be >= 0, got {est.seed}")
                if not math.isfinite(est.spread):
                    raise ConfigError(f"ie_mmai.spread: must be finite, got {est.spread}")
        for kind in self.emit:
            if kind not in TRACE_KINDS:
                raise ConfigError(
                    f"emit: unknown trace kind {kind!r}, "
                    f"expected one of {', '.join(TRACE_KINDS)}"
                )


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


def _take_float(mapping: dict[str, str], key: str, default: float | None = None) -> float:
    if key not in mapping:
        if default is None:
            raise ConfigError(f"{key}: missing required key")
        return default
    value = mapping.pop(key)
    try:
        return float(value)
    except ValueError:
        raise ConfigError(f"{key}: expected a number, got {value!r}") from None


def _take_int(mapping: dict[str, str], key: str, default: int | None = None) -> int:
    if key not in mapping:
        if default is None:
            raise ConfigError(f"{key}: missing required key")
        return default
    value = mapping.pop(key)
    try:
        return int(value)
    except ValueError:
        raise ConfigError(f"{key}: expected an integer, got {value!r}") from None


def _take_pair(mapping: dict[str, str], key: str, default: tuple[float, float]) -> tuple[float, float]:
    if key not in mapping:
        return default
    value = mapping.pop(key)
    parts = [p.strip() for p in value.split(",")]
    if len(parts) != 2:
        raise ConfigError(f"{key}: expected two comma-separated numbers, got {value!r}")
    try:
        return float(parts[0]), float(parts[1])
    except ValueError:
        raise ConfigError(f"{key}: expected numbers, got {value!r}") from None


def config_from_mapping(mapping: dict[str, str]) -> ExperimentConfig:
    mapping = dict(mapping)
    schema = mapping.pop("schema", CONFIG_SCHEMA)
    if schema != CONFIG_SCHEMA:
        raise ConfigError(f"schema: expected {CONFIG_SCHEMA}, got {schema!r}")

    try:
        sis = SisParams(
            beta=_take_float(mapping, "beta"), gamma=_take_float(mapping, "gamma")
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    x0 = _take_float(mapping, "x0")
    steps = _take_int(mapping, "steps")

    noise_flag = mapping.pop("noise", "off")
    if noise_flag not in ("on", "off"):
        raise ConfigError(f"noise: expected on or off, got {noise_flag!r}")
    if noise_flag == "on":
        try:
            noise = NoiseSpec(
                process_std=_take_float(mapping, "noise.process_std", 1e-3),
                observation_std=_take_float(mapping, "noise.observation_std", 0.0),
                bound_nu=_take_float(mapping, "noise.bound_nu", 5e-3),
                seed=_take_int(mapping, "seed", 0),
            )
        except ValueError as exc:
            raise ConfigError(f"noise: {exc}") from None
    else:
        noise = None
        for key in ("noise.process_std", "noise.observation_std", "noise.bound_nu", "seed"):
            mapping.pop(key, None)

    names_value = mapping.pop("estimators", "")
    names = [n.strip() for n in names_value.split(",") if n.strip()]
    estimators = []
    for name in names:
        settings = EstimatorSettings(
            kind=name,
            alpha=_take_float(mapping, f"{name}.alpha", 0.94),
            p0_scale=_take_float(mapping, f"{name}.p0_scale", 100.0),
            theta0=_take_pair(mapping, f"{name}.theta0", (1.0, 1.0)),
        )
        if name == "ie_mmai":
            settings = replace(
                settings,
                models=_take_int(mapping, "ie_mmai.models", 3),
                seed=_take_int(mapping, "ie_mmai.seed", 0),
                spread=_take_float(mapping, "ie_mmai.spread", 0.25),
            )
        estimators.append(settings)

    outputs = mapping.pop("outputs", "runs/out")
    emit_value = mapping.pop("emit", "metrics")
    emit = tuple(k.strip() for k in emit_value.split(",") if k.strip())
    clamp_value = mapping.pop("clamp_estimates", "off")
    if clamp_value not in ("on", "off"):
        raise ConfigError(f"clamp_estimates: expected on or off, got {clamp_value!r}")

    if mapping:
        raise ConfigError(f"unknown keys: {', '.join(sorted(mapping))}")

    config = ExperimentConfig(
        sis=sis, x0=x0, steps=steps, noise=noise,
        estimators=tuple(estimators), outputs=outputs, emit=emit,
        clamp_estimates=clamp_value == "on",
    )
    config.validate()
    return config


def config_to_mapping(config: ExperimentConfig) -> dict[str, str]:
    mapping: dict[str, str] = {"schema": CONFIG_SCHEMA}
    mapping["beta"] = repr(config.sis.beta)
    mapping["gamma"] = repr(config.sis.gamma)
    mapping["x0"] = repr(config.x0)
    mapping["steps"] = str(config.steps)
    if config.noise is None:
        mapping["noise"] = "off"
    else:
        mapping["noise"] = "on"
        mapping["noise.process_std"] = repr(config.noise.process_std)
        mapping["noise.observation_std"] = repr(config.noise.observation_std)
        mapping["noise.bound_nu"] = repr(config.noise.bound_nu)
        mapping["seed"] = str(config.noise.seed)
    mapping["estimators"] = ", ".join(est.kind for est in config.estimators)
    for est in config.estimators:
        mapping[f"{est.kind}.alpha"] = repr(est.alpha)
        mapping[f"{est.kind}.p0_scale"] = repr(est.p0_scale)
        mapping[f"{est.kind}.theta0"] = f"{est.theta0[0]!r}, {est.theta0[1]!r}"
        if est.kind == "ie_mmai":
            mapping["ie_mmai.models"] = str(est.models)
            mapping["ie_mmai.seed"] = str(est.seed)
            mapping["ie_mmai.spread"] = repr(est.spread)
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


def load_config(path: str | Path) -> ExperimentConfig:
    return parse_config_text(Path(path).read_text())


def load_config_mapping(path: str | Path) -> dict[str, str]:
    """Raw key-value view of a config file (sweeps override keys here)."""
    return _parse_lines(Path(path).read_text())


def bundled_config_path(name: str) -> Path:
    """Path of a config shipped with the package (fig1, fig2, fig3_noisefree, fig3_noisy)."""
    path = Path(__file__).parent / "configs" / f"{name}.cfg"
    if not path.exists():
        available = sorted(p.stem for p in path.parent.glob("*.cfg"))
        raise ConfigError(f"no bundled config {name!r}; available: {', '.join(available)}")
    return path
