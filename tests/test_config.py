import itertools
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sisid import cli
from sisid.config import (
    ESTIMATOR_FIELDS,
    ESTIMATOR_KINDS,
    TRACE_KINDS,
    ConfigError,
    EstimatorSettings,
    ExperimentConfig,
    bundled_config_path,
    config_from_mapping,
    config_to_mapping,
    format_config_text,
    load_config,
    parse_config_text,
)
from sisid.dynamics import NoiseSpec, SisParams
from sisid.harness import run_experiment

BASE = {"beta": "0.5", "gamma": "0.2", "x0": "0.01", "steps": "10"}


# (kind, field) for every EstimatorSettings field a kind does not read
UNREAD = [
    (kind, f.name)
    for kind in ESTIMATOR_KINDS
    for f in fields(EstimatorSettings)[1:]
    if f.name not in ESTIMATOR_FIELDS[kind]
]
NON_DEFAULT = {"alpha": 0.5, "p0_scale": 5.0, "seed": 3}
# an array is not compared as one value: its truth is ambiguous
UNREAD_CASES = [(kind, field, NON_DEFAULT[field]) for kind, field in UNREAD] + [
    ("pure_gd", "p0_scale", np.array([100.0, 1.0]))
]
# keys no config reads any more, each with the value every run used
REMOVED_KEYS = [("ie_mmai.models", "3"), ("ie_mmai.spread", "0.25"), ("clamp_estimates", "off")]


@pytest.mark.parametrize(
    "kind, field, value", UNREAD_CASES,
    ids=[f"{k}.{f}" for k, f in UNREAD] + ["pure_gd.p0_scale-array"],
)
def test_a_field_its_kind_does_not_read_must_keep_its_default(kind, field, value):
    # a set value would be silently ignored, and lost by the config text
    estimators = (replace(EstimatorSettings(kind), **{field: value}),)
    with pytest.raises(ConfigError, match=rf"^{kind}\.{field}: ignored by {kind}, got "):
        ExperimentConfig(sis=SisParams(0.5, 0.2), x0=0.01, steps=10, noise=None,
                         estimators=estimators)


@pytest.mark.parametrize("value", [100, 100.0, np.float64(100.0)], ids=repr)
def test_an_unread_field_equal_to_its_default_is_kept(value):
    estimators = (EstimatorSettings("pure_gd", p0_scale=value),)
    config = ExperimentConfig(sis=SisParams(0.5, 0.2), x0=0.01, steps=10, noise=None,
                              estimators=estimators)
    assert type(config.estimators[0].p0_scale) is float
    assert config.estimators[0].p0_scale == 100.0


class TestOutOfRangeFields:
    """Values that the parser reads but the run could not use fail validation."""

    @pytest.mark.parametrize(
        "kind, key, value",
        [
            ("grls", "grls.p0_scale", "nan"),
            ("grls", "grls.p0_scale", "inf"),
            ("ef_rls", "ef_rls.p0_scale", "-inf"),
            ("grls", "grls.theta0", "nan, 1.0"),
            ("pure_gd", "pure_gd.theta0", "1.0, inf"),
            ("ie_mmai", "ie_mmai.theta0", "nan, nan"),
            ("ie_mmai", "ie_mmai.seed", "-3"),
            ("pure_gd", "pure_gd.alpha", "0"),  # an unknown key: pure GD reads no alpha
            ("ef_rls", "ef_rls.alpha", "1.5"),
            ("grls", "grls.alpha", "1"),
            ("grls", "grls.p0_scale", "0"),
            ("ef_rls", "ef_rls.p0_scale", "-1"),
            ("grls", "grls.theta0", "1.0, 2.0, 3.0"),
            ("grls", "x0", "-0.1"),
            ("grls", "x0", "1.5"),
            ("grls", "estimators", " , "),
        ],
    )
    def test_estimator_field_rejected(self, kind, key, value):
        with pytest.raises(ConfigError, match=key.replace(".", r"\.")):
            config_from_mapping({**BASE, "estimators": kind, key: value})

    def test_negative_noise_seed_rejected(self):
        with pytest.raises(ConfigError, match="seed"):
            config_from_mapping({**BASE, "estimators": "grls", "noise": "on", "seed": "-1"})

    @pytest.mark.parametrize(
        "keys, message",
        [
            ({"noise.process_std": "abc"}, "noise.process_std: expected a number, got 'abc'"),
            ({"seed": "x"}, "seed: expected an integer, got 'x'"),
            # NoiseSpec's own errors keep their prefix
            ({"noise.process_std": "1.0", "noise.bound_nu": "1e-9"},
             "noise: bound_nu 1e-09 keeps only 7.98e-10 of process-noise draws (std 1.0); "
             "it must keep at least 0.01"),
            ({"noise": "maybe"}, "noise: expected on or off, got 'maybe'"),
        ],
    )
    def test_noise_error_names_the_key_once(self, keys, message):
        with pytest.raises(ConfigError) as info:
            config_from_mapping({**BASE, "estimators": "grls", "noise": "on", **keys})
        assert str(info.value) == message

    def test_validate_names_the_field(self):
        with pytest.raises(ConfigError, match=r"grls\.p0_scale"):
            ExperimentConfig(
                sis=SisParams(0.5, 0.2), x0=0.01, steps=10, noise=None,
                estimators=(EstimatorSettings(kind="grls", p0_scale=float("nan")),),
            )

    @pytest.mark.parametrize("command", ["validate", "run"])
    @pytest.mark.parametrize(
        "line",
        [
            "grls.p0_scale = inf",
            "grls.theta0 = nan, 1.0",
            "steps = 20",  # a duplicate key
            "schema = sisid-config-v0",
        ],
    )
    def test_cli_exits_2(self, tmp_path, capsys, command, line):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(
            "beta = 0.5\ngamma = 0.2\nx0 = 0.01\nsteps = 10\n"
            f"estimators = grls, ie_mmai\n{line}\noutputs = {tmp_path / 'out'}\n"
        )
        assert cli.main([command, str(cfg)]) == 2
        assert line.split(" =")[0] in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


def _cli_config(tmp_path, lines: str) -> Path:
    cfg = tmp_path / "cli.cfg"
    cfg.write_text(
        f"beta = 0.5\ngamma = 0.2\nx0 = 0.01\nsteps = 10\n{lines}\n"
        f"outputs = {tmp_path / 'out'}\n"
    )
    return cfg


class TestEstimatorFieldTable:
    """ESTIMATOR_FIELDS is the one list of per-estimator keys."""

    def test_mapping_emits_exactly_the_table_keys(self):
        config = ExperimentConfig(
            sis=SisParams(0.5, 0.2), x0=0.01, steps=10, noise=NoiseSpec(seed=3),
            estimators=tuple(EstimatorSettings(kind) for kind in ESTIMATOR_KINDS),
        )
        keys = [k for k in config_to_mapping(config) if k.split(".")[0] in ESTIMATOR_KINDS]
        assert keys == [f"{kind}.{field}" for kind, fields in ESTIMATOR_FIELDS.items()
                        for field in fields]
        assert len(keys) == 9

    def test_ie_mmai_reads_its_start_and_seed_alone(self):
        # its model count, draw spread and the rest are module constants
        assert ESTIMATOR_FIELDS["ie_mmai"] == ("theta0", "seed")
        assert [f.name for f in fields(EstimatorSettings)] == [
            "kind", "alpha", "p0_scale", "theta0", "seed",
        ]

    @pytest.mark.parametrize("key", ["pure_gd.p0_scale", "ie_mmai.p0_scale"])
    def test_p0_scale_of_a_kind_without_covariance_is_unknown(self, tmp_path, capsys, key):
        kind = key.split(".")[0]
        with pytest.raises(ConfigError, match=rf"unknown keys: {kind}\.p0_scale"):
            config_from_mapping({**BASE, "estimators": kind, key: "100.0"})
        cfg = _cli_config(tmp_path, f"estimators = {kind}\n{key} = 100.0")
        assert cli.main(["validate", str(cfg)]) == 2
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["pure_gd.alpha", "ie_mmai.alpha"])
    def test_alpha_of_a_kind_without_covariance_is_unknown(self, tmp_path, capsys, key):
        kind = key.split(".")[0]
        cfg = _cli_config(tmp_path, f"estimators = {kind}\n{key} = 0.94")
        assert cli.main(["run", str(cfg)]) == 2
        assert f"unknown keys: {key}" in capsys.readouterr().err
        cfg = _cli_config(tmp_path, f"estimators = {kind}")
        assert cli.main(["sweep", str(cfg), "--param", key, "--values", "0.9"]) == 2
        assert f"unknown keys: {key}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    # IE-MMAI's model count and draw spread are constants; reported estimates
    # are never clamped
    @pytest.mark.parametrize("command", ["validate", "run", "sweep"])
    @pytest.mark.parametrize("key, value", REMOVED_KEYS)
    def test_a_key_that_no_run_reads_is_unknown(self, tmp_path, capsys, key, value, command):
        if command == "sweep":
            cfg = _cli_config(tmp_path, "estimators = pure_gd, ie_mmai")
            argv = ["sweep", str(cfg), "--param", key, "--values", value]
        else:
            cfg = _cli_config(tmp_path, f"estimators = pure_gd, ie_mmai\n{key} = {value}")
            argv = [command, str(cfg)]
        assert cli.main(argv) == 2
        assert f"unknown keys: {key}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("key, value", REMOVED_KEYS)
    def test_a_mapping_holding_a_removed_key_is_refused(self, key, value):
        with pytest.raises(ConfigError, match=rf"^unknown keys: {key}$"):
            config_from_mapping({**BASE, "estimators": "ie_mmai", key: value})

    # each of these bundled configs once set ie_mmai.models = 3
    @pytest.mark.parametrize("name", ["fig2", "fig3_noisefree", "fig3_noisy"])
    def test_a_bundled_config_with_its_old_model_count_line_exits_2(self, tmp_path, capsys,
                                                                     name):
        text = bundled_config_path(name).read_text()
        assert "ie_mmai" in text and "ie_mmai.models" not in text
        cfg = tmp_path / f"{name}.cfg"
        cfg.write_text(f"{text.rstrip()}\nie_mmai.models = 3\n")
        assert cli.main(["validate", str(cfg)]) == 2
        assert "unknown keys: ie_mmai.models" in capsys.readouterr().err

    @pytest.mark.parametrize("build", [
        lambda: EstimatorSettings("ie_mmai", models=3),
        lambda: EstimatorSettings("ie_mmai", spread=0.25),
        lambda: ExperimentConfig(sis=SisParams(0.5, 0.2), x0=0.01, steps=10, noise=None,
                                 clamp_estimates=False),
    ], ids=["EstimatorSettings.models", "EstimatorSettings.spread",
            "ExperimentConfig.clamp_estimates"])
    def test_a_removed_field_is_not_a_setting(self, build):
        with pytest.raises(TypeError, match="unexpected keyword argument"):
            build()

    @pytest.mark.parametrize("kind", ESTIMATOR_KINDS)
    def test_validate_rejects_a_one_entry_theta0(self, kind):
        with pytest.raises(ConfigError, match=rf"{kind}\.theta0"):
            ExperimentConfig(
                sis=SisParams(0.5, 0.2), x0=0.01, steps=10, noise=None,
                estimators=(EstimatorSettings(kind, theta0=(1.0,)),),
            )


finite = st.floats(allow_nan=False, allow_infinity=False)
unit = st.floats(0.0, 1.0)


def _noise(process_std: float, observation_std: float, ratio: float, seed: int) -> NoiseSpec:
    # bound_nu >= 0.02 process_std keeps over 1 % of process-noise draws
    return NoiseSpec(process_std, observation_std, process_std * ratio, seed)


@st.composite
def estimator_settings(draw, kind: str) -> EstimatorSettings:
    # only the fields the kind reads: the text format holds no others
    settings = EstimatorSettings(kind=kind, theta0=(draw(finite), draw(finite)))
    if kind in ("ef_rls", "grls"):
        return replace(
            settings, alpha=draw(st.floats(0.0, 1.0, exclude_min=True, exclude_max=kind == "grls")),
            p0_scale=draw(st.floats(0.0, 1e300, exclude_min=True)),
        )
    if kind == "ie_mmai":
        return replace(settings, seed=draw(st.integers(0, 2**63)))
    return settings


# The format strips values, cuts them at '#' and splits lines, so an outputs
# value holding any of those does not read back, and a config refuses it.
OUTPUTS = st.text("abz09_-./= #\n\x85", max_size=12)


@st.composite
def configs(draw, kinds: tuple[str, ...], noisy: bool) -> ExperimentConfig:
    noise = None
    if noisy:
        ratio, seed = draw(st.floats(0.02, 100.0)), draw(st.integers(0, 2**63))
        noise = _noise(draw(unit), draw(unit), ratio, seed)
    return ExperimentConfig(
        sis=SisParams(draw(unit), draw(unit)),
        x0=draw(unit),
        steps=draw(st.integers(1, 10**9)),
        noise=noise,
        estimators=tuple(draw(estimator_settings(k)) for k in draw(st.permutations(kinds))),
        emit=tuple(draw(st.lists(st.sampled_from(TRACE_KINDS), unique=True))),
    )


SUBSETS = [
    kinds
    for size in range(1, len(ESTIMATOR_KINDS) + 1)
    for kinds in itertools.combinations(ESTIMATOR_KINDS, size)
]


@pytest.mark.parametrize("noisy", [False, True], ids=["noise_off", "noise_on"])
@pytest.mark.parametrize("kinds", SUBSETS, ids="+".join)
@settings(max_examples=10, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_config_text_round_trip(kinds, noisy, data):
    config = data.draw(configs(kinds, noisy))  # built, so validated
    outputs = data.draw(OUTPUTS)
    if "#" in outputs or outputs != outputs.strip() or len(f"x{outputs}x".splitlines()) > 1:
        with pytest.raises(ConfigError, match="^outputs: "):
            replace(config, outputs=outputs)
    else:
        config = replace(config, outputs=outputs)
        assert parse_config_text(format_config_text(config)) == config


class TestOutputsEcho:
    """An ``outputs`` value the config echo cannot hold is refused, by name."""

    @pytest.mark.parametrize("outputs", ["runs/a#b", " runs/x ", "runs/a\nbeta = 0.5", "a\x85b"])
    def test_refused(self, outputs):
        with pytest.raises(ConfigError, match="^outputs: "):
            replace(load_config(bundled_config_path("fig1")), outputs=outputs)

    def test_a_sweep_over_such_a_value_writes_nothing(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("SISID_OUTPUT_ROOT", str(tmp_path))
        assert cli.main(["sweep", "fig1", "--param", "outputs", "--values", "runs/a#b"]) == 2
        assert "outputs: 'runs/a#b'" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())


def _four_lane_config(real, integer, p0, pair, outputs="out") -> ExperimentConfig:
    """A noisy fig3 config with every estimator, its numbers built by ``real``,
    ``integer``, ``p0`` (each p0_scale) and ``pair`` (each theta0)."""
    return ExperimentConfig(
        sis=SisParams(0.8076, 0.2692), x0=real(0.01), steps=integer(300),
        noise=NoiseSpec(1e-3, 1e-3, 5e-3, seed=integer(4)),
        estimators=(
            EstimatorSettings("pure_gd", theta0=pair((1.0, 1.0))),
            EstimatorSettings("ef_rls", alpha=real(0.98), p0_scale=p0(50.0),
                              theta0=pair((0.5, 2.0))),
            EstimatorSettings("ie_mmai", theta0=pair((1.0, 0.5)), seed=integer(2)),
            EstimatorSettings("grls", alpha=real(0.94), p0_scale=p0(100.0),
                              theta0=pair((1.0, 1.0))),
        ),
        outputs=outputs, emit=("metrics", "greedy"),
    )


class TestNumpyScalarConfig:
    """A config built from numpy scalars and arrays keeps the Python numbers
    its readers return, so its text and its run equal those of the same
    config built from Python numbers."""

    NUMPY = dict(real=np.float64, integer=np.int64, p0=np.float32, pair=np.array)
    PYTHON = dict(real=float, integer=int, p0=float, pair=tuple)

    def test_stores_python_floats_ints_and_float_pairs(self):
        config = _four_lane_config(**self.NUMPY)
        assert type(config.x0) is float and type(config.steps) is int
        assert type(config.noise.seed) is int
        for est in config.estimators:
            assert type(est.alpha) is float and type(est.p0_scale) is float
            assert type(est.theta0) is tuple and all(type(v) is float for v in est.theta0)
            assert type(est.seed) is int
        assert config == _four_lane_config(**self.PYTHON)

    def test_text_reads_back_equal(self):
        config = _four_lane_config(**self.NUMPY)
        text = format_config_text(config)
        assert "np." not in text and "array" not in text
        assert parse_config_text(text) == config

    def test_run_writes_the_bytes_of_python_numbers(self, tmp_path):
        written = []
        for label, build in (("numpy", self.NUMPY), ("python", self.PYTHON)):
            config = _four_lane_config(**build, outputs=str(tmp_path / label))
            assert run_experiment(config).status == 0
            written.append([(tmp_path / label / name).read_bytes()
                            for name in ("metrics.csv", "greedy.csv")])
        assert b"np." not in written[0][0]
        assert written[0] == written[1]
