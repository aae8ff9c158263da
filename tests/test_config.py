import itertools
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sisid import cli
from sisid.config import (
    ESTIMATOR_KINDS,
    TRACE_KINDS,
    ConfigError,
    EstimatorSettings,
    ExperimentConfig,
    config_from_mapping,
    format_config_text,
    parse_config_text,
)
from sisid.dynamics import NoiseSpec, SisParams

BASE = {"beta": "0.5", "gamma": "0.2", "x0": "0.01", "steps": "10"}


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
            ("ie_mmai", "ie_mmai.spread", "nan"),
            ("ie_mmai", "ie_mmai.spread", "inf"),
            ("ie_mmai", "ie_mmai.seed", "-3"),
        ],
    )
    def test_estimator_field_rejected(self, kind, key, value):
        with pytest.raises(ConfigError, match=key.replace(".", r"\.")):
            config_from_mapping({**BASE, "estimators": kind, key: value})

    def test_negative_noise_seed_rejected(self):
        with pytest.raises(ConfigError, match="seed"):
            config_from_mapping({**BASE, "estimators": "grls", "noise": "on", "seed": "-1"})

    def test_validate_names_the_field(self):
        config = ExperimentConfig(
            sis=SisParams(0.5, 0.2), x0=0.01, steps=10, noise=None,
            estimators=(EstimatorSettings(kind="grls", p0_scale=float("nan")),),
        )
        with pytest.raises(ConfigError, match=r"grls\.p0_scale"):
            config.validate()

    @pytest.mark.parametrize("command", ["validate", "run"])
    @pytest.mark.parametrize(
        "line", ["grls.p0_scale = inf", "grls.theta0 = nan, 1.0", "ie_mmai.spread = nan"]
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


finite = st.floats(allow_nan=False, allow_infinity=False)
unit = st.floats(0.0, 1.0)


def _noise(process_std: float, observation_std: float, ratio: float, seed: int) -> NoiseSpec:
    # bound_nu >= 0.02 process_std keeps over 1 % of process-noise draws
    return NoiseSpec(process_std, observation_std, process_std * ratio, seed)


@st.composite
def estimator_settings(draw, kind: str) -> EstimatorSettings:
    settings = EstimatorSettings(
        kind=kind,
        alpha=draw(st.floats(0.0, 1.0, exclude_min=True, exclude_max=kind == "grls")),
        p0_scale=draw(st.floats(0.0, 1e300, exclude_min=True)),
        theta0=(draw(finite), draw(finite)),
    )
    if kind != "ie_mmai":
        return settings
    return replace(
        settings, models=draw(st.integers(1, 1000)), seed=draw(st.integers(0, 2**63)),
        spread=draw(finite),
    )


@st.composite
def configs(draw, kinds: tuple[str, ...], noisy: bool) -> ExperimentConfig:
    noise = None
    if noisy:
        ratio, seed = draw(st.floats(0.02, 100.0)), draw(st.integers(0, 2**63))
        noise = _noise(draw(unit), draw(unit), ratio, seed)
    # the format strips values and cuts them at '#'
    outputs = st.text("abz09_-./= ", max_size=12).filter(lambda s: s == s.strip())
    return ExperimentConfig(
        sis=SisParams(draw(unit), draw(unit)),
        x0=draw(unit),
        steps=draw(st.integers(1, 10**9)),
        noise=noise,
        estimators=tuple(draw(estimator_settings(k)) for k in draw(st.permutations(kinds))),
        outputs=draw(outputs),
        emit=tuple(draw(st.lists(st.sampled_from(TRACE_KINDS), unique=True))),
        clamp_estimates=draw(st.booleans()),
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
    config = data.draw(configs(kinds, noisy))
    config.validate()
    assert parse_config_text(format_config_text(config)) == config
