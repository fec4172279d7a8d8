"""Experiment-config validation and round-tripping."""

import json
import math

import pytest

from eigp import ConfigError, ExperimentConfig, InvalidInputError
from eigp.aggregation import MethodSpec
from eigp.config import BoundConfig
from eigp.quality import RhoPolicy


def test_defaults_are_valid():
    config = ExperimentConfig()
    assert config.scenario == "toy"
    assert config.kernel_config().lengthscale == 0.2
    assert config.method_spec().name == "gEIGP"


def test_round_trip_equality():
    config = ExperimentConfig(
        scenario="stream",
        method="aEIGP",
        nu=0.25,
        theta=2.0,
        agents=3,
        graph=((1, 2), (2, 3)),
        capacity=50,
        bounds=BoundConfig(tau=0.2, delta=0.1, delta_n=0.1, box=((-1.0, 1.0),)),
        seed=9,
        steps=200,
    )
    assert ExperimentConfig.from_dict(config.to_dict()) == config
    # and through actual JSON text
    again = ExperimentConfig.from_dict(json.loads(json.dumps(config.to_dict())))
    assert again == config


def test_unknown_keys_rejected():
    with pytest.raises(ConfigError) as exc:
        ExperimentConfig.from_dict({"scenario": "toy", "typo_key": 1})
    assert "typo_key" in str(exc.value)
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({"bounds": {"tau": 0.1, "bogus": 2}})


def test_range_validation():
    with pytest.raises(ConfigError):
        ExperimentConfig(scenario="nope")
    with pytest.raises(ConfigError):
        ExperimentConfig(method="XYZ")
    with pytest.raises(ConfigError):
        ExperimentConfig(nu=1.5)
    with pytest.raises(ConfigError):
        ExperimentConfig(theta=-0.1)
    with pytest.raises(ConfigError):
        ExperimentConfig(agents=0)
    with pytest.raises(ConfigError):
        ExperimentConfig(kernel={"signal_variance": -1.0})
    with pytest.raises(ConfigError):
        ExperimentConfig(kernel={"nonsense": 1.0})
    with pytest.raises(ConfigError):
        ExperimentConfig(schedule="random")


def test_method_spec_carries_tradeoff():
    config = ExperimentConfig(method="aEIGP", nu=0.5, tradeoff="linear", variance_family="poe")
    spec = config.method_spec()
    assert spec.tradeoff.kind == "linear"
    assert spec.tradeoff.variance_family == "poe"


def test_from_json_reports_bad_files(tmp_path):
    path = tmp_path / "c.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError):
        ExperimentConfig.from_json(path)
    path.write_text(json.dumps({"scenario": "toy"}))
    assert ExperimentConfig.from_json(path).scenario == "toy"


@pytest.mark.parametrize(
    "overrides",
    [
        {"theta": math.nan},
        {"rho_policy": "constant", "rho_value": math.nan},
        {"rho_policy": "constant", "rho_value": math.inf},
    ],
    ids=lambda overrides: json.dumps(overrides),
)
def test_nan_theta_and_non_finite_rho_are_rejected_when_parsed(overrides):
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(overrides)


def test_method_spec_and_rho_policy_reject_nan_directly():
    with pytest.raises(InvalidInputError, match="theta"):
        MethodSpec("aEIGP", theta=math.nan)
    for value in (math.nan, math.inf, -math.inf):
        with pytest.raises(InvalidInputError, match="finite"):
            RhoPolicy("constant", value)
