"""Experiment-config validation and round-tripping."""

import json
import math
import re

import numpy as np
import pytest

from eigp import (
    ConfigError,
    ExperimentConfig,
    InvalidInputError,
    KernelConfig,
    beta_delta,
    toy_stream,
)
from eigp.aggregation import TRADEOFF_KINDS, MethodSpec
from eigp.bounds import BoundParams
from eigp.quality import RHO_KINDS, RhoPolicy
from eigp.sim import TOY_INTERVAL


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
        bounds={"tau": 0.2, "delta": 0.1, "delta_n": 0.1, "box": ((-1.0, 1.0),)},
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
    assert (spec.tradeoff, spec.variance_family) == ("linear", "poe")


@pytest.mark.parametrize("method", ["gEIGP", "MOE", "RBCM"])
def test_a_trade_off_on_a_method_but_aeigp_is_rejected(method):
    # the round weighs a trade-off only under aEIGP, so elsewhere it was ignored
    with pytest.raises(InvalidInputError, match=f"a trade-off weighs aEIGP only, not {method}"):
        MethodSpec(method, tradeoff="linear")
    with pytest.raises(ConfigError, match="a trade-off weighs aEIGP only"):
        ExperimentConfig(method=method, tradeoff="exponential")
    # a variance family without a trade-off would be read by nothing
    with pytest.raises(ConfigError, match="a variance family weighs only with a trade-off"):
        ExperimentConfig(method=method, variance_family="poe")


def test_a_trade_off_without_a_family_weighs_against_bcm():
    assert ExperimentConfig().variance_family is None
    config = ExperimentConfig(method="aEIGP", tradeoff="linear")
    assert config.variance_family is None
    assert config.method_spec() == MethodSpec("aEIGP", tradeoff="linear", variance_family="bcm")
    with pytest.raises(InvalidInputError, match="a variance family weighs only with a trade-off"):
        MethodSpec("aEIGP", variance_family="bcm")


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
        {"theta": math.inf},
        {"rho_policy": "constant", "rho_value": math.nan},
        {"rho_policy": "constant", "rho_value": math.inf},
    ],
    ids=lambda overrides: json.dumps(overrides),
)
def test_nan_theta_and_non_finite_rho_are_rejected_when_parsed(overrides):
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(overrides)


def test_method_spec_and_rho_policy_reject_nan_directly():
    for theta in (math.nan, math.inf):
        with pytest.raises(InvalidInputError, match="theta"):
            MethodSpec("aEIGP", theta=theta)
    for value in (math.nan, math.inf, -math.inf):
        with pytest.raises(InvalidInputError, match="finite"):
            RhoPolicy("constant", value)


def test_a_partial_bounds_block_fills_the_defaults_and_round_trips():
    config = ExperimentConfig(method="aEIGP", bounds={"tau": 1, "box": [[-1, 1]]})
    assert config.bounds == {"tau": 1, "delta": 0.05, "delta_n": 0.05, "box": ((-1, 1),)}
    assert ExperimentConfig.from_dict(config.to_dict()) == config
    assert ExperimentConfig.from_dict(json.loads(json.dumps(config.to_dict()))) == config


def test_the_box_is_the_configured_one_then_the_dataset_s_then_the_toy_interval():
    tau, delta = 0.1, 0.05
    dataset = toy_stream(30, np.random.default_rng(2))
    configured = ExperimentConfig(bounds={"box": [[-3.0, 2.0]]})
    unboxed = ExperimentConfig(bounds={})
    betas = {
        "configured": configured.bound_params(dataset).beta,
        "dataset": unboxed.bound_params(dataset).beta,
        "toy": unboxed.bound_params().beta,
    }
    assert betas == {
        "configured": beta_delta(tau, delta, [-3.0], [2.0]),
        "dataset": beta_delta(tau, delta, dataset.lower, dataset.upper),
        "toy": beta_delta(tau, delta, [TOY_INTERVAL[0]], [TOY_INTERVAL[1]]),
    }
    assert len(set(betas.values())) == 3


@pytest.mark.parametrize(
    "make, field",
    [
        (lambda: KernelConfig(lengthscale=True), "lengthscale"),
        (lambda: KernelConfig(noise_variance="0.25"), "noise_variance"),
        (lambda: MethodSpec("aEIGP", nu=True), "nu"),
        (lambda: MethodSpec("aEIGP", nu="0.5"), "nu"),
        (lambda: MethodSpec("aEIGP", theta=True), "theta"),
        (lambda: RhoPolicy("constant", True), "rho_value"),
        (lambda: BoundParams.for_kernel(KernelConfig(), "0.1", 0.05, 0.05, -1.0, 1.0), "tau"),
        (lambda: BoundParams.for_kernel(KernelConfig(), 0.1, True, 0.05, -1.0, 1.0), "delta"),
        (lambda: BoundParams.for_kernel(KernelConfig(), 0.1, 0.05, False, -1.0, 1.0), "delta_n"),
        (lambda: BoundParams.for_kernel(KernelConfig(), 0.1, 0.05, 0.05, ["-1"], [1.0]), "box end"),
        (lambda: BoundParams.for_kernel(KernelConfig(), 0.1, 0.05, 0.05, [-1.0], [True]), "box end"),
    ],
    ids=[
        "lengthscale bool", "noise string", "nu bool", "nu string", "theta bool", "rho bool",
        "tau string", "delta bool", "delta_n bool", "box string", "box bool",
    ],
)
def test_bools_and_strings_are_not_numbers(make, field):
    with pytest.raises(InvalidInputError, match=f"^{field} must be a number"):
        make()


def test_numpy_numbers_are_numbers():
    cfg = KernelConfig(lengthscale=np.float64(0.2), noise_variance=np.int64(1))
    MethodSpec("aEIGP", nu=np.float32(0.5), theta=np.int64(2))
    RhoPolicy("constant", np.float64(0.05))
    BoundParams.for_kernel(cfg, np.float64(0.1), 0.05, 0.05, np.array([-1.0]), np.array([1]))


def test_the_logarithmic_trade_off_and_the_min_rho_policy_are_typed_errors():
    # logarithmic weights failed on every round that min-max scaled an error
    # weight to 0; min rho included every point, as constant 0 does; power
    # weights are aEIGP's own, so aEIGP with no trade-off gives them; median
    # rho never picked the home agent of an offline toy round
    assert TRADEOFF_KINDS == ("linear", "exponential")
    assert RHO_KINDS == ("constant", "mean")
    for kind in ("logarithmic", "power"):
        with pytest.raises(InvalidInputError):
            MethodSpec("aEIGP", tradeoff=kind)
    for kind in ("min", "median"):
        with pytest.raises(InvalidInputError):
            RhoPolicy(kind)
    for raw, kinds in (
        ({"method": "aEIGP", "tradeoff": "logarithmic"}, TRADEOFF_KINDS),
        ({"method": "aEIGP", "tradeoff": "power"}, TRADEOFF_KINDS),
        ({"rho_policy": "min"}, RHO_KINDS),
        ({"rho_policy": "median"}, RHO_KINDS),
    ):
        with pytest.raises(ConfigError, match=re.escape(f"expected one of {kinds}")):
            ExperimentConfig.from_dict(raw)


def test_a_list_graph_is_stored_as_tuples_and_round_trips():
    config = ExperimentConfig(scenario="stream", steps=20, agents=3, graph=[[1, 2], [2, 3]])
    assert config.graph == ((1, 2), (2, 3))
    assert ExperimentConfig.from_dict(json.loads(json.dumps(config.to_dict()))) == config
