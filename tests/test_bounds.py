"""Probabilistic bound constants and aggregation against hand evaluations."""

import math

import numpy as np
import pytest

from eigp import (
    AgentModel,
    ConfigError,
    InternalConsistencyError,
    InvalidInputError,
    KernelConfig,
    aggregated_bound,
    beta_delta,
    delta_rho,
    delta_x,
    eta_bound,
    eta_from_counts,
    lambda_factor,
    tilde_eta,
)
from eigp.bounds import BoundParams
from eigp.quality import RhoPolicy, select_indices


def test_beta_delta_one_dim_hand_case():
    # 2 ln(sqrt(1)/(2*0.5) * 1 + 1) - 2 ln 0.05 = 2 ln 2 + 2 ln 20
    expected = 2.0 * math.log(2.0) + 2.0 * math.log(20.0)
    assert beta_delta(0.5, 0.05, [0.0], [1.0]) == pytest.approx(expected, rel=1e-14)
    assert expected == pytest.approx(7.3778, abs=1e-4)


def test_beta_delta_degenerate_box():
    assert beta_delta(1.0, math.exp(-1.0), [0.3], [0.3]) == pytest.approx(2.0, rel=1e-14)


def test_beta_delta_two_dim_hand_case():
    expected = 4.0 * math.log(math.sqrt(2.0) + 1.0) + 2.0 * math.log(10.0)
    assert beta_delta(1.0, 0.1, [0.0, 0.0], [2.0, 2.0]) == pytest.approx(expected, rel=1e-14)
    assert expected == pytest.approx(8.131, abs=1e-3)


def test_beta_delta_validation():
    with pytest.raises(InvalidInputError):
        beta_delta(0.0, 0.1, [0.0], [1.0])
    with pytest.raises(InvalidInputError):
        beta_delta(1.0, 1.5, [0.0], [1.0])
    with pytest.raises(InvalidInputError):
        beta_delta(1.0, 0.1, [1.0], [0.0])


def test_lambda_noise_free_limit():
    assert lambda_factor(2, 3.0, 1.5, 0.0, 0.5) == pytest.approx(
        2.0 * math.sqrt(2 * 3.0 * 1.5), rel=1e-14
    )


def test_lambda_hand_case():
    value = lambda_factor(1, 1.0, 1.0, 1.0, math.exp(-1.0))
    assert value == pytest.approx(2.0 + math.sqrt(5.0), rel=1e-14)
    assert value == pytest.approx(4.2361, abs=1e-4)


def test_lambda_monotone_in_beta_and_kappa0():
    grid = np.linspace(0.5, 5.0, 8)
    values = [lambda_factor(2, b, 1.0, 0.3, 0.1) for b in grid]
    assert all(a < b for a, b in zip(values, values[1:]))
    values = [lambda_factor(2, 1.0, k, 0.3, 0.1) for k in grid]
    assert all(a < b for a, b in zip(values, values[1:]))


def test_delta_rho_statement_formula():
    # 1 - n + n (1 - delta)^d - delta_n
    assert delta_rho(1, 1, 0.05, 0.05) == pytest.approx(0.90, rel=1e-12)
    assert delta_rho(4, 1, 0.05, 0.05) == pytest.approx(1 - 4 + 4 * 0.95 - 0.05, rel=1e-12)
    with pytest.raises(ConfigError):
        delta_rho(30, 3, 0.05, 0.05)  # pushed below zero


def test_delta_x():
    assert delta_x(1, 0.05) == pytest.approx(0.05, rel=1e-12)
    assert delta_x(3, 0.05) == pytest.approx(1 - 0.95**3, rel=1e-12)


def test_eta_no_data_limit():
    assert eta_from_counts(1, 2.0, 1.5, 0.1, 0, 0.7) == pytest.approx(
        2.0 * math.sqrt(2.0 * 1.5), rel=1e-14
    )


def test_eta_hand_case():
    # d=1, beta=1, kappa0=1, noise=1, |I|=1, rho=1 -> 2 sqrt(1 - 1/2)
    assert eta_from_counts(1, 1.0, 1.0, 1.0, 1, 1.0) == pytest.approx(math.sqrt(2.0), rel=1e-14)


def test_eta_decreases_with_included_count():
    values = [eta_from_counts(1, 1.0, 1.0, 0.5, k, 0.8) for k in range(0, 20)]
    assert all(a >= b for a, b in zip(values, values[1:]))


def test_eta_rejects_negative_radicand():
    with pytest.raises(InternalConsistencyError):
        eta_from_counts(1, 1.0, 0.5, 1e-9, 5, 2.0)  # rho > kappa0 is inconsistent


def test_eta_bound_from_model_selection():
    cfg = KernelConfig(signal_variance=1.0, lengthscale=1.0, noise_variance=1.0)
    model = AgentModel.from_data(cfg, [[0.0]], [[2.0]])
    idx = select_indices(model, [0.0], RhoPolicy("constant", 1.0))
    assert idx.included.size == 1 and idx.rho == 1.0
    assert eta_bound(model, idx, 1.0) == pytest.approx(math.sqrt(2.0), rel=1e-14)


def test_tilde_eta_sentinel_and_zero():
    assert tilde_eta(1.3, math.inf, np.array([5.0])) == 1.3
    assert math.isinf(tilde_eta(1.3, 0.0, np.array([5.0])))
    assert tilde_eta(1.0, 2.0, np.array([3.0, 4.0])) == pytest.approx(5.0 / 2.0 + 1.0, rel=1e-14)


def test_aggregated_bound_single_agent_identity():
    tilde, hat, mas = aggregated_bound(
        etas={1: 0.7},
        epsilons={1: math.inf},
        approx_means={1: np.array([2.0])},
        weights={1: {1: 1.0}},
    )
    assert tilde[1] == 0.7
    assert hat[1] == 0.7
    assert mas == pytest.approx(0.7)


def test_aggregated_bound_weighted_hand_case():
    # collaborators with tilde_eta 1 and 3 at weights 0.25/0.75 -> 2.5
    tilde, hat, mas = aggregated_bound(
        etas={1: 1.0, 2: 3.0},
        epsilons={1: math.inf, 2: math.inf},
        approx_means={1: np.zeros(1), 2: np.zeros(1)},
        weights={1: {1: 0.25, 2: 0.75}},
    )
    assert tilde == {1: 1.0, 2: 3.0}
    assert hat[1] == pytest.approx(2.5, rel=1e-14)
    assert mas == pytest.approx(2.5, rel=1e-14)


def test_aggregated_bound_rejects_bad_weights():
    with pytest.raises(InvalidInputError):
        aggregated_bound(
            etas={1: 1.0},
            epsilons={1: math.inf},
            approx_means={1: np.zeros(1)},
            weights={1: {1: 0.6}},
        )


def test_bound_params_derives_constants_once():
    cfg = KernelConfig(signal_variance=2.0, lengthscale=0.5, noise_variance=0.25)
    params = BoundParams.for_kernel(cfg, tau=0.5, delta=0.05, delta_n=0.05, lower=[-1.0], upper=[1.0])
    assert params.beta == pytest.approx(beta_delta(0.5, 0.05, [-1.0], [1.0]), rel=1e-14)
    assert params.lam == pytest.approx(
        lambda_factor(1, params.beta, 2.0, 0.5, 0.05), rel=1e-14
    )
    assert 0.0 < params.delta_rho(1) < 1.0


@pytest.mark.parametrize(
    "cfg, lower, upper",
    [
        (KernelConfig(signal_variance=2.0, lengthscale=0.5, noise_variance=0.25), -1.2, 1.2),
        (KernelConfig(noise_variance=0.3, output_dim=3), [-1], [2]),
        (KernelConfig(input_dim=2, output_dim=2), np.array([-1.0, 0.5]), np.array([1.0, 0.75])),
    ],
    ids=["scalar ends", "integer ends", "2-D box"],
)
def test_bound_params_holds_beta_and_lambda_byte_for_byte(cfg, lower, upper):
    params = BoundParams.for_kernel(cfg, tau=0.1, delta=0.05, delta_n=0.02, lower=lower, upper=upper)
    ends = [tuple(float(v) for v in np.atleast_1d(end)) for end in (lower, upper)]
    beta = beta_delta(0.1, 0.05, *ends)
    lam = lambda_factor(cfg.output_dim, beta, cfg.kappa0, math.sqrt(cfg.noise_variance), 0.02)
    # == on finite nonzero floats is equality of their bytes
    assert params == BoundParams(beta, lam, delta=0.05, delta_n=0.02, output_dim=cfg.output_dim)
