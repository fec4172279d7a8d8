"""Index selection and the epsilon quality score."""

import math

import numpy as np
import pytest

from eigp import AgentModel, InvalidInputError, KernelConfig, kernel_eval, kernel_vec
from eigp.quality import RhoPolicy, kernel_rows, score_and_approx_mean, select_indices
from oracles import approx_mean

UNIT = KernelConfig(signal_variance=1.0, lengthscale=1.0, noise_variance=1.0)


def make_model(X, Y, cfg=UNIT):
    return AgentModel.from_data(cfg, np.asarray(X, float)[:, None], np.asarray(Y, float)[:, None])


def excluded(idx):
    """The points below the threshold, rebuilt from the selection's kernel vector."""
    return np.flatnonzero(idx.kernel_values < idx.rho)


def test_select_indices_constant_threshold():
    model = make_model([0.0, 2.0], [1.0, 1.0])
    idx = select_indices(model, [0.0], RhoPolicy("constant", 0.5))
    # kappa(0, 2) = exp(-2) ~ 0.1353 < 0.5, so only the first point stays
    assert kernel_eval(UNIT, [0.0], [2.0]) == pytest.approx(math.exp(-2.0), rel=1e-14)
    assert idx.included.tolist() == [0]
    assert excluded(idx).tolist() == [1]


def test_select_indices_zero_constant_excludes_nothing():
    rng = np.random.default_rng(0)
    model = make_model(rng.normal(size=9), rng.normal(size=9))
    idx = select_indices(model, [0.3], RhoPolicy("constant", 0.0))
    assert excluded(idx).size == 0
    assert idx.included.tolist() == list(range(9))


def test_select_indices_mean_policy():
    model = make_model([0.0, 2.0], [1.0, 1.0])
    idx = select_indices(model, [0.0], RhoPolicy("mean"))
    expected_rho = (1.0 + math.exp(-2.0)) / 2.0  # ~0.5677
    assert idx.rho == pytest.approx(expected_rho, rel=1e-14)
    assert idx.included.tolist() == [0]


def test_select_indices_partition_invariants():
    rng = np.random.default_rng(1)
    model = make_model(rng.normal(size=15), rng.normal(size=15))
    for policy in (RhoPolicy("mean"), RhoPolicy("constant", 0.0), RhoPolicy("constant", 0.4)):
        x = rng.normal(size=1)
        idx = select_indices(model, x, policy)
        merged = np.sort(np.concatenate([idx.included, excluded(idx)]))
        assert merged.tolist() == list(range(15))
        k = idx.kernel_values
        assert np.array_equal(k, kernel_vec(model.cfg, model.X, x))
        assert np.all(k[idx.included] >= idx.rho)


@pytest.mark.parametrize("m", [1, 2, 3])
def test_kernel_rows_give_each_model_the_bytes_of_its_own_kernel_vector(m):
    # one stacked evaluation per round, shared by the score and the variance
    cfg = KernelConfig(lengthscale=0.7, noise_variance=0.1, input_dim=m)
    rng = np.random.default_rng(40 + m)
    models = [
        AgentModel.from_data(cfg, rng.normal(size=(n, m)), rng.normal(size=(n, 1)))
        for n in (1, 7, 30)
    ]
    models[1:1] = [AgentModel(cfg)]  # an empty model between filled ones
    models.insert(0, AgentModel(cfg))
    policy = RhoPolicy("mean")
    for x in rng.normal(size=(20, m)):
        rows = kernel_rows(models, x)
        assert [row.size for row in rows] == [model.n for model in models]
        for model, row in zip(models, rows):
            assert row.tobytes() == kernel_vec(cfg, model.X, x).tobytes()
            shared = score_and_approx_mean(model, x, policy, kernel_values=row)
            alone = score_and_approx_mean(model, x, policy)
            assert shared[0].epsilon == alone[0].epsilon
            assert shared[1].tobytes() == alone[1].tobytes()
            assert model.posterior_var(x, row) == model.posterior_var(x)
    empty = [AgentModel(cfg), AgentModel(cfg)]
    assert [row.size for row in kernel_rows(empty, np.zeros(m))] == [0, 0]
    with pytest.raises(InvalidInputError):
        kernel_rows(empty, np.zeros(m + 1))  # the query is checked with no rows to score


def test_kernel_rows_reject_models_of_different_kernels():
    a = make_model([0.0], [1.0])
    b = make_model([1.0], [1.0], KernelConfig(lengthscale=0.5, noise_variance=1.0))
    with pytest.raises(InvalidInputError, match="share one kernel configuration"):
        kernel_rows([a, b], [0.0])
    # an equal configuration held in another object is the same kernel
    c = make_model([2.0], [1.0], KernelConfig(lengthscale=1.0, noise_variance=1.0))
    assert len(kernel_rows([a, c], [0.0])) == 2


def test_select_indices_rejects_bad_constant():
    model = make_model([0.0], [1.0])
    with pytest.raises(InvalidInputError):
        select_indices(model, [0.0], RhoPolicy("constant", 1.5))
    with pytest.raises(InvalidInputError):
        select_indices(model, [0.0], RhoPolicy("constant", -0.1))


def test_select_indices_needs_data():
    with pytest.raises(InvalidInputError):
        select_indices(AgentModel(UNIT), [0.0], RhoPolicy("mean"))


def test_epsilon_sentinel_when_nothing_excluded():
    model = make_model([0.0, 0.1], [1.0, 1.2])
    score, _ = score_and_approx_mean(model, [0.0], RhoPolicy("constant", 0.0), lam=2.0)
    assert math.isinf(score.epsilon)


def test_epsilon_zero_for_zero_errors():
    model = make_model([0.0, 3.0], [0.0, 0.0])
    score, _ = score_and_approx_mean(model, [0.0], RhoPolicy("constant", 0.5), lam=1.0)
    assert excluded(score.idx).size == 1
    assert score.epsilon == 0.0


def test_epsilon_hand_case():
    # Second point far enough that the kernel coupling underflows to zero:
    # the error at x = 0 stays exactly -1 (the 1-point hand solve).
    model = make_model([0.0, 100.0], [2.0, 0.0])
    assert model.errors[0, 0] == pytest.approx(-1.0, rel=1e-14)
    score, _ = score_and_approx_mean(model, [0.0], RhoPolicy("constant", 0.3), lam=2.0)
    assert score.idx.included.tolist() == [0]
    assert excluded(score.idx).tolist() == [1]
    # |kappa(0,0) * e_0| / (lam * rho * 1) = 1 / 0.6
    assert score.epsilon == pytest.approx(1.0 / 0.6, rel=1e-12)
    assert score.epsilon == pytest.approx(1.6667, abs=5e-4)


def test_epsilon_requires_positive_lam():
    model = make_model([0.0, 3.0], [1.0, 1.0])
    with pytest.raises(InvalidInputError):
        score_and_approx_mean(model, [0.0], RhoPolicy("constant", 0.5), lam=0.0)


def test_epsilon_homogeneous_in_errors():
    rng = np.random.default_rng(2)
    X = rng.normal(size=12)
    Y = rng.normal(size=12)
    base = make_model(X, Y)
    scaled = make_model(X, 3.0 * Y)
    x = [0.2]
    ea = score_and_approx_mean(base, x, RhoPolicy("mean"))[0].epsilon
    eb = score_and_approx_mean(scaled, x, RhoPolicy("mean"))[0].epsilon
    assert eb == pytest.approx(3.0 * ea, rel=1e-10)


def test_score_and_approx_mean_consistent_with_parts():
    rng = np.random.default_rng(3)
    model = make_model(rng.normal(size=10), rng.normal(size=10))
    x = rng.normal(size=1)
    policy = RhoPolicy("mean")
    score, mu = score_and_approx_mean(model, x, policy, lam=1.5)
    idx = select_indices(model, x, policy)
    # epsilon from its definition: ||sum_I kappa e|| / (lam * rho * |excluded|)
    num = abs(float(idx.kernel_values[idx.included] @ model.errors[0, idx.included]))
    assert score.epsilon == pytest.approx(num / (1.5 * idx.rho * excluded(idx).size), rel=1e-14)
    assert mu[0] == pytest.approx(approx_mean(model, x, idx), rel=1e-12, abs=1e-15)


def test_score_of_empty_model_is_sentinel_with_prior_mean():
    score, mu = score_and_approx_mean(AgentModel(UNIT), [0.5], RhoPolicy("mean"))
    assert math.isinf(score.epsilon)
    assert mu.tolist() == [0.0]


def test_rho_policy_validation():
    with pytest.raises(InvalidInputError):
        RhoPolicy("nonsense")
    with pytest.raises(InvalidInputError):
        RhoPolicy("constant")
    with pytest.raises(InvalidInputError):
        RhoPolicy("mean", 0.3)
