"""Agent-model posterior paths against dense from-scratch solves."""

import numpy as np
import pytest

from eigp import AgentModel, InvalidInputError, KernelConfig, kernel_eval
from eigp.quality import RhoPolicy, select_indices
from oracles import approx_mean, posterior_mean_via_errors

UNIT = KernelConfig(signal_variance=1.0, lengthscale=1.0, noise_variance=1.0)


def dense_mean(cfg, X, Y, x, j):
    """From-scratch posterior mean via a dense solve (the oracle path)."""
    n = X.shape[0]
    K = np.array([[kernel_eval(cfg, X[p], X[q]) for q in range(n)] for p in range(n)])
    k = np.array([kernel_eval(cfg, x, X[p]) for p in range(n)])
    return float(k @ np.linalg.solve(K + cfg.noise_variance * np.eye(n), Y[:, j]))


def dense_var(cfg, X, x):
    n = X.shape[0]
    K = np.array([[kernel_eval(cfg, X[p], X[q]) for q in range(n)] for p in range(n)])
    k = np.array([kernel_eval(cfg, x, X[p]) for p in range(n)])
    return cfg.kappa0 - float(k @ np.linalg.solve(K + cfg.noise_variance * np.eye(n), k))


def random_model(rng, n, m=1, d=1, cfg=None):
    cfg = cfg or KernelConfig(
        signal_variance=1.0, lengthscale=1.0, noise_variance=0.5, input_dim=m, output_dim=d
    )
    X = rng.normal(size=(n, cfg.input_dim))
    Y = rng.normal(size=(n, cfg.output_dim))
    return AgentModel.from_data(cfg, X, Y), X, Y


def test_empty_model_returns_prior():
    model = AgentModel(UNIT)
    assert model.posterior_mean([0.3]) == 0.0
    assert model.posterior_var([0.3]) == UNIT.kappa0


def test_single_point_hand_solve():
    # X = [0], y = 2: mean at 0 is 1 * (1 + 1)^-1 * 2 = 1, variance 1 - 1/2
    model = AgentModel.from_data(UNIT, [[0.0]], [[2.0]])
    assert model.posterior_mean([0.0]) == pytest.approx(1.0, rel=1e-14)
    assert model.posterior_var([0.0]) == pytest.approx(0.5, rel=1e-14)


def test_mean_matches_dense_solve():
    rng = np.random.default_rng(5)
    model, X, Y = random_model(rng, 3, m=2, d=2)
    for _ in range(5):
        x = rng.normal(size=2)
        for j in range(2):
            assert model.posterior_mean(x, j) == pytest.approx(
                dense_mean(model.cfg, X, Y, x, j), rel=1e-10
            )
        assert model.posterior_var(x) == pytest.approx(dense_var(model.cfg, X, x), rel=1e-10)


def test_variance_bounded_by_prior():
    rng = np.random.default_rng(6)
    model, _, _ = random_model(rng, 12, m=2)
    for _ in range(30):
        x = rng.normal(size=2)
        v = model.posterior_var(x)
        assert 0.0 <= v <= model.cfg.kappa0


def test_variance_non_increasing_under_append():
    rng = np.random.default_rng(8)
    cfg = KernelConfig(signal_variance=1.0, lengthscale=0.8, noise_variance=0.3)
    model = AgentModel(cfg)
    queries = rng.normal(size=(10, 1))
    before = [model.posterior_var(q) for q in queries]
    for _ in range(15):
        model.append_point(rng.normal(size=1), rng.normal(size=1))
        after = [model.posterior_var(q) for q in queries]
        for b, a in zip(before, after):
            assert a <= b + 1e-10
        before = after


def test_error_reformulation_hand_case():
    model = AgentModel.from_data(UNIT, [[0.0]], [[2.0]])
    # e = mu(0) - 2 = -1; prediction is -1 * (-1) * 1 = 1
    assert model.errors[0, 0] == pytest.approx(-1.0, rel=1e-14)
    assert posterior_mean_via_errors(model, [0.0]) == pytest.approx(1.0, rel=1e-14)


def test_error_reformulation_zero_outputs():
    rng = np.random.default_rng(9)
    cfg = KernelConfig(signal_variance=1.0, lengthscale=1.0, noise_variance=0.5)
    X = rng.normal(size=(6, 1))
    model = AgentModel.from_data(cfg, X, np.zeros((6, 1)))
    assert np.all(model.errors == 0.0)
    assert posterior_mean_via_errors(model, rng.normal(size=1)) == 0.0


def test_error_reformulation_matches_standard_path():
    rng = np.random.default_rng(10)
    model, _, _ = random_model(rng, 5, m=2, d=3)
    for _ in range(10):
        x = rng.normal(size=2)
        for j in range(3):
            a = model.posterior_mean(x, j)
            b = posterior_mean_via_errors(model, x, j)
            assert b == pytest.approx(a, rel=1e-8, abs=1e-12)


def test_property_one_randomized_sweep():
    rng = np.random.default_rng(11)
    for _ in range(50):
        n = int(rng.integers(1, 51))
        m = int(rng.integers(1, 6))
        d = int(rng.integers(1, 4))
        cfg = KernelConfig(
            signal_variance=float(rng.uniform(0.5, 3.0)),
            lengthscale=float(rng.uniform(0.3, 2.0)),
            noise_variance=float(rng.uniform(0.05, 1.0)),
            input_dim=m,
            output_dim=d,
        )
        model, _, _ = random_model(rng, n, cfg=cfg)
        x = rng.normal(size=m)
        j = int(rng.integers(0, d))
        a = model.posterior_mean(x, j)
        b = posterior_mean_via_errors(model, x, j)
        assert b == pytest.approx(a, rel=1e-8, abs=1e-12)


def test_refresh_errors_matches_per_point_residuals():
    rng = np.random.default_rng(12)
    model, X, Y = random_model(rng, 4, m=1, d=2)
    for p in range(4):
        for j in range(2):
            resid = model.posterior_mean(X[p], j) - Y[p, j]
            assert model.errors[j, p] == pytest.approx(resid, rel=1e-10, abs=1e-12)


def test_append_base_case():
    model = AgentModel(UNIT)
    model.append_point([0.0], [1.0])
    assert model.n == 1
    assert model.K.shape == (1, 1)
    assert model.K[0, 0] == UNIT.kappa0


def test_append_matches_from_scratch_gram_exactly():
    rng = np.random.default_rng(13)
    cfg = KernelConfig(signal_variance=1.3, lengthscale=0.6, noise_variance=0.2, input_dim=2)
    incremental = AgentModel(cfg)
    points = rng.normal(size=(12, 2))
    outs = rng.normal(size=(12, 1))
    for p, y in zip(points, outs):
        incremental.append_point(p, y)
    batch = AgentModel.from_data(cfg, points, outs)
    assert np.array_equal(incremental.K, batch.K)
    incremental.validate_cache()


def test_error_identity_after_append():
    rng = np.random.default_rng(14)
    model, _, _ = random_model(rng, 3, d=2)
    model.append_point(rng.normal(size=1), rng.normal(size=2))
    expected = -model.cfg.noise_variance * model.alpha
    assert np.allclose(model.errors.T, expected, rtol=0, atol=1e-10)


def test_approx_mean_complete_set_is_exact():
    rng = np.random.default_rng(15)
    model, _, _ = random_model(rng, 7, m=1, d=2)
    x = rng.normal(size=1)
    idx = select_indices(model, x, RhoPolicy("min"))  # includes everything
    for j in range(2):
        assert approx_mean(model, x, idx, j) == posterior_mean_via_errors(model, x, j)


def test_approx_mean_empty_and_partial_sets():
    cfg = KernelConfig(signal_variance=1.0, lengthscale=1.0, noise_variance=1.0)
    model = AgentModel.from_data(cfg, [[0.0], [2.0]], [[1.0], [3.0]])
    x = [0.0]
    full = select_indices(model, x, RhoPolicy("min"))
    empty = type(full)(
        included=np.zeros(0, dtype=int),
        excluded=np.arange(2),
        rho=full.rho,
        policy=full.policy,
        kernel_values=full.kernel_values,
    )
    assert approx_mean(model, x, empty) == 0.0
    single = type(full)(
        included=np.array([0]),
        excluded=np.array([1]),
        rho=0.5,
        policy=full.policy,
        kernel_values=full.kernel_values,
    )
    # hand expansion: -(1/noise) * kappa(x, x_0) * e_0
    expected = -(1.0 / cfg.noise_variance) * kernel_eval(cfg, x, [0.0]) * model.errors[0, 0]
    assert approx_mean(model, x, single) == pytest.approx(expected, rel=1e-14)


def test_approx_mean_rejects_out_of_range_indices():
    model = AgentModel.from_data(UNIT, [[0.0]], [[1.0]])
    idx = select_indices(model, [0.0], RhoPolicy("min"))
    bad = type(idx)(
        included=np.array([3]),
        excluded=np.zeros(0, dtype=int),
        rho=idx.rho,
        policy=idx.policy,
        kernel_values=idx.kernel_values,
    )
    with pytest.raises(InvalidInputError):
        approx_mean(model, [0.0], bad)


def test_non_finite_inputs_rejected():
    model = AgentModel(UNIT)
    with pytest.raises(InvalidInputError):
        model.append_point([np.nan], [1.0])
    with pytest.raises(InvalidInputError):
        model.append_point([0.0], [np.inf])


def test_classical_predict_agrees_with_cached_paths():
    rng = np.random.default_rng(16)
    model, X, Y = random_model(rng, 9, m=2, d=2)
    x = rng.normal(size=2)
    means, var = model.classical_predict(x)
    for j in range(2):
        assert means[j] == pytest.approx(model.posterior_mean(x, j), rel=1e-10)
    assert var == pytest.approx(model.posterior_var(x), rel=1e-10)


def test_refactor_fallback_is_counted():
    cfg = KernelConfig(signal_variance=1.0, lengthscale=1.0, noise_variance=1e-13)
    model = AgentModel(cfg)
    model.append_point([0.0], [1.0])
    model.append_point([2.0], [0.5])
    assert model.refactor_fallbacks == 0
    for expected in (1, 2):
        model.append_point([0.0], [1.0])  # duplicate input: the Schur complement vanishes
        assert model.refactor_fallbacks == expected
        model.validate_cache()
    assert model.posterior_mean([0.0]) == pytest.approx(1.0, rel=1e-6)
