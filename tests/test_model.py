"""Agent-model posterior paths against dense from-scratch solves."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eigp import AgentModel, InvalidInputError, KernelConfig, kernel_eval
from eigp import model as model_module
from eigp.memory import delete_and_reallocate, ingest
from eigp.quality import RhoPolicy, score_and_approx_mean, select_indices
from oracles import approx_mean, posterior_mean_via_errors
from test_finite import _OPS as RANDOM_OPS

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
        rho=full.rho,
        kernel_values=full.kernel_values,
    )
    assert approx_mean(model, x, empty) == 0.0
    single = type(full)(
        included=np.array([0]),
        rho=0.5,
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
        rho=idx.rho,
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
    # one mean path (k @ alpha) and one variance path: the same bits
    rng = np.random.default_rng(16)
    for _ in range(60):
        m, d = (int(v) for v in rng.integers(1, 4, size=2))
        model, _, _ = random_model(rng, int(rng.integers(1, 41)), m=m, d=d)
        x = rng.normal(size=m)
        means, var = model.classical_predict(x)
        assert means.tolist() == [model.posterior_mean(x, j) for j in range(d)]
        assert var == model.posterior_var(x)


def test_each_clamped_query_counts_one_clamp(monkeypatch):
    rng = np.random.default_rng(17)
    model, X, _ = random_model(rng, 8, m=2, d=2)
    exact = model_module.kernel_vec
    # ten times the kernel vector drives kappa0 - ||L^-1 k||^2 below zero near the data
    monkeypatch.setattr(model_module, "kernel_vec", lambda cfg, A, x: 10.0 * exact(cfg, A, x))
    for q, x in enumerate(X[:3]):
        assert model.posterior_var(x) == 0.0
        assert model.variance_clamps == 2 * q + 1
        assert model.classical_predict(x)[1] == 0.0
        assert model.variance_clamps == 2 * q + 2
    far = np.full(2, 50.0)  # kernel vector 0: the prior variance, no clamp
    assert model.posterior_var(far) == model.cfg.kappa0
    assert model.classical_predict(far)[1] == model.cfg.kappa0
    assert model.variance_clamps == 6


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


@pytest.mark.parametrize("at_capacity", [False, True])
def test_refactor_fallback_equals_a_fresh_model(at_capacity):
    # noise 1e-13 and a duplicate input force the refactor, in grown buffers or
    # in the slot a deletion left; the rebuilt factor is the batch one, bit for bit
    cfg = KernelConfig(signal_variance=1.0, lengthscale=1.0, noise_variance=1e-13)
    model = AgentModel.from_data(cfg, [[0.0], [2.0], [-1.5]], [1.0, 0.5, -0.2])
    if at_capacity:
        ingest(model, [0.0], [1.0], capacity=3)  # deletes x = 2.0
    else:
        model.append_point([0.0], [1.0])
    assert model.refactor_fallbacks == 1
    fresh = AgentModel.from_data(cfg, model.X, model.Y)
    assert np.array_equal(model.chol, fresh.chol)
    assert np.array_equal(model.alpha, fresh.alpha)
    for x in (-0.5, 0.0, 0.7, 2.0, 3.1):
        assert model.posterior_mean([x]) == fresh.posterior_mean([x])
        assert model.posterior_var([x]) == fresh.posterior_var([x])


# ----------------------------------------------------------------------
# the whole query path against a dense reference GP
# ----------------------------------------------------------------------


def dense_query(cfg, X, Y, x):
    """Kernel vector, K + noise I solved directly for Y, and the variance, at query ``x``."""
    scale = -0.5 / cfg.lengthscale**2
    K = cfg.signal_variance * np.exp(scale * ((X[:, None] - X[None, :]) ** 2).sum(axis=2))
    k = cfg.signal_variance * np.exp(scale * ((X - x) ** 2).sum(axis=1))
    reg = K + cfg.noise_variance * np.eye(X.shape[0])
    alpha = np.linalg.solve(reg, Y)
    var = max(cfg.kappa0 - float(k @ np.linalg.solve(reg, k)), 0.0)
    return k, alpha, var


def assert_query_path_matches_dense(model, x, policy):
    """Means, variance, epsilon and truncated mean against ``dense_query``.

    Each tolerance is relative to the size of the terms its quantity sums,
    so cancellation in a small result does not fail a correct solve. The
    included set is the model's, checked against the dense kernel vector
    up to rounding at the threshold.
    """
    cfg, n, d = model.cfg, model.n, model.cfg.output_dim
    k, alpha, var = dense_query(cfg, model.X, model.Y, x)
    terms = np.abs(k) @ np.abs(alpha)  # (d,): the size of every k-weighted sum of alpha
    tol, tiny = 1e-8, 1e-300  # tiny: subnormal results round in absolute steps

    mean, classical_var = model.classical_predict(x)
    assert np.all(np.abs(mean - k @ alpha) <= tol * terms + tiny)
    for j in range(d):
        assert model.posterior_mean(x, j) == mean[j]
    var_scale = cfg.kappa0 + float(k @ k) / cfg.noise_variance
    assert abs(model.posterior_var(x) - var) <= tol * var_scale
    assert model.posterior_var(x) == classical_var

    score, tilde_mu = score_and_approx_mean(model, x, policy)
    idx = score.idx
    inc = np.zeros(n, dtype=bool)
    inc[idx.included] = True
    if n:
        assert np.all(k[inc] >= idx.rho * (1 - 1e-12))
        assert np.all(k[~inc] < idx.rho * (1 + 1e-12))
        if policy.kind == "mean":
            assert idx.rho == pytest.approx(float(k.mean()), rel=1e-12)
    included_terms = np.abs(k[inc]) @ np.abs(alpha[inc])
    assert np.all(np.abs(tilde_mu - k[inc] @ alpha[inc]) <= tol * included_terms + tiny)
    excluded = n - int(inc.sum())
    if excluded == 0:
        assert score.epsilon == math.inf
    else:
        num = cfg.noise_variance * (k[inc] @ alpha[inc])
        eps = math.sqrt(float(num @ num)) / (idx.rho * excluded)
        eps_tol = tol * cfg.noise_variance * math.sqrt(float(included_terms @ included_terms))
        assert abs(score.epsilon - eps) <= eps_tol / (idx.rho * excluded) + tiny


@given(
    m=st.sampled_from([1, 2, 3]),
    d=st.sampled_from([1, 2]),
    noise=st.floats(1e-3, 2.0),
    offset=st.sampled_from([0.0, -40.0, 1e3]),
    scale=st.sampled_from([1e-3, 1.0, 1e3]),
    capacity=st.integers(1, 6),
    policy=st.sampled_from([RhoPolicy("mean"), RhoPolicy("constant", 0.5)]),
    ops=RANDOM_OPS,
)
@settings(max_examples=100, deadline=None)
def test_query_path_matches_a_dense_reference(
    m, d, noise, offset, scale, capacity, policy, ops
):
    cfg = KernelConfig(
        signal_variance=1.0, lengthscale=0.8, noise_variance=noise, input_dim=m, output_dim=d
    )
    rng = np.random.default_rng(m)
    pool = rng.normal(size=(5, m))
    queries = [pool[0], pool[3] + 1e-7, rng.normal(size=m), np.full(m, 4.0)]
    model = AgentModel(cfg)
    for x in queries:  # the empty model takes the general path too
        assert_query_path_matches_dense(model, x, policy)
    for kind, i, jitter, t in ops:
        x = pool[i] + jitter
        y = offset + scale * t * np.arange(1, d + 1)
        if kind == "append":
            model.append_point(x, y)
        elif kind == "ingest":
            if model.n > capacity:
                continue
            ingest(model, x, y, capacity)
        elif model.n:
            delete_and_reallocate(model, i % model.n)
        for q in queries:
            assert_query_path_matches_dense(model, q, policy)
