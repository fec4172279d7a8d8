"""Bounded-memory ingestion: deletion choice, reallocation, capacity."""

import tracemalloc

import numpy as np
import pytest
from scipy.linalg import cholesky, solve_triangular

from eigp import (
    AgentModel,
    InvalidInputError,
    KernelConfig,
    delete_and_reallocate,
    find_deletion,
    gram,
    ingest,
    kernel_eval,
    kernel_vec,
)
from oracles import CopyingModel

CFG = KernelConfig(signal_variance=1.0, lengthscale=1.0, noise_variance=0.5)


def factor_gap(model):
    """Relative distance of the kept factor from a fresh factorization."""
    ref = cholesky(model.K + model.cfg.noise_variance * np.eye(model.n), lower=True)
    return np.linalg.norm(model.chol - ref) / np.linalg.norm(ref)


def make_model(xs, ys=None, cfg=CFG):
    xs = np.asarray(xs, float)
    ys = np.asarray(ys if ys is not None else np.zeros_like(xs), float)
    return AgentModel.from_data(cfg, xs[:, None], ys[:, None])


def test_find_deletion_picks_least_similar():
    model = make_model([0.0, 5.0])
    assert find_deletion(model, [0.1]) == 1  # the far point has the smallest kernel


def test_find_deletion_single_point():
    model = make_model([1.3])
    assert find_deletion(model, [9.9]) == 0


def test_find_deletion_tie_goes_to_smallest_index():
    model = make_model([-1.0, 1.0])  # symmetric around the incoming 0
    assert find_deletion(model, [0.0]) == 0


def test_find_deletion_matches_brute_force_scan():
    rng = np.random.default_rng(4)
    model = make_model(rng.normal(size=20))
    for _ in range(50):
        x = rng.normal(size=1)
        sims = [kernel_eval(CFG, model.X[p], x) for p in range(model.n)]
        assert find_deletion(model, x) == int(np.argmin(sims))


def test_find_deletion_requires_data():
    with pytest.raises(InvalidInputError):
        find_deletion(AgentModel(CFG), [0.0])


def test_delete_shrinks_to_prior_gram():
    model = make_model([0.0, 2.0], [1.0, 2.0])
    delete_and_reallocate(model, 1)
    assert model.n == 1
    assert model.K.shape == (1, 1)
    assert model.K[0, 0] == CFG.kappa0
    assert model.X.tolist() == [[0.0]]


def test_delete_matches_from_scratch_gram():
    rng = np.random.default_rng(5)
    model = make_model(rng.normal(size=5), rng.normal(size=5))
    delete_and_reallocate(model, 2)
    assert np.array_equal(model.K, gram(CFG, model.X))
    model.validate_cache()


def test_error_identity_survives_deletion():
    rng = np.random.default_rng(6)
    model = make_model(rng.normal(size=6), rng.normal(size=6))
    delete_and_reallocate(model, 0)
    assert np.allclose(
        model.errors.T, -CFG.noise_variance * model.alpha, rtol=0, atol=1e-10
    )


def test_delete_rejects_bad_index():
    model = make_model([0.0])
    with pytest.raises(InvalidInputError):
        delete_and_reallocate(model, 1)


def test_ingest_under_capacity_never_deletes():
    model = AgentModel(CFG)
    for k in range(3):
        report = ingest(model, [float(k)], [0.0], capacity=3)
        assert report.deleted_index is None
        assert report.dataset_size_after == k + 1


def test_ingest_at_capacity_deletes_exactly_one():
    model = make_model([0.0, 1.0, 2.0])
    report = ingest(model, [0.5], [1.0], capacity=3)
    assert report.deleted_index is not None
    assert report.dataset_size_after == 3
    assert model.n == 3


def test_long_stream_respects_capacity_and_invariants():
    rng = np.random.default_rng(7)
    model = AgentModel(CFG)
    deletions = 0
    for k in range(200):
        report = ingest(model, rng.normal(size=1), rng.normal(size=1), capacity=100)
        assert model.n <= 100
        if report.deleted_index is not None:
            deletions += 1
        if k % 25 == 0:
            model.validate_cache()
    assert model.n == 100
    assert deletions == 100
    model.validate_cache()


def test_post_ingest_state_matches_batch_rebuild():
    rng = np.random.default_rng(8)
    model = AgentModel(CFG)
    for _ in range(40):
        ingest(model, rng.normal(size=1), rng.normal(size=1), capacity=12)
    rebuilt = AgentModel.from_data(CFG, model.X, model.Y)
    assert np.array_equal(model.K, rebuilt.K)
    assert np.array_equal(model.X, rebuilt.X)
    assert np.array_equal(model.Y, rebuilt.Y)


CFG_2D = KernelConfig(
    signal_variance=1.0, lengthscale=1.0, noise_variance=0.5, input_dim=2, output_dim=2
)


def test_delete_downdates_factor_at_every_index():
    rng = np.random.default_rng(9)
    X, Y = rng.normal(size=(12, 2)), rng.normal(size=(12, 2))
    for k in range(12):
        model = AgentModel.from_data(CFG_2D, X, Y)
        delete_and_reallocate(model, k)
        assert model.chol.shape == (11, 11)
        assert not np.triu(model.chol, 1).any()
        assert (np.diag(model.chol) > 0).all()
        assert factor_gap(model) <= 1e-12
        assert np.array_equal(model.X, np.delete(X, k, axis=0))
        model.validate_cache()


def test_delete_down_to_empty_and_refill():
    rng = np.random.default_rng(10)
    model = AgentModel.from_data(CFG_2D, rng.normal(size=(4, 2)), rng.normal(size=(4, 2)))
    for index in (1, 2, 0, 0):
        delete_and_reallocate(model, index)
        model.validate_cache()
        if model.n:
            assert factor_gap(model) <= 1e-12
    assert model.chol.shape == (0, 0)
    assert model.alpha.shape == (0, 2) and model.errors.shape == (2, 0)
    assert model.posterior_mean([0.0, 0.0]) == 0.0
    assert model.posterior_var([0.0, 0.0]) == CFG_2D.kappa0
    model.append_point([0.3, -0.2], [1.0, 2.0])
    model.validate_cache()


def test_factor_stays_fortran_ordered():
    tiny = KernelConfig(signal_variance=1.0, lengthscale=1.0, noise_variance=1e-13)
    model = AgentModel.from_data(tiny, [[0.0], [1.0], [2.0]], [[0.0], [1.0], [0.5]])
    assert model.chol.flags.f_contiguous
    model.append_point([3.0], [0.2])
    assert model.refactor_fallbacks == 0
    assert model.chol.flags.f_contiguous
    model.append_point([1.0], [1.0])  # duplicate of a stored point: refactor fallback
    assert model.refactor_fallbacks == 1
    assert model.chol.flags.f_contiguous
    delete_and_reallocate(model, 1)
    assert model.chol.flags.f_contiguous


def test_factor_does_not_drift_over_a_long_stream():
    cfg = KernelConfig(signal_variance=1.0, lengthscale=1.0, noise_variance=1e-4 * 1.0)
    rng = np.random.default_rng(11)
    model = AgentModel(cfg)
    for _ in range(3000):
        ingest(model, rng.normal(size=1), rng.normal(size=1), capacity=60)
    assert model.n == 60
    model.validate_cache()
    assert factor_gap(model) <= 1e-9


def test_ingest_rejects_a_model_above_capacity():
    rng = np.random.default_rng(12)
    model = make_model(rng.normal(size=10), rng.normal(size=10))
    X = model.X.copy()
    with pytest.raises(InvalidInputError):
        ingest(model, [0.0], [0.0], capacity=5)
    assert model.n == 10
    assert np.array_equal(model.X, X)
    model.validate_cache()


def test_ingest_at_capacity_allocates_nothing_new():
    rng = np.random.default_rng(13)
    n = 300
    model = make_model(rng.normal(size=n), rng.normal(size=n))
    ingest(model, [0.0], [0.0], capacity=n)  # any lazy set-up happens outside the trace
    points = rng.normal(size=(20, 2))
    tracemalloc.start()
    try:
        for x, y in points:
            before = model.chol
            ingest(model, [x], [y], capacity=n)
            assert np.shares_memory(before, model.chol)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < n * n * 8  # one N x N float array
    model.validate_cache()


def assert_matches_oracle(model, ref):
    """K, X and Y exactly; the factor and alpha within 1e-12 relative."""
    assert np.array_equal(model.X, ref.X)
    assert np.array_equal(model.Y, ref.Y)
    assert np.array_equal(model.K, ref.K)
    for got, want in ((model.chol, ref.chol), (model.alpha, ref.alpha)):
        assert got.shape == want.shape
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


@pytest.mark.parametrize("capacity", [1, 2, 60])
def test_ingest_matches_copying_oracle(capacity):
    rng = np.random.default_rng(capacity)
    model, ref = AgentModel(CFG_2D), CopyingModel(CFG_2D)
    for _ in range(capacity + 40):
        x, y = rng.normal(size=2), rng.normal(size=2)
        assert ingest(model, x, y, capacity).deleted_index == ref.ingest(x, y, capacity)
        assert_matches_oracle(model, ref)
    model.validate_cache()


@pytest.mark.parametrize("indices", [[0], [11], [3, 7], [11, 10], [0, 0]])
def test_deletions_then_appends_match_copying_oracle(indices):
    rng = np.random.default_rng(14)
    X, Y = rng.normal(size=(12, 2)), rng.normal(size=(12, 2))
    model, ref = AgentModel.from_data(CFG_2D, X, Y), CopyingModel(CFG_2D, X, Y)
    for _ in range(2):
        for index in indices:
            delete_and_reallocate(model, index)
            ref.delete(index)
        for _ in indices:
            x, y = rng.normal(size=2), rng.normal(size=2)
            model.append_point(x, y)
            ref.append(x, y)
        assert_matches_oracle(model, ref)
    model.validate_cache()


def test_reads_between_a_bare_deletion_and_the_next_append():
    rng = np.random.default_rng(15)
    X, Y = rng.normal(size=(12, 2)), rng.normal(size=(12, 2))
    model, ref = AgentModel.from_data(CFG_2D, X, Y), CopyingModel(CFG_2D, X, Y)
    delete_and_reallocate(model, 4)
    ref.delete(4)
    q = rng.normal(size=2)
    v = solve_triangular(ref.chol, kernel_vec(CFG_2D, ref.X, q), lower=True)
    assert model.posterior_var(q) == pytest.approx(CFG_2D.kappa0 - v @ v, rel=1e-12)
    model.validate_cache()
    assert_matches_oracle(model, ref)
    x, y = rng.normal(size=2), rng.normal(size=2)
    model.append_point(x, y)
    ref.append(x, y)
    assert_matches_oracle(model, ref)
    model.validate_cache()
