"""The factor is finite by construction: the checks that replace scipy's scans."""

import warnings

import numpy as np
import pytest
import scipy.linalg._decomp_cholesky as scipy_cholesky
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import cho_solve, cholesky, solve_triangular

from eigp import (
    AgentModel,
    InternalConsistencyError,
    InvalidInputError,
    KernelConfig,
    MethodSpec,
    delete_and_reallocate,
    fully_connected,
    ingest,
    predict_round,
)
from eigp import model as model_module
from eigp.aggregation import ALL_METHODS

CFG = KernelConfig(signal_variance=1.0, lengthscale=0.7, noise_variance=0.1)


def assert_factor_invariant(model):
    """Finite lower triangle, positive diagonal, the fresh factor, alpha of a dense solve."""
    if model.n == 0:
        return
    L = np.tril(model.chol)
    assert np.isfinite(L).all()
    assert (np.diag(L) > 0.0).all()
    reg = model.K + model.cfg.noise_variance * np.eye(model.n)
    ref = cholesky(reg, lower=True)
    assert np.linalg.norm(L - ref) <= 1e-9 * np.linalg.norm(ref)
    dense = np.linalg.solve(reg, model.Y)
    assert np.linalg.norm(model.alpha - dense) <= 1e-9 * max(np.linalg.norm(dense), 1.0)
    model.validate_cache()


# ----------------------------------------------------------------------
# the invariant under random append / ingest / delete sequences
# ----------------------------------------------------------------------

_OPS = st.lists(
    st.tuples(
        st.sampled_from(["append", "ingest", "delete"]),
        st.integers(0, 4),  # input from a pool of five: duplicates are common
        st.sampled_from([0.0, 1e-9, 1e-5]),  # exact, near and close duplicates
        st.floats(-1.0, 1.0),  # target before offset and scale
    ),
    min_size=1,
    max_size=20,
)


@given(
    m=st.sampled_from([1, 2]),
    d=st.sampled_from([1, 2]),
    noise=st.sampled_from([1e-3, 0.1, 2.0]),
    offset=st.sampled_from([0.0, -40.0, 1e3]),
    scale=st.sampled_from([1e-3, 1.0, 1e3]),
    capacity=st.integers(1, 5),
    ops=_OPS,
)
@settings(max_examples=120, deadline=None)
def test_factor_stays_finite_and_exact_under_random_sequences(
    m, d, noise, offset, scale, capacity, ops
):
    cfg = KernelConfig(
        signal_variance=1.0, lengthscale=0.8, noise_variance=noise, input_dim=m, output_dim=d
    )
    pool = np.random.default_rng(m).normal(size=(5, m))
    model = AgentModel(cfg)
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
        assert_factor_invariant(model)


# ----------------------------------------------------------------------
# the guard paths
# ----------------------------------------------------------------------


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("at_capacity", [False, True])
def test_non_finite_bordered_row_takes_the_refactor_path(monkeypatch, bad, at_capacity):
    rng = np.random.default_rng(3)
    X, Y = rng.normal(size=(8, 1)), rng.normal(size=(8, 1))
    model = AgentModel.from_data(CFG, X, Y)
    exact, poisoned = model_module.kernel_vec, []

    def poison_once(cfg, A, x):  # the append's kernel vector, nothing later
        k = exact(cfg, A, x)
        if not poisoned:
            poisoned.append(True)
            k[0] = bad
        return k

    monkeypatch.setattr(model_module, "kernel_vec", poison_once)
    if at_capacity:
        ingest(model, [0.3], [0.5], capacity=8)
    else:
        model.append_point([0.3], [0.5])
    assert poisoned and model.refactor_fallbacks == 1
    assert_factor_invariant(model)
    fresh = AgentModel.from_data(CFG, model.X, model.Y)
    assert np.array_equal(model.chol, fresh.chol)


@pytest.mark.parametrize(
    "noise, x_new", [(0.1, 0.01), (1e-13, 0.0)], ids=["extension", "refactor"]
)
def test_overflowing_target_raises_and_undoes_the_append(noise, x_new):
    # both targets are finite; alpha, about their difference over the noise, is not
    cfg = KernelConfig(signal_variance=1.0, lengthscale=1.0, noise_variance=noise)
    model = AgentModel.from_data(cfg, [[0.0], [3.0]], [-1e308, 2.0])
    X, Y, errors = model.X.copy(), model.Y.copy(), model.errors.copy()
    with pytest.raises(InvalidInputError, match="overflow"):
        model.append_point([x_new], [1e308])
    assert model.refactor_fallbacks == (noise < 1e-12)
    assert model.n == 2
    assert np.array_equal(model.X, X) and np.array_equal(model.Y, Y)
    assert np.array_equal(model.errors, errors)
    model.append_point([1.5], [0.2])  # the model keeps working
    assert model.n == 3 and np.isfinite(model.errors).all()


def test_overflowing_batch_raises():
    with pytest.raises(InvalidInputError, match="overflow"):
        AgentModel.from_data(CFG, [[0.0], [0.01]], [1e308, -1e308])


def test_validate_cache_catches_a_wrong_alpha_near_the_float_range():
    model = AgentModel.from_data(KernelConfig(), [[0.0]], [1e308])
    model.validate_cache()
    model.alpha[:] *= 0.5  # errors halved too: only the residual check can see it
    model.errors[:] *= 0.5
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InternalConsistencyError, match="alpha residual"):
            model.validate_cache()


# ----------------------------------------------------------------------
# no full-factor scan on the hot path
# ----------------------------------------------------------------------


def test_ingest_at_capacity_scans_no_square_array(monkeypatch):
    """scipy's ``check_finite`` goes through ``numpy.asarray_chkfinite``, which
    ``cholesky`` and ``cho_solve`` import by name: spy on both bindings. The
    model's solves call LAPACK's ``trtrs`` with no wrapper; the two
    wrapped solves below show that the spy sees scipy's default checks."""
    shapes = []
    original = np.asarray_chkfinite

    def spy(a, *args, **kwargs):
        out = original(a, *args, **kwargs)
        shapes.append(out.shape)
        return out

    monkeypatch.setattr(np, "asarray_chkfinite", spy)
    monkeypatch.setattr(scipy_cholesky, "asarray_chkfinite", spy)
    n = 40
    rng = np.random.default_rng(21)
    model = AgentModel.from_data(CFG, rng.normal(size=(n, 1)), rng.normal(size=(n, 1)))
    shapes.clear()  # the batch factorization checks its fresh Gram matrix
    # the spy sees scipy's default checks
    solve_triangular(model.chol, np.ones(n), lower=True)
    cho_solve((model.chol, True), np.ones(n))
    assert shapes.count((n, n)) == 2
    shapes.clear()
    for x, y in rng.normal(size=(5, 2)):
        ingest(model, [x], [y], capacity=n)
        model.posterior_var([x])
        model.classical_predict([y])
    assert model.refactor_fallbacks == 0
    assert [s for s in shapes if len(s) == 2 and min(s) >= n - 1] == []


# ----------------------------------------------------------------------
# non-finite queries are typed errors on every path
# ----------------------------------------------------------------------

_BAD_QUERIES = [np.nan, np.inf, -np.inf]


def _models(n_points):
    rng = np.random.default_rng(5)
    return {
        i: AgentModel.from_data(CFG, rng.normal(size=(n_points, 1)), rng.normal(size=(n_points, 1)))
        for i in range(1, 5)
    }


@pytest.mark.parametrize("n_points", [0, 6], ids=["empty", "filled"])
@pytest.mark.parametrize("method", ALL_METHODS)
@pytest.mark.parametrize("bad", _BAD_QUERIES)
def test_non_finite_query_fails_every_method(method, n_points, bad):
    models = _models(n_points)
    graph = fully_connected(4)
    spec = MethodSpec(method)
    predict_round(models, graph, [0.2], spec, CFG)  # a finite query predicts
    with pytest.raises(InvalidInputError, match="finite"):
        predict_round(models, graph, [bad], spec, CFG)


@pytest.mark.parametrize("n_points", [0, 6], ids=["empty", "filled"])
@pytest.mark.parametrize("bad", _BAD_QUERIES)
def test_non_finite_query_fails_every_model_read(n_points, bad):
    model = _models(n_points)[1]
    for read in (model.posterior_mean, model.posterior_var, model.classical_predict):
        with pytest.raises(InvalidInputError, match="finite"):
            read([bad])
