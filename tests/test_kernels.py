"""Kernel evaluation against closed-form scalar oracles."""

import math

import numpy as np
import pytest

from eigp import InvalidInputError, KernelConfig, gram, kernel_eval, kernel_vec, lipschitz_bound
from eigp.kernels import as_input


def scalar_kernel(sig2, ell, x, x2):
    """Independent closed-form evaluation used as the oracle."""
    d2 = sum((a - b) ** 2 for a, b in zip(np.atleast_1d(x), np.atleast_1d(x2)))
    return sig2 * math.exp(-d2 / (2.0 * ell**2))


def test_kernel_at_identical_inputs_is_signal_variance():
    cfg = KernelConfig(signal_variance=1.0, lengthscale=1.0, noise_variance=1.0)
    assert kernel_eval(cfg, [0.0], [0.0]) == 1.0
    cfg = KernelConfig(signal_variance=3.7, lengthscale=0.3, noise_variance=0.1, input_dim=3)
    x = [0.4, -1.2, 2.2]
    assert kernel_eval(cfg, x, x) == pytest.approx(3.7, rel=1e-15)


def test_kernel_unit_distance():
    cfg = KernelConfig(signal_variance=1.0, lengthscale=1.0, noise_variance=1.0)
    expected = scalar_kernel(1.0, 1.0, 0.0, 1.0)  # exp(-0.5)
    assert expected == pytest.approx(0.606531, abs=1e-6)
    assert kernel_eval(cfg, [0.0], [1.0]) == pytest.approx(expected, rel=1e-15)


def test_kernel_two_dim_case():
    cfg = KernelConfig(signal_variance=4.0, lengthscale=2.0, noise_variance=1.0, input_dim=2)
    expected = scalar_kernel(4.0, 2.0, (0.0, 0.0), (2.0, 0.0))  # 4 exp(-0.5)
    assert expected == pytest.approx(2.426123, abs=1e-6)
    assert kernel_eval(cfg, [0.0, 0.0], [2.0, 0.0]) == pytest.approx(expected, rel=1e-15)


def test_kernel_symmetry():
    cfg = KernelConfig(signal_variance=2.0, lengthscale=0.7, noise_variance=0.1, input_dim=4)
    rng = np.random.default_rng(7)
    for _ in range(20):
        a, b = rng.normal(size=4), rng.normal(size=4)
        assert kernel_eval(cfg, a, b) == kernel_eval(cfg, b, a)


def test_dimension_mismatch_rejected():
    cfg = KernelConfig(input_dim=2)
    with pytest.raises(InvalidInputError):
        kernel_eval(cfg, [0.0], [1.0, 2.0])
    with pytest.raises(InvalidInputError):
        kernel_vec(cfg, np.zeros((3, 2)), [1.0])


def test_config_validation():
    with pytest.raises(InvalidInputError):
        KernelConfig(signal_variance=0.0)
    with pytest.raises(InvalidInputError):
        KernelConfig(lengthscale=-1.0)
    with pytest.raises(InvalidInputError):
        KernelConfig(noise_variance=0.0)
    with pytest.raises(InvalidInputError):
        KernelConfig(input_dim=0)
    for dims in ({"output_dim": 1.0}, {"input_dim": 2.0}, {"input_dim": True}, {"output_dim": "1"}):
        with pytest.raises(InvalidInputError, match="must be an integer"):
            KernelConfig(**dims)
    cfg = KernelConfig(input_dim=np.int64(2), output_dim=np.int32(3))
    assert (type(cfg.input_dim), type(cfg.output_dim)) == (int, int)


def test_gram_matches_scalar_oracle():
    cfg = KernelConfig(signal_variance=1.5, lengthscale=0.8, noise_variance=0.1, input_dim=3)
    rng = np.random.default_rng(11)
    X = rng.normal(size=(8, 3))
    K = gram(cfg, X)
    for p in range(8):
        for q in range(8):
            assert K[p, q] == pytest.approx(
                scalar_kernel(1.5, 0.8, X[p], X[q]), rel=1e-14
            )
    assert np.array_equal(K, K.T)


def test_lipschitz_continuity_on_sampled_triples():
    cfg = KernelConfig(signal_variance=2.0, lengthscale=0.5, noise_variance=0.1, input_dim=2)
    L = lipschitz_bound(cfg) * (1.0 + 1e-9)
    rng = np.random.default_rng(3)
    for _ in range(500):
        x, a, b = rng.normal(size=(3, 2))
        lhs = abs(kernel_eval(cfg, x, a) - kernel_eval(cfg, x, b))
        assert lhs <= L * np.linalg.norm(a - b) + 1e-15


@pytest.mark.parametrize("name", ["signal_variance", "lengthscale", "noise_variance"])
@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_non_finite_hyperparameters_are_rejected(name, value):
    with pytest.raises(InvalidInputError, match="finite"):
        KernelConfig(**{name: value})


def _row_loop_gram(cfg, X):
    """The Gram matrix one kernel_vec row at a time: the values an append computes."""
    n = X.shape[0]
    K = np.empty((n, n))
    for p in range(n):
        row = kernel_vec(cfg, X[:p], X[p])
        K[p, :p] = row
        K[:p, p] = row
        K[p, p] = cfg.signal_variance
    return K


@pytest.mark.parametrize("m", [1, 2, 3, 9])  # 9 passes numpy's 8-term pairwise-sum block
@pytest.mark.parametrize("n", [0, 1, 2, 15, 16, 17, 33, 400])
def test_blocked_gram_equals_the_row_loop_byte_for_byte(n, m):
    cfg = KernelConfig(signal_variance=1.7, lengthscale=0.45, noise_variance=0.1, input_dim=m)
    X = np.random.default_rng(100 * n + m).uniform(-1.5, 1.5, size=(n, m))
    K = gram(cfg, X)
    assert K.shape == (n, n) and K.flags.f_contiguous
    assert K.tobytes(order="F") == _row_loop_gram(cfg, X).tobytes(order="F")
    assert np.array_equal(K, K.T)  # exactly symmetric
    assert np.all(np.diagonal(K) == 1.7)


def test_blocked_gram_keeps_duplicates_and_far_points_exact():
    cfg = KernelConfig(signal_variance=2.5, lengthscale=0.1, input_dim=2)
    X = np.tile([[0.3, -0.2], [40.0, 1.0], [0.3, -0.2]], (7, 1))  # ties across block edges
    K = gram(cfg, X)
    assert K.tobytes(order="F") == _row_loop_gram(cfg, X).tobytes(order="F")
    assert K[0, 2] == 2.5 and K[0, 1] == 0.0


@pytest.mark.parametrize("m", [1, 3, 9])
def test_kernel_vec_equals_the_negate_then_divide_expression(m):
    cfg = KernelConfig(signal_variance=0.8, lengthscale=0.37, input_dim=m)
    rng = np.random.default_rng(m)
    X, q = rng.normal(size=(257, m)), rng.normal(size=m)
    d2 = np.add.reduce((X - q) ** 2, axis=1)
    expected = cfg.signal_variance * np.exp(-d2 / (2.0 * cfg.lengthscale**2))
    assert kernel_vec(cfg, X, q).tobytes() == expected.tobytes()


def test_as_input_takes_a_scalar_and_rejects_matrices_and_nan():
    cfg = KernelConfig()
    for x in (0.5, np.float64(0.5), np.array(0.5), [0.5]):
        v = as_input(cfg, x)
        assert v.shape == (1,) and v.dtype == float and v[0] == 0.5
    with pytest.raises(InvalidInputError, match=r"shape \(1, 1\)"):
        as_input(cfg, [[0.5]])
    for bad in (math.nan, [math.inf], np.array(-math.inf)):
        with pytest.raises(InvalidInputError, match="finite"):
            as_input(cfg, bad)
