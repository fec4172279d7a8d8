"""Kernel evaluation against closed-form scalar oracles."""

import math

import numpy as np
import pytest

from eigp import InvalidInputError, KernelConfig, gram, kernel_eval, kernel_vec, lipschitz_bound


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
