"""Squared-exponential kernel primitives shared by every agent model."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError


@dataclass(frozen=True)
class KernelConfig:
    """Kernel and noise hyperparameters, fixed for a whole multi-agent run.

    ``signal_variance`` is the prior variance kappa(0) = kappa(x, x);
    ``lengthscale`` sets how fast similarity decays with distance;
    ``noise_variance`` regularizes the Gram matrix. No hyperparameter
    training happens anywhere in this package: these are inputs.
    """

    signal_variance: float = 1.0
    lengthscale: float = 1.0
    noise_variance: float = 0.1
    input_dim: int = 1
    output_dim: int = 1

    def __post_init__(self):
        hyper = (self.signal_variance, self.lengthscale, self.noise_variance)
        if not all(0 < v < math.inf for v in hyper):
            raise InvalidInputError(
                "signal_variance, lengthscale and noise_variance must all be positive and finite"
            )
        if self.input_dim < 1 or self.output_dim < 1:
            raise InvalidInputError("input_dim and output_dim must be >= 1")

    @property
    def kappa0(self) -> float:
        """Prior variance kappa(0)."""
        return self.signal_variance

    @property
    def prior_plus_noise(self) -> float:
        """kappa(0) + noise variance, the largest admissible posterior variance."""
        return self.signal_variance + self.noise_variance


def as_input(cfg: KernelConfig, x) -> np.ndarray:
    """Coerce ``x`` to a float vector of the configured input dimension."""
    v = np.atleast_1d(np.asarray(x, dtype=float))
    if v.shape != (cfg.input_dim,):
        raise InvalidInputError(
            f"expected input of length {cfg.input_dim}, got shape {v.shape}"
        )
    return v


def kernel_eval(cfg: KernelConfig, x, x2) -> float:
    """kappa(x, x') = signal_variance * exp(-||x - x'||^2 / (2 lengthscale^2))."""
    a = as_input(cfg, x)
    b = as_input(cfg, x2)
    d2 = float(np.sum((a - b) ** 2))
    return cfg.signal_variance * math.exp(-d2 / (2.0 * cfg.lengthscale**2))


def kernel_vec(cfg: KernelConfig, X: np.ndarray, x) -> np.ndarray:
    """Kernel values of one query against every row of ``X``, shape (N,)."""
    q = as_input(cfg, x)
    if X.size == 0:
        return np.zeros(0)
    d2 = np.sum((X - q) ** 2, axis=1)
    return cfg.signal_variance * np.exp(-d2 / (2.0 * cfg.lengthscale**2))


def gram(cfg: KernelConfig, X: np.ndarray) -> np.ndarray:
    """Full Gram matrix of the rows of ``X``.

    Built row by row through :func:`kernel_vec`, so every entry equals the
    kernel value an append computes for it; Fortran-ordered, the layout of
    the model's Cholesky factor.
    """
    n = X.shape[0]
    K = np.empty((n, n), order="F")
    for p in range(n):
        row = kernel_vec(cfg, X[:p], X[p])
        K[p, :p] = row
        K[:p, p] = row
        K[p, p] = cfg.signal_variance
    return K


def lipschitz_bound(cfg: KernelConfig) -> float:
    """Upper bound on |d kappa / d r|: signal_variance / (lengthscale * sqrt(e))."""
    return cfg.signal_variance / (cfg.lengthscale * math.sqrt(math.e))
