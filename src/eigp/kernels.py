"""Squared-exponential kernel primitives shared by every agent model."""

from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError

# Rows of the Gram matrix per broadcast: the (block, N, m) temporary stays
# small, and the per-row Python cost is paid once per block.
_GRAM_BLOCK = 16


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
        names = ("signal_variance", "lengthscale", "noise_variance")
        if not all(0 < as_real(name, getattr(self, name)) < math.inf for name in names):
            raise InvalidInputError(
                "signal_variance, lengthscale and noise_variance must all be positive and finite"
            )
        for name in ("input_dim", "output_dim"):
            value = getattr(self, name)
            try:  # integers of any kind (numpy's too), but no floats, strings or bools
                if isinstance(value, bool):
                    raise TypeError
                object.__setattr__(self, name, operator.index(value))
            except TypeError:
                raise InvalidInputError(f"{name} must be an integer, got {value!r}") from None
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


def as_real(name: str, value) -> float:
    """``value`` as a float: a real number of any kind, but no bool or string."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):  # np.bool_ is no Real
        raise InvalidInputError(f"{name} must be a number, got {value!r}")
    return float(value)


def as_input(cfg: KernelConfig, x) -> np.ndarray:
    """Coerce ``x`` to a finite float vector of the configured input dimension.

    Every query and every stored input passes through here, which keeps the
    kernel values, and so the models' factors, finite.
    """
    v = np.asarray(x, dtype=float)
    if v.ndim == 0:
        v = v.reshape(1)
    if v.shape != (cfg.input_dim,):
        raise InvalidInputError(
            f"expected input of length {cfg.input_dim}, got shape {v.shape}"
        )
    # a handful of numbers: a Python loop is several times faster than a ufunc here
    if not all(map(math.isfinite, v.tolist())):
        raise InvalidInputError(f"input must be finite, got {v.tolist()}")
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
    d2 = X - q
    d2 *= d2
    return _scale_exp(cfg, np.add.reduce(d2, axis=1))


def _scale_exp(cfg: KernelConfig, d2: np.ndarray) -> np.ndarray:
    """signal_variance * exp(-d2 / (2 lengthscale^2)), in place over ``d2``.

    Dividing by the negated denominator gives the bytes of negating first:
    IEEE division is symmetric in sign.
    """
    d2 /= -2.0 * cfg.lengthscale**2
    np.exp(d2, out=d2)
    d2 *= cfg.signal_variance
    return d2


def gram(cfg: KernelConfig, X: np.ndarray) -> np.ndarray:
    """Full Gram matrix of the rows of ``X``, Fortran-ordered like the model's factor.

    Built in blocks of rows: rows p0..p1 are one broadcast against rows
    0..p1, reduced and scaled with the arithmetic of :func:`kernel_vec` in
    its order, so every entry equals the kernel value an append computes
    for it. Each block's columns above it are copied from the transpose of
    its rows (squared differences are symmetric, so the diagonal block,
    computed whole, is exactly symmetric too).
    """
    n = X.shape[0]
    K = np.empty((n, n), order="F")
    for p0 in range(0, n, _GRAM_BLOCK):
        p1 = min(p0 + _GRAM_BLOCK, n)
        d2 = X[None, :p1] - X[p0:p1, None]
        d2 *= d2
        _scale_exp(cfg, np.add.reduce(d2, axis=2, out=K[p0:p1, :p1]))
        K[:p0, p0:p1] = K[p0:p1, :p0].T
    K.flat[:: n + 1] = cfg.signal_variance
    return K


def lipschitz_bound(cfg: KernelConfig) -> float:
    """Upper bound on |d kappa / d r|: signal_variance / (lengthscale * sqrt(e))."""
    return cfg.signal_variance / (cfg.lengthscale * math.sqrt(math.e))
