"""Probabilistic error-bound calculators for the quality metric and predictions.

The quantities here certify, at configurable confidence levels, (a) the
relative loss of the kernel-truncated prediction, (b) the distance between a
model's posterior mean and the latent function, and (c) the error of the
aggregated multi-agent prediction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, InternalConsistencyError, InvalidInputError
from .kernels import KernelConfig, as_real
from .model import AgentModel
from .quality import IndexSelection


def beta_delta(tau: float, delta: float, lower, upper) -> float:
    """Uniform-error-bound scale over a box-shaped input domain.

    beta = 2 * sum_j log(sqrt(m)/(2 tau) * (upper_j - lower_j) + 1) - 2 log(delta)
    """
    lower = np.atleast_1d(np.asarray(lower, dtype=float))
    upper = np.atleast_1d(np.asarray(upper, dtype=float))
    if lower.shape != upper.shape or lower.ndim != 1:
        raise InvalidInputError("lower and upper must be vectors of equal length")
    if not tau > 0:  # NaN too
        raise InvalidInputError("tau must be positive")
    if not 0.0 < delta < 1.0:
        raise InvalidInputError("delta must lie in (0, 1)")
    if not np.all(upper >= lower):  # NaN too
        raise InvalidInputError("upper bounds must not be below lower bounds")
    m = lower.size
    with np.errstate(over="ignore"):  # a span past the float range: beta is inf, raised below
        spans = math.sqrt(m) / (2.0 * tau) * (upper - lower) + 1.0
    beta = float(2.0 * np.sum(np.log(spans)) - 2.0 * math.log(delta))
    if not math.isfinite(beta):
        raise InvalidInputError("the box is too wide for a finite beta: its span overflows")
    return beta


def lambda_factor(d: int, beta: float, kappa0: float, noise_std: float, delta_n: float) -> float:
    """Accuracy-loss scale of the truncated prediction.

    lambda = 2 sqrt(d beta kappa0)
             + noise_std * (2 sqrt(d log(1/delta_n)) + 2 log(1/delta_n) + d)^(1/2)
    """
    if d < 1 or beta <= 0 or kappa0 <= 0 or noise_std < 0:
        raise InvalidInputError("d, beta and kappa0 must be positive, noise_std nonnegative")
    if not 0.0 < delta_n < 1.0:
        raise InvalidInputError("delta_n must lie in (0, 1)")
    log_inv = math.log(1.0 / delta_n)
    return 2.0 * math.sqrt(d * beta * kappa0) + noise_std * math.sqrt(
        2.0 * math.sqrt(d * log_inv) + 2.0 * log_inv + d
    )


def delta_rho(n: int, d: int, delta: float, delta_n: float) -> float:
    """Failure level of the relative-loss bound: 1 - n + n(1-delta)^d - delta_n.

    Raises a configuration error when the chosen (n, d, delta, delta_n) push
    it outside (0, 1).
    """
    if n < 1 or d < 1:
        raise InvalidInputError("n and d must be >= 1")
    value = 1.0 - n + n * (1.0 - delta) ** d - delta_n
    if not 0.0 < value < 1.0:
        raise ConfigError(
            f"delta_rho = {value:.6f} is outside (0, 1); "
            "choose smaller delta/delta_n or fewer agents/dimensions"
        )
    return value


def delta_x(d: int, delta: float) -> float:
    """Failure level of the single-model prediction bound: 1 - (1-delta)^d."""
    return 1.0 - (1.0 - delta) ** d


@dataclass(frozen=True)
class BoundParams:
    """The run's bound constants beta and lambda, plus what the failure levels
    read: the confidence levels delta and delta_n and the output dimension."""

    beta: float
    lam: float
    delta: float
    delta_n: float
    output_dim: int

    @classmethod
    def for_kernel(cls, cfg: KernelConfig, tau, delta, delta_n, lower, upper) -> "BoundParams":
        """beta over the box ``lower``..``upper`` (one entry per input dimension), then lambda."""
        tau, delta, delta_n = as_real("tau", tau), as_real("delta", delta), as_real("delta_n", delta_n)
        lower, upper = (
            tuple(as_real("box end", v) for v in np.atleast_1d(np.asarray(end, dtype=object)))
            for end in (lower, upper)
        )
        if not len(lower) == len(upper) == cfg.input_dim:
            raise InvalidInputError(f"the box needs {cfg.input_dim} entries, got {len(lower)}")
        if any(map(math.isinf, lower + upper)):  # beta_delta rejects NaN
            raise InvalidInputError("box ends must be finite")
        beta = beta_delta(tau, delta, lower, upper)
        noise_std = math.sqrt(cfg.noise_variance)
        lam = lambda_factor(cfg.output_dim, beta, cfg.kappa0, noise_std, delta_n)
        return cls(beta, lam, delta, delta_n, cfg.output_dim)

    def delta_rho(self, n: int) -> float:
        return delta_rho(n, self.output_dim, self.delta, self.delta_n)

    def delta_x(self) -> float:
        return delta_x(self.output_dim, self.delta)


def eta_from_counts(
    d: int, beta: float, kappa0: float, noise_variance: float, n_included: int, rho: float
) -> float:
    """Prediction-error bound from the included-set size and threshold.

    eta = 2 sqrt(d beta (kappa0 - |I| rho^2 / (|I| kappa0 + noise)))
    """
    if n_included < 0:
        raise InvalidInputError("n_included must be nonnegative")
    if n_included == 0:
        radicand = kappa0
    else:
        radicand = kappa0 - n_included * rho**2 / (n_included * kappa0 + noise_variance)
    if radicand < -1e-12 * kappa0:
        raise InternalConsistencyError(f"negative radicand {radicand} in eta bound")
    return 2.0 * math.sqrt(d * beta * max(radicand, 0.0))


def eta_bound(model: AgentModel, idx: IndexSelection, beta: float) -> float:
    """Prediction-error bound of one model at the query behind ``idx``."""
    cfg = model.cfg
    return eta_from_counts(
        cfg.output_dim,
        beta,
        cfg.kappa0,
        cfg.noise_variance,
        int(idx.included.size),
        idx.rho,
    )


def tilde_eta(eta: float, epsilon: float, approx_mean: np.ndarray) -> float:
    """Per-agent aggregated-prediction bound: ||approx_mean|| / epsilon + eta.

    The infinity sentinel in ``epsilon`` certifies zero truncation loss, so
    the loss term vanishes; epsilon = 0 gives an infinite bound (returned,
    not raised).
    """
    if epsilon < 0:
        raise InvalidInputError("epsilon must be nonnegative")
    if math.isinf(epsilon):
        return eta
    if epsilon == 0.0:
        return math.inf
    return math.sqrt(float(approx_mean @ approx_mean)) / epsilon + eta


def aggregated_bound(
    etas: dict[int, float],
    epsilons: dict[int, float],
    approx_means: dict[int, np.ndarray],
    weights: dict[int, dict[int, float]],
) -> tuple[dict[int, float], dict[int, float], float]:
    """Bounds for every agent's joint prediction and for the whole system.

    ``weights[i][s]`` is agent i's weight on collaborator s (summing to one
    over s). Returns the per-agent single-model bounds tilde_eta, the
    per-agent aggregated bounds hat_eta (weighted sums of the collaborators'
    tilde_eta), and their Euclidean norm as the system-level bound.
    """
    tilde = {
        s: tilde_eta(etas[s], epsilons[s], approx_means[s]) for s in etas
    }
    hat: dict[int, float] = {}
    for i, w_i in weights.items():
        total = sum(w_i.values())
        if not math.isclose(total, 1.0, rel_tol=0, abs_tol=1e-8):
            raise InvalidInputError(f"weights of agent {i} sum to {total}, expected 1")
        hat[i] = sum(w * tilde[s] for s, w in w_i.items())
    mas = float(np.linalg.norm(list(hat.values()))) if hat else 0.0
    return tilde, hat, mas
