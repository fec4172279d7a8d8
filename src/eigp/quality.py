"""Error-informed quality scoring: kernel-threshold index sets and epsilon.

A selection keeps what its readers use: the included indices, the threshold
rho and the query's kernel vector. The excluded points are the rest, so
epsilon divides by their count N - |I| and never lists them. A score holds
epsilon and the selection it came from.

Every function here is pure over an immutable model snapshot; concurrent
evaluation across agents and queries is safe.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError
from .kernels import kernel_vec
from .model import AgentModel

RHO_KINDS = ("constant", "mean", "median", "min")


@dataclass(frozen=True)
class RhoPolicy:
    """How to resolve the similarity threshold rho for one (agent, query) pair."""

    kind: str = "mean"
    value: float | None = None

    def __post_init__(self):
        if self.kind not in RHO_KINDS:
            raise InvalidInputError(f"unknown rho policy {self.kind!r}, expected one of {RHO_KINDS}")
        finite = isinstance(self.value, numbers.Real) and math.isfinite(self.value)
        if self.kind == "constant" and not finite:
            raise InvalidInputError(f"constant rho policy needs a finite value, got {self.value!r}")
        if self.kind != "constant" and self.value is not None:
            raise InvalidInputError(f"rho policy {self.kind!r} takes no value")


@dataclass
class IndexSelection:
    """The stored points kernel-similar to one query.

    ``included`` holds the indices whose kernel value meets the threshold
    ``rho``; the rest are excluded. The raw kernel vector is kept for reuse
    by the epsilon score and the truncated mean.
    """

    included: np.ndarray
    rho: float
    kernel_values: np.ndarray


@dataclass
class QualityScore:
    """Epsilon evaluation of one agent at one query point.

    ``epsilon`` is nonnegative and is ``math.inf`` exactly when the excluded
    set is empty (the truncation then loses nothing). Larger epsilon
    certifies a smaller relative loss of the truncated prediction.
    """

    epsilon: float
    idx: IndexSelection

    def __post_init__(self):
        if self.epsilon < 0:
            raise InvalidInputError("epsilon must be nonnegative")


def select_indices(model: AgentModel, x, policy: RhoPolicy) -> IndexSelection:
    """Select the stored points whose kernel value at ``x`` meets threshold rho.

    ``constant`` uses the given value (must lie in [0, kappa(0)]); ``mean``,
    ``median`` and ``min`` use that statistic of the kernel vector. The
    ``min`` policy therefore always includes every point.
    """
    if model.n == 0:
        raise InvalidInputError("select_indices needs a non-empty model")
    k = kernel_vec(model.cfg, model.X, x)
    if policy.kind == "constant":
        rho = float(policy.value)
        if not 0.0 <= rho <= model.cfg.kappa0:
            raise InvalidInputError(
                f"constant rho {rho} outside [0, {model.cfg.kappa0}]"
            )
    elif policy.kind == "mean":
        rho = float(np.mean(k))
    elif policy.kind == "median":
        rho = float(np.median(k))
    else:  # min
        rho = float(np.min(k))
    return IndexSelection(included=np.flatnonzero(k >= rho), rho=rho, kernel_values=k)


def score_and_approx_mean(
    model: AgentModel, x, policy: RhoPolicy, lam: float = 1.0
) -> tuple[QualityScore, np.ndarray]:
    """Distance-aware quality score and truncated mean of one agent at one query.

    With the weighted error sum num = sum_{p in I} kappa(x_p, x) e(x_p),
    epsilon = ||num|| / (lam * rho * (N - |I|)), with the infinity sentinel
    when nothing is excluded, and the truncated mean is -num / noise. num is
    one product of the included error columns with the included kernel
    values, whatever the size of I (an empty I gives zeros), and the shared
    sum makes the evaluation cost one kernel vector. ``lam`` rescales
    every agent's score equally and changes no argmax or threshold decision,
    so selection scores at lam = 1 and the bounds divide by the certified
    lam. An empty model yields the infinity sentinel and the prior mean 0.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if model.n == 0:
        idx = IndexSelection(np.zeros(0, dtype=int), 0.0, np.zeros(0))
        return QualityScore(math.inf, idx), np.zeros(model.cfg.output_dim)
    idx = select_indices(model, x, policy)
    included = idx.included
    num_vec = model.errors[:, included] @ idx.kernel_values[included]
    tilde_mu = num_vec * (-1.0 / model.cfg.noise_variance)
    n_excluded = model.n - included.size
    if n_excluded == 0:
        eps = math.inf
    else:
        if lam <= 0:
            raise InvalidInputError("lam must be positive")
        eps = float(np.linalg.norm(num_vec)) / (lam * idx.rho * n_excluded)
    return QualityScore(eps, idx), tilde_mu
