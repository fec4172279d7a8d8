"""Reference paths that the library itself does not need.

The library predicts through ``AgentModel.posterior_mean`` (cached alpha)
and through ``score_and_approx_mean`` (truncated error sums). Direct
transcriptions of the paper's error-informed formulas check both.
``CopyingModel`` keeps the model's caches by copying on every change, the
way ``AgentModel`` did before it deleted and appended in its own buffers.
``joint_predict_per_requester`` selects and weighs for one requester at a
time over dicts, the reference for the batched round.
"""

import math

import numpy as np
from scipy.linalg import cho_solve, cholesky, solve_triangular
from scipy.linalg.blas import drot

from eigp import InvalidInputError, gram, kernel_vec, score_and_approx_mean


def posterior_mean_via_errors(model, x, j: int = 0) -> float:
    """-(1/noise) * sum_p errors[j][p] * kappa(x, x_p): Property 1 of the paper.

    Must agree with ``model.posterior_mean``; an empty model gives 0.
    """
    if model.n == 0:
        return 0.0
    k = kernel_vec(model.cfg, model.X, x)
    return float(np.dot(k, model.errors[j])) * (-1.0 / model.cfg.noise_variance)


def approx_mean(model, x, idx, j: int = 0) -> float:
    """Truncated posterior mean over the included set of ``idx``.

    With a complete index set this equals ``posterior_mean_via_errors``
    exactly; an empty set gives 0.
    """
    included = np.asarray(idx.included, dtype=int)
    if included.size and included.max() >= model.n:
        raise InvalidInputError("index selection refers to points beyond the dataset")
    if included.size == 0:
        return 0.0
    k = idx.kernel_values if idx.kernel_values is not None else kernel_vec(model.cfg, model.X, x)
    if included.size == model.n:
        k_sel, e_sel = k, model.errors[j]
    else:
        k_sel, e_sel = k[included], model.errors[j][included]
    return float(np.dot(k_sel, e_sel)) * (-1.0 / model.cfg.noise_variance)


class CopyingModel:
    """X, Y, Gram matrix, Cholesky factor and alpha, rebuilt by copies.

    A deletion copies the surviving blocks, downdates the factor on the copy
    and re-solves alpha; an append allocates the bordered Gram matrix and
    factor and re-solves alpha again.
    """

    def __init__(self, cfg, X=None, Y=None):
        self.cfg = cfg
        self.X = np.zeros((0, cfg.input_dim)) if X is None else np.array(X, dtype=float)
        self.Y = np.zeros((0, cfg.output_dim)) if Y is None else np.array(Y, dtype=float)
        self.K = gram(cfg, self.X)
        self.chol = cholesky(self.K + cfg.noise_variance * np.eye(len(self.X)), lower=True)
        self.alpha = cho_solve((self.chol, True), self.Y)

    def delete(self, k: int) -> None:
        self.X = np.delete(self.X, k, axis=0)
        self.Y = np.delete(self.Y, k, axis=0)
        self.K = _without(self.K, k)
        self.chol = _chol_delete(self.chol, k)
        self.alpha = cho_solve((self.chol, True), self.Y)

    def append(self, x, y) -> None:
        cfg, n = self.cfg, len(self.X)
        k_new = kernel_vec(cfg, self.X, x)
        K = np.empty((n + 1, n + 1))
        K[:n, :n] = self.K
        K[n, :n] = K[:n, n] = k_new
        K[n, n] = cfg.signal_variance
        diag = cfg.signal_variance + cfg.noise_variance
        v = solve_triangular(self.chol, k_new, lower=True)
        s2 = diag - float(v @ v)
        if s2 <= 1e-12 * diag:  # the library's refactor floor
            L = cholesky(K + cfg.noise_variance * np.eye(n + 1), lower=True)
        else:
            L = np.zeros((n + 1, n + 1), order="F")
            L[:n, :n] = self.chol
            L[n, :n] = v
            L[n, n] = np.sqrt(s2)
        self.X = np.vstack([self.X, np.reshape(x, (1, -1))])
        self.Y = np.vstack([self.Y, np.reshape(y, (1, -1))])
        self.K, self.chol = K, L
        self.alpha = cho_solve((self.chol, True), self.Y)

    def ingest(self, x, y, capacity: int):
        """Bounded-memory ingest; returns the deleted index or None."""
        deleted = None
        if len(self.X) >= capacity:
            deleted = int(np.argmin(kernel_vec(self.cfg, self.X, x)))
            self.delete(deleted)
        self.append(x, y)
        return deleted


def _without(A: np.ndarray, k: int) -> np.ndarray:
    """Square ``A`` without row and column ``k``, in ``A``'s memory order."""
    n = A.shape[0]
    out = np.empty_like(A, shape=(n - 1, n - 1))
    out[:k, :k] = A[:k, :k]
    out[:k, k:] = A[:k, k + 1 :]
    out[k:, :k] = A[k + 1 :, :k]
    out[k:, k:] = A[k + 1 :, k + 1 :]
    return out


def _chol_delete(L: np.ndarray, k: int) -> np.ndarray:
    """Lower Cholesky factor of L L^T without row and column ``k``, in O(N^2).

    Dropping row and column k keeps ``L[:k, :k]`` and ``L[k+1:, :k]``; the
    trailing block must factor ``L33 L33^T + l l^T`` with ``l = L[k+1:, k]``,
    one Givens rotation per column applied by BLAS ``drot``.
    """
    out = np.asfortranarray(_without(L, k))  # drot writes in place only to contiguous columns
    x = L[k + 1 :, k].copy()
    for i, a in enumerate(out.diagonal()[k:].tolist()):
        b = x.item(i)
        r = math.hypot(a, b)
        drot(out[k + i :, k + i], x[i:], a / r, b / r, overwrite_x=True, overwrite_y=True)
    return out


# ----------------------------------------------------------------------
# per-requester selection and weights over dicts
# ----------------------------------------------------------------------


def joint_predict_per_requester(requester, x, models, graph, method, cfg):
    """One requester's prediction through dicts of scalars, one agent at a time.

    The selection and weight pipeline the library ran per requester before
    it weighed every requester of a round in one batched pass. Returns the
    prediction, the selected ids, their ``(d,)`` weights and the degenerate
    flag.
    """
    d = cfg.output_dim
    neighborhood = graph.closed_neighborhood(requester)
    if method.is_baseline:
        return _baseline_predict(x, models, neighborhood, method, cfg)
    evaluations = {s: score_and_approx_mean(models[s], x, method.rho_policy) for s in neighborhood}
    eps = {s: evaluations[s][0].epsilon for s in neighborhood}
    degenerate = all(models[s].n == 0 for s in neighborhood)
    if degenerate:
        selected, weights = (requester,), {requester: 1.0}
    elif method.name == "gEIGP":
        best = _argmax_agent(eps)
        selected, weights = (best,), {best: 1.0}
    else:
        selected, phi = _adaptive_select(eps, method.theta)
        tilde_w = _error_weights(_gaussianize_epsilon(eps), phi)
        if method.nu == 1.0 and method.tradeoff is None:
            weights = _proportional_normalize(tilde_w)
        else:
            variances = {s: models[s].posterior_var(x) for s in selected}
            if method.tradeoff is None:
                weights = _aeigp_weights(tilde_w, variances, method.nu, cfg)
            else:
                weights = _generalized_weights(
                    tilde_w, variances, method.nu, method.tradeoff, method.variance_family, cfg
                )
    tiled = _tile(weights, d)
    prediction = np.zeros(d)
    for s in selected:
        prediction += tiled[s] * evaluations[s][1]
    return prediction, selected, tiled, degenerate


def _baseline_predict(x, models, neighborhood, method, cfg):
    """Every neighbor's classical prediction, weighed by the baseline's rule."""
    d = cfg.output_dim
    means, variances = {}, {}
    for s in neighborhood:
        means[s], variances[s] = models[s].classical_predict(x)
    weights = _baseline_weights(method.name, variances, cfg)
    prediction = np.zeros(d)
    for s in neighborhood:
        prediction += weights[s] * means[s]
    degenerate = all(models[s].n == 0 for s in neighborhood)
    return prediction, neighborhood, _tile(weights, d), degenerate


def _tile(weights, d):
    return {s: np.full(d, w) for s, w in weights.items()}


def _argmax_agent(scores):
    best = None
    best_score = -math.inf
    for s in sorted(scores):
        if scores[s] > best_score:
            best, best_score = s, scores[s]
    return best


def _sentinel_set(scores):
    return tuple(s for s in sorted(scores) if math.isinf(scores[s]))


def _gaussianize_epsilon(scores):
    sentinels = _sentinel_set(scores)
    if sentinels:
        return {s: (1.0 if s in sentinels else 0.0) for s in scores}
    values = np.array([scores[s] for s in sorted(scores)])
    sigma = float(np.std(values))
    if sigma == 0.0:
        return {s: 1.0 for s in scores}
    top = float(values.max())
    return {
        s: float(np.exp(-((top - scores[s]) ** 2) / (2.0 * sigma**2)) / (sigma * math.sqrt(2.0 * math.pi)))
        for s in scores
    }


def _adaptive_select(scores, theta):
    sentinels = _sentinel_set(scores)
    if sentinels:
        return sentinels, {s: (1 if s in sentinels else 0) for s in scores}
    values = [scores[s] for s in scores]
    threshold = max(values) - theta * float(np.std(values))
    phi = {s: (1 if scores[s] >= threshold else 0) for s in scores}
    return tuple(s for s in sorted(scores) if phi[s]), phi


def _minmax_normalize(v):
    v = np.atleast_1d(np.asarray(v, dtype=float))
    lo, hi = float(v.min()), float(v.max())
    if hi == lo:
        return np.ones_like(v)
    return (v - lo) / (hi - lo)


def _left_sum(values):
    """The sum in the order given; the built-in sum of floats is compensated from Python 3.12 on."""
    total = 0.0
    for v in values:
        total += v
    return total


def _proportional_normalize(values):
    total = _left_sum(values.values())
    if total <= 0:
        raise InvalidInputError("proportional normalization needs a positive total")
    return {s: v / total for s, v in values.items()}


def _error_weights(tilde_eps, phi):
    selected = [s for s in sorted(phi) if phi[s]]
    scaled = _minmax_normalize([tilde_eps[s] for s in selected])
    return dict(zip(selected, (float(w) for w in scaled)))


def _log_precision_gain(cfg, var, agent):
    cap = cfg.prior_plus_noise
    if var <= 0:
        raise InvalidInputError(f"agent {agent}: posterior variance must be positive")
    if var > cap * (1.0 + 1e-6):
        raise InvalidInputError(f"agent {agent}: posterior variance {var} exceeds prior plus noise")
    return math.log(cap / min(var, np.nextafter(cap, 0.0)))


def _aeigp_weights(tilde_w, variances, nu, cfg):
    ids = sorted(tilde_w)
    prior = cfg.prior_plus_noise
    gains = {s: _log_precision_gain(cfg, variances[s], s) for s in ids}
    precisions = {s: 1.0 / variances[s] for s in ids}
    agg_precision = _left_sum(tilde_w[s] * gains[s] * precisions[s] for s in ids)
    blend = _left_sum(tilde_w[s] ** nu * gains[s] ** (1.0 - nu) for s in ids)
    agg_precision += (1.0 - blend) / prior
    agg_var = 1.0 / agg_precision if agg_precision > 0 else 1.0
    scores = {
        s: tilde_w[s] ** nu * (gains[s] * precisions[s] * agg_var) ** (1.0 - nu) for s in ids
    }
    return _proportional_normalize(scores)


def _family_scores(family, gains, variances, cfg):
    ids = sorted(variances)
    for s in ids:
        if variances[s] <= 0:
            raise InvalidInputError(f"agent {s}: posterior variance must be positive")
    precisions = {s: 1.0 / variances[s] for s in ids}
    numerators = {s: gains[s] * precisions[s] for s in ids}
    if family == "poe":
        denom = _left_sum(numerators.values())
    else:
        correction = (1.0 - _left_sum(gains.values())) / cfg.prior_plus_noise
        denom = _left_sum(precisions.values()) + correction
    if denom <= 0:
        raise InvalidInputError("variance-family denominator must be positive")
    return {s: numerators[s] / denom for s in ids}


def _generalized_weights(tilde_w, variances, nu, kind, family, cfg):
    ids = sorted(tilde_w)
    gains = {s: _log_precision_gain(cfg, variances[s], s) for s in ids}
    family_scores = _family_scores(family, gains, variances, cfg)
    scores = {}
    for s in ids:
        a, b = tilde_w[s], family_scores[s]
        if kind == "linear":
            scores[s] = nu * a + (1.0 - nu) * b
        else:  # exponential
            scores[s] = math.exp(nu * a) + math.exp((1.0 - nu) * b)
    return _proportional_normalize(scores)


def _baseline_weights(method, variances, cfg):
    ids = sorted(variances)
    if method == "MOE":
        return {s: 1.0 / len(ids) for s in ids}
    if method in ("GPOE", "RBCM"):
        gains = {s: 0.5 * _log_precision_gain(cfg, variances[s], s) for s in ids}
    else:  # POE, BCM
        gains = {s: 1.0 for s in ids}
    family = "poe" if method in ("POE", "GPOE") else "bcm"
    return _proportional_normalize(_family_scores(family, gains, variances, cfg))
