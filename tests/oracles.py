"""Reference paths that the library itself does not need.

The library predicts through ``AgentModel.posterior_mean`` (cached alpha)
and through ``score_and_approx_mean`` (truncated error sums). Direct
transcriptions of the paper's error-informed formulas check both.
``CopyingModel`` keeps the model's caches by copying on every change, the
way ``AgentModel`` did before it deleted and appended in its own buffers.
"""

import math

import numpy as np
from scipy.linalg import cho_solve, cholesky, solve_triangular
from scipy.linalg.blas import drot

from eigp import InvalidInputError, gram, kernel_vec


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
