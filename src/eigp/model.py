"""Single-agent Gaussian-process model with incrementally maintained caches.

The model keeps, next to the raw data, everything needed for O(N) mean
prediction and for the error-informed machinery built on top:

    K       (N, N)  Gram matrix of the stored inputs
    chol    (N, N)  lower Cholesky factor of K + noise_variance * I
    alpha   (N, d)  solutions of (K + noise_variance * I) alpha = Y
    errors  (d, N)  per-point prediction errors, errors[j] = -noise * alpha[:, j]

``chol`` is refactored only when an append is ill-conditioned
(``refactor_fallbacks`` counts those). An append borders it with one new row
(O(N^2)); a deletion drops row and column k and restores the trailing block
with a rank-1 update, one Givens rotation per column (O(N^2) instead of the
O(N^3) refactorization; Gill, Golub, Murray & Saunders, *Methods for
modifying matrix factorizations*, 1974). The factor
is kept Fortran-ordered, the layout ``scipy.linalg.cholesky`` returns:
LAPACK's triangular solves then read it in place, where a C-ordered factor
makes every ``cho_solve`` copy it first, and each rotation works on one
contiguous column.

Mutating operations (append, the deletion helpers in :mod:`eigp.memory`)
require exclusive access; predictions only read. The simulator enforces that
phase discipline, the class itself holds no locks.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg import cho_solve, cholesky, solve_triangular
from scipy.linalg.blas import drot

from .errors import InternalConsistencyError, InvalidInputError
from .kernels import KernelConfig, as_input, gram, kernel_vec

# Schur complements below this fraction of the noise floor trigger a full
# refactorization instead of an incremental factor extension.
_REFACTOR_FLOOR = 1e-12


class AgentModel:
    """Dataset, Gram caches and prediction-error vectors for one agent."""

    def __init__(self, cfg: KernelConfig):
        self.cfg = cfg
        m, d = cfg.input_dim, cfg.output_dim
        self.X = np.zeros((0, m))
        self.Y = np.zeros((0, d))
        self.K = np.zeros((0, 0))
        self.chol = np.zeros((0, 0))
        self.alpha = np.zeros((0, d))
        self.errors = np.zeros((d, 0))
        self.variance_clamps = 0  # times posterior_var was clipped up to 0
        self.refactor_fallbacks = 0  # appends that refactored instead of extending

    @classmethod
    def from_data(cls, cfg: KernelConfig, X, Y) -> "AgentModel":
        """Build a model from a batch of points in one factorization."""
        model = cls(cfg)
        X = np.asarray(X, dtype=float).reshape(-1, cfg.input_dim)
        Y = np.asarray(Y, dtype=float).reshape(-1, cfg.output_dim)
        if X.shape[0] != Y.shape[0]:
            raise InvalidInputError("X and Y must hold the same number of points")
        if not (np.isfinite(X).all() and np.isfinite(Y).all()):
            raise InvalidInputError("training data must be finite")
        model.X, model.Y = X, Y
        model.K = gram(cfg, X)
        model._factor()
        model._resolve()
        return model

    @property
    def n(self) -> int:
        return self.X.shape[0]

    def __len__(self) -> int:
        return self.n

    # ------------------------------------------------------------------
    # cache maintenance
    # ------------------------------------------------------------------

    def _factor(self) -> None:
        """Factor K + noise_variance * I anew (Fortran-ordered)."""
        reg = self.K + self.cfg.noise_variance * np.eye(self.n)
        self.chol = cholesky(reg, lower=True)

    def _resolve(self) -> None:
        """Refresh alpha from the current factor, then the error cache."""
        self.alpha = cho_solve((self.chol, True), self.Y)
        self.refresh_errors()

    def refresh_errors(self) -> None:
        """Set errors[j] = -noise_variance * alpha[:, j] for every dimension.

        Equivalent to evaluating the posterior-mean residual at every stored
        input, but retrieved from the cached solve instead of recomputed.
        """
        self.errors = np.ascontiguousarray((-self.cfg.noise_variance * self.alpha).T)

    def append_point(self, x, y) -> "AgentModel":
        """Add one (x, y) pair, extending the Gram matrix by a bordered row.

        Capacity is not checked here; bounded-memory ingestion lives in
        :mod:`eigp.memory` and may let the model exceed its threshold
        transiently inside a single ingest.
        """
        x = as_input(self.cfg, x)
        y = np.atleast_1d(np.asarray(y, dtype=float))
        if y.shape != (self.cfg.output_dim,):
            raise InvalidInputError(
                f"expected output of length {self.cfg.output_dim}, got shape {y.shape}"
            )
        if not (np.isfinite(x).all() and np.isfinite(y).all()):
            raise InvalidInputError("training data must be finite")

        k_new = kernel_vec(self.cfg, self.X, x)
        n = self.n
        K = np.empty((n + 1, n + 1))
        K[:n, :n] = self.K
        K[n, :n] = k_new
        K[:n, n] = k_new
        K[n, n] = self.cfg.signal_variance

        self.X = np.vstack([self.X, x[None, :]])
        self.Y = np.vstack([self.Y, y[None, :]])
        self.K = K
        self._extend_chol(k_new)
        self._resolve()
        return self

    def _extend_chol(self, k_new: np.ndarray) -> None:
        n = self.n - 1  # size before the append
        diag = self.cfg.signal_variance + self.cfg.noise_variance
        if n == 0:
            self.chol = np.array([[np.sqrt(diag)]])
            return
        v = solve_triangular(self.chol, k_new, lower=True)
        s2 = diag - float(v @ v)
        if s2 <= _REFACTOR_FLOOR * diag:
            # ill-conditioned extension; rebuild from the Gram matrix
            self.refactor_fallbacks += 1
            self._factor()
            return
        L = np.zeros((n + 1, n + 1), order="F")
        L[:n, :n] = self.chol
        L[n, :n] = v
        L[n, n] = np.sqrt(s2)
        self.chol = L

    def _delete(self, index: int) -> None:
        """Drop point ``index``: shrink X, Y and K, downdate the factor, resolve.

        The range of ``index`` is checked by the caller.
        """
        self.X = np.delete(self.X, index, axis=0)
        self.Y = np.delete(self.Y, index, axis=0)
        self.K = _without(self.K, index)
        self.chol = _chol_delete(self.chol, index)
        self._resolve()

    # ------------------------------------------------------------------
    # prediction
    # ------------------------------------------------------------------

    def posterior_mean(self, x, j: int = 0) -> float:
        """Posterior mean of output dimension ``j`` via the cached alpha.

        An empty model returns the prior mean 0.
        """
        if self.n == 0:
            return 0.0
        k = kernel_vec(self.cfg, self.X, x)
        return float(np.dot(k, self.alpha[:, j]))

    def posterior_var(self, x) -> float:
        """Posterior variance at ``x``, shared by all output dimensions.

        Clamped at zero from below when cancellation produces a tiny
        negative; an empty model returns the prior variance kappa(0).
        """
        if self.n == 0:
            return self.cfg.kappa0
        k = kernel_vec(self.cfg, self.X, x)
        v = solve_triangular(self.chol, k, lower=True)
        var = self.cfg.kappa0 - float(v @ v)
        if var < 0.0:
            self.variance_clamps += 1
            var = 0.0
        return var

    def classical_predict(self, x) -> tuple[np.ndarray, float]:
        """Means of all dimensions plus the variance via a per-query solve.

        This is the conventional expert-prediction route used by the
        baseline aggregators: one O(N^2) solve against the factor per
        query, no reuse of the cached error vectors.
        """
        if self.n == 0:
            return np.zeros(self.cfg.output_dim), self.cfg.kappa0
        k = kernel_vec(self.cfg, self.X, x)
        w = cho_solve((self.chol, True), k)
        means = w @ self.Y
        var = self.cfg.kappa0 - float(k @ w)
        if var < 0.0:
            self.variance_clamps += 1
            var = 0.0
        return means, var

    # ------------------------------------------------------------------
    # diagnostics
    # ------------------------------------------------------------------

    def validate_cache(self, rtol: float = 1e-9) -> None:
        """Raise if any cached quantity disagrees with a recomputation."""
        K_ref = gram(self.cfg, self.X)
        if not np.array_equal(self.K, K_ref):
            raise InternalConsistencyError("cached Gram matrix differs from recomputation")
        if self.n == 0:
            return
        reg = self.K + self.cfg.noise_variance * np.eye(self.n)
        resid = np.linalg.norm(reg @ self.alpha - self.Y)
        scale = max(np.linalg.norm(self.Y), 1.0)
        if resid > rtol * scale:
            raise InternalConsistencyError(f"alpha residual {resid:.3e} exceeds tolerance")
        if not np.allclose(
            self.errors, (-self.cfg.noise_variance * self.alpha).T, rtol=0, atol=1e-12
        ):
            raise InternalConsistencyError("error cache out of sync with alpha")


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
    trailing block must factor ``L33 L33^T + l l^T`` with ``l = L[k+1:, k]``.
    That rank-1 update rotates ``l`` into each column in turn, one Givens
    rotation per column, applied in place by BLAS ``drot`` on the
    contiguous columns of the Fortran-ordered result. Deleting a point is
    called a downdate of the factor, but the trailing block only gains a
    positive semi-definite term, so no rotation can break down.
    """
    out = np.asfortranarray(_without(L, k))  # drot writes in place only to contiguous columns
    x = L[k + 1 :, k].copy()
    # Rotation i writes only column k + i, so the diagonal can be read up front.
    for i, a in enumerate(out.diagonal()[k:].tolist()):
        b = x.item(i)
        r = math.hypot(a, b)
        drot(out[k + i :, k + i], x[i:], a / r, b / r, overwrite_x=True, overwrite_y=True)
    return out
