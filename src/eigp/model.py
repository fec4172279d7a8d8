"""Single-agent Gaussian-process model with incrementally maintained caches.

The model keeps, next to the raw data, everything needed for O(N) mean
prediction and for the error-informed machinery built on top:

    K       (N, N)  Gram matrix of the stored inputs
    chol    (N, N)  lower Cholesky factor of K + noise_variance * I
    alpha   (N, d)  solutions of (K + noise_variance * I) alpha = Y
    errors  (d, N)  per-point prediction errors, errors[j] = -noise * alpha[:, j]

Mutating operations (append, the deletion helpers in :mod:`eigp.memory`)
require exclusive access; predictions only read. The simulator enforces that
phase discipline, the class itself holds no locks.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import cho_solve, cholesky, solve_triangular

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
        model._refactor()
        return model

    @property
    def n(self) -> int:
        return self.X.shape[0]

    def __len__(self) -> int:
        return self.n

    # ------------------------------------------------------------------
    # cache maintenance
    # ------------------------------------------------------------------

    def _refactor(self) -> None:
        """Recompute the Cholesky factor, alpha and errors from X, Y, K."""
        if self.n == 0:
            d = self.cfg.output_dim
            self.chol = np.zeros((0, 0))
            self.alpha = np.zeros((0, d))
            self.errors = np.zeros((d, 0))
            return
        reg = self.K + self.cfg.noise_variance * np.eye(self.n)
        self.chol = cholesky(reg, lower=True)
        self._resolve()

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
            reg = self.K + self.cfg.noise_variance * np.eye(self.n)
            self.chol = cholesky(reg, lower=True)
            return
        L = np.zeros((n + 1, n + 1))
        L[:n, :n] = self.chol
        L[n, :n] = v
        L[n, n] = np.sqrt(s2)
        self.chol = L

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
