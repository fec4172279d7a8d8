"""Single-agent Gaussian-process model with incrementally maintained caches.

The model offers, next to the raw data, everything needed for O(N) mean
prediction and for the error-informed machinery built on top:

    K       (N, N)  Gram matrix of the stored inputs, recomputed on each read
    chol    (N, N)  lower Cholesky factor of K + noise_variance * I
    alpha   (N, d)  solutions of (K + noise_variance * I) alpha = Y
    errors  (d, N)  per-point prediction errors, errors[j] = -noise * alpha[:, j]

A query has one mean path, ``k @ alpha``, and one variance path,
kappa(0) - ||L^-1 k||^2 clamped at zero; ``posterior_mean``,
``posterior_var`` and the baselines' ``classical_predict`` all read them,
the last from a single kernel vector.

X, Y and the factor, the only N x N array kept, fill the leading N rows (and
columns) of buffers that a deletion does not shrink. A deletion shifts the
surviving blocks up and left in place and restores the trailing factor block
with a rank-1 update, one Givens rotation per column (O(N^2), not an O(N^3)
refactorization; Gill, Golub, Murray & Saunders, *Methods for modifying
matrix factorizations*, 1974). An append borders the factor with one row in
the slot a deletion left, or in buffers grown by one, and solves for alpha:
an ingest at capacity allocates no N x N array and solves once. After a bare
deletion, reading ``chol``, ``alpha`` or ``errors`` trims the buffers to N
and re-solves. The factor is refactored only when an append is
ill-conditioned (``refactor_fallbacks`` counts those). It is
Fortran-ordered, as ``scipy.linalg.cholesky`` returns it, so LAPACK reads it
without a copy.

Mutating operations (append, the deletion helpers in :mod:`eigp.memory`)
require exclusive access; predictions only read. The simulator enforces that
phase discipline, the class itself holds no locks. ``X``, ``Y`` and ``chol``
are views of the buffers, which later mutations overwrite.
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
    """Dataset, Cholesky factor and prediction-error vectors for one agent."""

    def __init__(self, cfg: KernelConfig):
        self.cfg = cfg
        m, d = cfg.input_dim, cfg.output_dim
        self.n = 0
        self._X = np.zeros((0, m))
        self._Y = np.zeros((0, d))
        self._L = np.zeros((0, 0), order="F")
        self._alpha = np.zeros((0, d))  # None while a deletion is unsettled
        self._errors = np.zeros((d, 0))
        self.variance_clamps = 0  # posterior variances clipped up to 0
        self.refactor_fallbacks = 0  # appends that refactored instead of extending

    @classmethod
    def from_data(cls, cfg: KernelConfig, X, Y) -> "AgentModel":
        """Build a model from a batch of points in one factorization."""
        model = cls(cfg)
        # Copies: deletions shift the model's buffers in place.
        X = np.array(X, dtype=float).reshape(-1, cfg.input_dim)
        Y = np.array(Y, dtype=float).reshape(-1, cfg.output_dim)
        if X.shape[0] != Y.shape[0]:
            raise InvalidInputError("X and Y must hold the same number of points")
        if not (np.isfinite(X).all() and np.isfinite(Y).all()):
            raise InvalidInputError("training data must be finite")
        model.n = X.shape[0]
        model._X, model._Y = X, Y
        model._factor()
        model._resolve()
        return model

    def __len__(self) -> int:
        return self.n

    @property
    def X(self) -> np.ndarray:
        return self._X[: self.n]

    @property
    def Y(self) -> np.ndarray:
        return self._Y[: self.n]

    @property
    def K(self) -> np.ndarray:
        """Gram matrix of the stored inputs: a fresh array for diagnostics, not a view."""
        return gram(self.cfg, self.X)

    @property
    def chol(self) -> np.ndarray:
        self._settle()
        return self._L

    @property
    def alpha(self) -> np.ndarray:
        self._settle()
        return self._alpha

    @property
    def errors(self) -> np.ndarray:
        self._settle()
        return self._errors

    # ------------------------------------------------------------------
    # cache maintenance
    # ------------------------------------------------------------------

    def _settle(self) -> None:
        """After a bare deletion: trim the buffers to the data and re-solve."""
        if self._alpha is None:
            self._resize(self.n)
            self._resolve()

    def _resize(self, size: int) -> None:
        """Move the data into fresh buffers with ``size`` >= n slots."""
        n, m, d = self.n, self.cfg.input_dim, self.cfg.output_dim
        X, Y = np.zeros((size, m)), np.zeros((size, d))
        L = np.zeros((size, size), order="F")
        X[:n], Y[:n], L[:n, :n] = self.X, self.Y, self._L[:n, :n]
        self._X, self._Y, self._L = X, Y, L

    def _factor(self) -> None:
        """Factor a recomputed K + noise_variance * I in its own (Fortran-ordered) memory."""
        reg = gram(self.cfg, self.X)
        reg.flat[:: self.n + 1] += self.cfg.noise_variance
        self._L = cholesky(reg, lower=True, overwrite_a=True)

    def _resolve(self, z: np.ndarray | None = None) -> None:
        """Solve alpha (only backward when given ``z = L^-1 Y``), then the errors.

        errors[j] = -noise_variance * alpha[:, j] equals the posterior-mean
        residual at every stored input, read off the solve instead of recomputed.
        """
        if z is None:
            self._alpha = cho_solve((self._L, True), self.Y)
        else:
            self._alpha = solve_triangular(self._L, z, lower=True, trans="T")
        self._errors = np.ascontiguousarray((-self.cfg.noise_variance * self._alpha).T)

    def append_point(self, x, y) -> "AgentModel":
        """Add one (x, y) pair, extending the factor by a bordered row.

        Capacity is not checked here; bounded-memory ingestion lives in
        :mod:`eigp.memory`. Alpha and the errors are solved afresh.
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
        if self._L.shape[0] != n + 1:  # no single spare slot: grow, or trim deletions
            self._resize(n + 1)
        self._X[n], self._Y[n] = x, y
        L = self._L
        # Solve on the whole contiguous buffer (LAPACK would copy an [:n, :n]
        # view): with a unit diagonal in the spare row it is nonsingular, and
        # its first n rows solve as L alone. One forward solve against [k Y]
        # yields v = L^-1 k and z = L^-1 Y, half of alpha's; row n is redone.
        L[n, n] = 1.0
        vz = solve_triangular(L, np.column_stack([np.append(k_new, 0.0), self._Y]), lower=True)
        v, z = vz[:n, 0], vz[:, 1:]
        diag = self.cfg.signal_variance + self.cfg.noise_variance
        s2 = diag - float(v @ v)
        self.n = n + 1
        if s2 > _REFACTOR_FLOOR * diag:
            L[n, :n] = v
            L[n, n] = np.sqrt(s2)
            z[n] = (y - v @ z[:n]) / L[n, n]
            self._resolve(z)
        else:  # ill-conditioned extension; refactor from a recomputed Gram matrix
            self.refactor_fallbacks += 1
            self._factor()
            self._resolve()
        return self

    def _delete(self, index: int) -> None:
        """Drop point ``index`` in place and downdate the factor.

        Alpha and the errors go stale until the next append or read. The
        range of ``index`` is checked by the caller.
        """
        n, k = self.n - 1, index  # n: size after the deletion
        L = self._L
        x = L[k + 1 : n + 1, k].copy()
        for A in (self._X, self._Y):
            A[k:n] = A[k + 1 : n + 1]
        _shift_out(L, n, k)
        # The trailing block must now factor L33 L33^T + x x^T, a positive
        # semi-definite gain, so no rotation can break down. Rotation i writes
        # only column k + i, so the diagonal can be read up front; drot takes
        # it at an offset into the flat buffer, half the cost of slicing.
        size, flat = L.shape[0], L.reshape(-1, order="F")
        for i, a in enumerate(L.diagonal()[k:n].tolist()):
            b = x.item(i)
            r = math.hypot(a, b)
            # x, y, c, s, n, offx, incx, offy, incy, overwrite_x, overwrite_y
            drot(flat, x, a / r, b / r, n - k - i, (k + i) * (size + 1), 1, i, 1, 1, 1)
        self.n = n
        self._alpha = self._errors = None

    # ------------------------------------------------------------------
    # prediction
    # ------------------------------------------------------------------

    def posterior_mean(self, x, j: int = 0) -> float:
        """Posterior mean of output dimension ``j``: entry ``j`` of ``k @ alpha``.

        The same expression as the means of :meth:`classical_predict`, so the
        two agree bit for bit. An empty model returns the prior mean 0.
        """
        if self.n == 0:
            return 0.0
        k = kernel_vec(self.cfg, self.X, x)
        return float((k @ self.alpha)[j])

    def posterior_var(self, x) -> float:
        """Posterior variance at ``x``, shared by all output dimensions.

        An empty model returns the prior variance kappa(0).
        """
        if self.n == 0:
            return self.cfg.kappa0
        return self._variance(kernel_vec(self.cfg, self.X, x))

    def classical_predict(self, x) -> tuple[np.ndarray, float]:
        """Means of all dimensions plus the variance, from one kernel vector.

        This is the conventional expert-prediction route used by the
        baseline aggregators: the means ``k @ alpha`` and one O(N^2) forward
        solve for the variance per query, no reuse of the cached error
        vectors.
        """
        if self.n == 0:
            return np.zeros(self.cfg.output_dim), self.cfg.kappa0
        k = kernel_vec(self.cfg, self.X, x)
        return k @ self.alpha, self._variance(k)

    def _variance(self, k: np.ndarray) -> float:
        """kappa0 - ||L^-1 k||^2 for the kernel vector ``k`` of a query.

        Clamped at zero from below when cancellation produces a tiny
        negative; ``variance_clamps`` counts each clamp.
        """
        v = solve_triangular(self.chol, k, lower=True)
        var = self.cfg.kappa0 - float(v @ v)
        if var < 0.0:
            self.variance_clamps += 1
            var = 0.0
        return var

    # ------------------------------------------------------------------
    # diagnostics
    # ------------------------------------------------------------------

    def validate_cache(self, rtol: float = 1e-9) -> None:
        """Raise if any cached quantity disagrees with a recomputation."""
        if self.n == 0:
            return
        resid = np.linalg.norm(self.K @ self.alpha + self.cfg.noise_variance * self.alpha - self.Y)
        scale = max(np.linalg.norm(self.Y), 1.0)
        if resid > rtol * scale:
            raise InternalConsistencyError(f"alpha residual {resid:.3e} exceeds tolerance")
        if not np.allclose(
            self.errors, (-self.cfg.noise_variance * self.alpha).T, rtol=0, atol=1e-12
        ):
            raise InternalConsistencyError("error cache out of sync with alpha")


def _shift_out(A: np.ndarray, n: int, k: int) -> None:
    """Drop row and column ``k`` of the leading (n + 1) block of F-ordered ``A``.

    Rows above ``k`` of the later columns get entries from above the old
    diagonal, which are zeros in a lower-triangular factor.
    """
    A[k:n, :k] = A[k + 1 : n + 1, :k]
    if k < n:
        # Up a row and left a column is size + 1 places of the flat buffer: one
        # 1-D overlapping copy in place, where a 2-D one goes through a temporary.
        size = A.shape[0]
        flat = A.reshape(-1, order="F")
        a, b = k * (size + 1), (n - 1) * (size + 1) + 1
        flat[a:b] = flat[a + size + 1 : b + size + 1]
