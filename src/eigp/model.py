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

The factor is finite by construction, so its solves call LAPACK's
``trtrs`` and ``potrs`` (``scipy.linalg.lapack``) directly: no per-call
wrapper re-validating the arguments and no finiteness scan (a full pass over
the N x N buffer per solve); only ``cholesky`` of a freshly computed Gram
matrix keeps scipy's check. A nonzero ``info``, which a zero on the diagonal
gives and the argument below rules out, raises
:class:`~eigp.errors.InternalConsistencyError`. The bindings reject 0-size
arrays, so ``_solve`` returns an empty model's empty solution itself, and
an empty model takes the general path of every method but ``posterior_var``.
The argument, and the O(N) checks that guard it:

- X and Y are finite: :func:`eigp.kernels.as_input` rejects a non-finite
  input, and ``from_data`` and ``append_point`` a non-finite target. The
  kernel values of finite inputs are finite.
- Every diagonal entry of the factor is positive: it is at least
  sqrt(noise_variance), being the root of a Schur complement of
  K + noise_variance * I. So each Givens rotation of a deletion divides by
  r >= L_jj > 0.
- An append writes one row: ``v`` and sqrt(s2). A non-finite ``v`` makes
  ``s2 > floor`` false, so it takes the refactor path like an
  ill-conditioned append.
- Alpha is checked after each solve (O(N d)): targets near the float range
  can overflow it, and the append that did so is undone and raises
  :class:`~eigp.errors.InvalidInputError`.

Mutating operations (append, the deletion helpers in :mod:`eigp.memory`)
require exclusive access; predictions only read. The simulator enforces that
phase discipline, the class itself holds no locks. ``X``, ``Y`` and ``chol``
are views of the buffers, which later mutations overwrite.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg import cholesky
from scipy.linalg.blas import drot
from scipy.linalg.lapack import dpotrs, dtrtrs

from .errors import InternalConsistencyError, InvalidInputError
from .kernels import KernelConfig, as_input, gram, kernel_vec

# Schur complements below this fraction of the noise floor trigger a full
# refactorization instead of an incremental factor extension.
_REFACTOR_FLOOR = 1e-12
# Relative tolerance of validate_cache's alpha residual.
_CACHE_RTOL = 1e-9


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
        Raises, leaving the caches as they were, if alpha overflows; the
        errors are residuals, no larger than the targets.
        """
        if z is None:
            alpha = _solve(dpotrs, self._L, self.Y)
        else:
            alpha = _solve(dtrtrs, self._L, z, trans=1)
        if not np.isfinite(alpha).all():
            raise InvalidInputError("targets too large: the posterior weights alpha overflow")
        self._alpha = alpha
        self._errors = np.ascontiguousarray((-self.cfg.noise_variance * alpha).T)

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
        if not np.isfinite(y).all():  # as_input has checked x
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
        rhs = np.column_stack([np.append(k_new, 0.0), self._Y])
        vz = _solve(dtrtrs, L, rhs)
        v, z = vz[:n, 0], vz[:, 1:]
        diag = self.cfg.signal_variance + self.cfg.noise_variance
        s2 = diag - float(v @ v)
        self.n = n + 1
        try:
            # False for a NaN s2 too: a non-finite v never enters the factor
            if s2 > _REFACTOR_FLOOR * diag:
                L[n, :n] = v
                L[n, n] = np.sqrt(s2)
                # an overflow here reaches alpha, where _resolve reports it
                with np.errstate(over="ignore", invalid="ignore"):
                    z[n] = (y - v @ z[:n]) / L[n, n]
                self._resolve(z)
            else:  # ill-conditioned extension; refactor from a recomputed Gram matrix
                self.refactor_fallbacks += 1
                self._factor()
                self._resolve()
        except InvalidInputError:  # alpha overflowed: drop the point again
            # The leading n x n block is the old points' factor on either
            # path; the next read trims to it and re-solves.
            self.n = n
            self._alpha = self._errors = None
            raise
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
        k = kernel_vec(self.cfg, self.X, x)
        return float((k @ self.alpha)[j])

    def posterior_var(self, x) -> float:
        """Posterior variance at ``x``, shared by all output dimensions.

        An empty model returns the prior variance kappa(0).
        """
        if self.n == 0:
            # The general path gives the same kappa(0), but a stream's fill
            # phase reads every selected empty agent's variance each round,
            # and streams ran slower without this shortcut.
            as_input(self.cfg, x)
            return self.cfg.kappa0
        return self._variance(kernel_vec(self.cfg, self.X, x))

    def classical_predict(self, x) -> tuple[np.ndarray, float]:
        """Means of all dimensions plus the variance, from one kernel vector.

        This is the conventional expert-prediction route used by the
        baseline aggregators: the means ``k @ alpha`` and one O(N^2) forward
        solve for the variance per query, no reuse of the cached error
        vectors.
        """
        k = kernel_vec(self.cfg, self.X, x)
        return k @ self.alpha, self._variance(k)

    def _variance(self, k: np.ndarray) -> float:
        """kappa0 - ||L^-1 k||^2 for the kernel vector ``k`` of a query.

        Clamped at zero from below when cancellation produces a tiny
        negative; ``variance_clamps`` counts each clamp.
        """
        v = _solve(dtrtrs, self.chol, k)
        var = self.cfg.kappa0 - float(v @ v)
        if var < 0.0:
            self.variance_clamps += 1
            var = 0.0
        return var

    # ------------------------------------------------------------------
    # diagnostics
    # ------------------------------------------------------------------

    def validate_cache(self) -> None:
        """Raise if any cached quantity disagrees with a recomputation."""
        if self.n == 0:
            return
        # Scaled by the largest target (at least 1) before the norms, which
        # square their entries and overflow for targets above about 1e154.
        top = max(float(np.abs(self.Y).max()), 1.0)
        resid = self.K @ self.alpha + self.cfg.noise_variance * self.alpha - self.Y
        resid = np.linalg.norm(resid / top)
        if resid > _CACHE_RTOL * max(np.linalg.norm(self.Y / top), 1.0):
            raise InternalConsistencyError(f"alpha residual {resid:.3e} exceeds tolerance")
        if not np.allclose(
            self.errors, (-self.cfg.noise_variance * self.alpha).T, rtol=0, atol=1e-12
        ):
            raise InternalConsistencyError("error cache out of sync with alpha")


def _solve(routine, L: np.ndarray, b: np.ndarray, **kwargs) -> np.ndarray:
    """LAPACK ``routine`` (``dtrtrs`` or ``dpotrs``) with the lower factor ``L``.

    ``L`` is Fortran-ordered, so the binding reads it in place; it copies
    ``b`` and returns the solution in the shape of ``b``. The bindings reject
    a 0-size ``b``, an empty model's, so its empty solution is returned here.
    """
    if b.size == 0:
        return np.zeros(b.shape)
    x, info = routine(L, b, lower=1, **kwargs)
    if info != 0:
        raise InternalConsistencyError(f"LAPACK solve against the factor failed (info {info})")
    return x


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
