"""Bounded-memory streaming ingestion with kernel-similarity deletion.

An ingest holds exclusive access to its target model for the whole
transaction; ingests for distinct agents may run concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError
from .kernels import kernel_vec
from .model import AgentModel


@dataclass(frozen=True)
class IngestReport:
    """What one bounded-memory ingest did to its model."""

    deleted_index: int | None
    dataset_size_after: int


def find_deletion(model: AgentModel, x_incoming) -> int:
    """Index of the stored point least similar to the incoming one.

    Linear scan over the kernel values against ``x_incoming``; ties resolve
    to the smallest index for determinism.
    """
    if model.n == 0:
        raise InvalidInputError("cannot pick a deletion from an empty model")
    k = kernel_vec(model.cfg, model.X, x_incoming)
    return int(np.argmin(k))


def delete_and_reallocate(model: AgentModel, index: int) -> AgentModel:
    """Remove one point in O(N^2), without recomputing any kernel value.

    X and Y drop row ``index`` and the Cholesky factor row and column
    ``index``, in the model's own buffers; the factor's trailing block is
    restored by a rank-1 update, never refactored. Alpha and the errors go
    stale until the next append solves them or a read of them re-solves.
    """
    if not 0 <= index < model.n:
        raise InvalidInputError(f"deletion index {index} out of range for {model.n} points")
    model._delete(index)
    return model


def ingest(model: AgentModel, x, y, capacity: int) -> IngestReport:
    """Append one point, deleting the least similar stored point if full.

    The capacity check runs before the append so the deletion compares the
    stored points against the incoming input; the post-state never exceeds
    ``capacity``, and a model already above it is rejected untouched. At
    capacity the deletion frees the slot the append fills, and alpha and the
    error vectors are solved once, at the end of the append.
    """
    if capacity < 1:
        raise InvalidInputError("capacity must be at least 1")
    if model.n > capacity:
        raise InvalidInputError(f"model holds {model.n} points, above capacity {capacity}")
    deleted = None
    if model.n >= capacity:
        deleted = find_deletion(model, x)
        delete_and_reallocate(model, deleted)
    model.append_point(x, y)
    return IngestReport(deleted_index=deleted, dataset_size_after=model.n)
