"""Percentiles, steady-state slicing, spreads and the correctness gate.

Pure functions over plain numbers; nothing here imports eigp.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field

import numpy as np

BLOCK = 100  # rounds per block of block_percentile_ms
RTOL = 1e-6  # relative tolerance of the SMSE references: rounding-level changes pass


def percentile_ms(seconds, q: float) -> tuple[float, int]:
    """The ``q``-th percentile of durations given in seconds, in ms, with n.

    Uses linear interpolation between order statistics (numpy's default).
    """
    values = np.asarray(seconds, dtype=float)
    if values.size == 0:
        raise ValueError("percentile of an empty sample")
    return float(np.percentile(values, q)) * 1e3, int(values.size)


def block_percentile_ms(groups: dict[str, list[float]], q: float):
    """Mean over blocks of consecutive rounds of each block's percentile (ms).

    Each group (one method, or all rounds) is cut, in time order, into
    ``len // BLOCK`` consecutive blocks of at least ``BLOCK`` rounds, so a
    p90 has at least ten rounds beyond it in every block. Returns the mean
    of the block percentiles, the number of rounds and the number of blocks.

    The machine this was tuned on switches between a fast and a slow speed
    state on a sub-second scale, which makes per-round times bimodal: a
    percentile pooled over a whole run sits on the edge between the two
    modes and jumps between them from run to run. A block's percentile
    falls in the state the block ran in, and the mean over blocks moves
    smoothly with the share of time spent in each state.
    """
    values, rounds = [], 0
    for samples in groups.values():
        rounds += len(samples)
        parts = np.array_split(np.asarray(samples, dtype=float), max(1, len(samples) // BLOCK))
        values.extend(percentile_ms(part, q)[0] for part in parts)
    return float(np.mean(values)), rounds, len(values)


def steady_records(records, first_step: int) -> list:
    """Records of the rounds at or after ``first_step`` (by ``iteration``)."""
    return [rec for rec in records if rec.iteration >= first_step]


def quartile_spread(values) -> float:
    """Distance between the first and third quartile, as a share of the median."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median


@dataclass
class Gate:
    """Counts predictions attempted and failed, and names failed checks.

    A prediction fails when it is not finite, or when any check of the unit
    that produced it fails: a unit whose state is wrong has no trustworthy
    predictions.
    """

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def add_unit(self, label: str, predictions, checks: dict[str, bool]) -> None:
        preds = np.asarray(predictions, dtype=float)
        rows = preds.reshape(preds.shape[0], -1)
        finite = np.isfinite(rows).all(axis=1)
        self.attempted += int(rows.shape[0])
        bad_checks = [name for name, ok in checks.items() if not ok]
        if not finite.all():
            bad_checks.insert(0, f"{int((~finite).sum())} non-finite predictions")
        if bad_checks:
            self.problems.extend(f"{label}: {name}" for name in bad_checks)
        if any(not ok for ok in checks.values()):
            self.failed += int(rows.shape[0])
        else:
            self.failed += int((~finite).sum())

    def matches(self, value: float, reference: float) -> bool:
        """``value`` equals ``reference`` within the relative tolerance ``RTOL``."""
        return bool(np.isfinite(value)) and abs(value - reference) <= RTOL * abs(reference)

    @property
    def correct(self) -> bool:
        return self.attempted > 0 and self.failed == 0 and not self.problems

    @property
    def success_rate(self) -> float:
        return (self.attempted - self.failed) / self.attempted if self.attempted else 0.0
