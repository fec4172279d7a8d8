"""Multi-agent experiment engine: schedules, prediction rounds, metrics.

Both experiments run one loop (:func:`_run`). A step has two phases: a
prediction phase in which every agent makes a joint prediction against
immutable model snapshots, and, in the streaming experiment only, an ingest
phase in which exactly one agent's model mutates. The offline toy is the
same loop without a schedule. Determinism is guaranteed by seeding: reruns
with the same config produce identical records apart from wall-clock
timings.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .aggregation import AggregationPlan, MethodSpec, RoundTable, evaluate_round, joint_predict
from .bounds import BoundParams, eta_bound, tilde_eta
from .errors import InvalidInputError, MetricError
from .graph import Graph, fully_connected
from .kernels import KernelConfig
from .memory import ingest
from .model import AgentModel

TOY_INTERVAL = (-1.2, 1.2)
TOY_NOISE_STD = 0.5  # noise variance 0.25

SCHEDULE_MODES = ("cyclic", "round-robin")


def toy_mean(x):
    """Noiseless part of the benchmark toy function."""
    x = np.asarray(x, dtype=float)
    return (
        5.0 * x**2 * np.sin(12.0 * x)
        + (x**3 - 0.5) * np.sin(3.0 * x - 0.5)
        + 4.0 * np.cos(2.0 * x)
    )


def toy_function(x, rng: np.random.Generator):
    """Toy observation: the deterministic mean plus N(0, 0.25) noise."""
    x = np.asarray(x, dtype=float)
    return toy_mean(x) + rng.normal(0.0, TOY_NOISE_STD, size=x.shape)


def smse(predictions, truths) -> float:
    """Mean squared error divided by the population variance of the targets."""
    p = np.asarray(predictions, dtype=float)
    t = np.asarray(truths, dtype=float)
    if p.shape != t.shape:
        raise InvalidInputError("predictions and truths must have equal shapes")
    if t.size < 2:
        raise MetricError("smse needs at least two targets")
    var = float(np.var(t))
    if var == 0.0:
        raise MetricError("smse undefined for zero target variance")
    return float(np.mean((p - t) ** 2)) / var


@dataclass(frozen=True)
class StreamSchedule:
    """Which agent ingests the point arriving at each step.

    ``cyclic`` fills agent 1 up to the capacity threshold, then agent 2 and
    so on, wrapping back to agent 1; ``round-robin`` alternates every step.
    """

    mode: str = "cyclic"
    capacity: int = 100

    def __post_init__(self):
        if self.mode not in SCHEDULE_MODES:
            raise InvalidInputError(f"unknown schedule mode {self.mode!r}")
        if self.capacity < 1:
            raise InvalidInputError("capacity must be at least 1")

    def recipient(self, step: int, n_agents: int) -> int:
        if self.mode == "cyclic":
            return 1 + (step // self.capacity) % n_agents
        return 1 + step % n_agents


@dataclass
class SimRecord:
    """Per-iteration metrics of one simulation step."""

    iteration: int
    query: np.ndarray
    truth: np.ndarray
    predictions: dict[int, np.ndarray]
    selected_sizes: dict[int, int]
    active_agents: int
    prediction_time: float
    smse_cum: float
    hat_eta: dict[int, float] | None = None


@dataclass
class SimResult:
    """Record stream plus run-level bookkeeping."""

    records: list[SimRecord]
    method: MethodSpec
    n_agents: int
    window: int = 100
    deletions: dict[int, int] = field(default_factory=dict)
    final_sizes: dict[int, int] = field(default_factory=dict)
    variance_clamps: int = 0  # summed over agents
    refactor_fallbacks: int = 0  # summed over agents

    def mean_abs_error(self) -> float:
        errs = [
            np.linalg.norm(pred - rec.truth)
            for rec in self.records
            for pred in rec.predictions.values()
        ]
        return float(np.mean(errs))

    def window_smse(self) -> float:
        """SMSE pooled over every agent's predictions in the last ``window`` rounds.

        ``nan`` with fewer than two rounds or a constant window target.
        """
        recent = self.records[max(len(self.records) - self.window, 0):]
        if len(recent) < 2:
            return math.nan
        preds = np.array([list(r.predictions.values()) for r in recent])
        truths = np.array([r.truth for r in recent])[:, None, :]
        try:
            return smse(preds, np.broadcast_to(truths, preds.shape))
        except MetricError:
            return math.nan

    def summary(self) -> dict:
        times_ms = [r.prediction_time * 1e3 for r in self.records]
        return {
            "iterations": len(self.records),
            "agents": self.n_agents,
            "method": self.method.name,
            "final_smse": self.records[-1].smse_cum if self.records else math.nan,
            "window_smse": self.window_smse(),
            "mean_abs_error": self.mean_abs_error(),
            "mean_prediction_time_ms": float(np.mean(times_ms)) if times_ms else 0.0,
            "median_prediction_time_ms": float(np.median(times_ms)) if times_ms else 0.0,
            "mean_active_agents": float(np.mean([r.active_agents for r in self.records]))
            if self.records
            else 0.0,
            "total_deletions": int(sum(self.deletions.values())),
            "variance_clamps": self.variance_clamps,
            "refactor_fallbacks": self.refactor_fallbacks,
        }


class _RunningSmse:
    """Cumulative SMSE over pooled per-agent predictions.

    The cumulative target variance is a Welford update over the targets
    shifted by the first one, so a large common offset loses no precision.
    """

    def __init__(self):
        self._sq_err = 0.0
        self._err_count = 0
        self._t_shift: float | None = None
        self._t_count = 0
        self._t_mean = 0.0  # of the shifted targets
        self._t_m2 = 0.0

    def update(self, predictions: dict[int, np.ndarray], truth: np.ndarray):
        """Add one round: the squared errors of every agent's prediction, row by row."""
        errors = np.array(list(predictions.values())) - truth
        for sq in np.sum(errors**2, axis=1).tolist():
            self._sq_err += sq
        self._err_count += errors.size
        if self._t_shift is None:
            self._t_shift = float(truth[0])
        for t in truth.tolist():
            t -= self._t_shift
            self._t_count += 1
            delta = t - self._t_mean
            self._t_mean += delta / self._t_count
            self._t_m2 += delta * (t - self._t_mean)

    def cumulative(self) -> float:
        if self._t_count < 2:
            return math.nan
        var = self._t_m2 / self._t_count
        if var <= 0.0:
            return math.nan
        return (self._sq_err / self._err_count) / var


def predict_round(
    models: dict[int, AgentModel],
    graph: Graph,
    x,
    method: MethodSpec,
    cfg: KernelConfig,
) -> tuple[dict[int, np.ndarray], dict[int, AggregationPlan], float]:
    """All agents' joint predictions at one query, with wall-clock timing.

    EIGP methods score every agent once into a table that all requesters
    share, and the first requester's call weighs every requester in one
    batched pass; the timing covers both.
    """
    preds: dict[int, np.ndarray] = {}
    plans: dict[int, AggregationPlan] = {}
    start = time.perf_counter()
    table = None if method.is_baseline else evaluate_round(graph.nodes, x, models, method)
    for i in graph.nodes:
        preds[i], plans[i] = joint_predict(i, x, models, graph, method, cfg, table)
    elapsed = time.perf_counter() - start
    return preds, plans, elapsed


def _round_bounds(
    table: RoundTable, bounds: BoundParams, models: dict[int, AgentModel]
) -> dict[int, float]:
    """Per-agent aggregated error bounds from the round table's weights.

    Each selected agent's single-model bound tilde_eta is computed once; a
    requester's bound is the weighted sum over its collaborators, and a
    collaborator at weight zero adds nothing. The round scores at lam = 1,
    so epsilon is divided by the certified ``bounds.lam``.
    """
    live = ~table.degenerate
    tilde = np.zeros(len(table.ids))
    for p in np.flatnonzero(table.selected[live].any(axis=0)).tolist():
        score = table.scores[p]
        eta = eta_bound(models[table.ids[p]], score.idx, bounds.beta)
        tilde[p] = tilde_eta(eta, score.epsilon / bounds.lam, table.means[p])
    W = table.weights
    terms = np.multiply(W, tilde, out=np.zeros(W.shape), where=W > 0)
    hat = np.where(live, np.cumsum(terms, axis=1)[:, -1], math.inf)
    return dict(zip(table.ids, hat.tolist()))


def toy_training_data(train_points: int, n_agents: int, rng: np.random.Generator):
    """Evenly spaced toy inputs with noisy outputs, split into contiguous blocks."""
    xs = np.linspace(*TOY_INTERVAL, train_points)
    ys = toy_function(xs, rng)
    blocks = np.array_split(np.arange(train_points), n_agents)
    return xs, ys, blocks


def run_offline_toy(
    cfg: KernelConfig,
    method: MethodSpec,
    n_agents: int = 4,
    train_points: int = 400,
    query_points: int = 100,
    seed: int = 0,
    bounds: BoundParams | None = None,
    window: int = 100,
) -> SimResult:
    """Static-dataset toy experiment on a fully connected graph.

    The training interval is divided into contiguous equal blocks, one per
    agent; every query point triggers a joint prediction at every agent.
    Truths are the noiseless toy mean.
    """
    if cfg.input_dim != 1 or cfg.output_dim != 1:
        raise InvalidInputError("the toy experiment is one-dimensional")
    rng = np.random.default_rng(seed)
    xs, ys, blocks = toy_training_data(train_points, n_agents, rng)
    models = {
        i + 1: AgentModel.from_data(cfg, xs[b][:, None], ys[b][:, None])
        for i, b in enumerate(blocks)
    }
    graph = fully_connected(n_agents)
    queries = np.linspace(*TOY_INTERVAL, query_points)
    truths = toy_mean(queries)
    return _run(models, graph, method, cfg, queries[:, None], truths[:, None], bounds, window)


def run_online(
    cfg: KernelConfig,
    method: MethodSpec,
    graph: Graph,
    stream_X: np.ndarray,
    stream_Y: np.ndarray,
    schedule: StreamSchedule,
    bounds: BoundParams | None = None,
    window: int = 100,
) -> SimResult:
    """Streaming experiment: predict at each incoming point, then ingest it.

    At step k every agent predicts at the incoming input using only data
    ingested strictly before step k; the scheduled recipient then ingests
    the pair and refreshes its error cache.
    """
    stream_X = np.asarray(stream_X, dtype=float).reshape(-1, cfg.input_dim)
    stream_Y = np.asarray(stream_Y, dtype=float).reshape(-1, cfg.output_dim)
    if stream_X.shape[0] != stream_Y.shape[0]:
        raise InvalidInputError("stream inputs and outputs must align")
    models = {i: AgentModel(cfg) for i in graph.nodes}
    return _run(models, graph, method, cfg, stream_X, stream_Y, bounds, window, schedule)


def _run(
    models, graph: Graph, method: MethodSpec, cfg: KernelConfig, queries, truths,
    bounds: BoundParams | None, window: int, schedule: StreamSchedule | None = None,
) -> SimResult:
    """The simulation loop shared by both experiments.

    Each step predicts the round at query row k, adds it to the cumulative
    SMSE and records sizes and bounds; with a ``schedule`` the scheduled
    recipient then ingests (row k of ``queries``, row k of ``truths``).
    ``predict_round``, ``ingest`` and the bound helpers are looked up as
    module globals at call time, so a tracer that rebinds them sees every
    call.
    """
    tracker = _RunningSmse()
    records = []
    deletions = {i: 0 for i in graph.nodes}
    for k, (x, y) in enumerate(zip(queries, truths)):
        preds, plans, elapsed = predict_round(models, graph, x, method, cfg)
        tracker.update(preds, y)
        sizes = {i: len(plans[i].selected) for i in plans}
        hat = None
        if bounds is not None and not method.is_baseline:
            hat = _round_bounds(plans[1].evaluations, bounds, models)
        records.append(
            SimRecord(k, x, y, preds, sizes, sum(sizes.values()), elapsed, tracker.cumulative(), hat)
        )
        if schedule is not None:
            recipient = schedule.recipient(k, graph.n)
            if ingest(models[recipient], x, y, schedule.capacity).deleted_index is not None:
                deletions[recipient] += 1
    return SimResult(
        records=records,
        method=method,
        n_agents=graph.n,
        window=window,
        deletions=deletions,
        final_sizes={i: models[i].n for i in models},
        variance_clamps=sum(m.variance_clamps for m in models.values()),
        refactor_fallbacks=sum(m.refactor_fallbacks for m in models.values()),
    )
