"""The three benchmark workloads, each a set-up plus a repeatable unit of work.

Every workload uses the paper's 1-D toy setting (sigma_f^2 = 1, l = 0.2,
sigma^2 = 0.25). A *unit* is a fixed piece of work on the inputs of one
seed; unit j of a run with seed s uses seed s + j, and the harness repeats
units until the run's time is used up, checking each one. Only the query
rounds of a unit are timed, inside ``region()``, which a traced run replaces
with a span. The eigp names a unit calls are looked up on their modules at
call time (``sim.predict_round``, ``memory.ingest``), which is what lets the
tracer rebind them.

``smse_units`` is how many units every run completes at least; the run's
``final_smse`` is their mean. A single seed's SMSE is heavy-tailed (a few
large truncated-mean errors dominate it), so averaging over seeds is what
keeps the accuracy guard steady from run to run.
"""

from __future__ import annotations

import copy
import time
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

from eigp import memory, sim
from eigp.aggregation import MethodSpec
from eigp.bounds import BoundParams
from eigp.datasets import toy_stream
from eigp.errors import InternalConsistencyError
from eigp.graph import Graph, fully_connected
from eigp.kernels import KernelConfig
from eigp.model import AgentModel
from eigp.quality import RhoPolicy
from stats import steady_records

CFG = KernelConfig(signal_variance=1.0, lengthscale=0.2, noise_variance=0.25)


def unit_seed(seed: int, j: int) -> int:
    return seed + j


@dataclass
class Unit:
    """What one unit did, as the harness needs it for metrics and checks."""

    seed: int
    steps: int  # query rounds
    wall_s: float  # wall time of the rounds, set-up of the unit excluded
    predict_s: list[float]  # MAS prediction time per round used for percentiles
    predictions: np.ndarray  # (rounds * agents, d), one row per prediction
    final_smse: float
    checks: dict[str, bool]
    method_predict_s: dict[str, list[float]] = field(default_factory=dict)


def _stack_predictions(records) -> np.ndarray:
    return np.array(
        [rec.predictions[i] for rec in records for i in sorted(rec.predictions)], dtype=float
    )


class StreamWorkload:
    """8 agents, complete graph, capacity 100, cyclic schedule, aEIGP(0.5)."""

    name = "stream-8x100"
    agents = 8
    capacity = 100
    steps = 1200
    # Agent i fills during steps [100(i-1), 100 i); from step 800 on every
    # ingest deletes and every prediction sees full models.
    full_from = agents * capacity
    smse_units = 5
    trace_units = 2
    method = MethodSpec("aEIGP", nu=0.5, theta=1.0, rho_policy=RhoPolicy("mean"))

    def _stream(self, seed: int):
        return toy_stream(self.steps, np.random.default_rng(seed))

    def setup(self, seed: int):
        return {
            "seed": seed,
            "stream": self._stream(seed),
            "graph": fully_connected(self.agents),
            "schedule": sim.StreamSchedule("cyclic", capacity=self.capacity),
        }

    def run_unit(self, state, j: int, region=nullcontext) -> Unit:
        seed = unit_seed(state["seed"], j)
        stream = state["stream"] if seed == state["seed"] else self._stream(seed)
        with region():
            start = time.perf_counter()
            result = sim.run_online(
                CFG, self.method, state["graph"], stream.X, stream.Y, state["schedule"]
            )
            wall = time.perf_counter() - start
        records = result.records
        deletions = sum(result.deletions.values())
        return Unit(
            seed=seed,
            steps=len(records),
            wall_s=wall,
            predict_s=[rec.prediction_time for rec in steady_records(records, self.full_from)],
            predictions=_stack_predictions(records),
            final_smse=records[-1].smse_cum,
            checks={
                "final_sizes == 100": all(
                    n == self.capacity for n in result.final_sizes.values()
                ),
                "deletions == steps - 800": deletions == self.steps - self.full_from,
            },
        )


class RingWorkload:
    """4 agents on a ring, capacity 1000, prefilled, round-robin, gEIGP."""

    name = "ring-4x1000"
    agents = 4
    capacity = 1000
    steps = 60
    warmup_steps = 2
    smse_units = 12
    trace_units = 3
    method = MethodSpec("gEIGP", rho_policy=RhoPolicy("constant", 0.05))
    graph = Graph(4, [(1, 2), (2, 3), (3, 4), (4, 1)])

    def _prefill(self, seed: int):
        """Models holding 1000 points each, plus the stream that follows."""
        n_prefill = self.agents * self.capacity
        stream = toy_stream(n_prefill + self.steps, np.random.default_rng(seed))
        blocks = np.split(np.arange(n_prefill), self.agents)
        models = {
            i + 1: AgentModel.from_data(CFG, stream.X[b], stream.Y[b])
            for i, b in enumerate(blocks)
        }
        return models, stream.X[n_prefill:], stream.Y[n_prefill:]

    def setup(self, seed: int):
        template, X, Y = self._prefill(seed)
        self._steps(copy.deepcopy(template), X, Y, self.warmup_steps)
        return {"seed": seed, "template": template, "X": X, "Y": Y}

    def _steps(self, models, X, Y, steps):
        predict_s, preds, deletions = [], [], 0
        for k in range(steps):
            x, y = X[k], Y[k]
            out, _, elapsed = sim.predict_round(models, self.graph, x, self.method, CFG)
            predict_s.append(elapsed)
            preds.extend(out[i] for i in self.graph.nodes)
            recipient = 1 + k % self.graph.n
            report = memory.ingest(models[recipient], x, y, self.capacity)
            deletions += report.deleted_index is not None
        return predict_s, preds, deletions

    def run_unit(self, state, j: int, region=nullcontext) -> Unit:
        seed = unit_seed(state["seed"], j)
        if seed == state["seed"]:
            models, X, Y = copy.deepcopy(state["template"]), state["X"], state["Y"]
        else:
            models, X, Y = self._prefill(seed)
        with region():
            start = time.perf_counter()
            predict_s, preds, deletions = self._steps(models, X, Y, self.steps)
            wall = time.perf_counter() - start
        predictions = np.array(preds, dtype=float)
        truths = np.repeat(Y[: self.steps], self.agents, axis=0)
        return Unit(
            seed=seed,
            steps=self.steps,
            wall_s=wall,
            predict_s=predict_s,
            predictions=predictions,
            final_smse=sim.smse(predictions, truths),
            checks={
                "sizes == 1000": all(m.n == self.capacity for m in models.values()),
                "validate_cache": all(_cache_ok(m) for m in models.values()),
                "deletions == steps": deletions == self.steps,
            },
        )


def _cache_ok(model: AgentModel) -> bool:
    try:
        model.validate_cache()
    except InternalConsistencyError:
        return False
    return True


class ToyWorkload:
    """Offline toy experiment: 4 agents x 100 points, 100 queries, 5 methods."""

    name = "toy-offline"
    agents = 4
    train_points = 400
    query_points = 100
    warmup_queries = 10
    smse_units = 8
    trace_units = 8
    rho = RhoPolicy("constant", 0.05)
    methods = {
        "gEIGP": MethodSpec("gEIGP", rho_policy=rho),
        "aEIGP-nu1": MethodSpec("aEIGP", nu=1.0, theta=1.0, rho_policy=rho),
        "aEIGP-nu0.5": MethodSpec("aEIGP", nu=0.5, theta=1.0, rho_policy=rho),
        "MOE": MethodSpec("MOE"),
        "RBCM": MethodSpec("RBCM"),
    }

    def setup(self, seed: int):
        bounds = BoundParams.for_kernel(CFG, 0.1, 0.05, 0.05, *sim.TOY_INTERVAL)
        self._sweep(bounds, seed, self.warmup_queries)
        return {"seed": seed, "bounds": bounds}

    def _sweep(self, bounds, seed: int, queries: int):
        return {
            name: sim.run_offline_toy(
                CFG,
                spec,
                n_agents=self.agents,
                train_points=self.train_points,
                query_points=queries,
                seed=seed,
                bounds=None if spec.is_baseline else bounds,
            )
            for name, spec in self.methods.items()
        }

    def run_unit(self, state, j: int, region=nullcontext) -> Unit:
        """One sweep of every method; the EIGP methods also compute bounds."""
        seed = unit_seed(state["seed"], j)
        with region():
            start = time.perf_counter()
            results = self._sweep(state["bounds"], seed, self.query_points)
            wall = time.perf_counter() - start
        per_method = {
            name: [rec.prediction_time for rec in r.records] for name, r in results.items()
        }
        block = self.train_points // self.agents
        eigp_runs = [r for name, r in results.items() if not self.methods[name].is_baseline]
        return Unit(
            seed=seed,
            steps=self.query_points * len(results),
            wall_s=wall,
            predict_s=[t for ts in per_method.values() for t in ts],
            predictions=np.concatenate([_stack_predictions(r.records) for r in results.values()]),
            final_smse=float(np.mean([r.records[-1].smse_cum for r in results.values()])),
            checks={
                "final_sizes == 100": all(
                    n == block for r in results.values() for n in r.final_sizes.values()
                ),
                "bounds computed": all(
                    rec.hat_eta is not None for r in eigp_runs for rec in r.records
                ),
            },
            method_predict_s=per_method,
        )


WORKLOADS = {w.name: w for w in (StreamWorkload(), RingWorkload(), ToyWorkload())}
