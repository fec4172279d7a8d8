"""In-memory span tracer installed by rebinding eigp's module-level names.

A span is (name, start, end, parent, step): ``parent`` is the index of the
span that was open when this one started (-1 at the top), ``step`` the query
round it belongs to (-1 during set-up). A round starts when
``sim.predict_round`` is entered; spans after it (the ingest) keep its id.
Spans live in flat ``array`` buffers so that a traced stream of a few
hundred thousand calls stays small, and are written out only when the run
ends.

Nothing here is installed unless a traced run asks for it: ``Tracer.install``
rebinds the names and ``Tracer.uninstall`` puts the originals back.
"""

from __future__ import annotations

import gzip
import math
import time
from array import array
from collections import defaultdict
from contextlib import contextmanager

import numpy as np


class Tracer:
    """Span buffers, named counters and the rebinding of traced callables."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.step = array("i")
        self.step_id = 0
        self.rounds = 0
        self.in_setup = False
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------

    def _intern(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.step.append(self.step_id)
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(time.perf_counter_ns())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter_ns()
        self._stack.pop()

    @contextmanager
    def setup_phase(self):
        """Mark every span opened inside as set-up work (step -1)."""
        self.in_setup, self.step_id = True, -1
        try:
            yield
        finally:
            self.in_setup, self.step_id = False, self.rounds

    @contextmanager
    def span(self, name: str):
        """Open a span around a block of the benchmark's own code."""
        idx = self._open(self._intern(name))
        try:
            yield
        finally:
            self._close(idx)

    def wrap(self, name: str, fn, before=None, after=None, new_step: bool = False):
        """Return ``fn`` wrapped in a span named ``name``.

        ``before(args)`` runs ahead of the call and its value is handed to
        ``after(args, result, token)``, which runs after the span closes so
        that counter bookkeeping is not charged to the layer; counters skip
        set-up work. ``new_step``
        advances the step id on entry (one query round per call).
        """
        nid = self._intern(name)

        def traced(*args, **kwargs):
            if new_step and not self.in_setup:
                self.step_id = self.rounds
                self.rounds += 1
            token = before(args) if before is not None else None
            idx = self._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if after is not None and not self.in_setup:
                after(args, result, token)
            return result

        traced.__wrapped__ = fn
        return traced

    # ------------------------------------------------------------------
    # installation
    # ------------------------------------------------------------------

    def patch(self, owner, attr: str, name: str, **hooks) -> None:
        """Rebind ``owner.attr`` (a module function, method or classmethod)."""
        raw = vars(owner)[attr]
        if isinstance(raw, classmethod):
            replacement = classmethod(self.wrap(name, raw.__func__, **hooks))
        else:
            replacement = self.wrap(name, raw, **hooks)
        self._restore.append((owner, attr, raw))
        setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, raw = self._restore.pop()
            setattr(owner, attr, raw)

    def install(self) -> None:
        """Rebind the eigp names the per-layer metrics are built from."""
        from eigp import aggregation, memory, model, quality, sim

        c = self.counters

        def count_rows(args, result, token):
            c["kernel_vec.rows"] += args[1].shape[0]

        def score_stats(args, result, token):
            n = args[0].n
            score = result[0]
            c["score.inf_eps"] += math.isinf(score.epsilon)
            if n:
                c["score.included_frac_sum"] += score.idx.included.size / n
                c["score.nonempty"] += 1

        def clamps_before(args):
            return args[0].variance_clamps

        def clamps_after(args, result, token):
            c["variance_clamps"] += args[0].variance_clamps - token

        def plan_stats(args, result, token):
            plan = result[1]
            c["plan.selected"] += len(plan.selected)
            c["plan.degenerate"] += plan.degenerate

        for module in (quality, model, memory):
            self.patch(module, "kernel_vec", "kernels.kernel_vec", after=count_rows)
        self.patch(model, "gram", "kernels.gram")
        self.patch(aggregation, "score_and_approx_mean", "quality.score", after=score_stats)
        for attr, name in (
            ("posterior_var", "model.posterior_var"),
            ("classical_predict", "model.classical_predict"),
        ):
            self.patch(model.AgentModel, attr, name, before=clamps_before, after=clamps_after)
        self.patch(model.AgentModel, "append_point", "model.append")
        self.patch(model.AgentModel, "from_data", "model.from_data")
        self.patch(sim, "ingest", "memory.ingest")
        self.patch(memory, "ingest", "memory.ingest")
        self.patch(memory, "find_deletion", "memory.find_deletion")
        self.patch(memory, "delete_and_reallocate", "memory.delete")
        self.patch(sim, "joint_predict", "aggregation.joint_predict", after=plan_stats)
        self.patch(sim, "eta_bound", "bounds.eta_bound")
        self.patch(sim, "tilde_eta", "bounds.tilde_eta")
        self.patch(sim, "predict_round", "sim.predict_round", new_step=True)

    # ------------------------------------------------------------------
    # analysis and output
    # ------------------------------------------------------------------

    def table(self) -> dict[str, np.ndarray]:
        """The span buffers as numpy arrays (copies, safe to keep)."""
        return {
            "name_id": np.array(self.name_id, dtype=np.int64),
            "start": np.array(self.start, dtype=np.int64),
            "end": np.array(self.end, dtype=np.int64),
            "parent": np.array(self.parent, dtype=np.int64),
            "step": np.array(self.step, dtype=np.int64),
        }

    def write(self, path) -> int:
        """Write every span as gzipped CSV; returns the number written."""
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as fh:
            fh.write("name,start_ns,end_ns,parent,step\n")
            for i in range(len(self.start)):
                fh.write(
                    f"{self.names[self.name_id[i]]},{self.start[i]},{self.end[i]},"
                    f"{self.parent[i]},{self.step[i]}\n"
                )
        return len(self.start)


def self_times(start, end, parent) -> np.ndarray:
    """Each span's duration minus the part of it that its children cover.

    Children are clipped to their parent's interval and overlapping children
    are merged, so a child is never subtracted twice.
    """
    start = np.asarray(start, dtype=np.int64)
    end = np.asarray(end, dtype=np.int64)
    parent = np.asarray(parent, dtype=np.int64)
    own = end - start
    children: dict[int, list[int]] = {}
    for i in np.flatnonzero(parent >= 0):
        children.setdefault(int(parent[i]), []).append(int(i))
    for p, kids in children.items():
        lo, hi = int(start[p]), int(end[p])
        covered = 0
        cur_s = cur_e = None
        for i in sorted(kids, key=lambda i: start[i]):
            s, e = max(int(start[i]), lo), min(int(end[i]), hi)
            if e <= s:
                continue
            if cur_e is None or s > cur_e:
                if cur_e is not None:
                    covered += cur_e - cur_s
                cur_s, cur_e = s, e
            else:
                cur_e = max(cur_e, e)
        if cur_e is not None:
            covered += cur_e - cur_s
        own[p] -= covered
    return own
