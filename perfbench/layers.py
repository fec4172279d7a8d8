"""Per-layer metrics computed from a traced run's spans and counters.

Values are per timed query round ("/step") unless the name ends in
``setup_ms`` (set-up work, step -1) or the unit says otherwise. A layer a
workload does not exercise reads 0, e.g. every ``memory.*`` metric on
``toy-offline``. The comments name the end-to-end metric each one should
move; the traced run measures them, the untraced run does not.
"""

from __future__ import annotations

import numpy as np

from stats import block_percentile_ms, percentile_ms
from tracer import Tracer, self_times

TOY_METHODS = ("gEIGP", "aEIGP-nu1", "aEIGP-nu0.5", "MOE", "RBCM")

# (name, unit, better)
PER_LAYER = [
    # predict_ms_p50 on stream-8x100 (64 evaluations where 8 would do);
    # steps_per_s on ring-4x1000 (find_deletion and append scan 1000 rows)
    ("kernels.kernel_vec.calls", "calls/step", "lower"),
    ("kernels.kernel_vec.rows", "rows/step", "lower"),
    ("kernels.kernel_vec.ms", "ms/step", "lower"),
    ("kernels.gram.setup_ms", "ms", "lower"),  # setup_s on ring-4x1000
    # predict_ms_p50 on stream-8x100 (mean rho) and ring-4x1000 (constant rho)
    ("quality.score.calls", "calls/step", "lower"),
    ("quality.score.self_ms", "ms/step", "lower"),
    ("quality.included_frac", "ratio", "lower"),
    ("quality.inf_eps_frac", "ratio", "lower"),
    ("model.posterior_var.calls", "calls/step", "lower"),  # predict_ms_p90, stream
    ("model.posterior_var.ms", "ms/step", "lower"),
    ("model.classical_predict.calls", "calls/step", "lower"),  # predict_ms_p50, toy
    ("model.classical_predict.ms", "ms/step", "lower"),
    ("model.append.ms", "ms/step", "lower"),  # steps_per_s on ring-4x1000
    ("model.from_data.setup_ms", "ms", "lower"),  # setup_s on ring-4x1000
    ("model.variance_clamps", "count/step", "lower"),  # health count only
    # steps_per_s on ring-4x1000, a little on stream-8x100, none on toy
    ("memory.ingest.ms", "ms/step", "lower"),
    ("memory.ingest.ms_p90", "ms", "lower"),
    ("memory.find_deletion.ms", "ms/step", "lower"),
    ("memory.delete.ms", "ms/step", "lower"),
    ("memory.deletions", "count/step", "lower"),
    ("memory.capacity_to_append", "ratio", "lower"),
    # predict_ms_p50 on stream-8x100
    ("aggregation.joint_predict.calls", "calls/step", "lower"),
    ("aggregation.self_ms", "ms/step", "lower"),
    ("aggregation.selected_size", "agents", "lower"),
    ("aggregation.degenerate", "count/step", "lower"),
    # the per-method timing table, from the untraced toy-offline segment
    *((f"aggregation.predict_ms_p50.{m}", "ms", "lower") for m in TOY_METHODS),
    # steps_per_s on toy-offline; outside the prediction timer
    ("bounds.calls", "calls/step", "lower"),
    ("bounds.ms", "ms/step", "lower"),
    # steps_per_s and peak_rss_mb on stream-8x100
    ("sim.predict_round.ms", "ms/step", "lower"),
    ("sim.self_ms", "ms/step", "lower"),
    ("sim.predict_ms_p99", "ms", "lower"),
    ("sim.predict_ms_p99.samples", "count", "higher"),
    ("trace.overhead_frac", "ratio", "lower"),
]

UNITS = {name: unit for name, unit, _ in PER_LAYER}


def per_layer(tr: Tracer, traced_units, untraced_units) -> dict[str, float]:
    """Every metric of ``PER_LAYER`` from one traced and one untraced segment.

    ``traced_units`` and ``untraced_units`` ran the same units, once with the
    tracer installed and once without.
    """
    t = tr.table()
    steps = sum(u.steps for u in traced_units)
    dur = (t["end"] - t["start"]) / 1e6
    own = self_times(t["start"], t["end"], t["parent"]) / 1e6
    timed = t["step"] >= 0
    ids = {name: i for i, name in enumerate(tr.names)}

    def mask(name, setup=False):
        hit = t["name_id"] == ids.get(name, -1)
        return hit & ~timed if setup else hit & timed

    def per_step(values):
        return float(np.sum(values)) / steps

    def calls(*names):
        return sum(int(mask(n).sum()) for n in names) / steps

    def ms(*names):
        return sum(per_step(dur[mask(n)]) for n in names)

    c = tr.counters
    m = {
        "kernels.kernel_vec.calls": calls("kernels.kernel_vec"),
        "kernels.kernel_vec.rows": c["kernel_vec.rows"] / steps,
        "kernels.kernel_vec.ms": ms("kernels.kernel_vec"),
        "kernels.gram.setup_ms": float(dur[mask("kernels.gram", setup=True)].sum()),
        "quality.score.calls": calls("quality.score"),
        "quality.score.self_ms": per_step(own[mask("quality.score")]),
        "quality.included_frac": _ratio(c["score.included_frac_sum"], c["score.nonempty"]),
        "quality.inf_eps_frac": _ratio(c["score.inf_eps"], mask("quality.score").sum()),
        "model.posterior_var.calls": calls("model.posterior_var"),
        "model.posterior_var.ms": ms("model.posterior_var"),
        "model.classical_predict.calls": calls("model.classical_predict"),
        "model.classical_predict.ms": ms("model.classical_predict"),
        "model.append.ms": ms("model.append"),
        "model.from_data.setup_ms": float(dur[mask("model.from_data", setup=True)].sum()),
        "model.variance_clamps": c["variance_clamps"] / steps,
        "memory.ingest.ms": ms("memory.ingest"),
        "memory.ingest.ms_p90": _p(dur[mask("memory.ingest")], 90),
        "memory.find_deletion.ms": ms("memory.find_deletion"),
        "memory.delete.ms": ms("memory.delete"),
        "memory.deletions": calls("memory.delete"),
        "memory.capacity_to_append": _capacity_to_append(t, dur, mask),
        "aggregation.joint_predict.calls": calls("aggregation.joint_predict"),
        "aggregation.self_ms": per_step(own[mask("aggregation.joint_predict")]),
        "aggregation.selected_size": _ratio(
            c["plan.selected"], mask("aggregation.joint_predict").sum()
        ),
        "aggregation.degenerate": c["plan.degenerate"] / steps,
        "bounds.calls": calls("bounds.eta_bound", "bounds.tilde_eta"),
        "bounds.ms": ms("bounds.eta_bound", "bounds.tilde_eta"),
        "sim.predict_round.ms": ms("sim.predict_round"),
        "sim.self_ms": per_step(own[mask("sim.unit")]),
    }
    for name in TOY_METHODS:
        samples = [s for u in untraced_units for s in u.method_predict_s.get(name, [])]
        m[f"aggregation.predict_ms_p50.{name}"] = (
            block_percentile_ms({name: samples}, 50)[0] if samples else 0.0
        )
    samples = [s for u in untraced_units for s in u.predict_s]
    m["sim.predict_ms_p99"], m["sim.predict_ms_p99.samples"] = percentile_ms(samples, 99)
    m["trace.overhead_frac"] = 1.0 - _rate(traced_units) / _rate(untraced_units)
    return m


def _rate(units) -> float:
    return sum(u.steps for u in units) / sum(u.wall_s for u in units)


def _ratio(num, den) -> float:
    return float(num) / float(den) if den else 0.0


def _p(values_ms, q) -> float:
    return float(np.percentile(values_ms, q)) if len(values_ms) else 0.0


def _capacity_to_append(t, dur, mask) -> float:
    """p50 of ingests that deleted over p50 of the appends inside them.

    The append inside an at-capacity ingest is exactly what an append-only
    ingest at that size does, so this is the cost factor of deletion.
    """
    at_capacity = np.unique(t["parent"][mask("memory.delete")])
    if at_capacity.size == 0:
        return 0.0
    appends = mask("model.append") & np.isin(t["parent"], at_capacity)
    return _p(dur[at_capacity], 50) / _p(dur[appends], 50)
