"""Tests of the benchmark's own logic: statistics, spans, tracing and the gate.

Run with ``PYTHONPATH=src python -m pytest perfbench``.
"""

import json
import math
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from layers import PER_LAYER
from stats import Gate, block_percentile_ms, percentile_ms, quartile_spread, steady_records
from tracer import Tracer, self_times

ROOT = Path(__file__).resolve().parent.parent


def test_percentile_reports_ms_and_sample_count():
    seconds = [k / 1000 for k in range(1, 11)]  # 1 .. 10 ms
    assert percentile_ms(seconds, 50) == pytest.approx((5.5, 10))
    value, n = percentile_ms(seconds, 90)
    assert value == pytest.approx(9.1) and n == 10
    with pytest.raises(ValueError):
        percentile_ms([], 50)


def test_block_percentile_averages_block_percentiles_per_group():
    # 250 rounds of one method form 2 blocks (125 each): a fast and a slow
    # half; 100 rounds of another form one block.
    fast_slow = [0.001] * 125 + [0.003] * 125
    other = [0.002] * 100
    value, rounds, blocks = block_percentile_ms({"a": fast_slow, "b": other}, 50)
    assert (rounds, blocks) == (350, 3)
    assert value == pytest.approx((1 + 3 + 2) / 3)
    assert block_percentile_ms({"a": [0.004] * 30}, 90) == pytest.approx((4.0, 30, 1))


def test_quartile_spread_is_iqr_over_median():
    assert quartile_spread([1, 2, 3, 4, 5]) == pytest.approx((4.5 - 1.5) / 3)


def test_steady_records_keep_rounds_from_first_step():
    records = [SimpleNamespace(iteration=k) for k in range(1200)]
    steady = steady_records(records, 800)
    assert [r.iteration for r in steady] == list(range(800, 1200))
    assert steady_records(records, 1200) == []


def test_self_time_subtracts_merged_clipped_children():
    # 0: [0, 100] parent; 1: [10, 30] and 2: [20, 50] overlap (covered 40);
    # 3: [90, 120] is clipped to [90, 100]; 4: [12, 18] is a grandchild.
    start = [0, 10, 20, 90, 12]
    end = [100, 30, 50, 120, 18]
    parent = [-1, 0, 0, 0, 1]
    own = self_times(start, end, parent)
    assert own.tolist() == [100 - 40 - 10, 20 - 6, 30, 30, 6]


def test_tracer_records_nesting_steps_and_setup():
    tr = Tracer()

    def leaf(x):
        return x + 1

    def count(args, result, token):
        tr.counters["leaf"] += 1

    traced_leaf = tr.wrap("leaf", leaf, after=count)
    traced_round = tr.wrap("round", lambda x: traced_leaf(x), new_step=True)
    with tr.setup_phase():
        traced_round(0)
    assert traced_round(1) == 2
    with tr.span("unit"):
        traced_round(2)
    t = tr.table()
    names = [tr.names[i] for i in t["name_id"]]
    assert names == ["round", "leaf", "round", "leaf", "unit", "round", "leaf"]
    assert t["parent"].tolist() == [-1, 0, -1, 2, -1, 4, 5]
    assert t["step"].tolist() == [-1, -1, 0, 0, 0, 1, 1]
    assert (t["end"] >= t["start"]).all()
    assert tr.counters["leaf"] == 2  # the set-up call is not counted


def test_install_rebinds_eigp_names_and_uninstall_restores():
    from eigp import aggregation, model, quality, sim
    from eigp.aggregation import MethodSpec
    from eigp.kernels import KernelConfig

    originals = (quality.kernel_vec, sim.predict_round, vars(model.AgentModel)["from_data"])
    tr = Tracer()
    tr.install()
    try:
        cfg = KernelConfig(1.0, 0.2, 0.25)
        sim.run_offline_toy(cfg, MethodSpec("MOE"), query_points=5, seed=1)
    finally:
        tr.uninstall()
    assert (quality.kernel_vec, sim.predict_round, vars(model.AgentModel)["from_data"]) == originals
    assert aggregation.score_and_approx_mean is quality.score_and_approx_mean

    t = tr.table()
    count = {name: int((t["name_id"] == i).sum()) for i, name in enumerate(tr.names)}
    # 5 rounds x 4 requesters x 4 neighbours, one kernel vector each
    assert count["sim.predict_round"] == 5
    assert count["model.classical_predict"] == 80
    assert count["kernels.kernel_vec"] == 80
    assert tr.counters["kernel_vec.rows"] == 80 * 100
    assert count["model.from_data"] == 4


def test_gate_rejects_non_finite_prediction():
    gate = Gate()
    gate.add_unit("unit 0", np.array([[1.0], [np.nan], [2.0]]), {"sizes": True})
    assert (gate.attempted, gate.failed) == (3, 1)
    assert not gate.correct
    assert gate.success_rate == pytest.approx(2 / 3)
    assert gate.problems == ["unit 0: 1 non-finite predictions"]


def test_gate_failed_check_fails_every_prediction_of_the_unit():
    gate = Gate()
    gate.add_unit("unit 0", np.ones((4, 1)), {"sizes": True})
    gate.add_unit("unit 1", np.ones((4, 1)), {"sizes": False})
    assert (gate.attempted, gate.failed) == (8, 4)
    assert gate.problems == ["unit 1: sizes"]
    clean = Gate()
    clean.add_unit("unit 0", np.ones((2, 1)), {"sizes": True})
    assert clean.correct and clean.success_rate == 1.0


def test_gate_reference_tolerance():
    gate = Gate()
    assert gate.matches(0.5 * (1 + 5e-7), 0.5)
    assert not gate.matches(0.5 * (1 + 5e-6), 0.5)
    assert not gate.matches(math.nan, 0.5)


def test_benchmark_json_lists_the_printed_metrics():
    from run import END_TO_END

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(END_TO_END.items())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == PER_LAYER
