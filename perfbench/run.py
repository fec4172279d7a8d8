#!/usr/bin/env python3
"""Benchmark of eigp: one workload and one seed per fresh process.

    python3 perfbench/run.py --workload stream-8x100 --seed 0 --seconds 30 --trace 0

Run from a source checkout; eigp is imported from ``src/`` next to this
directory, and the run fails (exit 2) without it. Before any clock starts,
numpy and ``scipy.linalg`` are imported and one N = 1000 Cholesky starts
the BLAS thread pool, whose size is recorded and left at its default.

With ``--trace 0`` the run reports the end-to-end metrics:

- ``steps_per_s``: query rounds per second of timed rounds, over all units.
- ``predict_ms_p50`` / ``_p90``: MAS prediction time per round, as the
  mean over blocks of 100 consecutive rounds of each block's percentile
  (``stats.block_percentile_ms`` says why). On ``stream-8x100`` only rounds
  from step 800 on count, once every agent is full; on ``toy-offline`` the
  blocks are per method, so every method weighs the same.
- ``setup_s``: importing eigp afresh plus the workload's set-up (inputs,
  models or prefill, warm-up): the median of six repeats, three before the
  timed rounds and three after them, so that it samples the machine at two
  moments.
- ``peak_rss_mb``: peak resident memory of the process.
- ``final_smse``: mean final cumulative SMSE of the first
  ``smse_units`` units (seeds s .. s + smse_units - 1).
- ``success_rate``: predictions that are finite and come from units passing
  every check, over all predictions made.

With ``--trace 1`` it runs ``trace_units`` units untraced, then the same
units with spans installed, and reports the per-layer metrics of
``layers.PER_LAYER``; the counts in them repeat exactly for a given seed.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
give every metric with its unit and sample count, and the machine record.
Details (and a traced run's spans) are written to ``.perfbench_out/``.
The exit code is 0 only when every correctness check passed.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import glob
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from contextlib import nullcontext
from pathlib import Path

import numpy as np
import scipy
import scipy.linalg

from layers import UNITS, per_layer
from stats import Gate, block_percentile_ms
from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
REFERENCES = Path(__file__).resolve().parent / "references.json"
SETUP_REPEATS = 3
BLAS_WARM_N = 1000
BLAS_IDLE_S = 0.5  # pause so that the warmed BLAS threads stop spinning

END_TO_END = {
    "steps_per_s": "1/s",
    "predict_ms_p50": "ms",
    "predict_ms_p90": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "final_smse": "ratio",
    "success_rate": "ratio",
}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def warm_blas() -> None:
    """Start the BLAS thread pool with one untimed N = 1000 Cholesky."""
    a = np.random.default_rng(0).standard_normal((BLAS_WARM_N, BLAS_WARM_N))
    scipy.linalg.cholesky(a @ a.T + BLAS_WARM_N * np.eye(BLAS_WARM_N), lower=True)


def _blas_threads() -> dict[str, int]:
    """Threads of each OpenBLAS bundled with numpy and scipy (not pinned)."""
    found = {}
    for pkg in (np, scipy):
        libs = Path(pkg.__file__).resolve().parent.parent / f"{pkg.__name__}.libs"
        for path in sorted(glob.glob(str(libs / "*openblas*.so*"))):
            lib = ctypes.CDLL(path)
            for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                        "openblas_get_num_threads"):
                fn = getattr(lib, sym, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    found[pkg.__name__] = int(fn())
                    break
    return found


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def machine_record() -> dict:
    blas = {}
    for pkg in (np, scipy):
        lib = pkg.__config__.CONFIG["Build Dependencies"]["blas"]
        blas[pkg.__name__] = f"{lib['name']} {lib['version']}"
    return {
        "cpu": _cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": _blas_threads(),
    }


def measure_setup(wl, seed: int):
    """Set up ``SETUP_REPEATS`` times: import eigp afresh, then ``wl.setup``.

    Returns the seconds of each repeat and the last state. The re-imported
    modules are only timed; the workload keeps the ones it imported first.
    """
    times, state = [], None
    for _ in range(SETUP_REPEATS):
        state = None
        gc.collect()
        for name in [m for m in sys.modules if m == "eigp" or m.startswith("eigp.")]:
            del sys.modules[name]
        start = time.perf_counter()
        importlib.import_module("eigp")
        state = wl.setup(seed)
        times.append(time.perf_counter() - start)
    return times, state


def run_units(wl, state, gate, refs, seconds=None, count=None, region=None, same_as=None):
    """Run units until ``seconds`` of timed rounds are spent, or ``count`` units.

    A time-limited loop runs at least ``wl.smse_units`` units and stops
    before a unit that would overrun by more than half a unit. Every unit
    goes through the gate, with its final SMSE checked against the stored
    reference of its seed, or against the workload's band when the seed has
    no stored reference. ``same_as`` holds units run earlier on the same
    seeds, whose SMSE each new unit must repeat exactly.
    """
    units, spent = [], 0.0
    stored, band = refs[wl.name]["smse"], refs[wl.name]["band"]
    while True:
        j = len(units)
        gc.collect()
        unit = wl.run_unit(state, j, region or nullcontext)
        if str(unit.seed) in stored:
            unit.checks["final_smse == reference"] = gate.matches(
                unit.final_smse, stored[str(unit.seed)]
            )
        else:
            unit.checks["final_smse within band"] = band[0] <= unit.final_smse <= band[1]
        if same_as is not None:
            unit.checks["repeats the untraced unit"] = unit.final_smse == same_as[j].final_smse
        gate.add_unit(f"unit {j} (seed {unit.seed})", unit.predictions, unit.checks)
        units.append(unit)
        spent += unit.wall_s
        if count is not None:
            if len(units) >= count:
                return units
        elif len(units) >= wl.smse_units and spent + 0.5 * spent / len(units) >= seconds:
            return units


def end_to_end(units, setup_s, peak_rss_mb, gate, smse_units):
    groups: dict[str, list[float]] = {}
    for u in units:
        for name, times in (u.method_predict_s or {"all": u.predict_s}).items():
            groups.setdefault(name, []).extend(times)
    p50, n, blocks = block_percentile_ms(groups, 50)
    p90, _, _ = block_percentile_ms(groups, 90)
    steps = sum(u.steps for u in units)
    values = {
        "steps_per_s": steps / sum(u.wall_s for u in units),
        "predict_ms_p50": p50,
        "predict_ms_p90": p90,
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb,
        "final_smse": statistics.fmean(u.final_smse for u in units[:smse_units]),
        "success_rate": gate.success_rate,
    }
    counts = {"steps_per_s": steps, "predict_ms_p50": f"{n} in {blocks} blocks",
              "predict_ms_p90": f"{n} in {blocks} blocks",
              "setup_s": 2 * SETUP_REPEATS, "final_smse": smse_units,
              "success_rate": gate.attempted}
    return values, counts


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "eigp" / "__init__.py").is_file():
        print(f"perfbench: no eigp sources under {src}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2

    warm_blas()
    machine = machine_record()
    sys.path.insert(0, str(src))
    import workloads  # the first import compiles eigp's bytecode in a fresh checkout

    time.sleep(BLAS_IDLE_S)
    gc.collect()
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}, expected one of "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]

    refs = json.loads(REFERENCES.read_text(encoding="utf-8"))
    OUT.mkdir(exist_ok=True)
    gate = Gate()
    record = {"workload": wl.name, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "machine": machine}

    if args.trace == 0:
        setups, state = measure_setup(wl, args.seed)
        gc.collect()
        units = run_units(wl, state, gate, refs, seconds=args.seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        del state
        setups += measure_setup(wl, args.seed)[0]
        values, counts = end_to_end(units, statistics.median(setups), peak_rss_mb, gate,
                                    wl.smse_units)
        units_meta = {"setup_repeats_s": setups}
        metrics = {k: (v, END_TO_END[k]) for k, v in values.items()}
    else:
        tr = Tracer()
        tr.install()
        try:
            with tr.setup_phase():
                state = wl.setup(args.seed)
        finally:
            tr.uninstall()
        untraced = run_units(wl, state, gate, refs, count=wl.trace_units)
        tr.install()
        try:
            traced = run_units(wl, state, gate, refs, count=wl.trace_units,
                               region=lambda: tr.span("sim.unit"), same_as=untraced)
        finally:
            tr.uninstall()
        values = per_layer(tr, traced, untraced)
        counts = {"sim.predict_ms_p99": int(values["sim.predict_ms_p99.samples"])}
        units = untraced + traced
        spans_path = OUT / f"{wl.name}-seed{args.seed}-spans.csv.gz"
        units_meta = {"spans": tr.write(spans_path), "spans_file": spans_path.name}
        metrics = {k: (v, UNITS[k]) for k, v in values.items()}

    record.update(
        steps=sum(u.steps for u in units),
        units=len(units),
        setup_repeats=2 * SETUP_REPEATS if args.trace == 0 else 1,
        **units_meta,
        problems=gate.problems,
        metrics={k: {"value": v, "unit": unit, "samples": counts.get(k)}
                 for k, (v, unit) in metrics.items()},
    )
    (OUT / f"{wl.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n", encoding="utf-8"
    )

    print(f"perfbench {wl.name} seed={args.seed} trace={args.trace} "
          f"steps={record['steps']} units={record['units']} "
          f"setup_repeats={record['setup_repeats']}")
    print("machine " + json.dumps(machine, sort_keys=True))
    for name, (value, unit) in metrics.items():
        n = counts.get(name)
        print(f"  {name:<40} {value:>14.6g} {unit:<10}" + (f" n={n}" if n is not None else ""))
    for problem in gate.problems:
        print(f"  FAILED {problem}")
    print(json.dumps({
        "correct": gate.correct,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {k: {"value": v, "unit": unit} for k, (v, unit) in metrics.items()},
    }))
    return 0 if gate.correct else 1


if __name__ == "__main__":
    sys.exit(main())
