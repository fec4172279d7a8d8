#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workload stream-8x100 --seeds 0-9 --seconds 20

Runs the benchmark once per seed, one process at a time, and prints for
every metric the median and the quartile spread (Q3 - Q1) / median of the
values, next to the metric's bound from ``BENCHMARK.json``. A spread above
a third of the bound is flagged. ``--save`` writes the raw values as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

from stats import quartile_spread  # noqa: E402


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", required=True, help="inclusive range such as 0-9")
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--save", default=None)
    args = ap.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = args.seconds or spec["run_seconds"]
    lo, hi = (int(v) for v in args.seeds.split("-"))

    values: dict[str, list[float]] = {}
    for seed in range(lo, hi + 1):
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: " + " ".join(f"{k}={v[-1]:.5g}" for k, v in values.items()),
              flush=True)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    print(f"{args.workload}: {hi - lo + 1} runs of {seconds:g} s")
    for name, vals in values.items():
        spread = quartile_spread(vals)
        flag = "" if spread < bounds[name] / 3 else "  <-- above a third of the bound"
        print(f"  {name:<16} median {statistics.median(vals):<12.6g} spread {spread:7.4f}"
              f"  bound {bounds[name]:.3f}{flag}")
    if args.save:
        Path(args.save).write_text(json.dumps(values, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
