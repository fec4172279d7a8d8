#!/usr/bin/env python3
"""Regenerate the stored final-SMSE references of the correctness gate.

    python3 perfbench/make_references.py --workload ring-4x1000 --seeds 0-63

Runs unit 0 of the workload for every seed and merges the values into
``references.json``, then resets the workload's band (the range a seed
without a stored value must fall in) to [min / 1.5, max * 1.5] of the stored
values. Only rerun it when a change is meant to alter predictions, and say
so in the change.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402

BAND_FACTOR = 1.5


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seeds", required=True, help="inclusive range such as 0-63")
    args = ap.parse_args(argv)
    lo, hi = (int(v) for v in args.seeds.split("-"))
    wl = workloads.WORKLOADS[args.workload]

    values = {}
    for seed in range(lo, hi + 1):
        values[str(seed)] = wl.run_unit(wl.setup(seed), 0).final_smse
        print(f"{wl.name} seed {seed}: {values[str(seed)]!r}", flush=True)

    path = HERE / "references.json"
    refs = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}
    entry = refs.setdefault(wl.name, {"smse": {}, "band": [0.0, 0.0]})
    entry["smse"].update(values)
    stored = list(entry["smse"].values())
    entry["smse"] = dict(sorted(entry["smse"].items(), key=lambda kv: int(kv[0])))
    entry["band"] = [min(stored) / BAND_FACTOR, max(stored) * BAND_FACTOR]
    path.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
