"""Command-line harness: run experiments, compare runs, emit datasets.

Subcommands: ``run``, ``compare``, ``gen-toy``, ``validate-config``. All
artifacts are written with a write-then-rename discipline so a failed run
never leaves a partially written file behind.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys

import numpy as np

from .config import ExperimentConfig
from .datasets import load_dataset, toy_stream, write_dataset
from .errors import ComparisonError, EigpError, InvalidInputError
from .graph import build_graph
from .sim import TOY_INTERVAL, StreamSchedule, run_offline_toy, run_online, toy_function

OUT_DIR_ENV = "EIGP_OUT_DIR"


def _atomic_write(path: str, text: str) -> None:
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(text)
    os.replace(tmp, path)


def _nulled(record: dict) -> dict:
    """``record`` with each non-finite float value as None: JSON has no NaN."""
    return {k: None if isinstance(v, float) and not math.isfinite(v) else v for k, v in record.items()}


def _metrics_csv(result, no_timing: bool) -> str:
    d = result.records[0].truth.size if result.records else 1
    header = (
        ["iteration", "agent"]
        + [f"pred_{j + 1}" for j in range(d)]
        + [f"truth_{j + 1}" for j in range(d)]
        + ["abs_error", "smse", "prediction_time_ms", "active_agents", "hat_eta"]
    )
    lines = [",".join(header)]
    for rec in result.records:
        time_ms = 0.0 if no_timing else rec.prediction_time * 1e3
        for agent in sorted(rec.predictions):
            pred = rec.predictions[agent]
            err = float(np.linalg.norm(pred - rec.truth))
            hat = "" if rec.hat_eta is None else repr(rec.hat_eta[agent])
            row = (
                [str(rec.iteration), str(agent)]
                + [repr(float(v)) for v in pred]
                + [repr(float(v)) for v in rec.truth]
                + [repr(err), repr(rec.smse_cum), repr(time_ms), str(rec.active_agents), hat]
            )
            lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def _plot_csv(result) -> str:
    lines = ["x,truth," + ",".join(f"pred_agent_{a}" for a in sorted(result.records[0].predictions))]
    for rec in result.records:
        row = [repr(float(rec.query[0])), repr(float(rec.truth[0]))]
        row += [repr(float(rec.predictions[a][0])) for a in sorted(rec.predictions)]
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def _resolve_out_dir(args, config: ExperimentConfig) -> str:
    if getattr(args, "out", None):
        return args.out
    env = os.environ.get(OUT_DIR_ENV)
    if env:
        return env
    if config.out_dir:
        return config.out_dir
    return os.path.join("runs", f"{config.scenario}-{config.method}-seed{config.seed}")


def _load_config(args) -> ExperimentConfig:
    config = ExperimentConfig.from_json(args.config) if args.config else ExperimentConfig()
    overrides = {}
    if getattr(args, "method", None):
        overrides["method"] = args.method
    if getattr(args, "seed", None) is not None:
        overrides["seed"] = args.seed
    return dataclasses.replace(config, **overrides)  # validated again


def _execute(config: ExperimentConfig) -> tuple:
    cfg = config.kernel_config()
    dataset = None
    if config.scenario == "stream":
        if config.dataset:
            dataset = load_dataset(config.dataset, cfg.input_dim, cfg.output_dim)
        else:
            dataset = toy_stream(config.steps, np.random.default_rng(config.seed))
    bounds = config.bound_params(dataset)
    method = config.method_spec()

    if config.scenario == "toy":
        result = run_offline_toy(
            cfg,
            method,
            n_agents=config.agents,
            train_points=config.train_points,
            query_points=config.query_points,
            seed=config.seed,
            bounds=bounds,
            window=config.window,
        )
    else:
        steps = min(config.steps, len(dataset))
        result = run_online(
            cfg,
            method,
            build_graph(config.graph, config.agents),
            dataset.X[:steps],
            dataset.Y[:steps],
            StreamSchedule(config.schedule, config.capacity),
            bounds=bounds,
            window=config.window,
        )
    return result, bounds


def cmd_run(args) -> int:
    config = _load_config(args)
    out_dir = _resolve_out_dir(args, config)
    os.makedirs(out_dir, exist_ok=True)
    try:
        result, _ = _execute(config)
    except EigpError as exc:
        record = {"error": type(exc).__name__, "message": str(exc)}
        _atomic_write(os.path.join(out_dir, "error.json"), json.dumps(record, indent=2) + "\n")
        print(f"error: {exc}", file=sys.stderr)
        return 1
    summary = {"config": config.to_dict(), **result.summary()}
    if args.no_timing:
        summary["mean_prediction_time_ms"] = summary["median_prediction_time_ms"] = 0.0
    _atomic_write(os.path.join(out_dir, "metrics.csv"), _metrics_csv(result, args.no_timing))
    _atomic_write(os.path.join(out_dir, "summary.json"), json.dumps(_nulled(summary), indent=2) + "\n")
    if config.scenario == "toy":
        _atomic_write(os.path.join(out_dir, "plot.csv"), _plot_csv(result))
    print(
        f"{config.scenario}/{config.method}: {summary['iterations']} iterations, "
        f"final SMSE {summary['final_smse']:.6g}, "
        f"mean active agents {summary['mean_active_agents']:.2f} -> {out_dir}"
    )
    return 0


def _compare_row(run_dir: str) -> tuple[tuple, dict]:
    """A run's (scenario, seed) and the row ``compare`` shows for it."""
    path = os.path.join(run_dir, "summary.json")
    if not os.path.exists(path):
        raise ComparisonError(f"{run_dir}: no summary.json (incomplete run?)")
    try:
        with open(path, encoding="utf-8") as fh:
            s = json.load(fh)
        key = (s["config"]["scenario"], s["config"]["seed"])
        row = {
            "method": s["method"],
            "mean_time_ms": float(s["mean_prediction_time_ms"]),
            "final_smse": math.nan if s["final_smse"] is None else float(s["final_smse"]),
            "mean_active_agents": float(s["mean_active_agents"]),
            "run": run_dir,
        }
    except (ValueError, KeyError, TypeError) as exc:  # JSONDecodeError is a ValueError
        raise ComparisonError(f"{run_dir}: malformed summary.json: {exc!r}") from None
    return key, row


def cmd_compare(args) -> int:
    keys, rows = zip(*(_compare_row(run_dir) for run_dir in args.runs))
    if len(rows) < 2:
        raise ComparisonError("compare needs at least two run directories")
    if len(set(keys)) != 1:
        raise ComparisonError(f"runs mix scenarios/seeds: {sorted(set(keys))}")

    times = [row["mean_time_ms"] for row in rows]
    order = sorted(range(len(rows)), key=times.__getitem__)
    # a rank is marked only where no other run has the same time
    ranks = zip(order, ("fastest", "second"))
    marks = {i: mark for i, mark in ranks if times.count(times[i]) == 1}

    header = f"{'method':<14}{'mean_time_ms':>14}{'final_smse':>14}{'active_agents':>15}  note"
    lines = [header, "-" * len(header)]
    for i, row in enumerate(rows):
        lines.append(
            f"{row['method']:<14}{row['mean_time_ms']:>14.4f}{row['final_smse']:>14.6f}"
            f"{row['mean_active_agents']:>15.2f}  {marks.get(i, '')}"
        )
    table = "\n".join(lines)
    print(table)
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        payload = [_nulled(dict(row, note=marks.get(i, ""))) for i, row in enumerate(rows)]
        _atomic_write(os.path.join(args.out, "comparison.json"), json.dumps(payload, indent=2) + "\n")
    return 0


def cmd_gen_toy(args) -> int:
    if args.rows < 1:
        raise InvalidInputError(f"--rows must be at least 1, got {args.rows}")
    rng = np.random.default_rng(args.seed)
    if args.grid:
        xs = np.linspace(*TOY_INTERVAL, args.rows)
        write_dataset(args.out, xs[:, None], toy_function(xs, rng)[:, None])
    else:
        data = toy_stream(args.rows, rng)
        write_dataset(args.out, data.X, data.Y)
    print(f"wrote {args.rows} rows to {args.out}")
    return 0


def cmd_validate_config(args) -> int:
    config = ExperimentConfig.from_json(args.config)
    print(f"config OK: scenario={config.scenario} method={config.method} seed={config.seed}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eigp", description="Error-informed distributed GP experiments"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="execute an experiment and write artifacts")
    run.add_argument("--config", help="path to a JSON experiment config")
    run.add_argument("--seed", type=int, help="override the config seed")
    run.add_argument("--method", help="override the config method tag")
    run.add_argument("--out", help="output directory (overrides env and config)")
    run.add_argument(
        "--no-timing", action="store_true", help="zero every timing for golden-file tests"
    )
    run.set_defaults(func=cmd_run)

    compare = sub.add_parser("compare", help="tabulate completed runs side by side")
    compare.add_argument("runs", nargs="+", help="run directories holding summary.json")
    compare.add_argument("--out", help="directory for the comparison record")
    compare.set_defaults(func=cmd_compare)

    gen = sub.add_parser("gen-toy", help="emit a toy-function dataset CSV")
    gen.add_argument("--out", required=True, help="destination CSV path")
    gen.add_argument("--rows", type=int, default=400)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--grid", action="store_true", help="evenly spaced inputs instead of uniform draws")
    gen.set_defaults(func=cmd_gen_toy)

    val = sub.add_parser("validate-config", help="parse and validate a config file")
    val.add_argument("--config", required=True)
    val.set_defaults(func=cmd_validate_config)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except EigpError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
