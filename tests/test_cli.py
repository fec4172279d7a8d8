"""End-to-end CLI commands and artifact contracts."""

import argparse
import json
import math
import re

import numpy as np
import pytest

from eigp import (
    AgentModel,
    ComparisonError,
    ConfigError,
    ExperimentConfig,
    InvalidInputError,
    load_dataset,
    toy_function,
    toy_stream,
    write_dataset,
)
from eigp.aggregation import TRADEOFF_KINDS, VARIANCE_FAMILIES
from eigp.cli import cmd_compare, cmd_validate_config, main
from eigp.quality import RHO_KINDS
from eigp.sim import TOY_INTERVAL


def write_config(tmp_path, name="config.json", **overrides):
    base = {
        "scenario": "toy",
        "method": "gEIGP",
        "agents": 4,
        "train_points": 80,
        "query_points": 12,
        "seed": 7,
    }
    base.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(base))
    return path


def test_gen_toy_roundtrips_through_loader(tmp_path):
    out = tmp_path / "toy.csv"
    assert main(["gen-toy", "--out", str(out), "--rows", "50", "--seed", "3"]) == 0
    ds = load_dataset(out, 1, 1)
    assert len(ds) == 50


def test_validate_config(tmp_path, capsys):
    path = write_config(tmp_path)
    assert main(["validate-config", "--config", str(path)]) == 0
    assert "config OK" in capsys.readouterr().out
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"scenario": "toy", "junk": 1}))
    assert main(["validate-config", "--config", str(bad)]) == 1


def test_run_toy_writes_artifacts(tmp_path):
    config = write_config(tmp_path)
    out = tmp_path / "run1"
    assert main(["run", "--config", str(config), "--out", str(out)]) == 0
    assert (out / "metrics.csv").exists()
    assert (out / "summary.json").exists()
    assert (out / "plot.csv").exists()

    summary = json.loads((out / "summary.json").read_text())
    assert summary["mean_active_agents"] == 4.0  # gEIGP uses one model per agent
    # the config echo reparses to an equal config
    echoed = ExperimentConfig.from_dict(summary["config"])
    assert echoed == ExperimentConfig.from_json(config)

    header = (out / "metrics.csv").read_text().splitlines()[0]
    assert header == (
        "iteration,agent,pred_1,truth_1,abs_error,smse,"
        "prediction_time_ms,active_agents,hat_eta"
    )


def test_run_baseline_active_agents(tmp_path):
    config = write_config(tmp_path, method="MOE")
    out = tmp_path / "moe"
    assert main(["run", "--config", str(config), "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["mean_active_agents"] == 16.0


def test_no_timing_runs_are_byte_identical(tmp_path):
    config = write_config(tmp_path)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["run", "--config", str(config), "--out", str(out_a), "--no-timing"]) == 0
    assert main(["run", "--config", str(config), "--out", str(out_b), "--no-timing"]) == 0
    # the summary's mean and median prediction times are wall clock unless zeroed
    for name in ("metrics.csv", "summary.json"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()
    summary = json.loads((out_a / "summary.json").read_text())
    assert summary["mean_prediction_time_ms"] == summary["median_prediction_time_ms"] == 0.0


ACCEPTED_KINDS = [
    {"tradeoff": kind, "variance_family": family}
    for kind in TRADEOFF_KINDS
    for family in VARIANCE_FAMILIES
] + [{"rho_policy": kind, "rho_value": 0.05 if kind == "constant" else None} for kind in RHO_KINDS]


@pytest.mark.parametrize("overrides", ACCEPTED_KINDS, ids=lambda overrides: json.dumps(overrides))
def test_every_accepted_kind_completes_a_toy_run(tmp_path, capsys, overrides):
    path = write_config(tmp_path, method="aEIGP", query_points=20, **overrides)
    out = tmp_path / "run"
    assert main(["validate-config", "--config", str(path)]) == 0
    assert main(["run", "--config", str(path), "--out", str(out), "--no-timing"]) == 0, (
        capsys.readouterr().err
    )
    assert math.isfinite(json.loads((out / "summary.json").read_text())["final_smse"])


@pytest.mark.parametrize(
    "overrides, kinds",
    [
        ({"tradeoff": "logarithmic"}, TRADEOFF_KINDS),
        ({"tradeoff": "power"}, TRADEOFF_KINDS),
        ({"rho_policy": "min"}, RHO_KINDS),
        ({"rho_policy": "median"}, RHO_KINDS),
    ],
    ids=["logarithmic", "power", "min", "median"],
)
def test_a_removed_kind_fails_before_any_run(tmp_path, capsys, overrides, kinds):
    path = write_config(tmp_path, method="aEIGP", **overrides)
    for argv in (["validate-config"], ["run", "--out", str(tmp_path / "run")]):
        assert main([*argv, "--config", str(path)]) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: unknown ")
        assert f"expected one of {kinds}" in lines[0]
    assert not (tmp_path / "run").exists()
    with pytest.raises(ConfigError):
        ExperimentConfig.from_json(path)


def test_method_and_seed_overrides(tmp_path):
    config = write_config(tmp_path)
    out = tmp_path / "override"
    assert main(
        ["run", "--config", str(config), "--out", str(out), "--method", "MOE", "--seed", "11"]
    ) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["config"]["method"] == "MOE"
    assert summary["config"]["seed"] == 11


def test_out_dir_env_override(tmp_path, monkeypatch):
    config = write_config(tmp_path)
    target = tmp_path / "from-env"
    monkeypatch.setenv("EIGP_OUT_DIR", str(target))
    monkeypatch.chdir(tmp_path)
    assert main(["run", "--config", str(config)]) == 0
    assert (target / "summary.json").exists()


def test_compare_marks_fastest(tmp_path, capsys):
    config = write_config(tmp_path)
    runs = []
    for method in ("gEIGP", "MOE"):
        out = tmp_path / method
        assert main(
            ["run", "--config", str(config), "--out", str(out), "--method", method]
        ) == 0
        runs.append(str(out))
    assert main(["compare", *runs, "--out", str(tmp_path / "cmp")]) == 0
    table = capsys.readouterr().out
    assert "fastest" in table and "second" in table
    assert (tmp_path / "cmp" / "comparison.json").exists()


def test_compare_rejects_mismatched_runs(tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["run", "--config", str(write_config(tmp_path)), "--out", str(out_a)]) == 0
    config_b = write_config(tmp_path, name="other.json", seed=99)
    assert main(["run", "--config", str(config_b), "--out", str(out_b)]) == 0
    assert main(["compare", str(out_a), str(out_b)]) == 1


def test_compare_rejects_malformed_summary(tmp_path):
    good = tmp_path / "good"
    assert main(["run", "--config", str(write_config(tmp_path)), "--out", str(good)]) == 0
    summary = json.loads((good / "summary.json").read_text())
    partial = {k: v for k, v in summary.items() if k != "final_smse"}
    for name, text in (
        ("broken", '{"method": "gEIGP", '),  # cut off mid-write
        ("partial", json.dumps(partial)),
        ("typo", json.dumps(dict(summary, final_smse="n/a"))),
    ):
        bad = tmp_path / name
        bad.mkdir()
        (bad / "summary.json").write_text(text)
        with pytest.raises(ComparisonError, match=re.escape(str(bad))):
            cmd_compare(argparse.Namespace(runs=[str(good), str(bad)], out=None))
        assert main(["compare", str(good), str(bad)]) == 1


def test_stream_scenario_with_dataset_file(tmp_path):
    data = tmp_path / "stream.csv"
    assert main(["gen-toy", "--out", str(data), "--rows", "60", "--seed", "5"]) == 0
    config = write_config(
        tmp_path,
        name="stream.json",
        scenario="stream",
        dataset=str(data),
        steps=60,
        capacity=10,
        agents=2,
    )
    out = tmp_path / "stream-run"
    assert main(["run", "--config", str(config), "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["iterations"] == 60
    assert summary["total_deletions"] == 60 - 20


def test_failed_run_leaves_machine_readable_error(tmp_path):
    config = write_config(
        tmp_path, scenario="stream", dataset=str(tmp_path / "missing.csv")
    )
    out = tmp_path / "fail"
    assert main(["run", "--config", str(config), "--out", str(out)]) == 1
    record = json.loads((out / "error.json").read_text())
    assert record["error"] == "DatasetError"
    assert not (out / "metrics.csv").exists()


def test_missing_config_file_is_a_config_error(tmp_path, capsys):
    missing = tmp_path / "missing.json"
    for command in ("validate-config", "run"):
        assert main([command, "--config", str(missing)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(missing) in err
        assert "Traceback" not in err
    with pytest.raises(ConfigError, match="missing.json"):
        ExperimentConfig.from_json(missing)


def test_clamped_variance_run_writes_error_json(tmp_path, monkeypatch):
    # a posterior variance clamped to 0 stops the run with a typed error
    def clamp_every_variance(self, k):
        self.variance_clamps += 1
        return 0.0

    monkeypatch.setattr(AgentModel, "_variance", clamp_every_variance)
    for method in ("aEIGP", "RBCM"):
        config = write_config(tmp_path, name=f"{method}.json", method=method, nu=0.5)
        out = tmp_path / method
        assert main(["run", "--config", str(config), "--out", str(out)]) == 1
        record = json.loads((out / "error.json").read_text())
        assert record["error"] == "InvalidInputError"
        assert "variance must be positive" in record["message"]
        assert not (out / "metrics.csv").exists()


def test_bounds_config_populates_hat_eta(tmp_path):
    config = write_config(
        tmp_path,
        name="bounds.json",
        method="aEIGP",
        bounds={"tau": 0.1, "delta": 0.05, "delta_n": 0.05, "box": [[-1.2, 1.2]]},
    )
    out = tmp_path / "bounded"
    assert main(["run", "--config", str(config), "--out", str(out)]) == 0
    lines = (out / "metrics.csv").read_text().splitlines()
    first = lines[1].split(",")
    assert first[-1] != ""  # hat_eta column filled for EIGP methods
    assert float(first[-1]) > 0


def test_gen_toy_draws_the_toy_function(tmp_path):
    uniform, grid = tmp_path / "uniform.csv", tmp_path / "grid.csv"
    assert main(["gen-toy", "--out", str(uniform), "--rows", "40", "--seed", "4"]) == 0
    assert main(["gen-toy", "--out", str(grid), "--rows", "40", "--seed", "4", "--grid"]) == 0
    rng = np.random.default_rng(4)
    xs = rng.uniform(*TOY_INTERVAL, size=40)
    ds = load_dataset(uniform, 1, 1)
    assert np.array_equal(ds.X[:, 0], xs)
    assert np.array_equal(ds.Y[:, 0], toy_function(xs, rng))
    rng = np.random.default_rng(4)
    xs = np.linspace(*TOY_INTERVAL, 40)
    ds = load_dataset(grid, 1, 1)
    assert np.array_equal(ds.X[:, 0], xs)
    assert np.array_equal(ds.Y[:, 0], toy_function(xs, rng))


def test_validate_config_rejects_bad_graph(tmp_path, capsys):
    path = tmp_path / "graph.json"
    path.write_text(json.dumps({"graph": [[1, 1], [2, 9]], "agents": 3}))
    assert main(["validate-config", "--config", str(path)]) == 1
    assert "self-loop" in capsys.readouterr().err
    with pytest.raises(InvalidInputError):
        cmd_validate_config(argparse.Namespace(config=str(path)))


@pytest.mark.parametrize(
    "graph, edge",
    [([[1.7, 2], [2, 3.9]], "[1.7, 2]"), ([["1", "2"]], "['1', '2']"), ([[True, 2]], "[True, 2]")],
    ids=["floats", "strings", "boolean"],
)
def test_validate_config_rejects_non_integer_edges(tmp_path, capsys, graph, edge):
    # int() would make node ids of each of these: [[1.7, 2]] would give ((1, 2),)
    path = write_config(tmp_path, scenario="stream", steps=20, graph=graph)
    assert main(["validate-config", "--config", str(path)]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert lines == [f"error: bad graph: graph edge {edge}: node ids must be integers"]
    with pytest.raises(ConfigError):
        ExperimentConfig.from_json(path)
    with pytest.raises(ConfigError):  # the constructor checks the edges too
        ExperimentConfig(**json.loads(path.read_text()))


def test_toy_config_rejects_a_graph_it_would_not_use(tmp_path, capsys):
    path = write_config(tmp_path, method="MOE", graph=[[1, 2], [2, 3], [3, 4]])
    assert main(["validate-config", "--config", str(path)]) == 1
    assert "complete graph" in capsys.readouterr().err
    out = tmp_path / "path-graph"
    assert main(["run", "--config", str(path), "--out", str(out)]) == 1
    assert not (out / "summary.json").exists()
    with pytest.raises(ConfigError):
        ExperimentConfig.from_json(path)


@pytest.mark.parametrize(
    "overrides",
    [
        {"bounds": {"tau": "x"}},
        {"bounds": {"box": 5}},
        {"scenario": "stream", "graph": [1, 2]},
        {"scenario": "stream", "graph": [[1, "a"]]},
        {"seed": 1.5},
        {"seed": -1},
        {"window": 2.5},
        {"query_points": 2.5},
        {"scenario": "stream", "steps": 1.5},
        {"scenario": "stream", "steps": 20, "capacity": 2.5},
        {"variance_family": "bogus"},
        {"rho_policy": "constant", "rho_value": "x"},
        {"scenario": "stream", "dataset": 7},
        {"out_dir": 5},
        {"kernel": [1.0, 0.2]},
    ],
    ids=lambda overrides: json.dumps(overrides),
)
def test_malformed_config_values_are_config_errors(tmp_path, capsys, overrides):
    path = write_config(tmp_path, **overrides)
    for argv in (["validate-config"], ["run", "--out", str(tmp_path / "run")]):
        assert main([*argv, "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "Traceback" not in err
    with pytest.raises(ConfigError):
        ExperimentConfig.from_json(path)


@pytest.mark.parametrize("rows", ["0", "-1"])
def test_gen_toy_rejects_rows_below_one(tmp_path, capsys, rows):
    out = tmp_path / "toy.csv"
    assert main(["gen-toy", "--out", str(out), "--rows", rows]) == 1
    assert capsys.readouterr().err.startswith("error: --rows must be at least 1")
    assert not out.exists()


def test_run_rejects_an_infinite_kernel_hyperparameter(tmp_path, capsys):
    path = write_config(tmp_path, kernel={"signal_variance": math.inf})
    assert "Infinity" in path.read_text()
    for argv in (["validate-config"], ["run", "--out", str(tmp_path / "run")]):
        assert main([*argv, "--config", str(path)]) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert "finite" in lines[0]


@pytest.mark.parametrize(
    "bounds, message",
    [
        ({"tau": -1}, "tau must be positive"),
        ({"delta": 2}, "delta must lie in (0, 1)"),
        ({"delta_n": 0}, "delta_n must lie in (0, 1)"),
        ({"box": [[1.0, -1.0]]}, "must not be below lower"),
        ({"box": [[-1.0, 1.0], [0.0, 1.0]]}, "needs 1 entries, got 2"),
        ({"tau": math.nan}, "tau must be positive"),
        ({"box": [[math.nan, 1.0]]}, "must not be below lower"),
        ({"box": [[-math.inf, math.inf]]}, "box ends must be finite"),
        ({"box": [[-1e308, 1e308]]}, "span overflows"),
        ([0.1, 0.05], "bounds must be an object"),
        ({"box": [[-1.0, 0.0, 1.0]]}, "one [lower, upper] pair per input dimension"),
        ({"box": [[-1.0]]}, "one [lower, upper] pair per input dimension"),
    ],
    ids=[
        "tau", "delta", "delta_n", "inverted box", "box length", "NaN tau", "NaN box", "infinite box",
        "overflowing box", "not an object", "box triple", "box single",
    ],
)
def test_validate_config_checks_bound_settings(tmp_path, capsys, bounds, message):
    # a bound setting the run cannot use fails validation, not only the run
    path = write_config(tmp_path, method="aEIGP", bounds=bounds)
    assert main(["validate-config", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    out = tmp_path / "run"
    assert main(["run", "--config", str(path), "--out", str(out)]) == 1
    assert not (out / "summary.json").exists()
    with pytest.raises(ConfigError):
        ExperimentConfig.from_json(path)


@pytest.mark.parametrize("rho_value", [-1, 5, -1e-9])
def test_validate_config_checks_the_constant_rho_range(tmp_path, capsys, rho_value):
    path = write_config(tmp_path, rho_policy="constant", rho_value=rho_value)
    assert main(["validate-config", "--config", str(path)]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert "outside [0, 1.0]" in lines[0]
    with pytest.raises(ConfigError):
        ExperimentConfig.from_json(path)
    for edge in (0.0, 1.0):  # both ends of [0, kappa0] are valid thresholds
        edge_path = write_config(tmp_path, name="edge.json", rho_policy="constant", rho_value=edge)
        assert main(["validate-config", "--config", str(edge_path)]) == 0


@pytest.mark.parametrize(
    "overrides, source",
    [
        ({"kernel": {"input_dim": 2}}, "the toy experiment"),
        ({"kernel": {"output_dim": 2}}, "the toy experiment"),
        ({"scenario": "stream", "steps": 40, "kernel": {"input_dim": 2, "output_dim": 2}},
         "a stream with no dataset"),
        ({"scenario": "stream", "steps": 40, "kernel": {"output_dim": 3}},
         "a stream with no dataset"),
    ],
    ids=["toy m=2", "toy d=2", "stream m=d=2", "stream d=3"],
)
def test_toy_draws_need_one_dimension(tmp_path, capsys, overrides, source):
    # the toy function is 1-D: a config that would draw from it with other
    # dimensions fails validation, not (or not only) the run
    path = write_config(tmp_path, **overrides)
    assert main(["validate-config", "--config", str(path)]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert lines == [f"error: {source} is one-dimensional: set input_dim and output_dim to 1"]
    out = tmp_path / "run"
    assert main(["run", "--config", str(path), "--out", str(out)]) == 1
    assert not (out / "summary.json").exists()
    with pytest.raises(ConfigError, match="one-dimensional"):
        ExperimentConfig.from_json(path)


@pytest.mark.parametrize(
    "overrides, dim",
    [
        ({"kernel": {"output_dim": 1.0}}, "output_dim"),
        ({"kernel": {"input_dim": True}}, "input_dim"),
        ({"scenario": "stream", "steps": 20, "kernel": {"input_dim": 2.0}}, "input_dim"),
    ],
    ids=["toy float", "toy bool", "stream float"],
)
def test_kernel_dimensions_must_be_integers(tmp_path, capsys, overrides, dim):
    # 1.0 == 1 passed the one-dimension check, then the run failed with a
    # TypeError deep in numpy; a float input_dim broke the dataset loader
    if overrides.get("scenario") == "stream":
        data = tmp_path / "plane.csv"
        X = np.random.default_rng(3).uniform(-1.0, 1.0, size=(20, 2))
        write_dataset(data, X, X[:, :1] * X[:, 1:])
        overrides = {**overrides, "dataset": str(data)}
    path = write_config(tmp_path, **overrides)
    for argv in (["validate-config"], ["run", "--out", str(tmp_path / "run")]):
        assert main([*argv, "--config", str(path)]) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and f"{dim} must be an integer" in lines[0]
    with pytest.raises(ConfigError, match="must be an integer"):
        ExperimentConfig.from_json(path)


def test_stream_dataset_sets_its_own_dimensions(tmp_path, capsys):
    data = tmp_path / "plane.csv"
    rng = np.random.default_rng(9)
    X = rng.uniform(-1.0, 1.0, size=(30, 2))
    write_dataset(data, X, np.sin(X[:, :1] + X[:, 1:]))
    kernel = {"input_dim": 2, "output_dim": 1}
    path = write_config(
        tmp_path, scenario="stream", dataset=str(data), steps=30, capacity=8, agents=2,
        kernel=kernel,
    )
    assert main(["validate-config", "--config", str(path)]) == 0
    out = tmp_path / "run"
    assert main(["run", "--config", str(path), "--out", str(out)]) == 0
    assert json.loads((out / "summary.json").read_text())["iterations"] == 30


def test_a_partial_kernel_block_runs_the_default_kernel(tmp_path):
    # {"input_dim": 1} used to run with KernelConfig's own lengthscale 1.0 and noise 0.1
    runs = {}
    for name, kernel in (("partial", {"input_dim": 1}), ("default", None)):
        overrides = {"kernel": kernel} if kernel else {}
        path = write_config(tmp_path, name=f"{name}.json", **overrides)
        out = tmp_path / name
        assert main(["run", "--config", str(path), "--out", str(out), "--no-timing"]) == 0
        runs[name] = out
    echoed = json.loads((runs["partial"] / "summary.json").read_text())["config"]["kernel"]
    assert echoed == {
        "signal_variance": 1.0,
        "lengthscale": 0.2,
        "noise_variance": 0.25,
        "input_dim": 1,
        "output_dim": 1,
    }
    metrics = [(out / "metrics.csv").read_bytes() for out in runs.values()]
    assert metrics[0] == metrics[1]


def test_a_partial_bounds_block_round_trips_through_the_summary(tmp_path):
    path = write_config(tmp_path, method="aEIGP", bounds={"delta": 0.1})
    out = tmp_path / "bounded"
    assert main(["run", "--config", str(path), "--out", str(out)]) == 0
    config = ExperimentConfig.from_json(path)
    echoed = json.loads((out / "summary.json").read_text())["config"]
    assert echoed["bounds"] == {"tau": 0.1, "delta": 0.1, "delta_n": 0.05, "box": None}
    assert ExperimentConfig.from_dict(echoed) == config


@pytest.mark.parametrize(
    "overrides, message",
    [
        ({"nu": True}, "nu must be a number, got True"),
        ({"nu": "0.5"}, "nu must be a number, got '0.5'"),
        ({"theta": True}, "theta must be a number, got True"),
        ({"rho_policy": "constant", "rho_value": True}, "rho_value must be a number, got True"),
        ({"kernel": {"lengthscale": True}}, "lengthscale must be a number, got True"),
        ({"bounds": {"tau": "0.1"}}, "tau must be a number, got '0.1'"),
        ({"bounds": {"delta_n": False}}, "delta_n must be a number, got False"),
        ({"bounds": {"box": [["-1", "1"]]}}, "box end must be a number, got '-1'"),
    ],
    ids=["nu bool", "nu string", "theta bool", "rho_value bool", "lengthscale bool",
         "tau string", "delta_n bool", "box string"],
)
def test_bools_and_strings_are_not_numbers(tmp_path, capsys, overrides, message):
    # JSON true ran as 1, and from_dict's float() read "0.1" as 0.1
    path = write_config(tmp_path, method="aEIGP", **overrides)
    for argv in (["validate-config"], ["run", "--out", str(tmp_path / "run")]):
        assert main([*argv, "--config", str(path)]) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ") and message in lines[0]
    assert not (tmp_path / "run" / "summary.json").exists()
    with pytest.raises(ConfigError):
        ExperimentConfig.from_json(path)


def test_gen_toy_writes_the_toy_stream(tmp_path):
    out = tmp_path / "uniform.csv"
    assert main(["gen-toy", "--out", str(out), "--rows", "40", "--seed", "4"]) == 0
    data = toy_stream(40, np.random.default_rng(4))
    write_dataset(tmp_path / "stream.csv", data.X, data.Y)
    assert out.read_bytes() == (tmp_path / "stream.csv").read_bytes()


def test_an_unknown_method_override_is_a_config_error(tmp_path, capsys):
    path = write_config(tmp_path)
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "x"), "--method", "XYZ"]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: unknown method 'XYZ'")
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "x"), "--seed", "-1"]) == 1
    assert capsys.readouterr().err.startswith("error: seed must be an integer >= 0")
