"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines
as they appear; without ``-s`` they show up in pytest's captured output.
"""

import json
import math
import time

import numpy as np

from eigp import (
    AgentModel,
    KernelConfig,
    MethodSpec,
    StreamSchedule,
    fully_connected,
    gram,
    run_offline_toy,
    run_online,
    toy_stream,
)
from eigp.aggregation import (
    adaptive_select,
    aeigp_weights,
    baseline_weights,
    error_weights,
    gaussianize_epsilon,
    greedy_select,
    joint_predict,
    proportional_normalize,
)
from eigp.bounds import BoundParams, eta_bound, tilde_eta
from eigp.cli import main as cli_main
from eigp.memory import delete_and_reallocate, ingest
from eigp.quality import RhoPolicy, score_and_approx_mean
from eigp.sim import predict_round
from oracles import posterior_mean_via_errors

TOY_CFG = KernelConfig(signal_variance=1.0, lengthscale=0.2, noise_variance=0.25)
TOY_RHO = RhoPolicy("constant", 0.05)
TOY_BOUNDARIES = np.array([-0.6, 0.0, 0.6])


def _verdict(num: int, name: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] criterion {num:>2}: {name}{' -- ' + detail if detail else ''}")
    assert ok, f"criterion {num} ({name}) failed {detail}"


def random_kernel(rng, m, d):
    kappa0 = float(rng.uniform(0.5, 3.0))
    return KernelConfig(
        signal_variance=kappa0,
        lengthscale=float(rng.uniform(0.3, 2.0)),
        noise_variance=float(rng.uniform(1e-4 * kappa0, kappa0)),
        input_dim=m,
        output_dim=d,
    )


def test_criterion_1_property_one_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(500):
        m = int(rng.integers(1, 6))
        d = int(rng.integers(1, 4))
        cfg = random_kernel(rng, m, d)
        n = int(rng.integers(1, 51))
        model = AgentModel.from_data(cfg, rng.normal(size=(n, m)), rng.normal(size=(n, d)))
        x = rng.normal(size=m)
        j = int(rng.integers(0, d))
        direct = model.posterior_mean(x, j)
        via_errors = posterior_mean_via_errors(model, x, j)
        rel = abs(direct - via_errors) / max(abs(direct), 1e-12)
        worst = max(worst, rel)
    elapsed = time.perf_counter() - start
    _verdict(
        1,
        "error-reformulated mean equals the direct posterior mean",
        worst <= 1e-8 and elapsed < 10.0,
        f"worst relative gap {worst:.2e} over 500 models in {elapsed:.1f}s",
    )


def test_criterion_2_incremental_algebra_oracle():
    start = time.perf_counter()
    rng = np.random.default_rng(202)
    checked = 0
    for _ in range(200):
        m = int(rng.integers(1, 4))
        d = int(rng.integers(1, 3))
        cfg = random_kernel(rng, m, d)
        model = AgentModel(cfg)
        for _ in range(int(rng.integers(5, 30))):
            if model.n >= 2 and rng.random() < 0.3:
                delete_and_reallocate(model, int(rng.integers(0, model.n)))
            else:
                model.append_point(rng.normal(size=m), rng.normal(size=d))
        assert np.array_equal(model.K, gram(cfg, model.X)), "Gram differs from recomputation"
        if model.n:
            reg = model.K + cfg.noise_variance * np.eye(model.n)
            resid = np.linalg.norm(reg @ model.alpha - model.Y)
            assert resid <= 1e-9 * max(np.linalg.norm(model.Y), 1.0)
            scratch = AgentModel.from_data(cfg, model.X, model.Y)
            gap = np.linalg.norm(model.errors - scratch.errors)
            assert gap <= 1e-9 * max(np.linalg.norm(scratch.errors), 1.0)
        checked += 1
    elapsed = time.perf_counter() - start
    _verdict(
        2,
        "incremental Gram, alpha and errors match from-scratch recomputation",
        checked == 200 and elapsed < 30.0,
        f"200 append/delete sequences in {elapsed:.1f}s",
    )


def _aeigp_pipeline_weights(scores, theta, nu, variances, cfg):
    selected, phi = adaptive_select(scores, theta)
    tilde_eps = gaussianize_epsilon(scores)
    tilde_w = error_weights(tilde_eps, phi)
    if nu == 1.0:
        return selected, proportional_normalize(tilde_w)
    return selected, aeigp_weights(tilde_w, {s: variances[s] for s in selected}, nu, cfg)


def test_criterion_3_weight_simplex_and_selection_rules():
    rng = np.random.default_rng(303)
    cfg = KernelConfig(signal_variance=1.0, lengthscale=0.5, noise_variance=0.25)
    thetas = (0.0, 0.25, 0.75, 1.5, 4.0)

    def check_simplex(weights):
        values = np.array(list(weights.values()), dtype=float)
        assert np.all(values >= 0.0), "negative weight"
        assert abs(values.sum() - 1.0) <= 1e-10, f"weights sum to {values.sum()}"

    for _ in range(300):
        ids = list(range(1, int(rng.integers(2, 9)) + 1))
        scores = {s: float(rng.uniform(0, 3)) for s in ids}
        if rng.random() < 0.1:
            scores[int(rng.choice(ids))] = math.inf
        variances = {s: float(rng.uniform(0.01, cfg.kappa0)) for s in ids}

        plan = greedy_select(1, scores)
        assert len(plan.selected) == 1, "greedy must select exactly one agent"
        check_simplex({s: w[0] for s, w in plan.weights.items()})
        greedy_choice = plan.selected[0]

        previous = set()
        for theta in thetas:
            nu = float(rng.choice([0.0, 0.5, 1.0]))
            selected, weights = _aeigp_pipeline_weights(scores, theta, nu, variances, cfg)
            check_simplex(weights)
            assert greedy_choice in selected, "adaptive set must contain the greedy choice"
            assert previous <= set(selected), "selection must be monotone in theta"
            previous = set(selected)

        for method in ("MOE", "POE", "GPOE", "BCM", "RBCM"):
            check_simplex(baseline_weights(method, variances, cfg))
    _verdict(
        3,
        "weights on the simplex; greedy singleton; adaptive nesting in theta",
        True,
        "7 methods x 300 random neighborhoods",
    )


def test_criterion_4_adaptive_collapses_to_greedy():
    rng = np.random.default_rng(404)
    cfg = KernelConfig(signal_variance=1.0, lengthscale=0.5, noise_variance=0.25)
    exact = 0
    for _ in range(100):
        n_agents = int(rng.integers(2, 6))
        models = {}
        for i in range(1, n_agents + 1):
            center = 3.0 * i
            X = rng.normal(center, 0.5, size=(int(rng.integers(3, 15)), 1))
            models[i] = AgentModel.from_data(cfg, X, np.sin(X) + 0.1 * rng.normal(size=X.shape))
        graph = fully_connected(n_agents)
        x = [float(rng.uniform(0, 3.0 * (n_agents + 1)))]
        eps = {
            s: score_and_approx_mean(models[s], x, RhoPolicy("mean"))[0].epsilon
            for s in graph.nodes
        }
        top = max(eps.values())
        assert sum(1 for v in eps.values() if v == top) == 1, "maximizer must be unique"
        g_pred, g_plan = joint_predict(1, x, models, graph, MethodSpec("gEIGP"), cfg)
        a_pred, a_plan = joint_predict(
            1, x, models, graph, MethodSpec("aEIGP", nu=1.0, theta=0.0), cfg
        )
        if a_plan.selected == g_plan.selected and np.array_equal(a_pred, g_pred):
            exact += 1
    _verdict(
        4,
        "aEIGP(theta=0, nu=1) reproduces gEIGP exactly",
        exact == 100,
        f"{exact}/100 cases bit-identical",
    )


def _prior_sampler(cfg, grid, jitter=1e-10):
    K = gram(cfg, grid)
    return np.linalg.cholesky(K + jitter * np.eye(len(grid)))


def test_criterion_5_relative_loss_coverage():
    start = time.perf_counter()
    cfg = KernelConfig(signal_variance=1.0, lengthscale=0.3, noise_variance=0.05)
    grid = np.linspace(-1.0, 1.0, 40)[:, None]
    chol_prior = _prior_sampler(cfg, grid)
    params = BoundParams.for_kernel(cfg, tau=0.1, delta=0.05, delta_n=0.05, lower=[-1.0], upper=[1.0])
    delta_rho = params.delta_rho(1)  # single-model statement, n = 1
    required = (1.0 - delta_rho) - 0.02

    rng = np.random.default_rng(505)
    noise_std = math.sqrt(cfg.noise_variance)
    hits = 0
    draws = 1000
    for _ in range(draws):
        f = chol_prior @ rng.standard_normal(len(grid))
        train = rng.choice(len(grid), size=25, replace=False)
        model = AgentModel.from_data(
            cfg, grid[train], (f[train] + noise_std * rng.standard_normal(25))[:, None]
        )
        x = grid[int(rng.integers(0, len(grid)))]
        score, truncated = score_and_approx_mean(model, x, RhoPolicy("mean"), lam=params.lam)
        full = posterior_mean_via_errors(model, x)
        loss = abs(full - truncated[0])
        if math.isinf(score.epsilon):
            budget = 0.0
        elif score.epsilon == 0.0:
            budget = math.inf
        else:
            budget = abs(truncated[0]) / score.epsilon
        if loss <= budget + 1e-12:
            hits += 1
    coverage = hits / draws
    elapsed = time.perf_counter() - start
    _verdict(
        5,
        "relative truncation loss bounded by 1/epsilon at the stated confidence",
        coverage >= required and elapsed < 120.0,
        f"coverage {coverage:.3f} >= {required:.3f} over {draws} draws in {elapsed:.1f}s",
    )


def test_criterion_6_prediction_and_aggregated_bound_coverage():
    cfg = KernelConfig(signal_variance=1.0, lengthscale=0.3, noise_variance=0.05)
    grid = np.linspace(-1.0, 1.0, 40)[:, None]
    chol_prior = _prior_sampler(cfg, grid)
    params = BoundParams.for_kernel(cfg, tau=0.1, delta=0.05, delta_n=0.05, lower=[-1.0], upper=[1.0])
    delta_x = params.delta_x()
    n_agents = 4
    required_single = (1.0 - delta_x) - 0.02
    required_mas = (1.0 - n_agents * delta_x) - 0.02

    rng = np.random.default_rng(606)
    noise_std = math.sqrt(cfg.noise_variance)
    single_hits = mas_hits = 0
    draws = 1000
    for _ in range(draws):
        f = chol_prior @ rng.standard_normal(len(grid))
        qi = int(rng.integers(0, len(grid)))
        x = grid[qi]

        train = rng.choice(len(grid), size=25, replace=False)
        model = AgentModel.from_data(
            cfg, grid[train], (f[train] + noise_std * rng.standard_normal(25))[:, None]
        )
        score, _ = score_and_approx_mean(model, x, RhoPolicy("mean"), lam=params.lam)
        eta = eta_bound(model, score.idx, params.beta)
        if abs(model.posterior_mean(x) - f[qi]) <= eta:
            single_hits += 1

        all_agents_ok = True
        for _ in range(n_agents):
            train_i = rng.choice(len(grid), size=15, replace=False)
            agent = AgentModel.from_data(
                cfg, grid[train_i], (f[train_i] + noise_std * rng.standard_normal(15))[:, None]
            )
            sc, truncated = score_and_approx_mean(agent, x, RhoPolicy("mean"), lam=params.lam)
            bound = tilde_eta(eta_bound(agent, sc.idx, params.beta), sc.epsilon, truncated)
            if abs(truncated[0] - f[qi]) > bound:
                all_agents_ok = False
                break
        if all_agents_ok:
            mas_hits += 1
    single_cov = single_hits / draws
    mas_cov = mas_hits / draws
    _verdict(
        6,
        "prediction-error and aggregated bounds hold at stated confidence",
        single_cov >= required_single and mas_cov >= required_mas,
        f"single {single_cov:.3f} >= {required_single:.3f}, "
        f"aggregated {mas_cov:.3f} >= {required_mas:.3f}",
    )


def test_criterion_7_toy_experiment_structure():
    start = time.perf_counter()
    seed = 7

    greedy = run_offline_toy(TOY_CFG, MethodSpec("gEIGP", rho_policy=TOY_RHO), seed=seed)
    greedy_ok = all(rec.active_agents == 4 for rec in greedy.records)

    adaptive = run_offline_toy(
        TOY_CFG, MethodSpec("aEIGP", nu=1.0, theta=1.0, rho_policy=TOY_RHO), seed=seed
    )
    sizes_ok = True
    saw_two = False
    for rec in adaptive.records:
        distance = float(min(abs(rec.query[0] - b) for b in TOY_BOUNDARIES))
        for size in rec.selected_sizes.values():
            if size not in (1, 2):
                sizes_ok = False
            if size == 2:
                saw_two = True
                if distance > 0.25:
                    sizes_ok = False  # two agents only near a division boundary
            if size == 1 and distance > 0.25:
                pass  # interior: single agent, as required
    adaptive_ok = sizes_ok and saw_two

    half = run_offline_toy(
        TOY_CFG, MethodSpec("aEIGP", nu=0.5, theta=1.0, rho_policy=TOY_RHO), seed=seed
    )
    moe = run_offline_toy(TOY_CFG, MethodSpec("MOE"), seed=seed)
    maes = {
        "gEIGP": greedy.mean_abs_error(),
        "aEIGP(nu=1)": adaptive.mean_abs_error(),
        "aEIGP(nu=0.5)": half.mean_abs_error(),
        "MOE": moe.mean_abs_error(),
    }
    accuracy_ok = all(maes[k] < maes["MOE"] for k in maes if k != "MOE")
    elapsed = time.perf_counter() - start
    _verdict(
        7,
        "toy run: greedy engages 4 agents, adaptive 1-2 near boundaries, EIGP beats MOE",
        greedy_ok and adaptive_ok and accuracy_ok and elapsed < 60.0,
        f"MAEs {'; '.join(f'{k}={v:.3f}' for k, v in maes.items())} in {elapsed:.1f}s",
    )


def test_criterion_8_relative_timing_order():
    seed = 8
    specs = {
        "gEIGP": MethodSpec("gEIGP", rho_policy=TOY_RHO),
        "aEIGP(nu=1)": MethodSpec("aEIGP", nu=1.0, theta=1.0, rho_policy=TOY_RHO),
        "aEIGP(nu=0.5)": MethodSpec("aEIGP", nu=0.5, theta=1.0, rho_policy=TOY_RHO),
        "MOE": MethodSpec("MOE"),
        "POE": MethodSpec("POE"),
        "GPOE": MethodSpec("GPOE"),
        "BCM": MethodSpec("BCM"),
        "RBCM": MethodSpec("RBCM"),
    }
    samples = {name: [] for name in specs}
    for _ in range(5):
        for name, spec in specs.items():
            result = run_offline_toy(TOY_CFG, spec, seed=seed)
            samples[name].append(result.summary()["mean_prediction_time_ms"])
    medians = {name: float(np.median(ts)) for name, ts in samples.items()}
    ordered = medians["gEIGP"] < medians["aEIGP(nu=1)"] < medians["aEIGP(nu=0.5)"]
    beats_baselines = all(
        medians["gEIGP"] < medians[b] for b in ("MOE", "POE", "GPOE", "BCM", "RBCM")
    )
    _verdict(
        8,
        "median MAS prediction time: gEIGP < aEIGP(nu=1) < aEIGP(nu=0.5), gEIGP < baselines",
        ordered and beats_baselines,
        "; ".join(f"{k}={v:.3f}ms" for k, v in medians.items()),
    )


def test_criterion_9_streaming_capacity_and_causality():
    start = time.perf_counter()
    steps, n_agents, capacity = 10_000, 8, 100
    stream = toy_stream(steps, np.random.default_rng(9))
    graph = fully_connected(n_agents)
    schedule = StreamSchedule("cyclic", capacity=capacity)
    method = MethodSpec("gEIGP", rho_policy=RhoPolicy("mean"))

    result = run_online(TOY_CFG, method, graph, stream.X, stream.Y, schedule)
    sizes_ok = all(size == capacity for size in result.final_sizes.values())
    deletions = sum(result.deletions.values())
    deletions_ok = deletions == steps - n_agents * capacity

    causal_ok = True
    for checkpoint in (799, 4500, 9999):
        models = {i: AgentModel(TOY_CFG) for i in graph.nodes}
        for k in range(checkpoint):  # replay only data from before the checkpoint
            recipient = schedule.recipient(k, n_agents)
            ingest(models[recipient], stream.X[k], stream.Y[k], capacity)
        preds, _, _ = predict_round(models, graph, stream.X[checkpoint], method, TOY_CFG)
        recorded = result.records[checkpoint].predictions
        for i in graph.nodes:
            if not np.array_equal(preds[i], recorded[i]):
                causal_ok = False
    elapsed = time.perf_counter() - start
    _verdict(
        9,
        "10^4-step stream: exact capacities, deletion accounting, causal predictions",
        sizes_ok and deletions_ok and causal_ok and elapsed < 300.0,
        f"sizes 100x{n_agents}, deletions {deletions}, replay checks at 3 checkpoints "
        f"in {elapsed:.0f}s",
    )


def test_criterion_10_cli_determinism(tmp_path):
    config = {
        "scenario": "toy",
        "method": "gEIGP",
        "rho_policy": "constant",
        "rho_value": 0.05,
        "train_points": 400,
        "query_points": 100,
        "seed": 10,
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    outputs = []
    for tag in ("a", "b"):
        out = tmp_path / tag
        code = cli_main(
            ["run", "--config", str(config_path), "--out", str(out), "--no-timing"]
        )
        assert code == 0
        outputs.append((out / "metrics.csv").read_bytes())
    _verdict(
        10,
        "identical config and seed produce byte-identical metric CSVs",
        outputs[0] == outputs[1],
        f"{len(outputs[0])} bytes each",
    )
