"""Simulation engine: toy function, schedules, metrics, online loop."""

import math

import numpy as np
import pytest

from eigp import (
    AgentModel,
    BoundParams,
    ExperimentConfig,
    Graph,
    InvalidInputError,
    KernelConfig,
    MethodSpec,
    MetricError,
    SimRecord,
    SimResult,
    StreamSchedule,
    aggregation,
    eta_bound,
    fully_connected,
    run_offline_toy,
    run_online,
    score_and_approx_mean,
    sim,
    smse,
    tilde_eta,
    toy_function,
    toy_mean,
)
from eigp import model as model_module
from eigp import quality
from eigp.aggregation import joint_predict
from eigp.memory import ingest
from eigp.quality import RhoPolicy
from eigp.sim import TOY_INTERVAL, _RunningSmse, predict_round, toy_training_data

CFG = KernelConfig(signal_variance=1.0, lengthscale=0.2, noise_variance=0.25)


def reference_toy_mean(x):
    """Term-by-term scripted evaluation, independent of the library path."""
    return (
        5.0 * x * x * math.sin(12.0 * x)
        + (x * x * x - 0.5) * math.sin(3.0 * x - 0.5)
        + 4.0 * math.cos(2.0 * x)
    )


def test_toy_mean_at_origin():
    # only 4 cos(0) and the (x^3 - 0.5) sin(-0.5) term survive
    assert toy_mean(0.0) == pytest.approx(4.0 + 0.5 * math.sin(0.5), rel=1e-14)
    assert toy_mean(0.0) == pytest.approx(4.2397, abs=1e-4)


def test_toy_mean_matches_scripted_expression():
    for x in np.linspace(-1.2, 1.2, 37):
        assert toy_mean(x) == pytest.approx(reference_toy_mean(x), rel=1e-12, abs=1e-12)


def test_toy_function_seeded_determinism():
    xs = np.linspace(-1, 1, 50)
    a = toy_function(xs, np.random.default_rng(42))
    b = toy_function(xs, np.random.default_rng(42))
    assert np.array_equal(a, b)
    # noise variance roughly 0.25 (std 0.5)
    noise = toy_function(np.zeros(4000), np.random.default_rng(1)) - toy_mean(0.0)
    assert np.var(noise) == pytest.approx(0.25, rel=0.1)


def test_smse_examples():
    truths = np.array([0.0, 2.0])
    assert smse(truths, truths) == 0.0
    assert smse(np.full(2, truths.mean()), truths) == pytest.approx(1.0, rel=1e-14)
    assert smse(np.array([1.0, 1.0]), truths) == pytest.approx(1.0, rel=1e-14)


def test_smse_error_cases():
    with pytest.raises(MetricError):
        smse([1.0], [1.0])
    with pytest.raises(MetricError):
        smse([1.0, 2.0], [3.0, 3.0])
    with pytest.raises(InvalidInputError):
        smse([1.0, 2.0], [1.0, 2.0, 3.0])


def test_cyclic_schedule_fills_agents_in_blocks():
    schedule = StreamSchedule("cyclic", capacity=3)
    recipients = [schedule.recipient(k, 2) for k in range(12)]
    assert recipients == [1, 1, 1, 2, 2, 2, 1, 1, 1, 2, 2, 2]


def test_round_robin_schedule_alternates():
    schedule = StreamSchedule("round-robin", capacity=10)
    assert [schedule.recipient(k, 3) for k in range(6)] == [1, 2, 3, 1, 2, 3]


def test_offline_toy_geigp_structure():
    result = run_offline_toy(CFG, MethodSpec("gEIGP"), train_points=80, query_points=20, seed=3)
    assert len(result.records) == 20
    for rec in result.records:
        assert rec.active_agents == 4  # each agent adopts exactly one model
        assert set(rec.predictions) == {1, 2, 3, 4}
    assert result.final_sizes == {1: 20, 2: 20, 3: 20, 4: 20}


def test_offline_toy_baselines_engage_everyone():
    result = run_offline_toy(CFG, MethodSpec("MOE"), train_points=80, query_points=10, seed=3)
    for rec in result.records:
        assert rec.active_agents == 16  # 4 agents x 4 models


def test_bcm_predicts_as_poe_and_rbcm_as_gpoe():
    # a known defect, recorded rather than fixed: every baseline's weights are
    # normalized to sum to one, so BCM's prior correction, one constant per
    # row of the weights, cancels
    predictions = {}
    for name in ("POE", "GPOE", "BCM", "RBCM"):
        records = run_offline_toy(CFG, MethodSpec(name), seed=0).records
        predictions[name] = np.array([list(r.predictions.values()) for r in records])
    for bcm, poe in (("BCM", "POE"), ("RBCM", "GPOE")):
        gap = np.abs(predictions[bcm] - predictions[poe]).max()
        assert gap <= 1e-12 * np.abs(predictions[poe]).max()


def test_single_agent_online_reduces_to_plain_gp():
    rng = np.random.default_rng(11)
    xs = rng.uniform(-1, 1, size=25)
    ys = toy_function(xs, rng)
    method = MethodSpec("gEIGP", rho_policy=RhoPolicy("constant", 0.0))  # no truncation
    result = run_online(
        CFG,
        method,
        fully_connected(1),
        xs[:, None],
        ys[:, None],
        StreamSchedule("cyclic", capacity=100),
    )
    # replay the same stream through a bare model and compare predictions
    model = AgentModel(CFG)
    for k in range(25):
        expected = model.posterior_mean(xs[k])
        got = result.records[k].predictions[1][0]
        assert got == pytest.approx(expected, rel=1e-10, abs=1e-12)
        ingest(model, [xs[k]], [ys[k]], capacity=100)


def test_online_capacity_bookkeeping():
    rng = np.random.default_rng(12)
    xs = rng.uniform(-1, 1, size=40)
    ys = toy_function(xs, rng)
    result = run_online(
        CFG,
        MethodSpec("gEIGP"),
        fully_connected(3),
        xs[:, None],
        ys[:, None],
        StreamSchedule("cyclic", capacity=5),
    )
    assert result.final_sizes == {1: 5, 2: 5, 3: 5}
    assert sum(result.deletions.values()) == 40 - 15
    assert len(result.records) == 40


def test_online_predictions_are_causal():
    rng = np.random.default_rng(13)
    xs = rng.uniform(-1, 1, size=30)
    ys = toy_function(xs, rng)
    schedule = StreamSchedule("cyclic", capacity=4)
    graph = fully_connected(2)
    method = MethodSpec("aEIGP", nu=1.0, theta=1.0)
    result = run_online(CFG, method, graph, xs[:, None], ys[:, None], schedule)

    for checkpoint in (0, 7, 18, 29):
        models = {i: AgentModel(CFG) for i in graph.nodes}
        for k in range(checkpoint):  # only data from before the checkpoint
            ingest(models[schedule.recipient(k, graph.n)], [xs[k]], [ys[k]], schedule.capacity)
        preds, _, _ = predict_round(models, graph, [xs[checkpoint]], method, CFG)
        for i in graph.nodes:
            assert preds[i][0] == result.records[checkpoint].predictions[i][0]


def test_online_runs_are_deterministic():
    rng = np.random.default_rng(14)
    xs = rng.uniform(-1, 1, size=20)
    ys = toy_function(xs, rng)
    kwargs = dict(
        cfg=CFG,
        method=MethodSpec("aEIGP", nu=0.5),
        graph=fully_connected(2),
        stream_X=xs[:, None],
        stream_Y=ys[:, None],
        schedule=StreamSchedule("cyclic", capacity=6),
    )
    a = run_online(**kwargs)
    b = run_online(**kwargs)
    for ra, rb in zip(a.records, b.records):
        for i in ra.predictions:
            assert np.array_equal(ra.predictions[i], rb.predictions[i])
        assert ra.selected_sizes == rb.selected_sizes


def test_selective_methods_beat_moe_on_sequential_stream():
    # Trajectory-like arrivals plus cyclic filling leave each agent covering
    # distinct regions, which is where selection pays off over averaging.
    rng = np.random.default_rng(15)
    t = np.arange(600)
    xs = np.clip(1.2 * np.sin(2 * np.pi * t / 320) + rng.normal(0, 0.03, 600), -1.2, 1.2)
    ys = toy_function(xs, rng)
    graph = fully_connected(4)
    schedule = StreamSchedule("cyclic", capacity=50)

    def tail_smse(result, frac=0.25):
        tail = result.records[int(len(result.records) * (1 - frac)):]
        preds = np.concatenate([[p[0] for p in rec.predictions.values()] for rec in tail])
        truths = np.concatenate([[rec.truth[0]] * len(rec.predictions) for rec in tail])
        return smse(preds, truths)

    rho = RhoPolicy("constant", 0.05)
    selective = {
        "gEIGP": MethodSpec("gEIGP", rho_policy=rho),
        "aEIGP(nu=1)": MethodSpec("aEIGP", nu=1.0, theta=1.0, rho_policy=rho),
        "aEIGP(nu=0.5)": MethodSpec("aEIGP", nu=0.5, theta=1.0, rho_policy=rho),
    }
    moe = tail_smse(
        run_online(CFG, MethodSpec("MOE"), graph, xs[:, None], ys[:, None], schedule)
    )
    for name, method in selective.items():
        value = tail_smse(run_online(CFG, method, graph, xs[:, None], ys[:, None], schedule))
        assert value <= moe, f"{name} tail SMSE {value} above MOE {moe}"


def home_agent_picks(config):
    """Requester-rounds of ``config``'s offline toy whose plan selects the home agent.

    The home agent holds the training point nearest the query, so its block
    spans the query. Returns (picks, requester-rounds).
    """
    cfg, method = config.kernel_config(), config.method_spec()
    rng = np.random.default_rng(config.seed)
    xs, ys, blocks = toy_training_data(config.train_points, config.agents, rng)
    models = {
        i: AgentModel.from_data(cfg, xs[b][:, None], ys[b][:, None])
        for i, b in enumerate(blocks, start=1)
    }
    owner = np.repeat(np.arange(1, len(blocks) + 1), [len(b) for b in blocks])
    graph = fully_connected(config.agents)
    picks = rounds = 0
    for q in np.linspace(*TOY_INTERVAL, config.query_points):
        home = owner[np.argmin(np.abs(xs - q))]
        plans = predict_round(models, graph, [q], method, cfg)[1]
        picks += sum(home in plan.selected for plan in plans.values())
        rounds += len(plans)
    return picks, rounds


@pytest.mark.xfail(
    strict=True,
    reason="epsilon under a data-relative rho rewards distance: the default mean "
    "policy picks the home agent in 4 of 400 requester-rounds",
)
def test_the_default_rho_policy_picks_the_home_agent_in_most_toy_rounds():
    picks, rounds = home_agent_picks(ExperimentConfig())
    assert picks > rounds / 2


def test_constant_rho_picks_the_home_agent_in_nearly_every_toy_round():
    # 396 of 400 at seed 0: the home agent includes all its points and wins
    # through the infinity sentinel, far agents include none
    picks, rounds = home_agent_picks(ExperimentConfig(rho_policy="constant", rho_value=0.05))
    assert picks >= 0.95 * rounds


def test_summary_fields():
    result = run_offline_toy(CFG, MethodSpec("gEIGP"), train_points=40, query_points=10, seed=5)
    summary = result.summary()
    assert summary["iterations"] == 10
    assert summary["agents"] == 4
    assert summary["method"] == "gEIGP"
    assert summary["mean_active_agents"] == 4.0
    assert summary["final_smse"] >= 0.0


def test_summary_reports_numerical_counters():
    tiny = KernelConfig(signal_variance=1.0, lengthscale=1.0, noise_variance=1e-13)
    xs = np.array([[0.0], [2.0], [0.0]])  # the last input repeats the first
    ys = np.array([[1.0], [0.5], [1.0]])
    schedule = StreamSchedule("cyclic", capacity=10)
    result = run_online(tiny, MethodSpec("gEIGP"), fully_connected(1), xs, ys, schedule)
    summary = result.summary()
    assert summary["refactor_fallbacks"] == 1  # the duplicate's Schur complement vanishes
    assert summary["variance_clamps"] == 0


def test_running_smse_is_exact_for_offset_targets():
    rng = np.random.default_rng(16)
    truths = 1e8 + toy_mean(rng.uniform(-1.2, 1.2, size=300))
    preds = truths + rng.normal(0.0, 0.5, size=300)
    tracker = _RunningSmse()
    records = []
    for k, (p, t) in enumerate(zip(preds, truths)):
        pred, truth = {1: np.array([p])}, np.array([t])
        tracker.update(pred, truth)
        records.append(SimRecord(k, truth, truth, pred, {1: 1}, 1, 0.0, tracker.cumulative()))
    expected = np.mean((preds - truths) ** 2) / np.var(truths)
    assert tracker.cumulative() == pytest.approx(expected, rel=1e-9)
    result = SimResult(records, MethodSpec("MOE"), n_agents=1, window=50)
    tail_p, tail_t = preds[-50:], truths[-50:]
    assert result.summary()["window_smse"] == pytest.approx(
        np.mean((tail_p - tail_t) ** 2) / np.var(tail_t), rel=1e-9
    )


def test_one_round_run_has_no_window_smse():
    result = run_offline_toy(CFG, MethodSpec("gEIGP"), train_points=40, query_points=1, seed=5)
    assert math.isnan(result.summary()["window_smse"])


def test_bounded_run_certifies_epsilon_at_the_bound_lambda():
    method = MethodSpec("aEIGP", nu=0.5, theta=1.0)
    bounds = BoundParams.for_kernel(CFG, 0.1, 0.05, 0.05, [TOY_INTERVAL[0]], [TOY_INTERVAL[1]])
    assert bounds.lam != 1.0
    result = run_offline_toy(
        CFG, method, train_points=80, query_points=12, seed=3, bounds=bounds
    )
    # rebuild the run's models to recompute every bound from its definition
    xs, ys, blocks = toy_training_data(80, 4, np.random.default_rng(3))
    models = {
        i + 1: AgentModel.from_data(CFG, xs[b][:, None], ys[b][:, None])
        for i, b in enumerate(blocks)
    }
    graph = fully_connected(4)
    for rec in result.records:
        for i in graph.nodes:
            pred, plan = joint_predict(i, rec.query, models, graph, method, CFG)
            assert np.array_equal(pred, rec.predictions[i])
            expected = 0.0
            for s in plan.selected:
                score, mean = score_and_approx_mean(
                    models[s], rec.query, method.rho_policy, lam=bounds.lam
                )
                eta = eta_bound(models[s], score.idx, bounds.beta)
                expected += float(plan.weights[s][0]) * tilde_eta(eta, score.epsilon, mean)
            assert rec.hat_eta[i] == pytest.approx(expected, rel=1e-12)


def test_predict_round_scores_each_agent_once(monkeypatch):
    rng = np.random.default_rng(17)
    models = {}
    for i in range(1, 5):
        X = rng.uniform(-1.2, 1.2, size=(30, 1))
        models[i] = AgentModel.from_data(CFG, X, toy_function(X, rng))
    graph = fully_connected(4)
    method = MethodSpec("aEIGP", nu=0.5, theta=1.0)
    calls = {"score": 0, "var": 0}
    score, var = aggregation.score_and_approx_mean, AgentModel.posterior_var

    def counted_score(*args, **kwargs):
        calls["score"] += 1
        return score(*args, **kwargs)

    def counted_var(self, *args, **kwargs):
        calls["var"] += 1
        return var(self, *args, **kwargs)

    monkeypatch.setattr(aggregation, "score_and_approx_mean", counted_score)
    monkeypatch.setattr(AgentModel, "posterior_var", counted_var)
    for x in rng.uniform(-1.2, 1.2, size=(5, 1)):
        calls.update(score=0, var=0)
        preds, plans, _ = predict_round(models, graph, x, method, CFG)
        assert calls["score"] == 4
        assert 1 <= calls["var"] <= 4
        for i in graph.nodes:
            alone, plan = joint_predict(i, x, models, graph, method, CFG)
            assert np.array_equal(preds[i], alone)
            assert plan.selected == plans[i].selected


def test_predict_round_keeps_calling_the_traced_names(monkeypatch):
    # a benchmark trace times these names by rebinding them; a round that
    # stopped calling one would leave its per-layer metrics silent
    rng = np.random.default_rng(23)
    models = {}
    for i in range(1, 5):
        X = rng.uniform(-1.2, 1.2, size=(25, 1))
        models[i] = AgentModel.from_data(CFG, X, toy_function(X, rng))
    ring = Graph(4, [(1, 2), (2, 3), (3, 4), (4, 1)])
    calls = {"joint_predict": [], "score": [], "var": [], "classical": [], "kernel": []}

    def counting(key, fn):
        def counted(*args, **kwargs):
            calls[key].append(args[0])
            return fn(*args, **kwargs)

        return counted

    monkeypatch.setattr(sim, "joint_predict", counting("joint_predict", sim.joint_predict))
    monkeypatch.setattr(
        aggregation, "score_and_approx_mean", counting("score", aggregation.score_and_approx_mean)
    )
    monkeypatch.setattr(AgentModel, "posterior_var", counting("var", AgentModel.posterior_var))
    monkeypatch.setattr(
        AgentModel, "classical_predict", counting("classical", AgentModel.classical_predict)
    )
    for module in (quality, model_module):
        monkeypatch.setattr(module, "kernel_vec", counting("kernel", module.kernel_vec))
    for graph in (fully_connected(4), ring):
        for x in rng.uniform(-1.2, 1.2, size=(3, 1)):
            for key in calls:
                calls[key].clear()
            predict_round(models, graph, x, MethodSpec("aEIGP", nu=0.5, theta=1.0), CFG)
            assert calls["joint_predict"] == list(graph.nodes)
            assert sorted(id(m) for m in calls["score"]) == sorted(id(m) for m in models.values())
            assert 1 <= len(calls["var"]) == len({id(m) for m in calls["var"]}) <= 4
            assert calls["classical"] == []
            # one stacked kernel vector serves every score and every variance
            assert len(calls["kernel"]) == 1

            calls["kernel"].clear()
            predict_round(models, graph, x, MethodSpec("gEIGP"), CFG)
            assert len(calls["kernel"]) == 1

            calls["joint_predict"].clear()
            calls["kernel"].clear()
            predict_round(models, graph, x, MethodSpec("MOE"), CFG)
            assert calls["joint_predict"] == list(graph.nodes)
            pairs = sum(len(graph.closed_neighborhood(i)) for i in graph.nodes)
            assert len(calls["classical"]) == len(calls["kernel"]) == pairs


def test_a_round_over_models_of_different_kernels_is_rejected():
    rng = np.random.default_rng(24)
    other = KernelConfig(signal_variance=1.0, lengthscale=0.5, noise_variance=0.25)
    models = {
        i: AgentModel.from_data(cfg, rng.uniform(-1, 1, size=(10, 1)), rng.normal(size=(10, 1)))
        for i, cfg in ((1, CFG), (2, CFG), (3, other))
    }
    for name in ("gEIGP", "aEIGP"):
        with pytest.raises(InvalidInputError, match="share one kernel configuration"):
            predict_round(models, fully_connected(3), [0.1], MethodSpec(name), CFG)


def test_run_online_rejects_arrays_of_the_wrong_width():
    rng = np.random.default_rng(18)
    xs = rng.uniform(-1, 1, size=40)
    ys = toy_function(xs, rng)
    plane = KernelConfig(lengthscale=0.5, noise_variance=0.1, input_dim=2, output_dim=2)
    schedule = StreamSchedule("cyclic", capacity=10)

    def rejects(cfg, X, Y, message):
        with pytest.raises(InvalidInputError, match=message):
            run_online(cfg, MethodSpec("gEIGP"), fully_connected(2), X, Y, schedule)

    # 1-D draws are one column each, not 20 points of 2 coordinates
    rejects(plane, xs, ys, r"stream inputs must have 2 column\(s\), got shape \(40,\)")
    rejects(CFG, xs.reshape(20, 2), ys[:20], r"inputs must have 1 column\(s\), got shape \(20, 2\)")
    rejects(CFG, xs[:, None], np.stack([ys, ys], axis=1), r"stream outputs must have 1 column\(s\)")
    rejects(CFG, 0.5, [1.0], r"stream inputs must have 1 column\(s\), got shape \(\)")


def test_run_online_takes_a_1d_stream_as_one_column():
    rng = np.random.default_rng(19)
    xs = rng.uniform(-1, 1, size=30)
    ys = toy_function(xs, rng)
    args = (CFG, MethodSpec("aEIGP", nu=0.5), fully_connected(3))
    schedule = StreamSchedule("cyclic", capacity=6)
    flat = run_online(*args, xs, ys, schedule)
    columns = run_online(*args, xs[:, None], ys[:, None], schedule)
    assert len(flat.records) == 30
    for a, b in zip(flat.records, columns.records):
        assert all(np.array_equal(a.predictions[i], b.predictions[i]) for i in a.predictions)


def test_empty_runs_are_rejected_before_any_model_is_built(monkeypatch):
    # a run without a round has no metric: its summary would average an empty list
    def no_models(*args, **kwargs):
        raise AssertionError("a model was built")

    monkeypatch.setattr(AgentModel, "__init__", no_models)
    monkeypatch.setattr(AgentModel, "from_data", no_models)
    with pytest.raises(InvalidInputError, match="at least one query point"):
        run_offline_toy(CFG, MethodSpec("gEIGP"), train_points=40, query_points=0)
    none = np.zeros((0, 1))
    for method in (MethodSpec("gEIGP"), MethodSpec("MOE")):
        with pytest.raises(InvalidInputError, match="at least one row"):
            run_online(CFG, method, fully_connected(2), none, none, StreamSchedule())
