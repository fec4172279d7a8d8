"""Selection rules, weight constructions and the joint prediction."""

import ast
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eigp import (
    AgentModel,
    Graph,
    InvalidInputError,
    KernelConfig,
    MethodSpec,
    adaptive_select,
    aeigp_weights,
    baseline_weights,
    error_weights,
    fully_connected,
    gaussianize_epsilon,
    greedy_select,
    joint_predict,
    predict_round,
    proportional_normalize,
)
from eigp.aggregation import (
    BASELINE_METHODS,
    TRADEOFF_KINDS,
    VARIANCE_FAMILIES,
    _generalized_rows,
    _log_precision_gain,
    _minmax_rows,
    _row_std,
)
from eigp.quality import RhoPolicy, score_and_approx_mean
from eigp.sim import toy_training_data
import oracles

CFG = KernelConfig(signal_variance=1.0, lengthscale=0.5, noise_variance=0.25)


def assert_simplex(weights, d=None):
    values = np.array([np.atleast_1d(w) for w in weights.values()], dtype=float)
    assert np.all(values >= 0.0)
    assert np.allclose(values.sum(axis=0), 1.0, rtol=0, atol=1e-10)


# ----------------------------------------------------------------------
# selection
# ----------------------------------------------------------------------


def test_greedy_picks_argmax():
    plan = greedy_select(1, {1: 0.2, 2: 0.9, 3: 0.5})
    assert plan.selected == (2,)
    assert plan.weights[2].tolist() == [1.0]


def test_greedy_prefers_sentinel():
    plan = greedy_select(1, {1: 5.0, 2: math.inf, 3: 0.1})
    assert plan.selected == (2,)


def test_greedy_tie_goes_to_lowest_id():
    plan = greedy_select(3, {2: 0.7, 1: 0.7, 3: 0.1})
    assert plan.selected == (1,)


def test_gaussianize_hand_case():
    scores = {1: 1.0, 2: 0.9, 3: 0.1}
    values = np.array([1.0, 0.9, 0.1])
    sigma = float(np.std(values))  # population standard deviation
    expected = {
        s: math.exp(-((1.0 - scores[s]) ** 2) / (2 * sigma**2)) / (sigma * math.sqrt(2 * math.pi))
        for s in scores
    }
    result = gaussianize_epsilon(scores)
    for s in scores:
        assert result[s] == pytest.approx(expected[s], rel=1e-12)
    # the three values land near 0.99, 0.96 and 0.08
    assert result[1] == pytest.approx(0.99, abs=5e-3)
    assert result[2] == pytest.approx(0.96, abs=5e-3)
    assert result[3] == pytest.approx(0.082, abs=5e-3)
    assert result[1] == max(result.values())


def test_gaussianize_maximizer_value():
    scores = {1: 0.4, 2: 0.8, 3: 0.6}
    sigma = float(np.std([0.4, 0.8, 0.6]))
    assert gaussianize_epsilon(scores)[2] == pytest.approx(
        1.0 / (sigma * math.sqrt(2 * math.pi)), rel=1e-12
    )


def test_gaussianize_degenerate_all_equal():
    result = gaussianize_epsilon({1: 0.5, 2: 0.5, 3: 0.5})
    assert len(set(result.values())) == 1


def test_gaussianize_sentinels_short_circuit():
    result = gaussianize_epsilon({1: math.inf, 2: 0.4, 3: math.inf})
    assert result[1] == result[3] == 1.0
    assert result[2] == 0.0


def test_adaptive_hand_threshold():
    scores = {1: 1.0, 2: 0.9, 3: 0.1}
    selected, phi = adaptive_select(scores, theta=1.0)
    # threshold = 1.0 - std ~ 0.5972, keeping the 1.0 and 0.9 agents
    assert selected == (1, 2)
    assert phi == {1: 1, 2: 1, 3: 0}


def test_adaptive_theta_zero_is_argmax_set():
    selected, _ = adaptive_select({1: 0.3, 2: 0.8, 3: 0.5}, theta=0.0)
    assert selected == (2,)


def test_adaptive_large_theta_selects_everyone():
    scores = {1: 0.3, 2: 0.8, 3: 0.5}
    selected, _ = adaptive_select(scores, theta=100.0)
    assert selected == (1, 2, 3)


def test_adaptive_always_contains_maximizer_and_grows_with_theta():
    rng = np.random.default_rng(0)
    for _ in range(50):
        scores = {s: float(rng.uniform(0, 2)) for s in range(1, 7)}
        best = greedy_select(1, scores).selected[0]
        previous = set()
        for theta in (0.0, 0.3, 0.7, 1.2, 2.5, 10.0):
            selected, _ = adaptive_select(scores, theta)
            assert best in selected
            assert previous <= set(selected)
            previous = set(selected)


def test_selection_invariant_under_positive_affine_rescale():
    rng = np.random.default_rng(1)
    for _ in range(30):
        scores = {s: float(rng.uniform(0, 3)) for s in range(1, 6)}
        shifted = {s: 1.7 * v + 0.4 for s, v in scores.items()}
        assert greedy_select(1, scores).selected == greedy_select(1, shifted).selected
        for theta in (0.0, 0.5, 1.5):
            a, _ = adaptive_select(scores, theta)
            b, _ = adaptive_select(shifted, theta)
            assert a == b


# ----------------------------------------------------------------------
# weights
# ----------------------------------------------------------------------


def minmax(values):
    """The min-max row kernel on one row, every entry selected."""
    row = np.array([values], dtype=float)
    return _minmax_rows(row, np.ones(row.shape, dtype=bool))[0]


def tradeoff_weights(tilde_w, variances, nu, kind, family):
    """The trade-off row kernel on one row, every agent selected, keyed by agent id."""
    ids = sorted(tilde_w)
    TW, V = (np.array([[values[s] for s in ids]], dtype=float) for values in (tilde_w, variances))
    G = np.array([[_log_precision_gain(CFG, variances[s], s) for s in ids]])
    method = MethodSpec("aEIGP", nu=nu, tradeoff=kind, variance_family=family)
    every = np.ones(TW.shape, dtype=bool)
    row = _generalized_rows(TW, every, G, 1.0 / V, method, CFG.prior_plus_noise)
    return dict(zip(ids, row[0].tolist()))


def test_minmax_examples():
    assert minmax([2.0, 4.0, 6.0]).tolist() == [0.0, 0.5, 1.0]
    assert minmax([3.3]).tolist() == [1.0]
    assert minmax([5.0, 5.0, 5.0]).tolist() == [1.0, 1.0, 1.0]


@given(st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=1, max_size=20))
@settings(max_examples=200, deadline=None)
def test_minmax_range_and_order(values):
    out = minmax(values)
    assert np.all(out >= 0.0) and np.all(out <= 1.0)
    order = np.argsort(values, kind="stable")
    assert np.all(np.diff(out[order]) >= -1e-15)


def test_error_weights_pair():
    weights = error_weights({1: 0.99, 2: 0.96}, {1: 1, 2: 1})
    assert weights == {1: 1.0, 2: 0.0}


def test_error_weights_single_selected():
    weights = error_weights({1: 0.99, 2: 0.96}, {1: 0, 2: 1})
    assert weights == {2: 1.0}


def test_error_weights_monotone():
    weights = error_weights({1: 0.2, 2: 0.9, 3: 0.5}, {1: 1, 2: 1, 3: 1})
    assert weights[2] == 1.0 and weights[1] == 0.0
    assert 0.0 < weights[3] < 1.0


def test_aeigp_single_agent_any_nu():
    for nu in (0.0, 0.3, 1.0):
        weights = aeigp_weights({4: 1.0}, {4: 0.2}, nu, CFG)
        assert weights == {4: 1.0}


def test_aeigp_nu_one_is_proportional():
    weights = aeigp_weights({1: 1.0, 2: 0.5}, {1: 0.3, 2: 0.6}, 1.0, CFG)
    assert weights[1] == pytest.approx(2.0 / 3.0, rel=1e-12)
    assert weights[2] == pytest.approx(1.0 / 3.0, rel=1e-12)


def test_aeigp_nu_zero_equal_variances_symmetric():
    weights = aeigp_weights({1: 1.0, 2: 0.0}, {1: 0.4, 2: 0.4}, 0.0, CFG)
    assert weights[1] == pytest.approx(0.5, rel=1e-12)
    assert weights[2] == pytest.approx(0.5, rel=1e-12)


def test_aeigp_rejects_bad_variances():
    with pytest.raises(InvalidInputError):
        aeigp_weights({1: 1.0}, {1: 0.0}, 0.5, CFG)
    with pytest.raises(InvalidInputError):
        aeigp_weights({1: 1.0}, {1: 10.0 * CFG.prior_plus_noise}, 0.5, CFG)


def test_generalized_linear_nu_one_ignores_variances():
    tw = {1: 1.0, 2: 0.25}
    a = tradeoff_weights(tw, {1: 0.1, 2: 0.9}, 1.0, "linear", "poe")
    b = tradeoff_weights(tw, {1: 0.7, 2: 0.2}, 1.0, "linear", "poe")
    for s in tw:
        assert a[s] == pytest.approx(b[s], rel=1e-14)
        assert a[s] == pytest.approx(tw[s] / 1.25, rel=1e-12)


def test_generalized_linear_poe_hand_case():
    # equal precisions make the family scores 1/2 each; nu = 0.5 blends with
    # tilde_w {1, 0} to scores {0.75, 0.25}, already summing to one
    weights = tradeoff_weights({1: 1.0, 2: 0.0}, {1: 0.3, 2: 0.3}, 0.5, "linear", "poe")
    assert weights[1] == pytest.approx(0.75, rel=1e-12)
    assert weights[2] == pytest.approx(0.25, rel=1e-12)


def test_generalized_exponential_gives_simplex():
    weights = tradeoff_weights({1: 1.0, 2: 0.3}, {1: 0.2, 2: 0.5}, 0.4, "exponential", "bcm")
    assert_simplex(weights)


def test_baseline_moe_uniform():
    weights = baseline_weights("MOE", {s: 0.1 * s for s in range(1, 5)}, CFG)
    assert all(w == 0.25 for w in weights.values())


def test_baseline_poe_precision_proportional():
    weights = baseline_weights("POE", {1: 0.5, 2: 1.0}, CFG)
    assert weights[1] == pytest.approx(2.0 / 3.0, rel=1e-12)
    assert weights[2] == pytest.approx(1.0 / 3.0, rel=1e-12)


def test_baseline_bcm_single_agent():
    weights = baseline_weights("BCM", {3: 0.4}, CFG)
    assert weights == {3: 1.0}


def test_baseline_rejects_nonpositive_variance():
    for method in ("POE", "GPOE", "BCM", "RBCM"):
        with pytest.raises(InvalidInputError):
            baseline_weights(method, {1: 0.0, 2: 0.3}, CFG)


def test_baseline_entropy_weighting_prefers_confident_expert():
    for method in ("GPOE", "RBCM"):
        weights = baseline_weights(method, {1: 0.05, 2: 0.9}, CFG)
        assert weights[1] > weights[2]
        assert_simplex(weights)


@given(
    st.dictionaries(
        st.integers(min_value=1, max_value=9),
        st.floats(min_value=1e-3, max_value=1.2),
        min_size=1,
        max_size=6,
    )
)
@settings(max_examples=150, deadline=None)
def test_baseline_weights_always_on_simplex(variances):
    for method in ("MOE", "POE", "GPOE", "BCM", "RBCM"):
        assert_simplex(baseline_weights(method, variances, CFG))


def test_proportional_normalize_requires_positive_total():
    with pytest.raises(InvalidInputError):
        proportional_normalize({1: 0.0, 2: 0.0})


# ----------------------------------------------------------------------
# joint prediction
# ----------------------------------------------------------------------


def build_scenario(rng, n_agents=3, points=12, spread=4.0):
    """Agents with data in separated regions so quality clearly differs."""
    models = {}
    for i in range(1, n_agents + 1):
        center = spread * (i - 1)
        X = rng.normal(center, 0.4, size=(points, 1))
        Y = np.sin(X) + rng.normal(0, 0.1, size=(points, 1))
        models[i] = AgentModel.from_data(CFG, X, Y)
    return models, fully_connected(n_agents)


def truncated_mean(plan, agent):
    """Agent's truncated mean (first dimension) in the plan's round table."""
    table = plan.evaluations
    return table.means[table.ids.index(agent)][0]


def test_geigp_prediction_is_selected_agents_mean():
    rng = np.random.default_rng(3)
    models, graph = build_scenario(rng)
    method = MethodSpec("gEIGP", rho_policy=RhoPolicy("mean"))
    pred, plan = joint_predict(1, [0.1], models, graph, method, CFG)
    (chosen,) = plan.selected
    assert pred[0] == truncated_mean(plan, chosen)  # weight one, bit exact


def test_identical_models_give_common_prediction():
    rng = np.random.default_rng(4)
    X = rng.normal(size=(10, 1))
    Y = rng.normal(size=(10, 1))
    models = {i: AgentModel.from_data(CFG, X, Y) for i in (1, 2, 3)}
    graph = fully_connected(3)
    reference = None
    for name in ("gEIGP", "aEIGP", "MOE", "POE", "GPOE", "BCM", "RBCM"):
        pred, plan = joint_predict(2, [0.3], models, graph, MethodSpec(name), CFG)
        assert_simplex(plan.weights)
        if name in ("gEIGP", "aEIGP"):
            continue  # truncated means differ from the full means by design
        if reference is None:
            reference = pred[0]
        assert pred[0] == pytest.approx(reference, rel=1e-10)


def test_prediction_is_weighted_sum_of_collaborator_means():
    rng = np.random.default_rng(5)
    models, graph = build_scenario(rng)
    method = MethodSpec("aEIGP", nu=0.5, theta=2.0)
    pred, plan = joint_predict(2, [3.9], models, graph, method, CFG)
    manual = sum(plan.weights[s][0] * truncated_mean(plan, s) for s in plan.selected)
    assert pred[0] == pytest.approx(manual, rel=1e-12)
    assert_simplex(plan.weights)


def test_prediction_in_convex_hull_per_dimension():
    rng = np.random.default_rng(6)
    models, graph = build_scenario(rng, n_agents=4)
    for name in ("aEIGP", "MOE", "POE", "GPOE", "BCM", "RBCM"):
        method = MethodSpec(name, nu=0.5, theta=1.0)
        pred, plan = joint_predict(1, [2.0], models, graph, method, CFG)
        if plan.evaluations is not None:
            parts = [truncated_mean(plan, s) for s in plan.selected]
        else:
            parts = [models[s].classical_predict([2.0])[0][0] for s in plan.selected]
        assert min(parts) - 1e-12 <= pred[0] <= max(parts) + 1e-12


def clamp_every_variance(self, k):
    """Stand-in for the model's variance path: every query clamps to 0."""
    self.variance_clamps += 1
    return 0.0


def test_variance_clamped_to_zero_raises_never_nan(monkeypatch):
    # Pins today's behaviour for a clamped agent: a typed error, not a NaN.
    # Whether such an agent gets a floor variance or is dropped is still open.
    rng = np.random.default_rng(8)
    models, graph = build_scenario(rng)
    monkeypatch.setattr(AgentModel, "_variance", clamp_every_variance)
    x = [0.2]
    for method in (
        MethodSpec("aEIGP", nu=0.5, theta=1.0),
        *(MethodSpec(name) for name in ("POE", "GPOE", "BCM", "RBCM")),
    ):
        with pytest.raises(InvalidInputError, match="variance must be positive"):
            joint_predict(1, x, models, graph, method, CFG)
        with pytest.raises(InvalidInputError, match="variance must be positive"):
            predict_round(models, graph, x, method, CFG)
    # methods that read no variance still predict
    for method in (MethodSpec("gEIGP"), MethodSpec("aEIGP", nu=1.0), MethodSpec("MOE")):
        preds = predict_round(models, graph, x, method, CFG)[0]
        assert np.isfinite(np.concatenate(list(preds.values()))).all()


def test_aeigp_contains_greedy_choice_and_grows_with_theta():
    rng = np.random.default_rng(7)
    models, graph = build_scenario(rng, n_agents=4)
    x = [1.7]
    greedy_plan = joint_predict(1, x, models, graph, MethodSpec("gEIGP"), CFG)[1]
    previous = set()
    for theta in (0.0, 0.5, 1.0, 2.0, 5.0):
        plan = joint_predict(1, x, models, graph, MethodSpec("aEIGP", theta=theta), CFG)[1]
        assert greedy_plan.selected[0] in plan.selected
        assert previous <= set(plan.selected)
        previous = set(plan.selected)


def test_collapse_to_greedy_at_theta_zero_nu_one():
    rng = np.random.default_rng(8)
    models, graph = build_scenario(rng)
    x = [0.4]
    greedy_pred, greedy_plan = joint_predict(3, x, models, graph, MethodSpec("gEIGP"), CFG)
    adaptive_pred, adaptive_plan = joint_predict(
        3, x, models, graph, MethodSpec("aEIGP", nu=1.0, theta=0.0), CFG
    )
    assert adaptive_plan.selected == greedy_plan.selected
    assert adaptive_pred[0] == greedy_pred[0]  # exact, no tolerance


def test_all_empty_neighborhood_returns_flagged_prior():
    models = {i: AgentModel(CFG) for i in (1, 2)}
    graph = fully_connected(2)
    for name in ("gEIGP", "aEIGP", "MOE"):
        pred, plan = joint_predict(1, [0.0], models, graph, MethodSpec(name), CFG)
        assert pred.tolist() == [0.0]
        assert plan.degenerate


FILL_PHASE_METHODS = [MethodSpec("gEIGP"), MethodSpec("aEIGP", nu=0.5), MethodSpec("aEIGP", nu=1.0)]


@pytest.mark.xfail(
    strict=True,
    reason="an empty model scores the infinity sentinel, which outranks every filled model",
)
@pytest.mark.parametrize("method", FILL_PHASE_METHODS, ids=lambda m: f"{m.name}-nu{m.nu}")
def test_filled_agent_outranks_an_empty_one(method):
    # Agent 1 fits the data (its own mean at 0.3 is 0.756); agent 2 holds
    # nothing. Today every requester selects agent 2 alone and predicts 0.0.
    X = np.linspace(-1.0, 1.0, 30)[:, None]
    models = {1: AgentModel.from_data(CFG, X, np.sin(3.0 * X)), 2: AgentModel(CFG)}
    graph = fully_connected(2)
    plans = predict_round(models, graph, [0.3], method, CFG)[1]
    for i in graph.nodes:
        assert 1 in plans[i].selected


def test_joint_predict_rejects_a_requester_outside_the_graph():
    rng = np.random.default_rng(9)
    models, graph = build_scenario(rng)
    for name in ("gEIGP", "aEIGP", "MOE"):
        for requester in (0, 4):  # 0 would otherwise read the last row of the table
            with pytest.raises(InvalidInputError, match="not in graph"):
                joint_predict(requester, [0.0], models, graph, MethodSpec(name), CFG)


def test_baselines_engage_whole_neighborhood():
    rng = np.random.default_rng(9)
    models, graph = build_scenario(rng, n_agents=4)
    for name in ("MOE", "POE", "GPOE", "BCM", "RBCM"):
        _, plan = joint_predict(2, [0.0], models, graph, MethodSpec(name), CFG)
        assert plan.selected == (1, 2, 3, 4)
        assert_simplex(plan.weights)


def test_geigp_selects_exactly_one_always():
    rng = np.random.default_rng(10)
    models, graph = build_scenario(rng, n_agents=5)
    for _ in range(20):
        x = rng.uniform(-2, 18, size=1)
        _, plan = joint_predict(1, x, models, graph, MethodSpec("gEIGP"), CFG)
        assert len(plan.selected) == 1


# ----------------------------------------------------------------------
# the batched round against one requester at a time
# ----------------------------------------------------------------------

ROUND_GRAPHS = {
    "complete": fully_connected(5),
    "ring": Graph(5, [(1, 2), (2, 3), (3, 4), (4, 5), (5, 1)]),
    "star": Graph(5, [(1, 2), (1, 3), (1, 4), (1, 5)]),
    "path": Graph(5, [(1, 2), (2, 3), (3, 4), (4, 5)]),
    "isolated node": Graph(5, [(1, 2), (2, 3), (3, 4)]),
}


def round_models(rng, cfg, sizes):
    """Agents with the given dataset sizes; agents 2 and 4 hold the same data, so tie."""
    models = {}
    for i, size in enumerate(sizes, start=1):
        X = rng.uniform(-1.2, 1.2, size=(size, 1)) + 0.3 * i
        Y = np.sin(3.0 * X) + rng.normal(0.0, 0.3, size=(size, cfg.output_dim))
        models[i] = AgentModel.from_data(cfg, X, Y)
    models[4] = AgentModel.from_data(cfg, models[2].X, models[2].Y)
    return models


def round_methods():
    yield from (MethodSpec(name) for name in BASELINE_METHODS)
    yield MethodSpec("gEIGP")
    for theta in (0.0, 0.25, 1.0, 4.0):
        for nu in (0.0, 0.5, 1.0):
            yield MethodSpec("aEIGP", nu=nu, theta=theta)
    for kind in TRADEOFF_KINDS:
        for family in VARIANCE_FAMILIES:
            yield MethodSpec("aEIGP", 0.5, 4.0, tradeoff=kind, variance_family=family)


def assert_round_matches_oracle(models, graph, x, method, cfg):
    expected, failed = {}, False
    for i in graph.nodes:
        try:
            expected[i] = oracles.joint_predict_per_requester(i, x, models, graph, method, cfg)
        except InvalidInputError:
            failed = True
    if failed:
        # one failing requester fails the whole round, with or without a table
        with pytest.raises(InvalidInputError):
            predict_round(models, graph, x, method, cfg)
        for i in graph.nodes:
            with pytest.raises(InvalidInputError):
                joint_predict(i, x, models, graph, method, cfg)
        return False
    preds, plans, _ = predict_round(models, graph, x, method, cfg)
    for i, (pred, selected, weights, degenerate) in expected.items():
        # the requester's row of the round, then a call without a table
        for got, plan in ((preds[i], plans[i]), joint_predict(i, x, models, graph, method, cfg)):
            assert got.tobytes() == pred.tobytes()  # bit for bit, sign of zero included
            assert plan.selected == selected
            assert plan.weights.keys() == weights.keys()
            for s, w in weights.items():
                assert plan.weights[s].tobytes() == w.tobytes()
            assert plan.degenerate == degenerate
    return True


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("graph_name", list(ROUND_GRAPHS))
def test_batched_round_matches_per_requester_oracle(graph_name, d):
    graph = ROUND_GRAPHS[graph_name]
    cfg = KernelConfig(signal_variance=1.0, lengthscale=0.3, noise_variance=0.1, output_dim=d)
    rng = np.random.default_rng(d)
    # every model empty; one empty agent; single points (nothing excluded,
    # the infinity sentinel); regular sizes
    for sizes in ([0] * 5, [8, 0, 12, 0, 10], [1, 6, 1, 6, 9], [10, 14, 9, 14, 12]):
        models = round_models(rng, cfg, sizes)
        # a query far from every point includes none at rho 0.99: epsilon 0
        # and a truncated mean of -0.0 everywhere
        for rho, x in (
            (RhoPolicy("mean"), rng.uniform(-1.0, 2.5, size=1)),
            (RhoPolicy("constant", 0.0), rng.uniform(-1.0, 2.5, size=1)),
            (RhoPolicy("constant", 0.3), rng.uniform(-1.0, 2.5, size=1)),
            (RhoPolicy("constant", 0.99), np.array([9.0])),
        ):
            for method in round_methods():
                method = replace(method, rho_policy=rho)
                assert assert_round_matches_oracle(models, graph, x, method, cfg)


@pytest.mark.parametrize("graph_name", list(ROUND_GRAPHS))
def test_clamped_baseline_round_raises_like_the_oracle(monkeypatch, graph_name):
    cfg = KernelConfig(signal_variance=1.0, lengthscale=0.3, noise_variance=0.1)
    models = round_models(np.random.default_rng(5), cfg, [8, 0, 12, 0, 10])
    monkeypatch.setattr(AgentModel, "_variance", clamp_every_variance)
    for name in BASELINE_METHODS:
        # MOE reads no variance; every other baseline raises on both sides
        method = MethodSpec(name)
        matched = assert_round_matches_oracle(models, ROUND_GRAPHS[graph_name], [0.4], method, cfg)
        assert matched == (name == "MOE")


def dict_generalized_weights(models, graph, requester, x, method):
    """The requester's trade-off weights through the dict helpers."""
    eps = {
        s: score_and_approx_mean(models[s], x, method.rho_policy)[0].epsilon
        for s in graph.closed_neighborhood(requester)
    }
    selected, phi = adaptive_select(eps, method.theta)
    tilde_w = error_weights(gaussianize_epsilon(eps), phi)
    variances = {s: models[s].posterior_var(x) for s in selected}
    return tradeoff_weights(tilde_w, variances, method.nu, method.tradeoff, method.variance_family)


@pytest.mark.parametrize("family", VARIANCE_FAMILIES)
@pytest.mark.parametrize("kind", TRADEOFF_KINDS)
def test_nu_one_tradeoff_round_weighs_as_generalized_weights(kind, family):
    # nu = 1 reduces aEIGP to the normalized error weights, but a trade-off
    # still weighs them against the variance family's scores
    xs, ys, blocks = toy_training_data(80, 4, np.random.default_rng(3))
    models = {
        i: AgentModel.from_data(CFG, xs[b][:, None], ys[b][:, None])
        for i, b in enumerate(blocks, start=1)
    }
    x = [0.1]
    method = MethodSpec("aEIGP", 1.0, 4.0, tradeoff=kind, variance_family=family)
    for graph in (fully_connected(4), Graph(4, [(1, 2), (2, 3), (3, 4), (4, 1)])):
        expected = {i: dict_generalized_weights(models, graph, i, x, method) for i in graph.nodes}
        plans = predict_round(models, graph, x, method, CFG)[1]
        for i in graph.nodes:
            assert {s: w.item(0) for s, w in plans[i].weights.items()} == expected[i]


def test_row_kernels_match_dict_oracle_bit_for_bit():
    # numpy's square, sqrt and SIMD power differ from Python's ** in about
    # 0.1% of values; thousands of random rows make such a slip show
    rng = np.random.default_rng(12)
    for i in range(1500):
        k = int(rng.integers(1, 9))
        scores = {s: float(v) for s, v in enumerate(rng.uniform(0.0, 3.0, k) ** 3, start=1)}
        theta, nu = float(rng.choice([0.0, 0.25, 1.0, 4.0])), float(rng.uniform(0.0, 1.0))
        assert gaussianize_epsilon(scores) == oracles._gaussianize_epsilon(scores)
        selected, phi = adaptive_select(scores, theta)
        assert (selected, phi) == oracles._adaptive_select(scores, theta)
        tilde_w = error_weights(gaussianize_epsilon(scores), phi)
        assert tilde_w == oracles._error_weights(oracles._gaussianize_epsilon(scores), phi)
        variances = {s: float(rng.uniform(0.01, CFG.kappa0)) for s in selected}
        assert aeigp_weights(tilde_w, variances, nu, CFG) == oracles._aeigp_weights(
            tilde_w, variances, nu, CFG
        )
        kind, family = str(rng.choice(TRADEOFF_KINDS)), str(rng.choice(VARIANCE_FAMILIES))
        assert tradeoff_weights(tilde_w, variances, nu, kind, family) == (
            oracles._generalized_weights(tilde_w, variances, nu, kind, family, CFG)
        )
        name = BASELINE_METHODS[i % len(BASELINE_METHODS)]
        assert baseline_weights(name, variances, CFG) == (
            oracles._baseline_weights(name, variances, CFG)
        )


def assert_weights_close(got, want):
    assert got.keys() == want.keys()
    for s, w in want.items():
        assert got[s] == pytest.approx(w, rel=1e-14, abs=0.0)


def test_dict_helpers_agree_with_the_paper_formulas():
    # the library leaves out aEIGP's aggregate variance and BCM's prior
    # correction, one constant per row that the normalization divides out
    rng = np.random.default_rng(30)
    for i in range(2000):
        k = int(rng.integers(1, 9))
        ids = range(1, k + 1)
        tilde_w = {s: float(v) for s, v in zip(ids, rng.uniform(0.0, 1.0, k))}
        tilde_w[int(rng.integers(1, k + 1))] = 1.0  # min-max scaling puts a 1 in every row
        variances = {s: float(v) for s, v in zip(ids, rng.uniform(0.01, CFG.kappa0, k))}
        nu = float(rng.choice([0.0, 1.0, rng.uniform(0.0, 1.0)]))
        assert_weights_close(
            aeigp_weights(tilde_w, variances, nu, CFG),
            oracles._paper_aeigp_weights(tilde_w, variances, nu, CFG),
        )
        name = BASELINE_METHODS[i % len(BASELINE_METHODS)]
        assert_weights_close(
            baseline_weights(name, variances, CFG),
            oracles._paper_baseline_weights(name, variances, CFG),
        )


@pytest.mark.parametrize("graph_name", list(ROUND_GRAPHS))
def test_round_weights_agree_with_the_paper_formulas(graph_name):
    graph = ROUND_GRAPHS[graph_name]
    models = round_models(np.random.default_rng(31), CFG, [10, 14, 9, 14, 12])
    methods = [MethodSpec(name) for name in ("POE", "GPOE", "BCM", "RBCM")]
    methods += [
        MethodSpec("aEIGP", nu=nu, theta=theta, rho_policy=RhoPolicy("constant", 0.3))
        for nu in (0.0, 0.25, 0.5, 0.75, 1.0)
        for theta in (0.25, 1.0, 4.0)
    ]
    for x in np.random.default_rng(32).uniform(-1.0, 2.5, size=(6, 1)):
        for method in methods:
            plans = predict_round(models, graph, x, method, CFG)[1]
            for i in graph.nodes:
                neighborhood = graph.closed_neighborhood(i)
                if method.is_baseline:
                    variances = {s: models[s].classical_predict(x)[1] for s in neighborhood}
                    want = oracles._paper_baseline_weights(method.name, variances, CFG)
                else:
                    eps = {
                        s: score_and_approx_mean(models[s], x, method.rho_policy)[0].epsilon
                        for s in neighborhood
                    }
                    selected, phi = oracles._adaptive_select(eps, method.theta)
                    tilde_w = oracles._error_weights(oracles._gaussianize_epsilon(eps), phi)
                    variances = {s: models[s].posterior_var(x) for s in selected}
                    want = oracles._paper_aeigp_weights(tilde_w, variances, method.nu, CFG)
                got = {s: w.item(0) for s, w in plans[i].weights.items()}
                assert_weights_close(got, want)


def test_dict_sums_run_left_to_right():
    # From Python 3.12 on, the built-in sum() of floats is compensated, so it
    # would no longer give the bytes of the row kernels' cumsum. Left to
    # right, 1e16 + 1.0 rounds to 1e16, so the first 1.0 is lost.
    assert proportional_normalize({1: 1e16, 2: 1.0, 3: -1e16, 4: 1.0})[4] == 1.0
    tests = Path(__file__).resolve().parent
    calls = []
    for path in (tests.parent / "src" / "eigp" / "aggregation.py", tests / "oracles.py"):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                if node.func.id == "sum":
                    calls.append(f"{path.name}:{node.lineno}")
    assert calls == []


def test_row_std_is_np_std_bit_for_bit():
    rng = np.random.default_rng(21)
    rows = [rng.normal(size=(5, width)) for width in range(1, 21)]
    rows += [rng.exponential(size=(4, width)) * 1e8 + 3e8 for width in (2, 7, 9, 16, 20)]
    rows += [np.full((2, 6), 0.3), np.array([[1.0, 1.0, 2.0, 2.0, 2.0], [5.0, 0.0, 5.0, 0.0, 5.0]])]
    rows.append(np.array([[math.inf, 1.0, 2.0], [0.5, 0.25, 0.0]]))  # a sentinel row
    with np.errstate(invalid="ignore"):
        for E in rows:
            expected = np.std(E, axis=1, keepdims=True)
            assert _row_std(E).tobytes() == expected.tobytes()
