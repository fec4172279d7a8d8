"""Collaborator selection and weighted joint prediction.

Implements the greedy and adaptive error-informed selectors, the
generalized trade-off/variance-family weight constructions, the classical
expert-aggregation baselines (MOE, POE, GPOE, BCM, RBCM) and the joint
prediction that ties them to the per-agent models.

All functions read immutable model snapshots. A query round scores every
agent once (:func:`evaluate_round`) and every requester selects and weights
from that shared table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInputError
from .graph import Graph
from .kernels import KernelConfig
from .model import AgentModel
from .quality import QualityScore, RhoPolicy, score_and_approx_mean

EIGP_METHODS = ("gEIGP", "aEIGP")
BASELINE_METHODS = ("MOE", "POE", "GPOE", "BCM", "RBCM")
ALL_METHODS = EIGP_METHODS + BASELINE_METHODS

TRADEOFF_KINDS = ("linear", "power", "exponential", "logarithmic")
VARIANCE_FAMILIES = ("poe", "bcm")


@dataclass(frozen=True)
class TradeoffSpec:
    """Trade-off function and variance family for the generalized weights.

    The blend parameter nu is the method's (:attr:`MethodSpec.nu`).
    """

    kind: str = "power"
    variance_family: str = "bcm"

    def __post_init__(self):
        if self.kind not in TRADEOFF_KINDS:
            raise InvalidInputError(f"unknown trade-off kind {self.kind!r}")
        if self.variance_family not in VARIANCE_FAMILIES:
            raise InvalidInputError(f"unknown variance family {self.variance_family!r}")


@dataclass(frozen=True)
class MethodSpec:
    """Aggregation method plus its parameters for a run."""

    name: str
    nu: float = 0.5
    theta: float = 1.0
    rho_policy: RhoPolicy = field(default_factory=RhoPolicy)
    tradeoff: TradeoffSpec | None = None

    def __post_init__(self):
        if self.name not in ALL_METHODS:
            raise InvalidInputError(f"unknown method {self.name!r}, expected one of {ALL_METHODS}")
        if not 0.0 <= self.nu <= 1.0:
            raise InvalidInputError("nu must lie in [0, 1]")
        if self.theta < 0:
            raise InvalidInputError("theta must be nonnegative")

    @property
    def is_baseline(self) -> bool:
        return self.name in BASELINE_METHODS


@dataclass
class AgentEvaluation:
    """One agent's evaluation at a round's query, shared by every requester.

    ``score`` and ``mean`` (the truncated mean) come from one
    :func:`score_and_approx_mean` call; ``variance`` is the posterior
    variance, filled the first time a requester needs it.
    """

    score: QualityScore
    mean: np.ndarray
    variance: float | None = None

    def posterior_var(self, model: AgentModel, x) -> float:
        if self.variance is None:
            self.variance = model.posterior_var(x)
        return self.variance


@dataclass
class AggregationPlan:
    """Selected collaborators and their per-dimension weights for one query."""

    requester: int
    selected: tuple[int, ...]
    weights: dict[int, np.ndarray]  # agent id -> (d,) weights, one per output dim
    method: str
    nu: float | None = None
    theta: float | None = None
    tradeoff: str | None = None
    degenerate: bool = False  # set when every neighborhood model was empty
    evaluations: dict[int, AgentEvaluation] | None = None  # the round table; None for baselines


def evaluate_round(
    agents, x, models: dict[int, AgentModel], method: MethodSpec
) -> dict[int, AgentEvaluation]:
    """Score each of ``agents`` once at ``x``: the table every requester reads.

    Scores are taken at lam = 1: lam rescales every agent's epsilon equally,
    so it changes no selection or weight.
    """
    return {
        s: AgentEvaluation(*score_and_approx_mean(models[s], x, method.rho_policy, agent_id=s))
        for s in agents
    }


# ----------------------------------------------------------------------
# selection
# ----------------------------------------------------------------------


def _argmax_agent(scores: dict[int, float]) -> int:
    """Agent with the largest score; ties go to the lowest agent id."""
    best = None
    best_score = -math.inf
    for s in sorted(scores):
        if scores[s] > best_score:
            best, best_score = s, scores[s]
    return best


def _sentinel_set(scores: dict[int, float]) -> tuple[int, ...]:
    return tuple(s for s in sorted(scores) if math.isinf(scores[s]))


def greedy_select(requester: int, scores: dict[int, float], d: int = 1) -> AggregationPlan:
    """Adopt the single neighbor with maximal epsilon, weight one."""
    if not scores:
        raise InvalidInputError("greedy selection needs at least one score")
    best = _argmax_agent(scores)
    return AggregationPlan(
        requester=requester,
        selected=(best,),
        weights={best: np.ones(d)},
        method="gEIGP",
    )


def gaussianize_epsilon(scores: dict[int, float]) -> dict[int, float]:
    """Map epsilon scores onto a normal-density scale around the maximum.

    tilde_eps_s = exp(-(max - eps_s)^2 / (2 sigma^2)) / (sigma sqrt(2 pi))
    with sigma the population standard deviation of the score set. A
    degenerate set (all equal) maps every agent to the same value; when
    infinity sentinels are present the transform is skipped and the
    sentinel agents share a uniform value with everyone else at zero.
    """
    if not scores:
        raise InvalidInputError("gaussianize needs at least one score")
    sentinels = _sentinel_set(scores)
    if sentinels:
        return {s: (1.0 if s in sentinels else 0.0) for s in scores}
    values = np.array([scores[s] for s in sorted(scores)])
    sigma = float(np.std(values))
    if sigma == 0.0:
        return {s: 1.0 for s in scores}
    top = float(values.max())
    return {
        s: float(np.exp(-((top - scores[s]) ** 2) / (2.0 * sigma**2)) / (sigma * math.sqrt(2.0 * math.pi)))
        for s in scores
    }


def adaptive_select(
    scores: dict[int, float], theta: float
) -> tuple[tuple[int, ...], dict[int, int]]:
    """Select every agent within theta standard deviations of the best score.

    Returns the selected ids and the 0/1 indicator vector. The maximizer is
    always selected; with sentinels present the selection collapses to the
    sentinel set.
    """
    if not scores:
        raise InvalidInputError("adaptive selection needs at least one score")
    if theta < 0:
        raise InvalidInputError("theta must be nonnegative")
    sentinels = _sentinel_set(scores)
    if sentinels:
        phi = {s: (1 if s in sentinels else 0) for s in scores}
        return sentinels, phi
    values = [scores[s] for s in scores]
    top = max(values)
    threshold = top - theta * float(np.std(values))
    phi = {s: (1 if scores[s] >= threshold else 0) for s in scores}
    selected = tuple(s for s in sorted(scores) if phi[s])
    return selected, phi


# ----------------------------------------------------------------------
# weights
# ----------------------------------------------------------------------


def minmax_normalize(v) -> np.ndarray:
    """Rescale a vector to [0, 1]; constant or single-element input maps to ones."""
    v = np.atleast_1d(np.asarray(v, dtype=float))
    if v.size == 0:
        raise InvalidInputError("cannot normalize an empty vector")
    lo, hi = float(v.min()), float(v.max())
    if hi == lo:
        return np.ones_like(v)
    return (v - lo) / (hi - lo)


def proportional_normalize(values: dict[int, float]) -> dict[int, float]:
    """Divide each value by the total so the results sum to one."""
    total = sum(values.values())
    if total <= 0:
        raise InvalidInputError("proportional normalization needs a positive total")
    return {s: v / total for s, v in values.items()}


def error_weights(
    tilde_eps: dict[int, float], phi: dict[int, int]
) -> dict[int, float]:
    """Min-max-normalized gaussianized scores over the selected agents."""
    selected = [s for s in sorted(phi) if phi[s]]
    if not selected:
        raise InvalidInputError("no agent selected")
    scaled = minmax_normalize([tilde_eps[s] for s in selected])
    return dict(zip(selected, (float(w) for w in scaled)))


def _log_precision_gain(cfg: KernelConfig, var: float, agent: int) -> float:
    """log((kappa0 + noise) / var), clamped to stay positive under rounding."""
    cap = cfg.prior_plus_noise
    if var <= 0:
        raise InvalidInputError(f"agent {agent}: posterior variance must be positive")
    if var > cap * (1.0 + 1e-6):
        raise InvalidInputError(
            f"agent {agent}: posterior variance {var} exceeds prior plus noise {cap}"
        )
    var = min(var, np.nextafter(cap, 0.0))
    return math.log(cap / var)


def aeigp_weights(
    tilde_w: dict[int, float],
    variances: dict[int, float],
    nu: float,
    cfg: KernelConfig,
) -> dict[int, float]:
    """Error-informed weights blending tilde_w with posterior precision.

    Each agent's score is tilde_w^nu * (gain * precision * agg_var)^(1-nu),
    where gain = log((kappa0 + noise)/variance) and agg_var is the aggregate
    variance formed from the gain-scaled precisions with a prior-correction
    term. nu = 1 reduces to proportionally normalized tilde_w; nu = 0 drops
    the error information entirely (a selective precision rule).
    """
    if set(tilde_w) != set(variances):
        raise InvalidInputError("tilde_w and variances must cover the same agents")
    if not 0.0 <= nu <= 1.0:
        raise InvalidInputError("nu must lie in [0, 1]")
    ids = sorted(tilde_w)
    prior = cfg.prior_plus_noise
    gains = {s: _log_precision_gain(cfg, variances[s], s) for s in ids}
    precisions = {s: 1.0 / variances[s] for s in ids}
    agg_precision = sum(tilde_w[s] * gains[s] * precisions[s] for s in ids)
    agg_precision += (
        1.0 - sum(tilde_w[s] ** nu * gains[s] ** (1.0 - nu) for s in ids)
    ) / prior
    # agg_var is a shared positive scale raised to (1 - nu) in every score, so
    # it cancels in the normalizer; if the prior correction drives it
    # nonpositive, any positive stand-in yields the same final weights.
    agg_var = 1.0 / agg_precision if agg_precision > 0 else 1.0
    scores = {
        s: tilde_w[s] ** nu * (gains[s] * precisions[s] * agg_var) ** (1.0 - nu)
        for s in ids
    }
    return proportional_normalize(scores)


def _family_scores(
    family: str,
    gains: dict[int, float],
    variances: dict[int, float],
    cfg: KernelConfig,
) -> dict[int, float]:
    """Variance-based aggregation scores for the POE or BCM family."""
    ids = sorted(variances)
    for s in ids:
        if variances[s] <= 0:
            raise InvalidInputError(f"agent {s}: posterior variance must be positive")
    precisions = {s: 1.0 / variances[s] for s in ids}
    numerators = {s: gains[s] * precisions[s] for s in ids}
    if family == "poe":
        denom = sum(numerators.values())
    else:  # bcm: prior-corrected denominator
        denom = sum(precisions.values()) + (1.0 - sum(gains.values())) / cfg.prior_plus_noise
    if denom <= 0:
        raise InvalidInputError("variance-family denominator must be positive")
    return {s: numerators[s] / denom for s in ids}


def generalized_weights(
    tilde_w: dict[int, float],
    variances: dict[int, float],
    nu: float,
    spec: TradeoffSpec,
    cfg: KernelConfig,
) -> dict[int, float]:
    """Trade off error-informed and variance-based scores, then normalize.

    The per-agent score is Phi(tilde_w_s, family_score_s, nu) for the
    configured trade-off kind; proportional normalization makes the final
    weights sum to one. The logarithmic kind requires strictly positive
    arguments and scores.
    """
    if set(tilde_w) != set(variances):
        raise InvalidInputError("tilde_w and variances must cover the same agents")
    if not 0.0 <= nu <= 1.0:
        raise InvalidInputError("nu must lie in [0, 1]")
    ids = sorted(tilde_w)
    gains = {s: _log_precision_gain(cfg, variances[s], s) for s in ids}
    family = _family_scores(spec.variance_family, gains, variances, cfg)
    if spec.kind == "logarithmic":
        for s in ids:
            if tilde_w[s] <= 0 or family[s] <= 0:
                raise InvalidInputError(
                    f"agent {s}: logarithmic trade-off needs positive arguments, "
                    f"got ({tilde_w[s]}, {family[s]})"
                )
    scores: dict[int, float] = {}
    for s in ids:
        a, b = tilde_w[s], family[s]
        if spec.kind == "linear":
            scores[s] = nu * a + (1.0 - nu) * b
        elif spec.kind == "power":
            scores[s] = a**nu * b ** (1.0 - nu)
        elif spec.kind == "exponential":
            scores[s] = math.exp(nu * a) + math.exp((1.0 - nu) * b)
        else:  # logarithmic
            scores[s] = nu * math.log(a) + (1.0 - nu) * math.log(b)
        if scores[s] < 0:
            raise InvalidInputError(
                f"agent {s}: trade-off score {scores[s]} is negative, weights must be nonnegative"
            )
    if all(v == 0.0 for v in scores.values()):
        scores = {s: 1.0 for s in ids}
    return proportional_normalize(scores)


def baseline_weights(
    method: str, variances: dict[int, float], cfg: KernelConfig
) -> dict[int, float]:
    """Classical expert-aggregation weights over the whole neighborhood.

    MOE is uniform; POE and BCM weight by precision; GPOE and RBCM scale the
    precision by the prior-to-posterior differential-entropy difference.
    Every method is normalized to sum to one.
    """
    if method not in BASELINE_METHODS:
        raise InvalidInputError(f"unknown baseline {method!r}")
    ids = sorted(variances)
    if not ids:
        raise InvalidInputError("baseline weights need at least one agent")
    if method == "MOE":
        return {s: 1.0 / len(ids) for s in ids}
    if method in ("GPOE", "RBCM"):
        gains = {s: 0.5 * _log_precision_gain(cfg, variances[s], s) for s in ids}
    else:  # POE, BCM
        gains = {s: 1.0 for s in ids}
    family = "poe" if method in ("POE", "GPOE") else "bcm"
    scores = _family_scores(family, gains, variances, cfg)
    return proportional_normalize(scores)


# ----------------------------------------------------------------------
# joint prediction
# ----------------------------------------------------------------------


def _tile(weights: dict[int, float], d: int) -> dict[int, np.ndarray]:
    """Expand scalar weights to one entry per output dimension."""
    return {s: np.full(d, w) for s, w in weights.items()}


def joint_predict(
    requester: int,
    x,
    models: dict[int, AgentModel],
    graph: Graph,
    method: MethodSpec,
    cfg: KernelConfig,
    evaluations: dict[int, AgentEvaluation] | None = None,
) -> tuple[np.ndarray, AggregationPlan]:
    """One agent's cooperative prediction at a query point.

    EIGP methods select collaborators from the round's ``evaluations``
    (built for the closed neighborhood when not given) and combine their
    truncated means; baselines engage the whole neighborhood with classical
    per-query expert predictions. If every neighborhood model is empty the
    prior mean 0 is returned with a flagged plan.
    """
    d = cfg.output_dim
    neighborhood = graph.closed_neighborhood(requester)
    if method.is_baseline:
        return _baseline_predict(requester, x, models, neighborhood, method, cfg)
    if evaluations is None:
        evaluations = evaluate_round(neighborhood, x, models, method)

    eps = {s: evaluations[s].score.epsilon for s in neighborhood}
    if all(models[s].n == 0 for s in neighborhood):
        # the requester's own empty model contributes the prior mean 0
        plan = AggregationPlan(
            requester=requester,
            selected=(requester,),
            weights={requester: np.ones(d)},
            method=method.name,
            degenerate=True,
        )
    elif method.name == "gEIGP":
        plan = greedy_select(requester, eps, d)
    else:
        selected, phi = adaptive_select(eps, method.theta)
        tilde_eps = gaussianize_epsilon(eps)
        tilde_w = error_weights(tilde_eps, phi)
        if method.nu == 1.0:
            weights = proportional_normalize(tilde_w)
        else:
            variances = {s: evaluations[s].posterior_var(models[s], x) for s in selected}
            if method.tradeoff is None:
                weights = aeigp_weights(tilde_w, variances, method.nu, cfg)
            else:
                weights = generalized_weights(tilde_w, variances, method.nu, method.tradeoff, cfg)
        plan = AggregationPlan(
            requester=requester,
            selected=selected,
            weights=_tile(weights, d),
            method=method.name,
            nu=method.nu,
            theta=method.theta,
            tradeoff=method.tradeoff.kind if method.tradeoff else None,
        )
    plan.evaluations = evaluations

    prediction = np.zeros(d)
    for s in plan.selected:
        prediction += plan.weights[s] * evaluations[s].mean
    return prediction, plan


def _baseline_predict(requester, x, models, neighborhood, method, cfg):
    d = cfg.output_dim
    means: dict[int, np.ndarray] = {}
    variances: dict[int, float] = {}
    for s in neighborhood:
        mu, var = models[s].classical_predict(x)
        means[s] = mu
        variances[s] = var
    weights = baseline_weights(method.name, variances, cfg)
    prediction = np.zeros(d)
    for s in neighborhood:
        prediction += weights[s] * means[s]
    plan = AggregationPlan(
        requester=requester,
        selected=tuple(neighborhood),
        weights=_tile(weights, d),
        method=method.name,
        degenerate=all(models[s].n == 0 for s in neighborhood),
    )
    return prediction, plan
