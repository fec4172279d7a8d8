"""Collaborator selection and weighted joint prediction.

Implements the greedy and adaptive error-informed selectors, the
generalized trade-off/variance-family weight constructions, the classical
expert-aggregation baselines (MOE, POE, GPOE, BCM, RBCM) and the joint
prediction that ties them to the per-agent models.

All functions read immutable model snapshots. A query round scores every
agent once into a :class:`RoundTable` of arrays indexed by agent position
(:func:`evaluate_round`); one batched pass then selects and weighs for every
requester, each over its own closed neighborhood, into a requester x agent
weight matrix, and an :class:`AggregationPlan` is a view on one row. The
dict helpers (``greedy_select``, ``aeigp_weights``, ...) run the same row
kernels on a single row. Powers use ``np.float_power``, which calls the C
library's ``pow`` as Python's ``**`` does (``np.power`` takes square, sqrt
and SIMD shortcuts that round differently), and the log gain stays
``math.log``: a batched round predicts bit for bit what one requester at a
time would.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import compress

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
        if not self.theta >= 0:  # NaN too
            raise InvalidInputError("theta must be nonnegative")

    @property
    def is_baseline(self) -> bool:
        return self.name in BASELINE_METHODS


class RoundTable:
    """One query round's evaluations as arrays indexed by agent position.

    ``ids`` is the agent id at each position; ``scores`` (read by the
    bounds), ``eps``, ``means`` (agents x d) and ``empty`` hold each agent's
    quality score, epsilon, truncated mean and empty-model flag. The batched
    pass (:func:`_weigh`) fills ``weights`` (requester x agent, zero off the
    selection), ``selected``, ``degenerate`` and ``predictions`` (requester
    x d), one row per requester position.
    """

    def __init__(self, ids: tuple[int, ...], scores: list[QualityScore], eps, means, empty):
        self.ids, self.scores, self.eps, self.means, self.empty = ids, scores, eps, means, empty
        self.weights = self.selected = self.degenerate = self.predictions = None


@dataclass
class AggregationPlan:
    """One requester's collaborators and weights: a view on its row of the round's weights."""

    ids: tuple[int, ...]  # agent id at each entry of ``row``
    row: np.ndarray  # weight per agent, zero off the selection
    selected: tuple[int, ...]
    d: int = 1  # output dimensions
    degenerate: bool = False  # set when every neighborhood model was empty
    evaluations: RoundTable | None = None  # the round table; None for baselines

    @property
    def weights(self) -> dict[int, np.ndarray]:
        """Selected agent id -> (d,) weights; a weight is the same in every output dimension."""
        by_id = dict(zip(self.ids, self.row.tolist()))
        return {s: np.full(self.d, by_id[s]) for s in self.selected}


def evaluate_round(agents, x, models: dict[int, AgentModel], method: MethodSpec) -> RoundTable:
    """Score each of ``agents`` once at ``x``: the table every requester reads.

    Scores are taken at lam = 1: lam rescales every agent's epsilon equally,
    so it changes no selection or weight.
    """
    ids = tuple(agents)
    policy = method.rho_policy
    scores, means = zip(*(score_and_approx_mean(models[s], x, policy) for s in ids))
    eps = np.array([score.epsilon for score in scores])
    empty = np.array([models[s].n == 0 for s in ids])
    return RoundTable(ids, list(scores), eps, np.array(means), empty)


def _chosen(ids, mask: np.ndarray) -> tuple[int, ...]:
    return tuple(compress(ids, mask.tolist()))


def _row(values: dict, ids) -> np.ndarray:
    return np.array([[values[s] for s in ids]], dtype=float)


# ----------------------------------------------------------------------
# selection: each row holds one requester's epsilon scores in id order
# ----------------------------------------------------------------------


def _row_std(E: np.ndarray) -> np.ndarray:
    """Population standard deviation of each row, shape (rows, 1).

    np.std's own arithmetic in its order, so the same bytes, without the
    Python-level layers that cost more than the arithmetic on a short row.
    """
    n = E.shape[1]
    dev = E - np.add.reduce(E, axis=1, keepdims=True) / n
    dev *= dev
    return np.sqrt(np.add.reduce(dev, axis=1, keepdims=True) / n)


def _adaptive_rows(E: np.ndarray, theta: float) -> tuple[np.ndarray, np.ndarray]:
    """Adaptive selection mask and gaussianized scores of each row.

    A row holding infinity sentinels selects exactly those and scores them 1,
    every other agent 0. Otherwise, with sigma the row's population standard
    deviation, the selection keeps every score within theta sigma of the
    best, and the gaussianized score is
    exp(-(max - eps_s)^2 / (2 sigma^2)) / (sigma sqrt(2 pi)); a row of equal
    scores maps every agent to 1.
    """
    inf = np.isinf(E)
    sentinel = inf.any(axis=1, keepdims=True)
    if sentinel.all():
        return inf, inf.astype(float)
    # sentinel rows (inf - inf) and rows of equal scores (0 / 0) give NaN
    # here, and np.where replaces every one of them
    with np.errstate(invalid="ignore", divide="ignore"):
        top, sigma = E.max(axis=1, keepdims=True), _row_std(E)
        sel = np.where(sentinel, inf, E >= top - theta * sigma)
        density = np.exp(-np.float_power(top - E, 2.0) / (2.0 * np.float_power(sigma, 2.0)))
        density /= sigma * math.sqrt(2.0 * math.pi)
    gauss = np.where(sentinel, inf, np.where(sigma > 0, density, 1.0))
    return sel, gauss


def greedy_select(requester: int, scores: dict[int, float]) -> AggregationPlan:
    """Adopt the single neighbor with maximal epsilon, weight one.

    The choice does not depend on ``requester``, whose neighbors' scores
    ``scores`` holds.
    """
    if not scores:
        raise InvalidInputError("greedy selection needs at least one score")
    ids = tuple(sorted(scores))
    row = np.zeros(len(ids))
    row[_row(scores, ids)[0].argmax()] = 1.0  # the first maximum: ties go to the lowest id
    return AggregationPlan(ids, row, _chosen(ids, row))


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
    ids = sorted(scores)
    return dict(zip(ids, _adaptive_rows(_row(scores, ids), 0.0)[1][0].tolist()))


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
    ids = tuple(sorted(scores))
    sel = _adaptive_rows(_row(scores, ids), theta)[0][0]
    return _chosen(ids, sel), dict(zip(ids, sel.astype(int).tolist()))


# ----------------------------------------------------------------------
# weights: rows are zero off the selection and sums run left to right,
# so a row gives what a sum over the selected agents in id order gives
# ----------------------------------------------------------------------


def _left_sum(values) -> float:
    """Left-to-right sum, as ``cumsum`` adds: the built-in ``sum`` of floats compensates (3.12+)."""
    total = 0.0
    for v in values:
        total += v
    return total


def _minmax_rows(T: np.ndarray, sel: np.ndarray) -> np.ndarray:
    """Rescale each row's selected entries to [0, 1]; a constant row maps to ones."""
    lo = T.min(axis=1, keepdims=True, where=sel, initial=np.inf)
    span = T.max(axis=1, keepdims=True, where=sel, initial=-np.inf) - lo
    out = sel.astype(float)
    np.divide(T - lo, span, out=out, where=sel & (span > 0))
    return out


def _normalize_rows(S: np.ndarray) -> np.ndarray:
    """Divide each row by its total so it sums to one."""
    total = S.cumsum(axis=1)[:, -1:]
    if (total <= 0).any():
        raise InvalidInputError("proportional normalization needs a positive total")
    return S / total


def minmax_normalize(v) -> np.ndarray:
    """Rescale a vector to [0, 1]; constant or single-element input maps to ones."""
    v = np.atleast_1d(np.asarray(v, dtype=float))
    if v.size == 0:
        raise InvalidInputError("cannot normalize an empty vector")
    return _minmax_rows(v[None, :], np.ones((1, v.size), dtype=bool))[0]


def proportional_normalize(values: dict[int, float]) -> dict[int, float]:
    """Divide each value by the total so the results sum to one."""
    total = _left_sum(values.values())
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
    return dict(zip(selected, scaled.tolist()))


def _log_precision_gain(cfg: KernelConfig, var: float, agent: int) -> float:
    """log((kappa0 + noise) / var), clamped to stay positive under rounding."""
    cap = cfg.prior_plus_noise
    if var <= 0:
        raise InvalidInputError(f"agent {agent}: posterior variance must be positive")
    if var > cap * (1.0 + 1e-6):
        raise InvalidInputError(
            f"agent {agent}: posterior variance {var} exceeds prior plus noise {cap}"
        )
    var = min(var, math.nextafter(cap, 0.0))
    return math.log(cap / var)


def _aeigp_rows(TW, G, P, nu: float, prior: float) -> np.ndarray:
    """aEIGP weights of each row from error weights TW, gains G and precisions P.

    G and P are zero off the selection, which makes every term there zero.
    """
    precision = (TW * G * P).cumsum(axis=1)[:, -1]
    tw_nu = np.float_power(TW, nu)
    blend = tw_nu * np.float_power(G, 1.0 - nu)
    precision += (1.0 - blend.cumsum(axis=1)[:, -1]) / prior
    agg_var = np.ones(precision.shape)
    np.divide(1.0, precision, out=agg_var, where=precision > 0)
    return _normalize_rows(tw_nu * np.float_power(G * P * agg_var[:, None], 1.0 - nu))


def _family_scores(
    family: str,
    ids: list[int],
    gains: list[float],
    variances: list[float],
    cfg: KernelConfig,
) -> list[float]:
    """Variance-based aggregation scores for the POE or BCM family, lists in ``ids`` order."""
    for s, var in zip(ids, variances):
        if var <= 0:
            raise InvalidInputError(f"agent {s}: posterior variance must be positive")
    precisions = [1.0 / var for var in variances]
    numerators = [g * p for g, p in zip(gains, precisions)]
    if family == "poe":
        denom = _left_sum(numerators)
    else:  # bcm: prior-corrected denominator
        denom = _left_sum(precisions) + (1.0 - _left_sum(gains)) / cfg.prior_plus_noise
    if denom <= 0:
        raise InvalidInputError("variance-family denominator must be positive")
    return [num / denom for num in numerators]


def _tradeoff(kind: str, a: float, b: float, nu: float) -> float:
    if kind == "linear":
        return nu * a + (1.0 - nu) * b
    if kind == "power":
        return a**nu * b ** (1.0 - nu)
    if kind == "exponential":
        return math.exp(nu * a) + math.exp((1.0 - nu) * b)
    return nu * math.log(a) + (1.0 - nu) * math.log(b)  # logarithmic


def _generalized_rows(TW, sel, G, V, ids, nu: float, spec: TradeoffSpec, cfg: KernelConfig):
    """Generalized trade-off weights of each row; ``ids`` names the agent of each entry."""
    scores = np.zeros(TW.shape)
    for r, m in enumerate(sel):
        row_ids = ids[r][m].tolist()
        tw, gains, variances = (A[r][m].tolist() for A in (TW, G, V))
        family = _family_scores(spec.variance_family, row_ids, gains, variances, cfg)
        if spec.kind == "logarithmic":
            for s, a, f in zip(row_ids, tw, family):
                if a <= 0 or f <= 0:
                    raise InvalidInputError(
                        f"agent {s}: logarithmic trade-off needs positive arguments, "
                        f"got ({a}, {f})"
                    )
        values = [_tradeoff(spec.kind, a, f, nu) for a, f in zip(tw, family)]
        for s, v in zip(row_ids, values):
            if v < 0:
                raise InvalidInputError(
                    f"agent {s}: trade-off score {v} is negative, weights must be nonnegative"
                )
        scores[r, m] = values
    flat = ~scores.any(axis=1)
    scores[flat] = sel[flat]
    return _normalize_rows(scores)


def _weight_inputs(tilde_w, variances, nu: float, cfg: KernelConfig):
    """One row of error weights, gains and variances from dicts keyed by agent id."""
    if set(tilde_w) != set(variances):
        raise InvalidInputError("tilde_w and variances must cover the same agents")
    if not 0.0 <= nu <= 1.0:
        raise InvalidInputError("nu must lie in [0, 1]")
    ids = sorted(tilde_w)
    gains = np.array([[_log_precision_gain(cfg, variances[s], s) for s in ids]])
    return ids, _row(tilde_w, ids), gains, _row(variances, ids)


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

    agg_var is a shared positive scale raised to (1 - nu) in every score, so
    it cancels in the normalizer; if the prior correction drives it
    nonpositive, any positive stand-in (1) yields the same final weights.
    """
    ids, TW, G, V = _weight_inputs(tilde_w, variances, nu, cfg)
    return dict(zip(ids, _aeigp_rows(TW, G, 1.0 / V, nu, cfg.prior_plus_noise)[0].tolist()))


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
    ids, TW, G, V = _weight_inputs(tilde_w, variances, nu, cfg)
    row = _generalized_rows(TW, np.ones(TW.shape, dtype=bool), G, V, np.array([ids]), nu, spec, cfg)
    return dict(zip(ids, row[0].tolist()))


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
    var = [variances[s] for s in ids]
    if method in ("GPOE", "RBCM"):
        gains = [0.5 * _log_precision_gain(cfg, v, s) for s, v in zip(ids, var)]
    else:  # POE, BCM
        gains = [1.0] * len(ids)
    family = "poe" if method in ("POE", "GPOE") else "bcm"
    scores = _family_scores(family, ids, gains, var, cfg)
    return proportional_normalize(dict(zip(ids, scores)))


# ----------------------------------------------------------------------
# joint prediction
# ----------------------------------------------------------------------


def _weigh(table: RoundTable, groups, models, x, method: MethodSpec, cfg: KernelConfig) -> None:
    """Select and weigh for every requester in ``groups`` in one pass over ``table``.

    ``groups`` pairs requester positions (R,) with their closed neighborhoods'
    positions in id order (R, K), so each row reduction sees the values a
    single requester would, in its order. A requester whose neighborhood
    holds only empty models is degenerate: its own model gives the prior
    mean 0. Predictions sum only selected terms (a zero weight times an
    infinite truncated mean would be NaN).
    """
    k, nu = len(table.ids), method.nu
    weights = np.zeros((k, k))
    selected = np.zeros((k, k), dtype=bool)
    degenerate = np.zeros(k, dtype=bool)
    some_empty = table.empty.any()
    gains, precisions, variances = np.zeros((3, k))  # read once per agent, only when selected
    for rows, cols in groups:
        if some_empty:
            dead = table.empty[cols].all(axis=1)
            degenerate[rows[dead]] = True
            rows, cols = rows[~dead], cols[~dead]
            if not rows.size:
                continue
        if method.name == "gEIGP":
            # argmax takes the first maximum: ties go to the lowest id
            best = cols[np.arange(len(rows)), table.eps[cols].argmax(axis=1)]
            weights[rows, best] = 1.0
            selected[rows, best] = True
            continue
        sel, gauss = _adaptive_rows(table.eps[cols], method.theta)
        w = _minmax_rows(gauss, sel)
        if nu == 1.0:
            w = _normalize_rows(w)
        else:
            wanted = np.zeros(k, dtype=bool)
            wanted[cols[sel]] = True
            for p in wanted.nonzero()[0].tolist():
                if precisions[p] == 0.0:
                    var = models[table.ids[p]].posterior_var(x)
                    gains[p] = _log_precision_gain(cfg, var, table.ids[p])
                    precisions[p], variances[p] = 1.0 / var, var
            G = np.where(sel, gains[cols], 0.0)
            if method.tradeoff is None:
                P = np.where(sel, precisions[cols], 0.0)
                w = _aeigp_rows(w, G, P, nu, cfg.prior_plus_noise)
            else:
                ids = np.array(table.ids)[cols]
                w = _generalized_rows(w, sel, G, variances[cols], ids, nu, method.tradeoff, cfg)
        rows = rows[:, None]
        weights[rows, cols] = w
        selected[rows, cols] = sel
    if degenerate.any():
        dead = degenerate.nonzero()[0]
        weights[dead, dead] = 1.0
        selected[dead, dead] = True
    if method.name == "gEIGP":  # one collaborator per requester, at weight one
        table.predictions = table.means[selected.argmax(axis=1)] + 0.0
    else:
        # a left-to-right sum over the selected terms: zeros in between change
        # nothing, and adding 0.0 turns a leading -0.0 into the +0.0 that a
        # sum started from zero gives
        terms = np.zeros((k, k, table.means.shape[1]))
        np.multiply(weights[:, :, None], table.means, out=terms, where=selected[:, :, None])
        table.predictions = terms.cumsum(axis=1)[:, -1] + 0.0
    table.weights, table.selected, table.degenerate = weights, selected, degenerate


def joint_predict(
    requester: int,
    x,
    models: dict[int, AgentModel],
    graph: Graph,
    method: MethodSpec,
    cfg: KernelConfig,
    evaluations: RoundTable | None = None,
) -> tuple[np.ndarray, AggregationPlan]:
    """One agent's cooperative prediction at a query point.

    EIGP methods select collaborators from the round table ``evaluations``
    and combine their truncated means. The first call on a table weighs
    every graph node in one batched pass, later calls read their row.
    Without a table the call scores every graph node into a fresh table and
    weighs it the same way, so it predicts what a tabled call would, but at
    the cost of a whole round: code that predicts for every requester calls
    :func:`eigp.sim.predict_round`, which shares one table. Baselines engage
    the whole neighborhood with classical per-query expert predictions. If
    every neighborhood model is empty the prior mean 0 is returned with a
    flagged plan.
    """
    if method.is_baseline:
        neighborhood = graph.closed_neighborhood(requester)
        return _baseline_predict(x, models, neighborhood, method, cfg)
    graph._check_node(requester)  # before requester - 1 indexes the table
    table = evaluations
    if table is None:
        table = evaluate_round(graph.nodes, x, models, method)
    if table.weights is None:
        if table.ids != graph.nodes:
            raise InvalidInputError("a round table must hold every graph node in id order")
        _weigh(table, graph.groups, models, x, method, cfg)
    p = requester - 1
    plan = AggregationPlan(
        table.ids, table.weights[p], _chosen(table.ids, table.selected[p]),
        cfg.output_dim, bool(table.degenerate[p]), table,
    )
    return table.predictions[p], plan


def _baseline_predict(x, models, neighborhood, method, cfg):
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
    row = np.array([weights[s] for s in neighborhood])
    degenerate = all(models[s].n == 0 for s in neighborhood)
    plan = AggregationPlan(neighborhood, row, neighborhood, d, degenerate)
    return prediction, plan
