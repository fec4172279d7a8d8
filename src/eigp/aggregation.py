"""Collaborator selection and weighted joint prediction.

Implements the greedy and adaptive error-informed selectors, aEIGP's
weights and its optional linear or exponential trade-off against a POE or
BCM variance family, the classical expert-aggregation baselines (MOE, POE,
GPOE, BCM, RBCM) and the joint prediction that ties them to the per-agent
models. Every weight row sums to one, so a positive factor shared by a
row's scores cancels and is not computed: aEIGP's aggregate variance, and
BCM's prior correction, which makes BCM weigh as POE and RBCM as GPOE.

All functions read immutable model snapshots. Every method runs one path:
a query round builds a :class:`RoundTable` of arrays indexed by agent
position (:func:`evaluate_round`, which scores every agent once for the
EIGP methods), and one batched pass then selects and weighs for every
requester, each over its own closed neighborhood, into a requester x agent
weight matrix; an :class:`AggregationPlan` is a view on one row. The seven
dict helpers that the acceptance criteria call (``greedy_select``,
``adaptive_select``, ``gaussianize_epsilon``, ``error_weights``,
``aeigp_weights``, ``baseline_weights``, ``proportional_normalize``) run the
same row kernels on a single row. Powers use ``np.float_power``,
which calls the C library's ``pow`` as Python's ``**`` does (``np.power``
takes square, sqrt and SIMD shortcuts that round differently), and the log
gain stays ``math.log``: a batched round predicts bit for bit what one
requester at a time would.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import compress

import numpy as np

from .errors import InvalidInputError
from .graph import Graph
from .kernels import KernelConfig, as_real
from .model import AgentModel
from .quality import QualityScore, RhoPolicy, kernel_rows, score_and_approx_mean

EIGP_METHODS = ("gEIGP", "aEIGP")
BASELINE_METHODS = ("MOE", "POE", "GPOE", "BCM", "RBCM")
ALL_METHODS = EIGP_METHODS + BASELINE_METHODS

TRADEOFF_KINDS = ("linear", "exponential")
VARIANCE_FAMILIES = ("poe", "bcm")


@dataclass(frozen=True)
class MethodSpec:
    """Aggregation method plus its parameters for a run.

    ``tradeoff`` (aEIGP only) weighs the error weights against the scores
    of ``variance_family`` (``bcm`` if not given) instead of by aEIGP's own
    weighting, which is the paper's power trade-off for either family (the
    family's row denominator cancels in the normalization).
    """

    name: str
    nu: float = 0.5
    theta: float = 1.0
    rho_policy: RhoPolicy = field(default_factory=RhoPolicy)
    tradeoff: str | None = None
    variance_family: str | None = None

    def __post_init__(self):
        if self.name not in ALL_METHODS:
            raise InvalidInputError(f"unknown method {self.name!r}, expected one of {ALL_METHODS}")
        if not 0.0 <= as_real("nu", self.nu) <= 1.0:
            raise InvalidInputError("nu must lie in [0, 1]")
        if not 0 <= as_real("theta", self.theta) < math.inf:  # NaN too
            raise InvalidInputError("theta must be finite and nonnegative")
        if self.tradeoff is not None:
            if self.tradeoff not in TRADEOFF_KINDS:
                raise InvalidInputError(
                    f"unknown trade-off kind {self.tradeoff!r}, expected one of {TRADEOFF_KINDS}"
                )
            if self.name != "aEIGP":
                raise InvalidInputError(f"a trade-off weighs aEIGP only, not {self.name}")
            if self.variance_family is None:
                object.__setattr__(self, "variance_family", "bcm")
            if self.variance_family not in VARIANCE_FAMILIES:
                raise InvalidInputError(
                    f"unknown variance family {self.variance_family!r}, "
                    f"expected one of {VARIANCE_FAMILIES}"
                )
        elif self.variance_family is not None:
            raise InvalidInputError("a variance family weighs only with a trade-off")

    @property
    def is_baseline(self) -> bool:
        return self.name in BASELINE_METHODS


class RoundTable:
    """One query round's evaluations as arrays indexed by agent position.

    ``ids`` is the agent id at each position; ``scores`` (read by the
    bounds), ``eps``, ``means`` (agents x d) and ``empty`` hold each agent's
    quality score, epsilon, truncated mean and empty-model flag. A baseline
    scores nothing; the batched pass (:func:`_weigh`) fills its classical
    means, and for every method ``weights`` (requester x agent, zero off
    the selection), ``selected``, ``degenerate`` and ``predictions``
    (requester x d), one row per requester position.
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

    The query's kernel vector against every agent comes from one stacked
    evaluation (:func:`~eigp.quality.kernel_rows`), and each score keeps its
    agent's row for the variance. Scores are taken at lam = 1: lam rescales
    every agent's epsilon equally, so it changes no selection or weight.
    Baselines score nothing.
    """
    ids = tuple(agents)
    empty = np.array([models[s].n == 0 for s in ids])
    if method.is_baseline:
        return RoundTable(ids, [], None, None, empty)
    policy, agent_models = method.rho_policy, [models[s] for s in ids]
    pairs = zip(agent_models, kernel_rows(agent_models, x))
    scores, means = zip(*(score_and_approx_mean(m, x, policy, kernel_values=k) for m, k in pairs))
    eps = np.array([score.epsilon for score in scores])
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


def proportional_normalize(values: dict[int, float]) -> dict[int, float]:
    """Divide each value by the total so the results sum to one."""
    if not values:
        raise InvalidInputError("proportional normalization needs a positive total")
    return dict(zip(values, _normalize_rows(_row(values, values))[0].tolist()))


def error_weights(
    tilde_eps: dict[int, float], phi: dict[int, int]
) -> dict[int, float]:
    """Min-max-normalized gaussianized scores over the selected agents."""
    selected = [s for s in sorted(phi) if phi[s]]
    if not selected:
        raise InvalidInputError("no agent selected")
    scaled = _minmax_rows(_row(tilde_eps, selected), np.ones((1, len(selected)), dtype=bool))
    return dict(zip(selected, scaled[0].tolist()))


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


def _aeigp_rows(TW, G, P, nu: float) -> np.ndarray:
    """aEIGP weights of each row from error weights TW, gains G and precisions P.

    G and P are zero off the selection, which makes every term there zero.
    """
    return _normalize_rows(np.float_power(TW, nu) * np.float_power(G * P, 1.0 - nu))


def _family_rows(family: str, G, P, prior: float) -> np.ndarray:
    """POE or BCM variance-family scores of each row from gains G and precisions P.

    An agent's score is its gain times its precision over the row's
    denominator: the sum of those numerators (POE), or the sum of the
    precisions plus the prior correction (1 - sum of gains) / prior (BCM).
    Only the trade-offs read them: a trade-off mixes them with TW, so the
    denominator does not cancel. G and P are zero off the selection.
    """
    N = G * P
    if family == "poe":
        denom = N.cumsum(axis=1)[:, -1:]
    else:  # bcm
        denom = P.cumsum(axis=1)[:, -1:] + (1.0 - G.cumsum(axis=1)[:, -1:]) / prior
    if (denom <= 0).any():
        raise InvalidInputError("variance-family denominator must be positive")
    return N / denom


def _generalized_rows(TW, sel, G, P, method: MethodSpec, prior: float):
    """The trade-off weights of each row: the method's kind blends TW with its family's scores.

    TW and the family scores are zero off the selection, and so are the
    linear scores; on it every score is positive (TW holds a 1 in each row
    and every family score is positive). The exponential kind calls
    ``math.exp`` per selected entry: ``np.exp`` rounds differently in a few
    values in a thousand.
    """
    nu = method.nu
    F = _family_rows(method.variance_family, G, P, prior)
    if method.tradeoff == "linear":
        scores = nu * TW + (1.0 - nu) * F
    else:  # exponential
        scores = np.zeros(TW.shape)
        scores[sel] = [
            math.exp(nu * a) + math.exp((1.0 - nu) * f)
            for a, f in zip(TW[sel].tolist(), F[sel].tolist())
        ]
    return _normalize_rows(scores)


def _baseline_rows(name: str, V, ids: list[int], cfg: KernelConfig) -> np.ndarray:
    """:func:`baseline_weights` of each whole row of variances V; ``ids`` lists their agents.

    The differential-entropy difference of GPOE and RBCM is half the log
    precision gain.
    """
    if name == "MOE":  # reads no variance
        return np.full(V.shape, 1.0 / V.shape[1])
    entries = list(zip(V.ravel().tolist(), ids))
    for v, s in entries:
        if v <= 0:
            raise InvalidInputError(f"agent {s}: posterior variance must be positive")
    G = 1.0  # POE, BCM
    if name in ("GPOE", "RBCM"):
        G = np.array([0.5 * _log_precision_gain(cfg, v, s) for v, s in entries]).reshape(V.shape)
    return _normalize_rows(G / V)


def aeigp_weights(
    tilde_w: dict[int, float],
    variances: dict[int, float],
    nu: float,
    cfg: KernelConfig,
) -> dict[int, float]:
    """Error-informed weights blending tilde_w with posterior precision.

    Each agent's score is tilde_w^nu * (gain * precision)^(1-nu), where
    gain = log((kappa0 + noise)/variance), normalized to sum to one. nu = 1
    reduces to proportionally normalized tilde_w; nu = 0 drops the error
    information entirely (a selective precision rule). The paper's aggregate
    variance, a factor of gain * precision, is one constant per row: its
    (1 - nu)-th power cancels in the normalization, so it is not computed.
    """
    if set(tilde_w) != set(variances):
        raise InvalidInputError("tilde_w and variances must cover the same agents")
    if not 0.0 <= nu <= 1.0:
        raise InvalidInputError("nu must lie in [0, 1]")
    ids = sorted(tilde_w)
    G = np.array([[_log_precision_gain(cfg, variances[s], s) for s in ids]])
    row = _aeigp_rows(_row(tilde_w, ids), G, 1.0 / _row(variances, ids), nu)
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
    if not variances:
        raise InvalidInputError("baseline weights need at least one agent")
    ids = sorted(variances)
    row = _baseline_rows(method, _row(variances, ids), ids, cfg)
    return dict(zip(ids, row[0].tolist()))


# ----------------------------------------------------------------------
# joint prediction
# ----------------------------------------------------------------------


def _weigh(table: RoundTable, groups, models, x, method: MethodSpec, cfg: KernelConfig) -> None:
    """Select and weigh for every requester in ``groups`` in one pass over ``table``.

    ``groups`` pairs requester positions (R,) with their closed neighborhoods'
    positions in id order (R, K), so each row reduction sees the values a
    single requester would, in its order. A baseline weighs the classical
    predictions of the whole neighborhood. A requester whose neighborhood
    holds only empty models is degenerate: under an EIGP method its own
    model gives the prior mean 0. Predictions sum only selected terms (a
    zero weight times an infinite truncated mean would be NaN).
    """
    k, nu, baseline = len(table.ids), method.nu, method.is_baseline
    weights = np.zeros((k, k))
    selected = np.zeros((k, k), dtype=bool)
    degenerate = np.zeros(k, dtype=bool)
    some_empty = table.empty.any()
    gains, precisions = np.zeros((2, k))  # read once per agent, only when selected
    if baseline:
        table.means, variances = np.zeros((k, cfg.output_dim)), np.zeros(k)
    for rows, cols in groups:
        if baseline:
            pairs = cols.ravel().tolist()
            for p in pairs:  # each requester asks each neighbor
                table.means[p], variances[p] = models[table.ids[p]].classical_predict(x)
            ids = [table.ids[p] for p in pairs]
            weights[rows[:, None], cols] = _baseline_rows(method.name, variances[cols], ids, cfg)
            selected[rows[:, None], cols] = True
            degenerate[rows] = table.empty[cols].all(axis=1)
            continue
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
        if nu == 1.0 and method.tradeoff is None:
            w = _normalize_rows(w)
        else:
            wanted = np.zeros(k, dtype=bool)
            wanted[cols[sel]] = True
            for p in wanted.nonzero()[0].tolist():
                if precisions[p] == 0.0:
                    k_row = table.scores[p].idx.kernel_values
                    var = models[table.ids[p]].posterior_var(x, k_row)
                    gains[p] = _log_precision_gain(cfg, var, table.ids[p])
                    precisions[p] = 1.0 / var
            G, P = np.where(sel, gains[cols], 0.0), np.where(sel, precisions[cols], 0.0)
            if method.tradeoff is None:
                w = _aeigp_rows(w, G, P, nu)
            else:
                w = _generalized_rows(w, sel, G, P, method, cfg.prior_plus_noise)
        rows = rows[:, None]
        weights[rows, cols] = w
        selected[rows, cols] = sel
    if degenerate.any() and not baseline:
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
    and combine their truncated means; baselines combine the classical
    predictions of the whole neighborhood. The first call on a table weighs
    every graph node in one batched pass, later calls read their row.
    Without a table the call builds and weighs a fresh table the same way,
    so it predicts what a tabled call would, but at the cost of a whole
    round (for a baseline, every pair's classical prediction): code that
    predicts for every requester calls :func:`eigp.sim.predict_round`,
    which shares one table. If every neighborhood model is empty the plan
    is flagged; it predicts the prior mean 0.
    """
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
        cfg.output_dim, bool(table.degenerate[p]), None if method.is_baseline else table,
    )
    return table.predictions[p], plan
