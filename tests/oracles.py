"""Reference posterior-mean paths that the library itself does not need.

The library predicts through ``AgentModel.posterior_mean`` (cached alpha)
and through ``score_and_approx_mean`` (truncated error sums). These direct
transcriptions of the paper's error-informed formulas check both.
"""

import numpy as np

from eigp import InvalidInputError, kernel_vec


def posterior_mean_via_errors(model, x, j: int = 0) -> float:
    """-(1/noise) * sum_p errors[j][p] * kappa(x, x_p): Property 1 of the paper.

    Must agree with ``model.posterior_mean``; an empty model gives 0.
    """
    if model.n == 0:
        return 0.0
    k = kernel_vec(model.cfg, model.X, x)
    return float(np.dot(k, model.errors[j])) * (-1.0 / model.cfg.noise_variance)


def approx_mean(model, x, idx, j: int = 0) -> float:
    """Truncated posterior mean over the included set of ``idx``.

    With a complete index set this equals ``posterior_mean_via_errors``
    exactly; an empty set gives 0.
    """
    included = np.asarray(idx.included, dtype=int)
    if included.size and included.max() >= model.n:
        raise InvalidInputError("index selection refers to points beyond the dataset")
    if included.size == 0:
        return 0.0
    k = idx.kernel_values if idx.kernel_values is not None else kernel_vec(model.cfg, model.X, x)
    if included.size == model.n:
        k_sel, e_sel = k, model.errors[j]
    else:
        k_sel, e_sel = k[included], model.errors[j][included]
    return float(np.dot(k_sel, e_sel)) * (-1.0 / model.cfg.noise_variance)
