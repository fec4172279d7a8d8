"""Error-informed selective online learning with distributed Gaussian processes.

Per-agent GP models with bounded-memory streaming updates, an
error-informed quality metric for collaborator selection, greedy and
adaptive aggregation next to the classical expert baselines, probabilistic
error bounds, and a multi-agent simulation harness.
"""

from .aggregation import (
    ALL_METHODS,
    BASELINE_METHODS,
    EIGP_METHODS,
    AggregationPlan,
    MethodSpec,
    adaptive_select,
    aeigp_weights,
    baseline_weights,
    error_weights,
    gaussianize_epsilon,
    greedy_select,
    joint_predict,
    proportional_normalize,
)
from .bounds import (
    BoundParams,
    aggregated_bound,
    beta_delta,
    delta_rho,
    delta_x,
    eta_bound,
    eta_from_counts,
    lambda_factor,
    tilde_eta,
)
from .config import ExperimentConfig
from .datasets import Dataset, load_dataset, toy_stream, write_dataset
from .errors import (
    ComparisonError,
    ConfigError,
    DatasetError,
    EigpError,
    InternalConsistencyError,
    InvalidInputError,
    MetricError,
)
from .graph import Graph, build_graph, fully_connected
from .kernels import KernelConfig, gram, kernel_eval, kernel_vec, lipschitz_bound
from .memory import IngestReport, delete_and_reallocate, find_deletion, ingest
from .model import AgentModel
from .quality import (
    IndexSelection,
    QualityScore,
    RhoPolicy,
    score_and_approx_mean,
    select_indices,
)
from .sim import (
    SimRecord,
    SimResult,
    StreamSchedule,
    predict_round,
    run_offline_toy,
    run_online,
    smse,
    toy_function,
    toy_mean,
)

__version__ = "0.1.0"
