"""Experiment configuration: strict parsing, validation and round-tripping."""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field

from .aggregation import VARIANCE_FAMILIES, MethodSpec, TradeoffSpec
from .bounds import BoundParams
from .errors import ConfigError, InvalidInputError
from .graph import build_graph
from .kernels import KernelConfig
from .quality import RhoPolicy
from .sim import StreamSchedule

SCENARIOS = ("toy", "stream")
_INT_FIELDS = ("seed", "agents", "capacity", "train_points", "query_points", "steps", "window")

_DEFAULT_KERNEL = {
    "signal_variance": 1.0,
    "lengthscale": 0.2,
    "noise_variance": 0.25,
    "input_dim": 1,
    "output_dim": 1,
}


@dataclass(frozen=True)
class BoundConfig:
    tau: float = 0.1
    delta: float = 0.05
    delta_n: float = 0.05
    box: tuple[tuple[float, float], ...] | None = None  # default: dataset min/max

    def params(self, cfg: KernelConfig, lower, upper) -> BoundParams:
        """The run's bound constants over the configured box, else over ``lower``/``upper``."""
        if self.box is not None:
            lower, upper = [pair[0] for pair in self.box], [pair[1] for pair in self.box]
        return BoundParams.for_kernel(cfg, self.tau, self.delta, self.delta_n, lower, upper)


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a run needs; unknown keys and bad ranges are rejected."""

    scenario: str = "toy"
    method: str = "gEIGP"
    nu: float = 0.5
    theta: float = 1.0
    rho_policy: str = "mean"
    rho_value: float | None = None
    tradeoff: str | None = None
    variance_family: str = "bcm"
    agents: int = 4
    graph: object = "full"  # "full" or list of [a, b] edges
    kernel: dict = field(default_factory=lambda: dict(_DEFAULT_KERNEL))
    capacity: int = 100
    bounds: BoundConfig | None = None
    seed: int = 0
    dataset: str | None = None
    train_points: int = 400
    query_points: int = 100
    steps: int = 1000
    schedule: str = "cyclic"
    window: int = 100
    out_dir: str | None = None

    def __post_init__(self):
        if self.scenario not in SCENARIOS:
            raise ConfigError(f"scenario must be one of {SCENARIOS}, got {self.scenario!r}")
        for name in _INT_FIELDS:
            value, least = getattr(self, name), 0 if name == "seed" else 1
            if isinstance(value, bool) or not isinstance(value, int) or value < least:
                raise ConfigError(f"{name} must be an integer >= {least}, got {value!r}")
        if self.train_points < self.agents:
            raise ConfigError("train_points must cover every agent")
        if self.window < 2:
            raise ConfigError("window must be >= 2")
        for name in ("dataset", "out_dir"):
            if not isinstance(getattr(self, name), (str, type(None))):
                raise ConfigError(f"{name} must be a path string, got {getattr(self, name)!r}")
        if self.variance_family not in VARIANCE_FAMILIES:
            raise ConfigError(f"variance_family must be one of {VARIANCE_FAMILIES}")
        cfg = self.kernel_config()  # validates kernel ranges
        try:  # the method's, the rho policy's, the schedule's and the bounds' own rules
            rho_policy = self.method_spec().rho_policy
            if rho_policy.kind == "constant":
                rho_policy.constant_rho(cfg.kappa0)
            StreamSchedule(self.schedule, self.capacity)
            if self.bounds is not None:  # without a box, a zero-width one checks the rest
                self.bounds.params(cfg, [0.0] * cfg.input_dim, [0.0] * cfg.input_dim)
        except (InvalidInputError, TypeError) as exc:
            raise ConfigError(str(exc)) from None
        build_graph(self.graph, self.agents)  # validates the edge list
        if self.scenario == "toy" and self.graph != "full":
            raise ConfigError("the toy experiment runs on the complete graph: set graph to 'full'")
        # the toy function is 1-D: the toy experiment and a synthetic stream draw from it
        toy_draws = self.scenario == "toy" or not self.dataset
        if toy_draws and (cfg.input_dim, cfg.output_dim) != (1, 1):
            source = "the toy experiment" if self.scenario == "toy" else "a stream with no dataset"
            raise ConfigError(f"{source} is one-dimensional: set input_dim and output_dim to 1")

    # ------------------------------------------------------------------
    # derived objects
    # ------------------------------------------------------------------

    def kernel_config(self) -> KernelConfig:
        try:
            return KernelConfig(**self.kernel)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad kernel block: {exc}") from None

    def method_spec(self) -> MethodSpec:
        tradeoff = None
        if self.tradeoff is not None:
            tradeoff = TradeoffSpec(kind=self.tradeoff, variance_family=self.variance_family)
        return MethodSpec(
            name=self.method,
            nu=self.nu,
            theta=self.theta,
            rho_policy=RhoPolicy(self.rho_policy, self.rho_value),
            tradeoff=tradeoff,
        )

    # ------------------------------------------------------------------
    # serialization
    # ------------------------------------------------------------------

    def to_dict(self) -> dict:
        out = asdict(self)
        if self.bounds is not None:
            out["bounds"] = asdict(self.bounds)
            if self.bounds.box is not None:
                out["bounds"]["box"] = [list(pair) for pair in self.bounds.box]
        if isinstance(self.graph, tuple):
            out["graph"] = [list(edge) for edge in self.graph]
        return out

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        if not isinstance(raw, dict):
            raise ConfigError("config must be a JSON object")
        known = set(cls.__dataclass_fields__)
        unknown = set(raw) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        data = dict(raw)
        try:
            if data.get("bounds") is not None:
                bounds_raw = data["bounds"]
                if not isinstance(bounds_raw, dict):
                    raise ConfigError("bounds must be an object")
                bad = set(bounds_raw) - set(BoundConfig.__dataclass_fields__)
                if bad:
                    raise ConfigError(f"unknown bounds keys: {sorted(bad)}")
                box = bounds_raw.get("box")
                if box is not None:
                    box = tuple((float(lo), float(hi)) for lo, hi in box)
                values = {k: float(v) for k, v in bounds_raw.items() if k != "box"}
                data["bounds"] = BoundConfig(**values, box=box)
            if isinstance(data.get("graph"), list):
                data["graph"] = tuple(_edge(edge) for edge in data["graph"])
        except (TypeError, ValueError) as exc:  # a ConfigError is a ValueError too
            raise ConfigError(f"bad bounds or graph: {exc}") from None
        try:
            return cls(**data)
        except TypeError as exc:
            raise ConfigError(str(exc)) from None

    @classmethod
    def from_json(cls, path) -> "ExperimentConfig":
        try:
            with open(path, encoding="utf-8") as fh:
                raw = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"{path}: cannot read config: {exc.strerror}") from None
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: invalid JSON: {exc}") from None
        return cls.from_dict(raw)


def _edge(edge) -> tuple[int, int]:
    """One ``[a, b]`` edge of a JSON graph: both endpoints must be JSON integers."""
    a, b = edge
    if not all(isinstance(v, int) and not isinstance(v, bool) for v in (a, b)):
        raise ConfigError(f"graph edge {edge!r}: node ids must be integers")
    return a, b
