"""Experiment configuration: strict parsing, validation and round-tripping."""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field

from .aggregation import ALL_METHODS, MethodSpec, TradeoffSpec
from .errors import ConfigError
from .kernels import KernelConfig
from .quality import RHO_KINDS, RhoPolicy

SCENARIOS = ("toy", "stream")

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
        if self.method not in ALL_METHODS:
            raise ConfigError(f"method must be one of {ALL_METHODS}, got {self.method!r}")
        if not 0.0 <= self.nu <= 1.0:
            raise ConfigError("nu must lie in [0, 1]")
        if self.theta < 0:
            raise ConfigError("theta must be nonnegative")
        if self.rho_policy not in RHO_KINDS:
            raise ConfigError(f"rho_policy must be one of {RHO_KINDS}")
        if self.agents < 1:
            raise ConfigError("agents must be >= 1")
        if self.capacity < 1:
            raise ConfigError("capacity must be >= 1")
        if self.train_points < self.agents:
            raise ConfigError("train_points must cover every agent")
        if self.query_points < 1 or self.steps < 1:
            raise ConfigError("query_points and steps must be >= 1")
        if self.window < 2:
            raise ConfigError("window must be >= 2")
        if self.schedule not in ("cyclic", "round-robin"):
            raise ConfigError("schedule must be 'cyclic' or 'round-robin'")
        self.kernel_config()  # validates kernel ranges
        self.method_spec()  # validates method parameter ranges

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
        if data.get("bounds") is not None:
            bounds_raw = data["bounds"]
            if not isinstance(bounds_raw, dict):
                raise ConfigError("bounds must be an object")
            bad = set(bounds_raw) - set(BoundConfig.__dataclass_fields__)
            if bad:
                raise ConfigError(f"unknown bounds keys: {sorted(bad)}")
            box = bounds_raw.get("box")
            if box is not None:
                box = tuple(tuple(float(v) for v in pair) for pair in box)
            data["bounds"] = BoundConfig(
                tau=float(bounds_raw.get("tau", 0.1)),
                delta=float(bounds_raw.get("delta", 0.05)),
                delta_n=float(bounds_raw.get("delta_n", 0.05)),
                box=box,
            )
        if isinstance(data.get("graph"), list):
            data["graph"] = tuple(tuple(int(v) for v in edge) for edge in data["graph"])
        try:
            return cls(**data)
        except TypeError as exc:
            raise ConfigError(str(exc)) from None

    @classmethod
    def from_json(cls, path) -> "ExperimentConfig":
        try:
            with open(path, encoding="utf-8") as fh:
                raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: invalid JSON: {exc}") from None
        return cls.from_dict(raw)
