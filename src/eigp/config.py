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
from .sim import TOY_INTERVAL, StreamSchedule

SCENARIOS = ("toy", "stream")
_INT_FIELDS = ("seed", "agents", "capacity", "train_points", "query_points", "steps", "window")

# the two JSON object blocks: each is merged over its defaults
_DEFAULT_KERNEL = {
    "signal_variance": 1.0,
    "lengthscale": 0.2,
    "noise_variance": 0.25,
    "input_dim": 1,
    "output_dim": 1,
}
_DEFAULT_BOUNDS = {"tau": 0.1, "delta": 0.05, "delta_n": 0.05, "box": None}  # see bound_params


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
    kernel: dict = field(default_factory=dict)
    capacity: int = 100
    bounds: dict | None = None  # None: the run computes no bounds
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
        object.__setattr__(self, "kernel", _merged("kernel", self.kernel, _DEFAULT_KERNEL))
        cfg = self.kernel_config()  # validates kernel ranges
        try:  # the method's, the rho policy's, the schedule's and the bounds' own rules
            rho_policy = self.method_spec().rho_policy
            if rho_policy.kind == "constant":
                rho_policy.constant_rho(cfg.kappa0)
            StreamSchedule(self.schedule, self.capacity)
            if self.bounds is not None:
                bounds = _merged("bounds", self.bounds, _DEFAULT_BOUNDS)
                if bounds["box"] is not None:  # tuples, as graph edges, whatever JSON gave
                    bounds["box"] = tuple(map(tuple, bounds["box"]))
                    if any(len(pair) != 2 for pair in bounds["box"]):
                        raise ConfigError("box must list one [lower, upper] pair per input dimension")
                object.__setattr__(self, "bounds", bounds)
                self.bound_params()  # without a dataset's box, over the toy interval
        except (InvalidInputError, TypeError) as exc:
            raise ConfigError(str(exc)) from None
        if isinstance(self.graph, (list, tuple)):  # tuples, as the box, whatever JSON gave
            try:
                object.__setattr__(self, "graph", tuple(_edge(edge) for edge in self.graph))
            except (TypeError, ValueError) as exc:  # a ConfigError is a ValueError too
                raise ConfigError(f"bad graph: {exc}") from None
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
        except InvalidInputError as exc:
            raise ConfigError(f"bad kernel block: {exc}") from None

    def bound_params(self, dataset=None) -> BoundParams | None:
        """The run's bound constants, or None without a ``bounds`` block.

        The box is the configured one, else the dataset's observed input
        box, else the toy interval in every input dimension.
        """
        if self.bounds is None:
            return None
        cfg, b = self.kernel_config(), self.bounds
        if b["box"] is not None:
            lower, upper = [pair[0] for pair in b["box"]], [pair[1] for pair in b["box"]]
        elif dataset is not None:
            lower, upper = dataset.lower, dataset.upper
        else:
            lower, upper = ([end] * cfg.input_dim for end in TOY_INTERVAL)
        return BoundParams.for_kernel(cfg, b["tau"], b["delta"], b["delta_n"], lower, upper)

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
        return asdict(self)  # json.dumps writes the tuples of graph and box as lists

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        if not isinstance(raw, dict):
            raise ConfigError("config must be a JSON object")
        unknown = set(raw) - set(cls.__dataclass_fields__)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        try:
            return cls(**raw)
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


def _merged(name: str, block, defaults: dict) -> dict:
    """A JSON object block over its defaults; an unknown key is an error."""
    if not isinstance(block, dict):
        raise ConfigError(f"{name} must be an object, got {block!r}")
    unknown = set(block) - set(defaults)
    if unknown:
        raise ConfigError(f"unknown {name} keys: {sorted(unknown)}")
    return {**defaults, **block}


def _edge(edge) -> tuple[int, int]:
    """One ``[a, b]`` edge of a JSON graph: both endpoints must be JSON integers."""
    a, b = edge
    if not all(isinstance(v, int) and not isinstance(v, bool) for v in (a, b)):
        raise ConfigError(f"graph edge {edge!r}: node ids must be integers")
    return a, b
