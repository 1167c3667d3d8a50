"""Experiment configuration: schema, defaults, parsing and serialization.

Config files are JSON. Missing keys fall back to the defaults below;
unknown keys are hard errors so typos cannot silently change a run. The
resolved config serializes back to JSON and re-parses to an identical
value, which is what run directories store for audit.
"""

from __future__ import annotations

import hashlib
import json
import math
import sys
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

from .errors import ConfigError
from .nn import ModelSpec

# Each algorithm is a pair of switches (align, fair): `align` turns on the
# embedding alignment that drives representation fairness, `fair` the
# reward-penalty aggregation that drives collaborative fairness.
ALGORITHMS = {
    "corefed": (True, True),
    "cofed": (False, True),
    "refed": (True, False),
    "fedavg": (False, False),
}

# Above this k, exp(-k * rho) overflows at rho = -1 and sigmoid(k * rho) reads 0.
_K_LIMIT = math.log(sys.float_info.max)
# Below this tau_c a contrastive score cos/tau_c, or a difference of two, overflows.
_TAU_C_MIN = 2 / sys.float_info.max


@dataclass(frozen=True)
class SyntheticSource:
    """Gaussian-blob dataset parameters."""

    num_classes: int = 4
    input_dim: int = 32
    n: int = 2000

    def __post_init__(self):
        # Checked here, before a default model is derived from these sizes.
        for name in ("num_classes", "input_dim", "n"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise ConfigError(f"dataset.{name} must be an integer")
        _require(self.num_classes >= 1 and self.input_dim >= 1 and self.n >= 1,
                 "dataset.num_classes, dataset.input_dim and dataset.n must be positive")


@dataclass(frozen=True)
class IdxSource:
    """Paths to an IDX3 image file and IDX1 label file."""

    images: str
    labels: str


@dataclass(frozen=True)
class ExperimentConfig:
    algorithm: str = "corefed"
    rounds: int = 50
    clients: int = 10
    online_per_round: int | float = 1.0
    local_epochs: int = 1
    batch_size: int = 32
    eta0: float = 0.1
    lr_decay: float = 0.999
    gamma: float = 0.5
    k: float = 2.0
    beta: float = 0.5
    tau_c: float = 0.07
    dirichlet_alpha: float = 0.5
    seed: int = 0
    test_fraction: float = 0.2
    checkpoint_interval: int = 0
    dataset: SyntheticSource | IdxSource = field(default_factory=SyntheticSource)
    model: ModelSpec | None = None

    def __post_init__(self):
        if self.model is None:
            object.__setattr__(self, "model", _default_model(self.dataset))
        _validate(self)

    def resolved_online(self) -> int:
        """Number of clients sampled per round."""
        if isinstance(self.online_per_round, int):
            return self.online_per_round
        return min(self.clients, max(1, round(self.online_per_round * self.clients)))


def _default_model(dataset) -> ModelSpec:
    if isinstance(dataset, SyntheticSource):
        return ModelSpec(dataset.input_dim, (64, 64), dataset.num_classes)
    return ModelSpec(784, (200, 200), 10)


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ConfigError(message)


_REAL_FIELDS = ("eta0", "lr_decay", "gamma", "k", "beta", "tau_c",
                "dirichlet_alpha", "test_fraction")
# Integer fields and the least value each accepts.
_INT_FIELDS = {"rounds": 0, "clients": 1, "local_epochs": 0, "batch_size": 1, "seed": 0,
               "checkpoint_interval": 0}


def _validate(cfg: ExperimentConfig) -> None:
    _require(isinstance(cfg.algorithm, str) and cfg.algorithm in ALGORITHMS,
             f"algorithm must be one of {', '.join(ALGORITHMS)}")
    for name in _REAL_FIELDS:
        value = getattr(cfg, name)
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"{name} must be a number")
        _require(isinstance(value, int) or math.isfinite(value), f"{name} must be finite")
    for name, least in _INT_FIELDS.items():
        value = getattr(cfg, name)
        _require(isinstance(value, int) and not isinstance(value, bool) and value >= least,
                 f"{name} must be a {'positive' if least else 'non-negative'} integer")
    if isinstance(cfg.online_per_round, bool) or not isinstance(cfg.online_per_round, (int, float)):
        raise ConfigError("online_per_round must be an integer count or a fraction in (0, 1]")
    if isinstance(cfg.online_per_round, int):
        _require(1 <= cfg.online_per_round <= cfg.clients,
                 "online_per_round must lie in [1, clients]")
    else:
        _require(0.0 < cfg.online_per_round <= 1.0,
                 "online_per_round as a fraction must lie in (0, 1]")
    _require(cfg.eta0 > 0, "eta0 must be positive")
    _require(0.0 < cfg.lr_decay <= 1.0, "lr_decay must lie in (0, 1]")
    # The rate eta0 * lr_decay^(t-1) never rises, so the last round's is the least.
    _require(cfg.rounds < 1 or cfg.eta0 * cfg.lr_decay ** (cfg.rounds - 1) > 0,
             f"learning rate eta0 * lr_decay^(t-1) reaches 0 before the last round, {cfg.rounds}")
    _require(cfg.gamma >= 0, "gamma must be non-negative")
    # The largest window is tau = ceil(clients / online), where a member's
    # reward (1/f)^gamma reaches tau^gamma; the weight total over at most
    # `clients` members must stay finite.
    largest_tau = -(-cfg.clients // cfg.resolved_online())
    if largest_tau > 1:
        gamma_limit = ((math.log(sys.float_info.max) - math.log(cfg.clients))
                       / math.log(largest_tau))
        _require(cfg.gamma <= gamma_limit,
                 f"gamma must be at most {gamma_limit:.6g} with {cfg.clients} clients and "
                 f"{cfg.resolved_online()} online: a window of {largest_tau} rounds "
                 f"overflows the reward (1/f)^gamma")
    _require(cfg.k >= 0, "k must be non-negative")
    _require(cfg.k <= _K_LIMIT,
             f"k must be at most {_K_LIMIT:.6g}: above it the alignment reward "
             f"sigmoid(k*rho) underflows to 0 at rho = -1")
    _require(0.0 <= cfg.beta <= 1.0, "beta must lie in [0,1]")
    _require(cfg.tau_c > 0, "tau_c must be positive")
    _require(cfg.tau_c >= _TAU_C_MIN,
             f"tau_c must be at least {_TAU_C_MIN:.6g}: below it scores cos/tau_c overflow")
    _require(cfg.dirichlet_alpha > 0, "dirichlet_alpha must be positive")
    _require(0.0 < cfg.test_fraction < 1.0, "test_fraction must lie strictly between 0 and 1")
    if isinstance(cfg.dataset, SyntheticSource):
        src = cfg.dataset
        _require(cfg.clients <= src.n, f"clients ({cfg.clients}) must be at most dataset.n "
                                       f"({src.n}): every client needs a sample")
        _require(cfg.model.input_dim == src.input_dim,
                 "model.input_dim must match dataset.input_dim")
        _require(cfg.model.num_classes == src.num_classes,
                 "model.num_classes must match dataset.num_classes")


def _parse_dataset(raw) -> SyntheticSource | IdxSource:
    if not isinstance(raw, dict):
        raise ConfigError("dataset must be an object")
    kind = raw.get("kind", "synthetic")
    if kind == "synthetic":
        _reject_unknown(raw, {"kind"} | _keys(SyntheticSource), "dataset")
        return SyntheticSource(**{key: value for key, value in raw.items() if key != "kind"})
    if kind == "idx":
        _reject_unknown(raw, {"kind"} | _keys(IdxSource), "dataset")
        if "images" not in raw or "labels" not in raw:
            raise ConfigError("dataset.images and dataset.labels are required for kind 'idx'")
        return IdxSource(images=str(raw["images"]), labels=str(raw["labels"]))
    raise ConfigError(f"dataset.kind must be 'synthetic' or 'idx', got {kind!r}")


def _parse_model(raw) -> ModelSpec:
    if not isinstance(raw, dict):
        raise ConfigError("model must be an object")
    _reject_unknown(raw, _keys(ModelSpec), "model")
    for key in ("input_dim", "hidden_dims", "num_classes"):
        if key not in raw:
            raise ConfigError(f"model.{key} is required when model is given")
    if not isinstance(raw["hidden_dims"], list):
        raise ConfigError("model.hidden_dims must be a list of positive widths")
    return ModelSpec(**raw)


def _keys(cls) -> frozenset[str]:
    return frozenset(f.name for f in fields(cls))


def _reject_unknown(raw: dict, allowed: set[str], where: str) -> None:
    unknown = sorted(set(raw) - allowed)
    if unknown:
        raise ConfigError(f"unknown {where} key(s): {', '.join(unknown)}")


def _unique_keys(path, pairs: list[tuple[str, object]]) -> dict:
    """A JSON object's dict; a key given twice would silently keep only its last value."""
    raw = {}
    for key, value in pairs:
        if key in raw:
            raise ConfigError(f"{path}: key {key!r} given more than once")
        raw[key] = value
    return raw


def parse_config(path) -> ExperimentConfig:
    """Load and validate a JSON config file; missing keys take defaults."""
    text = Path(path).read_text(encoding="utf-8")
    if not text.strip():
        raw = {}
    else:
        try:
            raw = json.loads(text, object_pairs_hook=lambda pairs: _unique_keys(path, pairs))
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: parse error at line {exc.lineno} column {exc.colno}: {exc.msg}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: top level must be an object")
    return config_from_dict(raw)


def config_from_dict(raw: dict) -> ExperimentConfig:
    _reject_unknown(raw, _keys(ExperimentConfig), "config")
    kwargs = {key: value for key, value in raw.items() if key not in ("dataset", "model")}
    if "dataset" in raw:
        kwargs["dataset"] = _parse_dataset(raw["dataset"])
    if "model" in raw:
        kwargs["model"] = _parse_model(raw["model"])
    return ExperimentConfig(**kwargs)


def config_to_dict(cfg: ExperimentConfig) -> dict:
    out = asdict(cfg)
    kind = "synthetic" if isinstance(cfg.dataset, SyntheticSource) else "idx"
    out["dataset"] = {"kind": kind, **out["dataset"]}
    return out


def dumps_config(cfg: ExperimentConfig) -> str:
    return json.dumps(config_to_dict(cfg), indent=2, sort_keys=True) + "\n"


def config_hash(cfg: ExperimentConfig) -> str:
    """Content hash of the resolved configuration."""
    return hashlib.sha1(dumps_config(cfg).encode("utf-8")).hexdigest()
