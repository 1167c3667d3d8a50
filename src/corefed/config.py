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
from dataclasses import MISSING, asdict, dataclass, field, fields
from pathlib import Path

from .aggregation import window_bound
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


@dataclass(frozen=True)
class IdxSource:
    """Paths to an IDX3 image file and IDX1 label file."""

    images: str
    labels: str


# Each dataset kind and its source class; a dataset object without "kind" is the first.
_DATASET_KINDS = {"synthetic": SyntheticSource, "idx": IdxSource}
# The config file's nested objects and the class, or table of kinds, each builds.
_OBJECTS = {"dataset": _DATASET_KINDS, "model": ModelSpec}


# Fields added to the schema after config.json's layout was fixed, named "<field>"
# or "dataset.<field>" / "model.<field>". config_to_dict leaves a listed field out
# while it holds its dataclass default, so a config that does not set it keeps
# its config.json bytes and its hash.
_ADDED_FIELDS: frozenset[str] = frozenset()


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
        if _is_int(self.online_per_round):
            return self.online_per_round
        return min(self.clients, max(1, round(self.online_per_round * self.clients)))


def _default_model(dataset) -> ModelSpec:
    if isinstance(dataset, SyntheticSource):
        return ModelSpec(dataset.input_dim, (64, 64), dataset.num_classes)
    return ModelSpec(784, (200, 200), 10)


def lr_schedule(eta0: float, decay: float, t: int) -> float:
    """Learning rate for round t (1-based): eta0 * decay^(t-1)."""
    return eta0 * decay ** (t - 1)


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ConfigError(message)


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


_REAL_FIELDS = ("eta0", "lr_decay", "gamma", "k", "beta", "tau_c",
                "dirichlet_alpha", "test_fraction")
# Integer fields and the least value each accepts.
_INT_FIELDS = {"rounds": 0, "clients": 1, "local_epochs": 0, "batch_size": 1, "seed": 0,
               "checkpoint_interval": 0}


def _validate(cfg: ExperimentConfig) -> None:
    """Check every config value: the dataset, then the model, then the rest."""
    src, model = cfg.dataset, cfg.model
    if isinstance(src, SyntheticSource):
        for name in ("num_classes", "input_dim", "n"):
            _require(_is_int(getattr(src, name)), f"dataset.{name} must be an integer")
        _require(src.num_classes >= 1 and src.input_dim >= 1 and src.n >= 1,
                 "dataset.num_classes, dataset.input_dim and dataset.n must be positive")
    else:
        _require(isinstance(src, IdxSource), "dataset must be a SyntheticSource or an IdxSource")
        for name, path in (("images", src.images), ("labels", src.labels)):
            _require(isinstance(path, str) and path,
                     f"dataset.{name} must be a non-empty path string")
    _require(isinstance(model.hidden_dims, tuple) and model.hidden_dims,
             "model.hidden_dims must be a non-empty list of positive widths")
    for name, width in (("input_dim", model.input_dim), ("num_classes", model.num_classes),
                        *(("hidden_dims", h) for h in model.hidden_dims)):
        _require(_is_int(width) and width >= 1, f"model.{name} must be a positive integer")
    _require(model.activation == "relu", f"unsupported model.activation {model.activation!r}")
    _require(isinstance(cfg.algorithm, str) and cfg.algorithm in ALGORITHMS,
             f"algorithm must be one of {', '.join(ALGORITHMS)}")
    for name in _REAL_FIELDS:
        value = getattr(cfg, name)
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"{name} must be a number")
        _require(_is_int(value) or math.isfinite(value), f"{name} must be finite")
    for name, least in _INT_FIELDS.items():
        value = getattr(cfg, name)
        _require(_is_int(value) and value >= least,
                 f"{name} must be a {'positive' if least else 'non-negative'} integer")
    if isinstance(cfg.online_per_round, bool) or not isinstance(cfg.online_per_round, (int, float)):
        raise ConfigError("online_per_round must be an integer count or a fraction in (0, 1]")
    if _is_int(cfg.online_per_round):
        _require(1 <= cfg.online_per_round <= cfg.clients,
                 "online_per_round must lie in [1, clients]")
    else:
        _require(0.0 < cfg.online_per_round <= 1.0,
                 "online_per_round as a fraction must lie in (0, 1]")
    _require(cfg.eta0 > 0, "eta0 must be positive")
    _require(0.0 < cfg.lr_decay <= 1.0, "lr_decay must lie in (0, 1]")
    # The rate never rises, so the last round's is the least.
    _require(cfg.rounds < 1 or lr_schedule(cfg.eta0, cfg.lr_decay, cfg.rounds) > 0,
             f"learning rate eta0 * lr_decay^(t-1) reaches 0 before the last round, {cfg.rounds}")
    _require(cfg.gamma >= 0, "gamma must be non-negative")
    # In the largest window, tau = window_bound, a member's reward (1/f)^gamma
    # reaches tau^gamma; the weight total over at most `clients` members must
    # stay finite.
    largest_tau = window_bound(cfg.clients, cfg.resolved_online())
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
    if isinstance(src, SyntheticSource):
        _require(cfg.clients <= src.n, f"clients ({cfg.clients}) must be at most dataset.n "
                                       f"({src.n}): every client needs a sample")
        _require(model.input_dim == src.input_dim,
                 "model.input_dim must match dataset.input_dim")
        _require(model.num_classes == src.num_classes,
                 "model.num_classes must match dataset.num_classes")


def _build(cls, raw, where: str):
    """A ``cls`` built from the JSON object ``raw``, ``dataset`` and ``model`` included.

    An unknown key or a missing required field raises ConfigError naming it
    (a missing one as ``<where>.<field>``), and a list becomes the tuple
    JSON cannot express; every value rule is left to ``_validate``.
    """
    _require(isinstance(raw, dict), f"{where} must be an object")
    if isinstance(cls, dict):  # a table of kinds: the object's "kind" picks the class
        raw = dict(raw)
        kind = raw.pop("kind", next(iter(cls)))
        _require(isinstance(kind, str) and kind in cls,
                 f"{where}.kind must be {' or '.join(map(repr, cls))}, got {kind!r}")
        cls = cls[kind]
    unknown = sorted(set(map(str, raw)) - {f.name for f in fields(cls)})
    _require(not unknown, f"unknown {where} key(s): {', '.join(unknown)}")
    missing = [f"{where}.{f.name}" for f in fields(cls) if f.name not in raw
               and f.default is MISSING and f.default_factory is MISSING]
    _require(not missing, f"missing required key(s): {', '.join(missing)}")
    return cls(**{key: _build(_OBJECTS[key], value, key) if key in _OBJECTS
                  else tuple(value) if isinstance(value, list) else value
                  for key, value in raw.items()})


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
    try:
        text = Path(path).read_text(encoding="utf-8")
        raw = (json.loads(text, object_pairs_hook=lambda pairs: _unique_keys(path, pairs))
               if text.strip() else {})
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: parse error at line {exc.lineno} column {exc.colno}: {exc.msg}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: top level must be an object")
    return config_from_dict(raw)


def config_from_dict(raw: dict) -> ExperimentConfig:
    return _build(ExperimentConfig, raw, "config")


def config_to_dict(cfg: ExperimentConfig) -> dict:
    out = asdict(cfg)
    kind = next(kind for kind, cls in _DATASET_KINDS.items() if isinstance(cfg.dataset, cls))
    out["dataset"] = {"kind": kind, **out["dataset"]}
    for name in _ADDED_FIELDS:
        where, _, key = name.rpartition(".")
        owner, written = (getattr(cfg, where), out[where]) if where else (cfg, out)
        if any(f.name == key and getattr(owner, key) == f.default for f in fields(owner)):
            del written[key]
    return out


def dumps_config(cfg: ExperimentConfig) -> str:
    return json.dumps(config_to_dict(cfg), indent=2, sort_keys=True) + "\n"


def config_hash(cfg: ExperimentConfig) -> str:
    """Content hash of the resolved configuration."""
    return hashlib.sha1(dumps_config(cfg).encode("utf-8")).hexdigest()
