"""Model configuration: dataclasses, JSON interchange, canonical hashing.

Config files are JSON. One writer and one reader serve every config
dataclass, the training and window settings included: a field's key is its
camelCase name unless the field carries ``json`` metadata. The writer also
lays out the training history and the eval report, and ``write_json`` lays
out every JSON file the command line writes. The sha256 of the
canonical serialization (sorted keys, compact separators) is embedded in
every checkpoint so weights can refuse to load against a different
architecture.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple, get_type_hints

from .atcn import AtcnConfig
from .numcore import ConfigurationError, check_fields

__all__ = [
    "Conv2dSpec",
    "PoolSpec",
    "ModelConfig",
    "default_model_config",
    "config_to_dict",
    "config_from_dict",
    "canonical_json",
    "config_hash",
    "read_json_object",
    "load_config_file",
    "save_config_file",
    "write_json",
]


@dataclass
class Conv2dSpec:
    out_channels: int
    kernel: Tuple[int, int]
    stride: Tuple[int, int] = (1, 1)
    padding: Tuple[int, int] = (0, 0)

    def __post_init__(self):
        check_fields(self)
        if self.out_channels < 1 or min(self.kernel) < 1 or min(self.stride) < 1 \
                or min(self.padding) < 0:
            raise ConfigurationError(f"invalid conv spec {self}")


@dataclass
class PoolSpec:
    window: Tuple[int, int]
    stride: Tuple[int, int]
    padding: Tuple[int, int] = (0, 0)

    def __post_init__(self):
        check_fields(self)
        if min(self.window) < 1 or min(self.stride) < 1 or not all(
                0 <= p < w for p, w in zip(self.padding, self.window)):
            raise ConfigurationError(f"invalid pool spec {self}")


@dataclass
class ModelConfig:
    """Everything needed to build the predictor and count its cost."""
    neighbor_atcn: AtcnConfig = field(default_factory=lambda: AtcnConfig(
        input_channels=2, channels=(16, 32, 64), kernel_sizes=(2, 2, 2), dilations=(1, 1, 1)))
    ego_atcn: AtcnConfig = field(default_factory=lambda: AtcnConfig(
        input_channels=2, channels=(8, 16, 32), kernel_sizes=(2, 2, 2), dilations=(1, 1, 1)))
    grid_rows: int = 13
    grid_cols: int = 3
    cell_length: float = 4.572  # meters of longitudinal road per grid row
    social_conv1: Conv2dSpec = field(default_factory=lambda: Conv2dSpec(64, (3, 3)))
    social_conv2: Conv2dSpec = field(default_factory=lambda: Conv2dSpec(16, (3, 1)))
    social_pool: PoolSpec = field(default_factory=lambda: PoolSpec((2, 1), (2, 1), (1, 0)))
    ego_dense_out: int = 80
    decoder_init_hidden: int = 224
    decoder_hidden: int = 104
    horizon_steps: int = 25
    history_steps: int = 16
    output_dim: int = 2
    autoregressive: bool = False
    dtype: str = "float64"

    def __post_init__(self):
        check_fields(self)
        if self.grid_rows < 1 or self.grid_cols < 1:
            raise ConfigurationError("grid dimensions must be positive")
        if self.cell_length <= 0:
            raise ConfigurationError("cell_length must be positive")
        if self.horizon_steps < 1 or self.history_steps < 1:
            raise ConfigurationError("horizon and history lengths must be positive")
        if self.dtype not in ("float64", "float32"):
            raise ConfigurationError(f"dtype must be float64 or float32, got {self.dtype!r}")
        for name in ("ego_dense_out", "decoder_init_hidden", "decoder_hidden", "output_dim"):
            if getattr(self, name) < 1:
                raise ConfigurationError(f"{name} must be positive")


def default_model_config() -> ModelConfig:
    """``ModelConfig()``, the published three-lane highway configuration:
    the CLI's default model. An alias that stays while perfbench's tests
    import it; other callers build ``ModelConfig()``."""
    return ModelConfig()


# ---------------------------------------------------------------------------
# JSON interchange
# ---------------------------------------------------------------------------

def _key(f: dataclasses.Field) -> str:
    """A field's JSON key: its ``json`` metadata, else its camelCase name."""
    head, *rest = f.name.split("_")
    return f.metadata.get("json", head + "".join(w.capitalize() for w in rest))


def config_to_dict(cfg) -> Dict[str, Any]:
    """The JSON form of a config or record dataclass; nested ones become objects."""
    out = {}
    for f in dataclasses.fields(cfg):
        value = getattr(cfg, f.name)
        if dataclasses.is_dataclass(value):
            value = config_to_dict(value)
        out[_key(f)] = list(value) if isinstance(value, tuple) else value
    return out


def config_from_dict(cls, d: Any):
    """Build the config dataclass ``cls`` from its JSON form.

    A missing key takes the field's default; a nested config is built from
    its own defaults. An unknown key, a missing required key or a section
    that is not an object raises :class:`ConfigurationError`.
    """
    if not isinstance(d, dict):
        raise ConfigurationError(f"{cls.__name__} settings must be an object, got {d!r}")
    fields = {_key(f): f for f in dataclasses.fields(cls)}
    unknown = sorted(set(d) - set(fields))
    if unknown:
        raise ConfigurationError(f"unknown {cls.__name__} settings: {unknown}")
    missing = [key for key, f in fields.items() if key not in d
               and f.default is dataclasses.MISSING
               and f.default_factory is dataclasses.MISSING]
    if missing:
        raise ConfigurationError(f"{cls.__name__} settings missing {missing}")
    hints = get_type_hints(cls)
    kwargs = {}
    for key, value in d.items():
        name = fields[key].name
        if dataclasses.is_dataclass(hints[name]):
            try:
                value = config_from_dict(hints[name], value)
            except ConfigurationError as err:
                raise ConfigurationError(f"{key}: {err}") from None
        kwargs[name] = value
    return cls(**kwargs)


def canonical_json(payload: Dict[str, Any]) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def config_hash(cfg: ModelConfig) -> str:
    """sha256 hex digest over the canonical config serialization."""
    return hashlib.sha256(canonical_json(config_to_dict(cfg)).encode()).hexdigest()


def read_json_object(path, what: str) -> Dict[str, Any]:
    """The JSON object stored in ``path``; ``what`` names the file in errors."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as err:
        raise ConfigurationError(f"cannot read {what} {path}: {err}") from err
    except ValueError as err:  # not JSON, or not UTF-8
        raise ConfigurationError(f"{what} {path} is not valid JSON: {err}") from err
    if not isinstance(raw, dict):
        raise ConfigurationError(f"{what} {path} must contain a JSON object")
    return raw


def write_json(path, payload, sort_keys: bool = False) -> None:
    """Write ``payload`` as JSON indented by two spaces, ending in a newline."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(payload, indent=2, sort_keys=sort_keys) + "\n")


def load_config_file(path) -> Tuple[ModelConfig, Dict[str, Any]]:
    """Read a config file; returns (model config, trainer overrides).

    Model fields sit at the top level; the optional "train" object carries
    trainer settings and never enters the config hash.
    """
    raw = read_json_object(path, "config")
    train = raw.pop("train", {})
    if not isinstance(train, dict):
        raise ConfigurationError("the train section must be an object")
    return config_from_dict(ModelConfig, raw), train


def save_config_file(path, cfg: ModelConfig,
                     train: Optional[Dict[str, Any]] = None) -> None:
    payload = config_to_dict(cfg)
    if train:
        payload["train"] = train
    write_json(path, payload, sort_keys=True)
