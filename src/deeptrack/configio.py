"""Model configuration: dataclasses, JSON interchange, canonical hashing.

Config files are JSON with camelCase keys mirroring the field names below;
the sha256 of the canonical serialization (sorted keys, compact separators)
is embedded in every checkpoint so weights can refuse to load against a
different architecture.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple

from .atcn import AtcnConfig
from .numcore import ConfigurationError, check_fields

__all__ = [
    "Conv2dSpec",
    "PoolSpec",
    "ModelConfig",
    "default_model_config",
    "model_config_to_dict",
    "model_config_from_dict",
    "canonical_json",
    "config_hash",
    "load_config_file",
    "save_config_file",
    "reject_unknown_keys",
]


@dataclass
class Conv2dSpec:
    out_channels: int
    kernel: Tuple[int, int]
    stride: Tuple[int, int] = (1, 1)
    padding: Tuple[int, int] = (0, 0)

    def __post_init__(self):
        check_fields(self)
        if self.out_channels < 1 or min(self.kernel) < 1 or min(self.stride) < 1:
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
    neighbor_atcn: AtcnConfig
    ego_atcn: AtcnConfig
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


def default_model_config(pad_mode: str = "causal") -> ModelConfig:
    """The published three-lane highway configuration."""
    return ModelConfig(
        neighbor_atcn=AtcnConfig(input_channels=2, channels=(16, 32, 64),
                                 kernel_sizes=(2, 2, 2), dilations=(1, 1, 1),
                                 pad_mode=pad_mode),
        ego_atcn=AtcnConfig(input_channels=2, channels=(8, 16, 32),
                            kernel_sizes=(2, 2, 2), dilations=(1, 1, 1),
                            pad_mode=pad_mode),
    )


# ---------------------------------------------------------------------------
# JSON interchange
# ---------------------------------------------------------------------------

def _atcn_to_dict(cfg: AtcnConfig) -> Dict[str, Any]:
    return {
        "inputChannels": cfg.input_channels,
        "outputFeatures": list(cfg.channels),
        "kernelSizes": list(cfg.kernel_sizes),
        "dilationRates": list(cfg.dilations),
        "padMode": cfg.pad_mode,
        "bottleneckDivisor": cfg.bottleneck_divisor,
        "activation": cfg.activation,
        "batchNorm": cfg.use_batch_norm,
        "bnMomentum": cfg.bn_momentum,
        "bnEpsilon": cfg.bn_epsilon,
    }


def _atcn_from_dict(d: Dict[str, Any]) -> AtcnConfig:
    try:
        return AtcnConfig(
            input_channels=d["inputChannels"],
            channels=d["outputFeatures"],
            kernel_sizes=d["kernelSizes"],
            dilations=d["dilationRates"],
            pad_mode=d.get("padMode", "causal"),
            bottleneck_divisor=d.get("bottleneckDivisor", 2),
            activation=d.get("activation", "swish"),
            use_batch_norm=d.get("batchNorm", True),
            bn_momentum=d.get("bnMomentum", 0.1),
            bn_epsilon=d.get("bnEpsilon", 1e-5),
        )
    except KeyError as missing:
        raise ConfigurationError(f"encoder config missing field {missing}") from None


def _conv2d_to_dict(spec: Conv2dSpec) -> Dict[str, Any]:
    return {"outChannels": spec.out_channels, "kernel": list(spec.kernel),
            "stride": list(spec.stride), "padding": list(spec.padding)}


def _conv2d_from_dict(d: Dict[str, Any]) -> Conv2dSpec:
    return Conv2dSpec(out_channels=d["outChannels"], kernel=d["kernel"],
                      stride=d.get("stride", (1, 1)), padding=d.get("padding", (0, 0)))


def model_config_to_dict(cfg: ModelConfig) -> Dict[str, Any]:
    return {
        "neighborAtcn": _atcn_to_dict(cfg.neighbor_atcn),
        "egoAtcn": _atcn_to_dict(cfg.ego_atcn),
        "gridRows": cfg.grid_rows,
        "gridCols": cfg.grid_cols,
        "cellLength": cfg.cell_length,
        "socialConv1": _conv2d_to_dict(cfg.social_conv1),
        "socialConv2": _conv2d_to_dict(cfg.social_conv2),
        "socialPool": {"window": list(cfg.social_pool.window),
                       "stride": list(cfg.social_pool.stride),
                       "padding": list(cfg.social_pool.padding)},
        "egoDenseOut": cfg.ego_dense_out,
        "decoderInitHidden": cfg.decoder_init_hidden,
        "decoderHidden": cfg.decoder_hidden,
        "horizonSteps": cfg.horizon_steps,
        "historySteps": cfg.history_steps,
        "outputDim": cfg.output_dim,
        "autoregressive": cfg.autoregressive,
        "dtype": cfg.dtype,
    }


def reject_unknown_keys(d: Dict[str, Any], known, where: str) -> None:
    """Raise when ``d`` has a key outside ``known``, so a typo cannot pass
    silently as a default."""
    unknown = sorted(set(d) - set(known))
    if unknown:
        raise ConfigurationError(f"unknown {where} settings: {unknown}")


def model_config_from_dict(d: Dict[str, Any]) -> ModelConfig:
    """Build a config from its JSON form; unknown keys at any level are errors."""
    base = default_model_config()
    known = model_config_to_dict(base)
    try:
        reject_unknown_keys(d, known, "model")
        for section in ("neighborAtcn", "egoAtcn", "socialConv1", "socialConv2",
                        "socialPool"):
            if section in d:
                reject_unknown_keys(d[section], known[section], section)
        pool = d.get("socialPool")
        return ModelConfig(
            neighbor_atcn=_atcn_from_dict(d["neighborAtcn"]) if "neighborAtcn" in d
            else base.neighbor_atcn,
            ego_atcn=_atcn_from_dict(d["egoAtcn"]) if "egoAtcn" in d else base.ego_atcn,
            grid_rows=d.get("gridRows", base.grid_rows),
            grid_cols=d.get("gridCols", base.grid_cols),
            cell_length=d.get("cellLength", base.cell_length),
            social_conv1=_conv2d_from_dict(d["socialConv1"]) if "socialConv1" in d
            else base.social_conv1,
            social_conv2=_conv2d_from_dict(d["socialConv2"]) if "socialConv2" in d
            else base.social_conv2,
            social_pool=PoolSpec(pool["window"], pool["stride"], pool.get("padding", (0, 0)))
            if pool else base.social_pool,
            ego_dense_out=d.get("egoDenseOut", base.ego_dense_out),
            decoder_init_hidden=d.get("decoderInitHidden", base.decoder_init_hidden),
            decoder_hidden=d.get("decoderHidden", base.decoder_hidden),
            horizon_steps=d.get("horizonSteps", base.horizon_steps),
            history_steps=d.get("historySteps", base.history_steps),
            output_dim=d.get("outputDim", base.output_dim),
            autoregressive=d.get("autoregressive", False),
            dtype=d.get("dtype", "float64"),
        )
    except (TypeError, ValueError, KeyError) as err:
        raise ConfigurationError(f"bad model config: {err}") from err


def canonical_json(payload: Dict[str, Any]) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def config_hash(cfg: ModelConfig) -> str:
    """sha256 hex digest over the canonical config serialization."""
    return hashlib.sha256(canonical_json(model_config_to_dict(cfg)).encode()).hexdigest()


def load_config_file(path) -> Tuple[ModelConfig, Dict[str, Any]]:
    """Read a config file; returns (model config, trainer overrides).

    Model fields sit at the top level; the optional "train" object carries
    trainer settings and never enters the config hash.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as err:
        raise ConfigurationError(f"cannot read config {path}: {err}") from err
    except json.JSONDecodeError as err:
        raise ConfigurationError(f"config {path} is not valid JSON: {err}") from err
    if not isinstance(raw, dict):
        raise ConfigurationError(f"config {path} must contain a JSON object")
    train = raw.pop("train", {})
    if not isinstance(train, dict):
        raise ConfigurationError("the train section must be an object")
    return model_config_from_dict(raw), train


def save_config_file(path, cfg: ModelConfig,
                     train: Optional[Dict[str, Any]] = None) -> None:
    payload = model_config_to_dict(cfg)
    if train:
        payload["train"] = train
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
