"""Parameter and multiply-accumulate accounting.

Counting conventions:

* conv1d: params C_out*(C_in/groups)*k + C_out; MACs T*k*(C_in/groups)*C_out
* conv2d: params C_out*C_in*kh*kw + C_out; MACs Hout*Wout*kh*kw*C_in*C_out
* dense:  params in*out + out; MACs in*out
* LSTM:   params 4*((in+h)*h + h); MACs steps*4*(in+h)*h
* batch norm: 2C learnable parameters, eval-mode MACs 2*C*T; the running
  mean/var (another 2C per layer) are state, not parameters, and are
  reported separately, never in the headline totals.
* max pooling: free.

The layer walk below mirrors the model constructor line by line; a unit
test pins the parameter total to the actual tensor sizes. Encoder MACs are
counted over all T history steps, as the paper reports them; a causal
eval-mode summary runs only the last ``receptive_field`` steps, so it does
fewer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from .atcn import AtcnConfig
from .configio import ModelConfig
from .model import social_geometry
from .numcore import ConfigurationError

__all__ = [
    "SampleShape",
    "LayerCost",
    "ComplexityReport",
    "complexity_report",
    "count_params",
    "count_macs",
    "conv1d_cost",
    "conv2d_cost",
    "dense_cost",
    "lstm_cost",
    "batch_norm_cost",
    "REFERENCE_PARAMS",
    "REFERENCE_MACS",
]

# published cost of the default three-lane configuration; the defaults are
# calibrated to land within a few percent of these
REFERENCE_PARAMS = 171_703
REFERENCE_MACS = 1_667_425


def conv1d_cost(c_in: int, c_out: int, k: int, groups: int, t: int) -> Tuple[int, int]:
    params = c_out * (c_in // groups) * k + c_out
    macs = t * k * (c_in // groups) * c_out
    return params, macs


def conv2d_cost(c_in: int, c_out: int, kh: int, kw: int,
                h_out: int, w_out: int) -> Tuple[int, int]:
    params = c_out * c_in * kh * kw + c_out
    macs = h_out * w_out * kh * kw * c_in * c_out
    return params, macs


def dense_cost(fan_in: int, fan_out: int) -> Tuple[int, int]:
    return fan_in * fan_out + fan_out, fan_in * fan_out


def lstm_cost(fan_in: int, hidden: int, steps: int) -> Tuple[int, int]:
    params = 4 * ((fan_in + hidden) * hidden + hidden)
    macs = steps * 4 * (fan_in + hidden) * hidden
    return params, macs


def batch_norm_cost(channels: int, t: int) -> Tuple[int, int]:
    return 2 * channels, 2 * channels * t


@dataclass
class SampleShape:
    """Input extent used for MAC counting."""
    history_steps: int = 16
    neighbor_count: int = 1

    def __post_init__(self):
        if self.history_steps < 1 or self.neighbor_count < 0:
            raise ConfigurationError(f"need history_steps >= 1 and neighbor_count >= 0: {self}")


@dataclass
class LayerCost:
    name: str
    params: int
    macs: int


@dataclass
class ComplexityReport:
    layers: List[LayerCost]
    bn_state: int  # running-statistic scalars, excluded from params

    @property
    def total_params(self) -> int:
        return sum(l.params for l in self.layers)

    @property
    def total_macs(self) -> int:
        return sum(l.macs for l in self.layers)

    @property
    def deviation_params(self) -> float:
        return (self.total_params - REFERENCE_PARAMS) / REFERENCE_PARAMS

    @property
    def deviation_macs(self) -> float:
        return (self.total_macs - REFERENCE_MACS) / REFERENCE_MACS

    def to_text(self) -> str:
        width = max(len(l.name) for l in self.layers) + 2
        lines = [f"{'layer':<{width}}{'params':>12}{'macs':>14}"]
        for l in self.layers:
            lines.append(f"{l.name:<{width}}{l.params:>12,}{l.macs:>14,}")
        lines.append(f"{'total':<{width}}{self.total_params:>12,}{self.total_macs:>14,}")
        lines.append(f"{'reference':<{width}}{REFERENCE_PARAMS:>12,}{REFERENCE_MACS:>14,}")
        lines.append(f"{'deviation':<{width}}{self.deviation_params:>+12.2%}"
                     f"{self.deviation_macs:>+14.2%}")
        lines.append(f"{'bn running state':<{width}}{self.bn_state:>12,}"
                     f"{'(state, not params)':>20}")
        return "\n".join(lines) + "\n"


def _walk_encoder(prefix: str, cfg: AtcnConfig, t: int, multiplier: int,
                  layers: List[LayerCost]) -> int:
    """Append one encoder's conv and BN costs; returns BN state count."""
    state = 0

    def push(name: str, c_in: int, c_out: int, k: int, groups: int) -> None:
        nonlocal state
        p, m = conv1d_cost(c_in, c_out, k, groups, t)
        if cfg.use_batch_norm:
            bp, bm = batch_norm_cost(c_out, t)
            p, m = p + bp, m + bm
            state += 2 * c_out
        layers.append(LayerCost(f"{prefix}.{name}", p, m * multiplier))

    c_in = cfg.input_channels
    for j, c_out in enumerate(cfg.channels):
        k = cfg.kernel_sizes[j]
        if j == 0:
            push(f"block{j}.conv", c_in, c_out, k, 1)
        else:
            mid = cfg.mid_channels_of(j)
            push(f"block{j}.pw_in", c_in, mid, 1, 1)
            push(f"block{j}.dw", mid, mid, k, mid)
            push(f"block{j}.pw_out", mid, c_out, 1, 1)
        c_in = c_out
    return state


def complexity_report(config: ModelConfig,
                      shape: Optional[SampleShape] = None) -> ComplexityReport:
    """Cost of every layer for one forward pass over ``shape``."""
    shape = shape or SampleShape(history_steps=config.history_steps)
    t = shape.history_steps
    layers: List[LayerCost] = []
    bn_state = 0
    bn_state += _walk_encoder("neighbor_encoder", config.neighbor_atcn, t,
                              shape.neighbor_count, layers)
    bn_state += _walk_encoder("ego_encoder", config.ego_atcn, t, 1, layers)

    geo = social_geometry(config)
    nbr_c = config.neighbor_atcn.channels[-1]
    c1, c2 = config.social_conv1, config.social_conv2
    p, m = conv2d_cost(nbr_c, c1.out_channels, *c1.kernel, *geo.conv1_hw)
    layers.append(LayerCost("social.conv1", p, m))
    p, m = conv2d_cost(c1.out_channels, c2.out_channels, *c2.kernel, *geo.conv2_hw)
    layers.append(LayerCost("social.conv2", p, m))

    ego_c = config.ego_atcn.channels[-1]
    p, m = dense_cost(ego_c, config.ego_dense_out)
    layers.append(LayerCost("ego_remap", p, m))

    ctx = geo.flat + config.ego_dense_out
    p, m = dense_cost(ctx, config.decoder_init_hidden)
    layers.append(LayerCost("decoder_init.fc1", p, m))
    p, m = dense_cost(config.decoder_init_hidden, 2 * config.decoder_hidden)
    layers.append(LayerCost("decoder_init.fc2", p, m))

    p, m = lstm_cost(config.output_dim, config.decoder_hidden, config.horizon_steps)
    layers.append(LayerCost("decoder", p, m))

    p, m = dense_cost(config.decoder_hidden, config.output_dim)
    layers.append(LayerCost("head", p, m * config.horizon_steps))

    return ComplexityReport(layers=layers, bn_state=bn_state)


def count_params(config: ModelConfig) -> int:
    """Learnable parameters of the configured model."""
    return complexity_report(config).total_params


def count_macs(config: ModelConfig, shape: Optional[SampleShape] = None) -> int:
    """Multiply-accumulates for one eval-mode forward pass over ``shape``."""
    return complexity_report(config, shape).total_macs
