"""Temporal convolutional encoders for trajectory sequences.

An encoder is a stack of length-preserving blocks over ``[C, T]`` sequences.
The first block is a standard dilated convolution (input channel counts are
tiny, so factorization buys nothing there); every later block is a
depthwise-separable bottleneck:

    pointwise C_in -> B, BN, act
    depthwise k, d over B channels, BN, act
    pointwise B -> C_out, BN, act

with B = max(1, C_in // bottleneck_divisor). Batch normalization and the
activation follow every convolution. The factorized blocks cost well under
half the multiply-accumulates of a standard convolution with the same
in/out widths whenever the divisor is at least 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .numcore import (
    ConfigurationError,
    Kernel1D,
    RunningStats,
    Tensor,
    batch_norm,
    dilated_conv1d,
)
from .numcore.functional import activation_fn

__all__ = ["AtcnConfig", "AtcnEncoder", "receptive_field"]


@dataclass
class AtcnConfig:
    """Architecture of one temporal encoder stack."""
    input_channels: int
    channels: Tuple[int, ...]
    kernel_sizes: Tuple[int, ...]
    dilations: Tuple[int, ...]
    pad_mode: str = "causal"
    bottleneck_divisor: int = 2
    activation: str = "swish"
    use_batch_norm: bool = True
    bn_momentum: float = 0.1
    bn_epsilon: float = 1e-5

    def __post_init__(self):
        self.channels = tuple(int(c) for c in self.channels)
        self.kernel_sizes = tuple(int(k) for k in self.kernel_sizes)
        self.dilations = tuple(int(d) for d in self.dilations)
        n = len(self.channels)
        if n == 0:
            raise ConfigurationError("encoder needs at least one block")
        if len(self.kernel_sizes) != n or len(self.dilations) != n:
            raise ConfigurationError(
                f"channels/kernel_sizes/dilations lengths differ: "
                f"{n}/{len(self.kernel_sizes)}/{len(self.dilations)}")
        if self.input_channels < 1 or min(self.channels) < 1:
            raise ConfigurationError("channel counts must be positive")
        if min(self.kernel_sizes) < 1 or min(self.dilations) < 1:
            raise ConfigurationError("kernel sizes and dilations must be >= 1")
        if self.pad_mode not in ("causal", "symmetric"):
            raise ConfigurationError(f"unknown pad_mode {self.pad_mode!r}")
        if self.bottleneck_divisor < 1:
            raise ConfigurationError("bottleneck_divisor must be >= 1")
        activation_fn(self.activation)  # validates the name

    @property
    def depth(self) -> int:
        return len(self.channels)

    def in_channels_of(self, block: int) -> int:
        return self.input_channels if block == 0 else self.channels[block - 1]

    def mid_channels_of(self, block: int) -> int:
        """Bottleneck width of a separable block."""
        return max(1, self.in_channels_of(block) // self.bottleneck_divisor)


def receptive_field(config: AtcnConfig) -> int:
    """Steps of history influencing one output step: 1 + sum((k-1)*d).

    Only the temporal convolutions widen the window; pointwise layers in
    separable blocks contribute nothing.
    """
    return 1 + sum((k - 1) * d
                   for k, d in zip(config.kernel_sizes, config.dilations))


def _init_kernel(rng: np.random.Generator, c_out: int, c_in_per_group: int,
                 k: int, dilation: int, groups: int, dtype) -> Kernel1D:
    bound = 1.0 / math.sqrt(c_in_per_group * k)
    w = rng.uniform(-bound, bound, size=(c_out, c_in_per_group, k)).astype(dtype)
    b = rng.uniform(-bound, bound, size=c_out).astype(dtype)
    return Kernel1D(Tensor(w, requires_grad=True), Tensor(b, requires_grad=True),
                    dilation=dilation, groups=groups)


class _ConvUnit:
    """One convolution plus its optional batch norm and activation."""

    def __init__(self, name: str, kern: Kernel1D, cfg: AtcnConfig, dtype):
        self.name = name
        self.kern = kern
        self.gamma: Optional[Tensor] = None
        self.beta: Optional[Tensor] = None
        self.stats: Optional[RunningStats] = None
        if cfg.use_batch_norm:
            c = kern.out_channels
            self.gamma = Tensor(np.ones(c, dtype=dtype), requires_grad=True)
            self.beta = Tensor(np.zeros(c, dtype=dtype), requires_grad=True)
            self.stats = RunningStats.fresh(c, dtype=dtype)
        self._cfg = cfg

    def __call__(self, x: Tensor, mode: str) -> Tensor:
        cfg = self._cfg
        out = dilated_conv1d(x, self.kern, cfg.pad_mode)
        if self.gamma is not None:
            out = batch_norm(out, self.gamma, self.beta, self.stats, mode,
                             momentum=cfg.bn_momentum, eps=cfg.bn_epsilon)
        return activation_fn(cfg.activation)(out)

    def parameters(self) -> Dict[str, Tensor]:
        out = {f"{self.name}.w": self.kern.weights, f"{self.name}.b": self.kern.bias}
        if self.gamma is not None:
            out[f"{self.name}.bn.gamma"] = self.gamma
            out[f"{self.name}.bn.beta"] = self.beta
        return out

    def buffers(self) -> Dict[str, np.ndarray]:
        if self.stats is None:
            return {}
        return {f"{self.name}.bn.mean": self.stats.mean,
                f"{self.name}.bn.var": self.stats.var}

    def load_buffers(self, values: Dict[str, np.ndarray]) -> None:
        if self.stats is not None:
            self.stats.mean = values[f"{self.name}.bn.mean"].astype(self.stats.mean.dtype)
            self.stats.var = values[f"{self.name}.bn.var"].astype(self.stats.var.dtype)


class AtcnEncoder:
    """Stack of temporal blocks mapping ``[B, C_in, T]`` to ``[B, C_last, T]``."""

    def __init__(self, config: AtcnConfig, rng: np.random.Generator,
                 dtype=np.float64):
        self.config = config
        self.units: List[_ConvUnit] = []
        c_in = config.input_channels
        for j, c_out in enumerate(config.channels):
            k, d = config.kernel_sizes[j], config.dilations[j]
            if j == 0:
                kern = _init_kernel(rng, c_out, c_in, k, d, 1, dtype)
                self.units.append(_ConvUnit(f"block{j}.conv", kern, config, dtype))
            else:
                mid = config.mid_channels_of(j)
                pw_in = _init_kernel(rng, mid, c_in, 1, 1, 1, dtype)
                dw = _init_kernel(rng, mid, 1, k, d, mid, dtype)
                pw_out = _init_kernel(rng, c_out, mid, 1, 1, 1, dtype)
                self.units.append(_ConvUnit(f"block{j}.pw_in", pw_in, config, dtype))
                self.units.append(_ConvUnit(f"block{j}.dw", dw, config, dtype))
                self.units.append(_ConvUnit(f"block{j}.pw_out", pw_out, config, dtype))
            c_in = c_out
        self.out_channels = c_in

    def forward(self, x: Tensor, mode: str = "eval") -> Tensor:
        """Encode sequences; length is preserved through every block."""
        if x.data.shape[-2] != self.config.input_channels:
            raise ConfigurationError(
                f"encoder expects {self.config.input_channels} input channels, "
                f"got shape {x.shape}")
        out = x
        for unit in self.units:
            out = unit(out, mode)
        return out

    def summary(self, x: Tensor, mode: str = "eval") -> Tensor:
        """Encode and keep the newest step: ``[B, C, T] -> [B, C]``."""
        encoded = self.forward(x, mode)
        return encoded[..., -1]

    def parameters(self) -> Dict[str, Tensor]:
        out: Dict[str, Tensor] = {}
        for unit in self.units:
            out.update(unit.parameters())
        return out

    def buffers(self) -> Dict[str, np.ndarray]:
        out: Dict[str, np.ndarray] = {}
        for unit in self.units:
            out.update(unit.buffers())
        return out

    def load_buffers(self, values: Dict[str, np.ndarray]) -> None:
        for unit in self.units:
            unit.load_buffers(values)
