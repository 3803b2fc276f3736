"""Temporal convolutional encoders for trajectory sequences.

An encoder is a stack of length-preserving blocks over channels-last
sequences, ``[B, T, C]`` or one ``[T, C]``, the layout its units run in, so
no axis is swapped anywhere; ``summary`` reads the newest row of the output.
The first block is a standard dilated convolution
(input channel counts are tiny, so factorization buys nothing there); every
later block is a depthwise-separable bottleneck:

    pointwise C_in -> B, BN, act
    depthwise k, d over B channels, BN, act
    pointwise B -> C_out, BN, act

with B = max(1, C_in // bottleneck_divisor). Batch normalization and the
activation follow every convolution; each such unit is one graph node,
``conv_unit``, which in eval mode folds the running statistics into the
convolution on every call. A convolution followed by batch norm has no
bias, since the normalization would cancel it; with batch norm off each
convolution has one. The factorized blocks cost well under half the
multiply-accumulates of a standard convolution with the same in/out widths
whenever the divisor is at least 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from .numcore import (
    ConfigurationError,
    Kernel1D,
    RunningStats,
    Tensor,
    check_fields,
    conv_unit,
)
from .numcore.functional import PAD_MODES, activation_fn, pad_sides

__all__ = ["AtcnConfig", "AtcnEncoder", "receptive_field"]


@dataclass
class AtcnConfig:
    """Architecture of one temporal encoder stack; three fields keep the JSON
    keys of the published configs."""
    input_channels: int
    channels: Tuple[int, ...] = field(metadata={"json": "outputFeatures"})
    kernel_sizes: Tuple[int, ...]
    dilations: Tuple[int, ...] = field(metadata={"json": "dilationRates"})
    pad_mode: str = "causal"
    bottleneck_divisor: int = 2
    activation: str = "swish"
    use_batch_norm: bool = field(default=True, metadata={"json": "batchNorm"})
    bn_momentum: float = 0.1
    bn_epsilon: float = 1e-5

    def __post_init__(self):
        check_fields(self)
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
        if self.pad_mode not in PAD_MODES:
            raise ConfigurationError(f"unknown pad_mode {self.pad_mode!r}")
        if self.bottleneck_divisor < 1:
            raise ConfigurationError("bottleneck_divisor must be >= 1")
        if not 0.0 <= self.bn_momentum <= 1.0:
            raise ConfigurationError(f"bn_momentum must be in [0, 1], got {self.bn_momentum}")
        if self.bn_epsilon < 0.0:
            raise ConfigurationError(f"bn_epsilon must be >= 0, got {self.bn_epsilon}")
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
                 k: int, dilation: int, groups: int, dtype, bias: bool) -> Kernel1D:
    bound = 1.0 / math.sqrt(c_in_per_group * k)
    w = rng.uniform(-bound, bound, size=(c_out, c_in_per_group, k)).astype(dtype)
    # drawn even when unused, so every later draw, and every other weight, stays put
    b = Tensor(rng.uniform(-bound, bound, size=c_out).astype(dtype), requires_grad=True)
    return Kernel1D(Tensor(w, requires_grad=True), b if bias else None,
                    dilation=dilation, groups=groups)


class _ConvUnit:
    """One convolution plus its optional batch norm and activation, run as
    one :func:`conv_unit` node."""

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
        return conv_unit(x, self.kern, self.gamma, self.beta, self.stats, mode,
                         cfg.activation, cfg.pad_mode, cfg.bn_momentum, cfg.bn_epsilon)

    def parameters(self) -> Dict[str, Tensor]:
        """This unit's tensors by suffix: ``w``, then ``bn.gamma`` and ``bn.beta``, or ``b``."""
        if self.gamma is None:
            return {"w": self.kern.weights, "b": self.kern.bias}
        return {"w": self.kern.weights, "bn.gamma": self.gamma, "bn.beta": self.beta}


class AtcnEncoder:
    """Stack of temporal blocks mapping ``[B, T, C_in]`` to ``[B, T, C_last]``."""

    def __init__(self, config: AtcnConfig, rng: np.random.Generator,
                 dtype=np.float64):
        self.config = config
        self.units: List[_ConvUnit] = []
        c_in = config.input_channels
        bias = not config.use_batch_norm
        for j, c_out in enumerate(config.channels):
            k, d = config.kernel_sizes[j], config.dilations[j]
            if j == 0:
                kern = _init_kernel(rng, c_out, c_in, k, d, 1, dtype, bias)
                self.units.append(_ConvUnit(f"block{j}.conv", kern, config, dtype))
            else:
                mid = config.mid_channels_of(j)
                pw_in = _init_kernel(rng, mid, c_in, 1, 1, 1, dtype, bias)
                dw = _init_kernel(rng, mid, 1, k, d, mid, dtype, bias)
                pw_out = _init_kernel(rng, c_out, mid, 1, 1, 1, dtype, bias)
                self.units.append(_ConvUnit(f"block{j}.pw_in", pw_in, config, dtype))
                self.units.append(_ConvUnit(f"block{j}.dw", dw, config, dtype))
                self.units.append(_ConvUnit(f"block{j}.pw_out", pw_out, config, dtype))
            c_in = c_out
        self.out_channels = c_in

    def forward(self, x: Tensor, mode: str = "eval") -> Tensor:
        """Encode ``[B, T, C_in]`` sequences (or one ``[T, C_in]``) into
        ``[B, T, C_last]``; length is preserved through every block."""
        if x.data.ndim not in (2, 3) or x.data.shape[-1] != self.config.input_channels:
            raise ConfigurationError(
                f"encoder expects {self.config.input_channels} input channels, "
                f"got shape {x.shape}")
        for unit in self.units:
            x = unit(x, mode)
        return x

    def summary(self, x: Tensor, mode: str = "eval") -> Tensor:
        """Encode and keep the newest step: ``[B, T, C] -> [B, C_last]``.

        An eval-mode summary reads only the last ``1 + sum(left padding)``
        steps, the only ones the newest output depends on, since the right
        padding lies past the newest step: ``receptive_field(config)`` steps
        in causal mode, fewer in symmetric mode. Train mode, whose batch
        statistics span all T steps, runs every step. The summary owns its
        memory.
        """
        if mode == "eval" and x.data.ndim > 1:  # forward rejects other shapes
            cfg = self.config
            window = 1 + sum(pad_sides((k - 1) * d, cfg.pad_mode)[0]
                             for k, d in zip(cfg.kernel_sizes, cfg.dilations))
            x = x[..., -window:, :]
        last = self.forward(x, mode)[..., -1, :]
        last.data = last.data.copy()  # a view would keep every step's output alive
        return last

    def parameters(self) -> Dict[str, Tensor]:
        return {f"{unit.name}.{suffix}": t for unit in self.units
                for suffix, t in unit.parameters().items()}

    def buffers(self) -> Dict[str, np.ndarray]:
        """The running statistics' own arrays as ``{unit}.bn.mean`` and
        ``{unit}.bn.var``; writing into them changes the encoder."""
        return {f"{unit.name}.bn.{key}": arr
                for unit in self.units if unit.stats is not None
                for key, arr in (("mean", unit.stats.mean), ("var", unit.stats.var))}
