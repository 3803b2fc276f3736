"""Parameter and multiply-accumulate accounting, read off the model itself.

``complexity_report`` builds the configured ``DeepTrack`` and walks its
layer table, the same table that names checkpoint entries. One rule covers
every layer, the one MobileNets uses for depthwise-separable networks
(Howard et al., 2017, arXiv:1704.04861):

* params: the elements of every tensor the layer holds;
* MACs: the elements of every weight with two or more dimensions, plus two
  per batch-norm channel (its scale and shift), times the positions one
  sample applies the layer at: T x neighbors for the neighbor encoder, T for
  the ego encoder, the output cells for a grid convolution,
  ``horizon_steps`` for the decoder and the head, and 1 otherwise. Biases
  and max pooling are free.
* bn_state: the running means and variances, which are state, not
  parameters, and never enter the headline totals.

The decoder's ``w_ih`` counts even though the non-autoregressive decoder
runs without input, as the published reference counts it. Encoder MACs are
counted over all T history steps, as the paper reports them; a causal
eval-mode summary runs only the last ``receptive_field`` steps, so it does
fewer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List

from .configio import ModelConfig
from .model import DeepTrack
from .numcore import ConfigurationError

__all__ = [
    "LayerCost",
    "ComplexityReport",
    "complexity_report",
    "REFERENCE_PARAMS",
    "REFERENCE_MACS",
]

# published cost of the default three-lane configuration; the defaults are
# calibrated to land within a few percent of these
REFERENCE_PARAMS = 171_703
REFERENCE_MACS = 1_667_425


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


def complexity_report(config: ModelConfig, neighbors: int = 1) -> ComplexityReport:
    """Cost of every layer of the model's layer table for one forward pass
    over a sample of ``config.history_steps`` steps.

    ``neighbors`` is the number of occupied grid cells assumed per sample,
    each one run of the neighbor encoder; an integer >= 0, else a
    ``ConfigurationError``.
    """
    if isinstance(neighbors, bool) or not isinstance(neighbors, int) or neighbors < 0:
        raise ConfigurationError(f"neighbors must be an integer >= 0, got {neighbors!r}")
    model = DeepTrack(config)
    t, geo = config.history_steps, model.geometry
    applications = {"neighbor_encoder": t * neighbors, "ego_encoder": t,
                    "social.conv1": math.prod(geo.conv1_hw),
                    "social.conv2": math.prod(geo.conv2_hw),
                    "decoder": config.horizon_steps, "head": config.horizon_steps}
    layers = []
    for name, tensors in model.layers.items():
        per_sample = applications.get(name, applications.get(name.split(".")[0], 1))
        weights = sum(p.data.size for suffix, p in tensors.items()
                      if p.data.ndim >= 2 or suffix.startswith("bn."))
        layers.append(LayerCost(name, sum(p.data.size for p in tensors.values()),
                                weights * per_sample))
    return ComplexityReport(layers=layers,
                            bn_state=sum(b.size for b in model.buffers().values()))
