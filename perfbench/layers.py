"""Forward and backward time of each named layer at the training batch shape.

The names are the cost model's (``complexity_report``), so time lines up
with multiply-accumulates. Each layer's public op is called on the model's
own weights, with inputs taken from a real training batch run through the
layers before it. Backward starts from the sum of the layer's output, so it
also pays for one ``sum`` node; the layer's own gradients dominate.
"""

from __future__ import annotations

import statistics
import time
from typing import Callable, Dict, List, Tuple

import numpy as np

from deeptrack.complexity import complexity_report
from deeptrack.model import Batch, DeepTrack
from deeptrack.numcore import (
    Tensor, batch_norm, concat, conv2d, dense, dilated_conv1d, lstm_cell, max_pool2d,
    scatter_grid, stack,
)
from deeptrack.numcore.functional import activation_fn

REPEATS = 5

# (inputs as arrays, whether they take gradients, op over leaf tensors)
Layer = Tuple[List[np.ndarray], bool, Callable[..., Tensor]]


def _encoder_layers(prefix: str, encoder, x: np.ndarray,
                    layers: Dict[str, Layer]) -> np.ndarray:
    cfg = encoder.config
    act = activation_fn(cfg.activation)
    for index, unit in enumerate(encoder.units):
        def op(t, unit=unit):
            out = dilated_conv1d(t, unit.kern, cfg.pad_mode)
            if unit.gamma is not None:
                out = batch_norm(out, unit.gamma, unit.beta, unit.stats.copy(), "train",
                                 momentum=cfg.bn_momentum, eps=cfg.bn_epsilon)
            return act(out)
        # the raw tracks take no gradient in training, later activations do
        layers[f"{prefix}.{unit.name}"] = ([x], index > 0, op)
        x = op(Tensor(x)).data
    return x


def build_layers(model: DeepTrack, batch: Batch) -> Dict[str, Layer]:
    """Every named layer with the inputs it sees on ``batch``, in model order."""
    cfg = model.config
    if cfg.autoregressive:
        raise ValueError("the layer table follows the non-autoregressive decoder")
    act = activation_fn(cfg.neighbor_atcn.activation)
    b = batch.size
    layers: Dict[str, Layer] = {}

    nbr = _encoder_layers("neighbor_encoder", model.neighbor_encoder,
                          batch.nbr_tracks, layers)
    ego = _encoder_layers("ego_encoder", model.ego_encoder, batch.ego, layers)

    grid = scatter_grid(Tensor(nbr[..., -1]), batch.nbr_batch, batch.nbr_cells,
                        (b, nbr.shape[1], cfg.grid_rows, cfg.grid_cols)).data
    c1, c2, pool = cfg.social_conv1, cfg.social_conv2, cfg.social_pool

    def conv1(t):
        return act(conv2d(t, model.social_conv1_w, model.social_conv1_b,
                          stride=c1.stride, padding=c1.padding))

    def conv2(t):
        return act(conv2d(t, model.social_conv2_w, model.social_conv2_b,
                          stride=c2.stride, padding=c2.padding))

    def remap(t):
        return act(dense(t, model.ego_remap_w, model.ego_remap_b))

    def fc1(t):
        return act(dense(t, model.init_fc1_w, model.init_fc1_b))

    def fc2(t):
        return dense(t, model.init_fc2_w, model.init_fc2_b)

    hidden, steps = cfg.decoder_hidden, cfg.horizon_steps

    def decoder(h, c):
        quiet = Tensor(np.zeros((h.shape[0], cfg.output_dim), dtype=h.data.dtype))
        hs = []
        for _ in range(steps):
            h, c = lstm_cell(quiet, h, c, model.decoder)
            hs.append(h)
        return stack(hs, axis=1)

    def head(t):
        return dense(t, model.head_w, model.head_b)

    v1 = conv1(Tensor(grid)).data
    v2 = conv2(Tensor(v1)).data
    social = max_pool2d(Tensor(v2), pool.window, stride=pool.stride,
                        padding=pool.padding).data.reshape(b, -1)
    ego_feat = ego[..., -1]
    mapped = remap(Tensor(ego_feat)).data
    context = concat([Tensor(social), Tensor(mapped)], axis=1).data
    z1 = fc1(Tensor(context)).data
    z2 = fc2(Tensor(z1)).data
    hs = decoder(Tensor(z2[:, :hidden]), Tensor(z2[:, hidden:])).data

    layers["social.conv1"] = ([grid], True, conv1)
    layers["social.conv2"] = ([v1], True, conv2)
    layers["ego_remap"] = ([ego_feat], True, remap)
    layers["decoder_init.fc1"] = ([context], True, fc1)
    layers["decoder_init.fc2"] = ([z1], True, fc2)
    layers["decoder"] = ([z2[:, :hidden], z2[:, hidden:]], True, decoder)
    layers["head"] = ([hs.reshape(b * steps, hidden)], True, head)
    return layers


def cost_model_names(model: DeepTrack) -> List[str]:
    return [layer.name for layer in complexity_report(model.config).layers]


def time_layers(model: DeepTrack, batch: Batch,
                repeats: int = REPEATS) -> Dict[str, Dict[str, float]]:
    """Median forward and backward microseconds and forward MMAC/s per layer."""
    macs = {layer.name: layer.macs for layer in complexity_report(model.config).layers}
    neighbors, samples = batch.nbr_tracks.shape[0], batch.size
    table: Dict[str, Dict[str, float]] = {}
    for name, (inputs, grad, op) in build_layers(model, batch).items():
        fwd: List[float] = []
        bwd: List[float] = []
        for _ in range(repeats + 1):  # the first call warms caches and is dropped
            leaves = [Tensor(a, requires_grad=grad) for a in inputs]
            model.zero_grad()
            start = time.perf_counter()
            out = op(*leaves)
            middle = time.perf_counter()
            out.sum().backward()
            end = time.perf_counter()
            fwd.append(middle - start)
            bwd.append(end - middle)
        fwd_s, bwd_s = statistics.median(fwd[1:]), statistics.median(bwd[1:])
        # the cost model counts one sample with one neighbor
        per_batch = macs[name] * (neighbors if name.startswith("neighbor_encoder.")
                                  else samples)
        table[name] = {"fwd_us": fwd_s * 1e6, "bwd_us": bwd_s * 1e6,
                       "mmacs_per_s": per_batch / fwd_s / 1e6}
    model.zero_grad()
    return table
