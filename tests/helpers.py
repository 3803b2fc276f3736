"""Shared test oracles: naive convolution, pooling and batch-norm loops, a
unit and an encoder run as a chain of conv, batch-norm and activation ops,
an LSTM step composed from public ops, an unroll chained from LSTM cells, a
symmetric padding probe, per-layer cost formulas, finite-difference
checks, a graph-node count, a corrupt-file probe, a track-table builder,
the point-by-point windowing loop, the per-neighbor collate loop, a sample
with one neighbor row changed, a small model configuration reused across
suites, and seeded random model configurations.

The oracles are written independently of the library internals on purpose;
they only consume public signatures and raw numpy arrays.
"""

from __future__ import annotations

import dataclasses
import math
from collections import defaultdict
from typing import Callable, Dict, Iterable, List, Mapping, NamedTuple, Optional, Tuple

import numpy as np

from deeptrack.atcn import AtcnConfig
from deeptrack.configio import Conv2dSpec, ModelConfig, PoolSpec
from deeptrack.model import social_geometry
from deeptrack.ingest import (
    NeighborTrack, TrackTable, TrajectorySample, WindowConfig, WindowStats,
)
from deeptrack.numcore import (
    ConfigurationError, Kernel1D, Tensor, batch_norm, dense, dilated_conv1d, lstm_cell,
    sigmoid, stack, tanh,
)
from deeptrack.numcore.functional import activation_fn


def tiny_model_config(**overrides) -> ModelConfig:
    """A miniature full architecture: cheap enough for finite differences."""
    base = dict(
        neighbor_atcn=AtcnConfig(2, (3, 4), (2, 2), (1, 1)),
        ego_atcn=AtcnConfig(2, (2, 3), (2, 2), (1, 1)),
        grid_rows=5, grid_cols=3,
        social_conv1=Conv2dSpec(4, (3, 3)),
        social_conv2=Conv2dSpec(3, (3, 1)),
        social_pool=PoolSpec((2, 1), (2, 1), (1, 0)),
        ego_dense_out=3, decoder_init_hidden=5, decoder_hidden=4,
        horizon_steps=3, history_steps=6,
    )
    base.update(overrides)
    return ModelConfig(**base)


def symmetric_model_config() -> ModelConfig:
    """The default model with both encoders padded symmetrically."""
    cfg = ModelConfig()
    return dataclasses.replace(
        cfg, neighbor_atcn=dataclasses.replace(cfg.neighbor_atcn, pad_mode="symmetric"),
        ego_atcn=dataclasses.replace(cfg.ego_atcn, pad_mode="symmetric"))


def tiny_window_config(**overrides) -> WindowConfig:
    """Window geometry matching :func:`tiny_model_config`."""
    base = dict(history_frames=10, future_frames=6, grid_rows=5, grid_cols=3)
    base.update(overrides)
    return WindowConfig(**base)


def _random_atcn(rng) -> AtcnConfig:
    depth = int(rng.integers(1, 5))
    return AtcnConfig(
        input_channels=int(rng.integers(1, 4)),
        channels=tuple(int(c) for c in rng.integers(1, 40, size=depth)),
        kernel_sizes=tuple(int(k) for k in rng.integers(1, 5, size=depth)),
        dilations=tuple(int(d) for d in rng.integers(1, 4, size=depth)),
        pad_mode=str(rng.choice(["causal", "symmetric"])),
        bottleneck_divisor=int(rng.integers(1, 5)),
        use_batch_norm=bool(rng.random() < 0.5))


def random_model_config(rng) -> ModelConfig:
    """A model config with every cost-relevant setting drawn at random; the
    draw repeats until the grid survives the convolutions and the pool."""
    def pair(lo, hi):
        return tuple(int(v) for v in rng.integers(lo, hi, size=2))

    while True:
        window = pair(1, 3)
        cfg = ModelConfig(
            neighbor_atcn=_random_atcn(rng), ego_atcn=_random_atcn(rng),
            grid_rows=int(rng.integers(3, 16)), grid_cols=int(rng.integers(1, 6)),
            social_conv1=Conv2dSpec(int(rng.integers(1, 40)), pair(1, 4), pair(1, 3),
                                    pair(0, 2)),
            social_conv2=Conv2dSpec(int(rng.integers(1, 20)), pair(1, 4), pair(1, 3),
                                    pair(0, 2)),
            social_pool=PoolSpec(window, pair(1, 3),
                                 tuple(int(rng.integers(0, w)) for w in window)),
            ego_dense_out=int(rng.integers(1, 40)),
            decoder_init_hidden=int(rng.integers(1, 40)),
            decoder_hidden=int(rng.integers(1, 40)),
            horizon_steps=int(rng.integers(1, 30)), output_dim=int(rng.integers(1, 4)),
            autoregressive=bool(rng.random() < 0.5))
        try:
            social_geometry(cfg)
        except ConfigurationError:
            continue
        return cfg


def random_sample(cfg: ModelConfig, rng, vid=1, n_in_grid=2, n_outside=0,
                  t0_frame=30) -> TrajectorySample:
    """A noise sample with the requested neighbor mix, cells all distinct."""
    h, f = cfg.history_steps, cfg.horizon_steps
    hist = rng.normal(size=(h, 2))
    hist[-1] = 0.0
    neighbors = []
    cells = [(r, c) for r in range(cfg.grid_rows) for c in range(cfg.grid_cols)]
    rng.shuffle(cells)
    for i in range(n_in_grid):
        neighbors.append(NeighborTrack(100 + i, tuple(cells[i]),
                                       rng.normal(size=(h, 2)),
                                       np.ones(h, dtype=bool)))
    for i in range(n_outside):
        neighbors.append(NeighborTrack(200 + i, None, rng.normal(size=(h, 2)),
                                       np.ones(h, dtype=bool)))
    return TrajectorySample("t", vid, t0_frame, hist, rng.normal(size=(f, 2)),
                            neighbors)


def replace_neighbor(sample: TrajectorySample, j: int, **changes) -> TrajectorySample:
    """``sample`` with the fields ``changes`` of its neighbor row ``j``
    replaced, built anew from its rows as a caller would."""
    rows = list(sample.neighbors)
    rows[j] = dataclasses.replace(rows[j], **changes)
    return dataclasses.replace(sample, neighbors=rows)


class ChannelsFirstBatch(NamedTuple):
    """Batch arrays in the layout ``collate`` once returned: histories
    channels-first, ``ego`` C-contiguous and ``nbr_tracks`` a transposed
    view of stacked ``[K, H, 2]`` rows."""
    ego: np.ndarray         # [B, 2, H]
    future: np.ndarray      # [B, F, 2]
    nbr_tracks: np.ndarray  # [K, 2, H]
    nbr_batch: np.ndarray   # [K]
    nbr_cells: np.ndarray   # [K, 2]


def reference_collate(samples, config: ModelConfig) -> ChannelsFirstBatch:
    """The collate oracle: batch arrays stacked neighbor by neighbor, out-of-
    grid rows skipped, as ``collate`` did before it read table columns, in
    the channels-first layout it then returned."""
    if not samples:
        raise ConfigurationError("cannot collate an empty batch")
    dtype = np.float64 if config.dtype == "float64" else np.float32
    h, f = config.history_steps, config.horizon_steps
    ego = np.zeros((len(samples), 2, h), dtype=dtype)
    future = np.zeros((len(samples), f, 2), dtype=dtype)
    tracks: List[np.ndarray] = []
    owners: List[int] = []
    cells: List[Tuple[int, int]] = []
    for i, s in enumerate(samples):
        if s.ego_history.shape != (h, 2) or s.future.shape != (f, 2):
            raise ConfigurationError(
                f"sample {s.sample_id} has shapes {s.ego_history.shape}/{s.future.shape}, "
                f"expected ({h}, 2)/({f}, 2)")
        ego[i] = s.ego_history.T
        future[i] = s.future
        for n in s.neighbors:
            if n.cell is None:
                continue
            if not (0 <= n.cell[0] < config.grid_rows
                    and 0 <= n.cell[1] < config.grid_cols):
                raise ConfigurationError(
                    f"sample {s.sample_id}: neighbor cell {n.cell} outside the grid")
            if n.track.shape != (h, 2):
                raise ConfigurationError(
                    f"sample {s.sample_id}: neighbor {n.vehicle_id} track has shape "
                    f"{n.track.shape}, expected ({h}, 2)")
            tracks.append(n.track)
            owners.append(i)
            cells.append(n.cell)
    nbr_tracks = (np.stack(tracks).transpose(0, 2, 1).astype(dtype) if tracks
                  else np.zeros((0, 2, h), dtype=dtype))
    return ChannelsFirstBatch(ego=ego, future=future, nbr_tracks=nbr_tracks,
                              nbr_batch=np.asarray(owners, dtype=np.int64),
                              nbr_cells=(np.asarray(cells, dtype=np.int64)
                                         if cells else np.zeros((0, 2), dtype=np.int64)))


def naive_dilated_conv1d(x: np.ndarray, w: np.ndarray, b: np.ndarray,
                         dilation: int, groups: int = 1) -> np.ndarray:
    """Triple-loop causal dilated convolution, out-of-range history = 0.

    out[o, s] = b[o] + sum_i sum_c w[o, c, i] * x[cin(o, c), s - i * dilation]
    """
    c_out, cg, k = w.shape
    c_in, length = x.shape
    og = c_out // groups
    out = np.zeros((c_out, length), dtype=x.dtype)
    for o in range(c_out):
        base = (o // og) * cg
        for s in range(length):
            acc = b[o]
            for i in range(k):
                src = s - i * dilation
                if src < 0:
                    continue
                for c in range(cg):
                    acc += w[o, c, i] * x[base + c, src]
            out[o, s] = acc
    return out


def naive_symmetric_conv1d(x: np.ndarray, w: np.ndarray, b: np.ndarray,
                           dilation: int, groups: int = 1) -> np.ndarray:
    """Same kernel applied after symmetric zero padding, first T outputs kept."""
    c_in, length = x.shape
    k = w.shape[2]
    pad = math.ceil((k - 1) * dilation / 2)
    xp = np.pad(x, ((0, 0), (pad, pad)))
    shifted = naive_dilated_conv1d(xp, w, b, dilation, groups)
    # the causal loop pins tap 0 at the current step; position s of the
    # cropped symmetric output reads the padded window ending at s + span
    span = (k - 1) * dilation
    return shifted[:, span:span + length]


def symmetric_left_padding(k: int, d: int) -> int:
    """Zeros ``dilated_conv1d`` puts left of a sequence in symmetric mode,
    probed: with all-one taps, an impulse at step 0 reaches no output step
    beyond the left padding."""
    x = np.zeros((1, (k - 1) * d + 1))
    x[0, 0] = 1.0
    out = dilated_conv1d(Tensor(x), Kernel1D(Tensor(np.ones((1, 1, k))), None, dilation=d),
                         "symmetric")
    return int(np.flatnonzero(out.data[0])[-1])


def naive_conv2d(x: np.ndarray, w: np.ndarray, b, stride, padding) -> np.ndarray:
    """Loop-per-output cross-correlation of ``[B, C, H, W]`` with zero padding.

    out[n, o, i, j] = b[o] + sum(xp[n, :, i*sh : i*sh + kh, j*sw : j*sw + kw] * w[o])
    """
    (sh, sw), (ph, pw) = stride, padding
    batch = x.shape[0]
    c_out, _, kh, kw = w.shape
    xp = np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw)))
    h_out = (xp.shape[2] - kh) // sh + 1
    w_out = (xp.shape[3] - kw) // sw + 1
    out = np.zeros((batch, c_out, h_out, w_out), dtype=x.dtype)
    for n in range(batch):
        for o in range(c_out):
            for i in range(h_out):
                for j in range(w_out):
                    patch = xp[n, :, i * sh:i * sh + kh, j * sw:j * sw + kw]
                    out[n, o, i, j] = np.sum(patch * w[o]) + b[o]
    return out


def naive_max_pool2d(x: np.ndarray, window, stride, padding, upstream: np.ndarray):
    """Loop-per-window max pooling of ``[B, C, H, W]`` and its gradient.

    Padding cells never win; among equal values the first in row-major
    window order does. Returns ``(out, grad)`` with grad the gradient of
    ``sum(out * upstream)``: each window adds its upstream value at its
    first maximum, so overlapping windows sum.
    """
    (wh, ww), (sh, sw), (ph, pw) = window, stride, padding
    batch, chans, height, width = x.shape
    h_out = (height + 2 * ph - wh) // sh + 1
    w_out = (width + 2 * pw - ww) // sw + 1
    out = np.zeros((batch, chans, h_out, w_out), dtype=x.dtype)
    grad = np.zeros_like(x)
    for n, c, i, j in np.ndindex(batch, chans, h_out, w_out):
        best = None
        for di in range(wh):
            for dj in range(ww):
                r, q = i * sh + di - ph, j * sw + dj - pw
                if 0 <= r < height and 0 <= q < width and (
                        best is None or x[n, c, r, q] > x[n, c, best[0], best[1]]):
                    best = (r, q)
        out[n, c, i, j] = x[n, c, best[0], best[1]]
        grad[n, c, best[0], best[1]] += upstream[n, c, i, j]
    return out, grad


def naive_batch_norm(x: np.ndarray, gamma: np.ndarray, beta: np.ndarray,
                     mean: np.ndarray, var: np.ndarray, mode: str,
                     momentum: float = 0.1, eps: float = 1e-5):
    """Per-channel batch norm with an explicit loop over channels.

    The channel axis is 0 for ``[C, T]`` and 1 otherwise. Returns
    ``(out, new_mean, new_var)``; eval mode returns the statistics unchanged,
    train mode folds the population statistics of the batch into them.
    """
    axis = 0 if x.ndim == 2 else 1
    xc = np.moveaxis(x, axis, 0)
    out = np.empty_like(xc)
    new_mean, new_var = mean.copy(), var.copy()
    for c in range(xc.shape[0]):
        values = xc[c]
        if mode == "train":
            mu = values.sum() / values.size
            sigma2 = ((values - mu) ** 2).sum() / values.size
            new_mean[c] = (1.0 - momentum) * mean[c] + momentum * mu
            new_var[c] = (1.0 - momentum) * var[c] + momentum * sigma2
        else:
            mu, sigma2 = mean[c], var[c]
        out[c] = gamma[c] * (values - mu) / math.sqrt(sigma2 + eps) + beta[c]
    return np.moveaxis(out, 0, axis), new_mean, new_var


def chained_unit(x: Tensor, kern: Kernel1D, gamma, beta, stats, mode: str, activation: str,
                 pad_mode: str, momentum: float, eps: float) -> Tensor:
    """``conv_unit`` on the channels-first ``x`` as three graph nodes:
    ``dilated_conv1d``, ``batch_norm`` (when ``gamma`` is given) and the
    activation op. Train mode moves ``stats`` as the unit does."""
    out = dilated_conv1d(x, kern, pad_mode)
    if gamma is not None:
        out = batch_norm(out, gamma, beta, stats, mode, momentum=momentum, eps=eps)
    return activation_fn(activation)(out)


def chained_encoder_forward(encoder, x: Tensor, mode: str) -> Tensor:
    """``encoder.forward`` with every unit run as :func:`chained_unit`, on
    the channels-first layout of those ops: ``[B, C, T]`` in and out."""
    cfg = encoder.config
    out = x
    for unit in encoder.units:
        out = chained_unit(out, unit.kern, unit.gamma, unit.beta, unit.stats, mode,
                           cfg.activation, cfg.pad_mode, cfg.bn_momentum, cfg.bn_epsilon)
    return out


def composed_lstm_cell(x_t, h_prev, c_prev, weights):
    """One LSTM step built from public ops, gate order (input, forget, cell,
    output): a graph of about fourteen nodes."""
    h = weights.hidden
    zero = Tensor(np.zeros(4 * h, dtype=weights.bias.data.dtype))
    gates = dense(x_t, weights.w_ih, weights.bias) + dense(h_prev, weights.w_hh, zero)
    i = sigmoid(gates[:, 0 * h:1 * h])
    f = sigmoid(gates[:, 1 * h:2 * h])
    g = tanh(gates[:, 2 * h:3 * h])
    o = sigmoid(gates[:, 3 * h:4 * h])
    c_t = f * c_prev + i * g
    return o * tanh(c_t), c_t


def chained_lstm_cells(h0, c0, weights, steps):
    """``lstm_unroll`` as a chain of ``steps`` ``lstm_cell`` calls on a zero
    input, hidden states stacked to ``[B, steps, h]``: a graph of about three
    nodes a step. The zero input gives ``w_ih`` an all-zero gradient where
    the unroll leaves it out."""
    zero = Tensor(np.zeros((h0.shape[0], weights.input_size), dtype=h0.data.dtype))
    h, c, hs = h0, c0, []
    for _ in range(steps):
        h, c = lstm_cell(zero, h, c, weights)
        hs.append(h)
    return stack(hs, axis=1)


# -- cost formulas, one per layer kind, written out by hand -----------------

def conv1d_cost(c_in: int, c_out: int, k: int, groups: int, t: int,
                bias: bool) -> Tuple[int, int]:
    """(params, MACs) of a temporal convolution over ``t`` steps."""
    params = c_out * (c_in // groups) * k + (c_out if bias else 0)
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
    """Learnable scale and shift; eval-mode MACs 2 per channel per step."""
    return 2 * channels, 2 * channels * t


def formula_costs(config: ModelConfig, history_steps: int,
                  neighbor_count: int) -> Tuple[List[Tuple[str, int, int]], int]:
    """Every layer's (name, params, MACs) and the batch-norm state count,
    walked from the config with the formulas above, not from a model."""
    t = history_steps
    layers: List[Tuple[str, int, int]] = []
    bn_state = 0
    for prefix, cfg, times in (("neighbor_encoder", config.neighbor_atcn, neighbor_count),
                               ("ego_encoder", config.ego_atcn, 1)):
        units = []
        for j, c_out in enumerate(cfg.channels):
            c_in, k = cfg.in_channels_of(j), cfg.kernel_sizes[j]
            if j == 0:
                units.append((f"block{j}.conv", c_in, c_out, k, 1))
            else:
                mid = cfg.mid_channels_of(j)
                units += [(f"block{j}.pw_in", c_in, mid, 1, 1),
                          (f"block{j}.dw", mid, mid, k, mid),
                          (f"block{j}.pw_out", mid, c_out, 1, 1)]
        for name, c_in, c_out, k, groups in units:
            # batch norm's shift takes the place of the convolution's bias
            p, m = conv1d_cost(c_in, c_out, k, groups, t, bias=not cfg.use_batch_norm)
            if cfg.use_batch_norm:
                bp, bm = batch_norm_cost(c_out, t)
                p, m = p + bp, m + bm
                bn_state += 2 * c_out
            layers.append((f"{prefix}.{name}", p, m * times))
    geo = social_geometry(config)
    c1, c2 = config.social_conv1, config.social_conv2
    hidden = config.decoder_hidden
    layers += [
        ("social.conv1", *conv2d_cost(config.neighbor_atcn.channels[-1], c1.out_channels,
                                      *c1.kernel, *geo.conv1_hw)),
        ("social.conv2", *conv2d_cost(c1.out_channels, c2.out_channels,
                                      *c2.kernel, *geo.conv2_hw)),
        ("ego_remap", *dense_cost(config.ego_atcn.channels[-1], config.ego_dense_out)),
        ("decoder_init.fc1", *dense_cost(geo.flat + config.ego_dense_out,
                                         config.decoder_init_hidden)),
        ("decoder_init.fc2", *dense_cost(config.decoder_init_hidden, 2 * hidden)),
        ("decoder", *lstm_cost(config.output_dim, hidden, config.horizon_steps)),
    ]
    p, m = dense_cost(hidden, config.output_dim)
    layers.append(("head", p, m * config.horizon_steps))
    return layers, bn_state


def graph_nodes(*roots) -> int:
    """Tensors reachable from ``roots`` through ``_parents``, roots included."""
    seen = {id(root) for root in roots}
    todo = list(roots)
    while todo:
        for parent in todo.pop()._parents:
            if id(parent) not in seen:
                seen.add(id(parent))
                todo.append(parent)
    return len(seen)


def numerical_gradient(fn: Callable[[], float], arr: np.ndarray,
                       step: float = 1e-5) -> np.ndarray:
    """Central finite differences of a scalar function w.r.t. ``arr`` in place."""
    grad = np.zeros_like(arr, dtype=np.float64)
    flat = arr.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        keep = flat[i]
        flat[i] = keep + step
        hi = fn()
        flat[i] = keep - step
        lo = fn()
        flat[i] = keep
        gflat[i] = (hi - lo) / (2.0 * step)
    return grad


def max_relative_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    """max |a - n| / max(1, |a|, |n|), elementwise."""
    a = np.asarray(analytic, dtype=np.float64)
    n = np.asarray(numeric, dtype=np.float64)
    denom = np.maximum(1.0, np.maximum(np.abs(a), np.abs(n)))
    return float(np.max(np.abs(a - n) / denom)) if a.size else 0.0


def check_gradients(build_loss: Callable[[], Tensor],
                    tensors: Mapping[str, Tensor],
                    step: float = 1e-5, tol: float = 1e-6) -> Dict[str, float]:
    """Compare backward() gradients of ``build_loss`` against finite differences.

    build_loss must re-run the forward pass from the live ``tensors`` each
    call. Returns the max relative error per tensor and asserts the bound.
    """
    loss = build_loss()
    for t in tensors.values():
        t.zero_grad()
    loss = build_loss()
    loss.backward()
    analytic = {name: (t.grad if t.grad is not None else np.zeros_like(t.data)).copy()
                for name, t in tensors.items()}

    errors: Dict[str, float] = {}
    for name, t in tensors.items():
        numeric = numerical_gradient(lambda: build_loss().item(), t.data, step)
        err = max_relative_error(analytic[name], numeric)
        errors[name] = err
        assert err < tol, f"gradient mismatch for {name}: rel err {err:.3e} >= {tol}"
    return errors


def loads_or_rejects(load: Callable, blob: bytes, path) -> bool:
    """Write ``blob`` to ``path`` and read it back with ``load``.

    True if it loads, False if ``load`` raises ConfigurationError; any other
    exception propagates and fails the calling test.
    """
    with open(path, "wb") as fh:
        fh.write(blob)
    try:
        load(path)
    except ConfigurationError:
        return False
    return True


def track_table(rows: Iterable[Tuple[int, int, float, float, int]]) -> TrackTable:
    """A :class:`TrackTable` of ``(vehicle, frame, x, y, lane)`` rows, x and y
    in meters, given in any order."""
    columns = list(zip(*rows))
    return TrackTable(*(columns or [()] * 5))


class _Point(NamedTuple):
    """One row of a track table, as the windowing oracle walks it."""
    vehicle_id: int
    frame_id: int
    x: float
    y: float
    lane_id: int


def _scalar_grid_cell(ego: _Point, neighbor: _Point,
                      config: WindowConfig) -> Optional[Tuple[int, int]]:
    """Cell of ``neighbor`` in the ego-centered grid, or None when outside."""
    col = neighbor.lane_id - ego.lane_id + config.grid_cols // 2
    row = math.floor((neighbor.y - ego.y) / config.cell_length) + config.grid_rows // 2
    if 0 <= row < config.grid_rows and 0 <= col < config.grid_cols:
        return (row, col)
    return None


def _resolve_occupancy(ego: _Point, neighbors: List[_Point],
                       config: WindowConfig,
                       stats: WindowStats) -> Dict[int, Optional[Tuple[int, int]]]:
    """Assign cells, demoting all but the closest claimant of each cell."""
    order = sorted(neighbors, key=lambda p: (abs(p.y - ego.y), p.vehicle_id))
    taken: set = set()
    cells: Dict[int, Optional[Tuple[int, int]]] = {}
    for nbr in order:
        cell = _scalar_grid_cell(ego, nbr, config)
        if cell is not None and cell in taken:
            stats.grid_collisions += 1
            cell = None
        if cell is not None:
            taken.add(cell)
        cells[nbr.vehicle_id] = cell
    return cells


def reference_window_samples(tracks: TrackTable, config: WindowConfig,
                             dataset_id: str = "") -> Tuple[List[TrajectorySample],
                                                            WindowStats]:
    """The windowing oracle: ``window_samples`` as a point-by-point walk over
    per-vehicle and per-frame dicts of the table's rows."""
    by_vehicle: Dict[int, Dict[int, _Point]] = defaultdict(dict)
    at_frame: Dict[int, List[_Point]] = defaultdict(list)
    for p in map(_Point, tracks.vehicle_id.tolist(), tracks.frame_id.tolist(),
                 tracks.x.tolist(), tracks.y.tolist(), tracks.lane_id.tolist()):
        by_vehicle[p.vehicle_id][p.frame_id] = p
        at_frame[p.frame_id].append(p)

    stats = WindowStats()
    samples: List[TrajectorySample] = []
    for vid in sorted(by_vehicle):
        frames = by_vehicle[vid]
        eligible = [t0 for t0 in sorted(frames)
                    if all(t in frames
                           for t in range(t0 - config.history_frames,
                                          t0 + config.future_frames + 1))]
        had_any = False
        for idx, t0 in enumerate(eligible):
            if idx % config.stride:
                continue
            ego0 = frames[t0]
            hist_frames = range(t0 - config.history_frames, t0 + 1, config.sample_every)
            fut_frames = range(t0 + config.sample_every,
                               t0 + config.future_frames + 1, config.sample_every)
            ego_history = np.array([[frames[t].x - ego0.x, frames[t].y - ego0.y]
                                    for t in hist_frames])
            future = np.array([[frames[t].x - ego0.x, frames[t].y - ego0.y]
                               for t in fut_frames])

            nbr_points = [p for p in at_frame[t0] if p.vehicle_id != vid]
            cells = _resolve_occupancy(ego0, nbr_points, config, stats)
            neighbors: List[NeighborTrack] = []
            for nbr in sorted(nbr_points, key=lambda p: p.vehicle_id):
                nbr_frames = by_vehicle[nbr.vehicle_id]
                track = np.zeros((config.history_points, 2))
                valid = np.zeros(config.history_points, dtype=bool)
                for i, t in enumerate(hist_frames):
                    q = nbr_frames.get(t)
                    if q is not None:
                        track[i] = (q.x - ego0.x, q.y - ego0.y)
                        valid[i] = True
                cell = cells[nbr.vehicle_id]
                if cell is None:
                    stats.neighbors_outside += 1
                else:
                    stats.neighbors_in_grid += 1
                neighbors.append(NeighborTrack(nbr.vehicle_id, cell, track, valid))

            samples.append(TrajectorySample(
                dataset_id=dataset_id, vehicle_id=vid, t0_frame=t0,
                ego_history=ego_history, future=future, neighbors=neighbors))
            had_any = True
        if had_any:
            stats.vehicles_with_samples += 1
    stats.samples = len(samples)
    return samples, stats
