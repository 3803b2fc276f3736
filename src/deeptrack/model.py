"""The trajectory predictor: encoders, social grid, recurrent decoder.

Forward pass over one batch:

1. A shared temporal encoder summarizes each neighbor history, read in the
   channels-last ``[K, H, 2]`` layout the samples store and its units run
   in, each of its convolution, batch-norm and activation units one graph
   node (``conv_unit``); summaries land in an ego-centered occupancy grid
   ``[B, C, rows, cols]`` (empty cells stay zero).
2. Two grid convolutions and a max-pool compress the grid into a flat
   social feature; a second encoder plus a dense remap summarizes the ego
   history to the same width.
3. Their concatenation seeds the LSTM decoder state through a two-layer
   MLP. The decoder unrolls ``horizon_steps`` times without input as one
   graph node (``lstm_unroll``, working in buffers allocated once per
   call), or one ``lstm_cell`` node per step on its own output (zeros
   before the first) when configured autoregressive; one shared dense head
   maps each hidden state to an (x, y) offset. A default train step is 92
   graph nodes.

All outputs are meters relative to the ego position at the anchor frame.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .atcn import AtcnEncoder
from .configio import ModelConfig, config_hash
from .ingest.windows import TrajectorySample
from .numcore import (
    ConfigurationError,
    LstmWeights,
    Tensor,
    concat,
    conv2d,
    dense,
    lstm_cell,
    lstm_unroll,
    max_pool2d,
    scatter_grid,
    stack,
)
from .numcore.functional import activation_fn
from .numcore.tensor import no_grad

__all__ = ["Batch", "collate", "DeepTrack", "SocialGeometry", "social_geometry"]


@dataclass
class Batch:
    """Collated arrays for one forward pass; neighbor rows are flattened
    across the batch and indexed back by ``nbr_batch``. Histories are
    C-contiguous and channels-last, the layout the encoders take."""
    ego_history: np.ndarray  # [B, H, 2]
    future: np.ndarray       # [B, F, 2]
    nbr_history: np.ndarray  # [K, H, 2] in-grid neighbors only
    nbr_batch: np.ndarray    # [K] owning sample index
    nbr_cells: np.ndarray    # [K, 2] grid (row, col)

    @property
    def size(self) -> int:
        return self.ego_history.shape[0]

    @property
    def ego(self) -> np.ndarray:
        """``ego_history`` as a channels-first view, ``[B, 2, H]``. Kept only
        while perfbench's layer table, which feeds the channels-first layer
        ops, reads it; nothing in the package does."""
        return self.ego_history.transpose(0, 2, 1)

    @property
    def nbr_tracks(self) -> np.ndarray:
        """``nbr_history`` as a channels-first view, ``[K, 2, H]``; kept, like
        :attr:`ego`, only for perfbench's layer table."""
        return self.nbr_history.transpose(0, 2, 1)


def collate(samples: Sequence[TrajectorySample], config: ModelConfig) -> Batch:
    """Stack samples into batch arrays, dropping out-of-grid neighbors.

    The samples' neighbor columns are concatenated in sample order, and one
    boolean mask over their cells keeps the in-grid rows; no neighbor row
    object is built. A sample whose ego, future or neighbor tracks are not
    the configured lengths, or that holds a cell beyond the configured
    grid, raises ConfigurationError naming it.
    """
    if not samples:
        raise ConfigurationError("cannot collate an empty batch")
    dtype = np.float64 if config.dtype == "float64" else np.float32
    h, f = config.history_steps, config.horizon_steps
    ego = np.zeros((len(samples), h, 2), dtype=dtype)
    future = np.zeros((len(samples), f, 2), dtype=dtype)
    for i, s in enumerate(samples):
        if s.ego_history.shape != (h, 2) or s.future.shape != (f, 2):
            raise ConfigurationError(
                f"sample {s.sample_id} has shapes {s.ego_history.shape}/{s.future.shape}, "
                f"expected ({h}, 2)/({f}, 2)")
        if s.neighbors.track.shape[1:] != (h, 2):
            raise ConfigurationError(
                f"sample {s.sample_id}: neighbor track has shape "
                f"{s.neighbors.track.shape[1:]}, expected ({h}, 2)")
        ego[i] = s.ego_history
        future[i] = s.future
    tables = [s.neighbors for s in samples]
    cells = np.concatenate([t.cell for t in tables])
    inside = cells[:, 0] >= 0
    owners = np.repeat(np.arange(len(samples)), [len(t) for t in tables])[inside]
    cells = cells[inside].astype(np.int64)
    beyond = np.flatnonzero(((cells < 0) | (cells >= (config.grid_rows, config.grid_cols)))
                            .any(axis=1))
    if beyond.size:
        j = beyond[0]
        raise ConfigurationError(f"sample {samples[owners[j]].sample_id}: neighbor cell "
                                 f"{tuple(cells[j].tolist())} outside the grid")
    tracks = np.concatenate([t.track for t in tables])[inside]
    return Batch(ego_history=ego, future=future, nbr_history=tracks.astype(dtype, copy=False),
                 nbr_batch=owners, nbr_cells=cells)


# ---------------------------------------------------------------------------
# derived geometry
# ---------------------------------------------------------------------------

def _conv_out(size: int, k: int, stride: int, pad: int) -> int:
    out = (size + 2 * pad - k) // stride + 1
    if out < 1:
        raise ConfigurationError(
            f"spatial size collapsed: in {size}, kernel {k}, stride {stride}, pad {pad}")
    return out


@dataclass
class SocialGeometry:
    """Spatial sizes along the grid compression chain."""
    conv1_hw: Tuple[int, int]
    conv2_hw: Tuple[int, int]
    pool_hw: Tuple[int, int]
    flat: int


def social_geometry(config: ModelConfig) -> SocialGeometry:
    c1, c2, pool = config.social_conv1, config.social_conv2, config.social_pool
    h1 = _conv_out(config.grid_rows, c1.kernel[0], c1.stride[0], c1.padding[0])
    w1 = _conv_out(config.grid_cols, c1.kernel[1], c1.stride[1], c1.padding[1])
    h2 = _conv_out(h1, c2.kernel[0], c2.stride[0], c2.padding[0])
    w2 = _conv_out(w1, c2.kernel[1], c2.stride[1], c2.padding[1])
    hp = _conv_out(h2, pool.window[0], pool.stride[0], pool.padding[0])
    wp = _conv_out(w2, pool.window[1], pool.stride[1], pool.padding[1])
    return SocialGeometry((h1, w1), (h2, w2), (hp, wp),
                          flat=c2.out_channels * hp * wp)


# ---------------------------------------------------------------------------
# the model
# ---------------------------------------------------------------------------

def _uniform(rng, bound: float, shape, dtype) -> np.ndarray:
    return rng.uniform(-bound, bound, size=shape).astype(dtype)


@contextmanager
def _drawing(layer: str):
    """Report a size numpy cannot draw weights of (too large to index,
    to convert or to allocate) as a configuration error naming ``layer``."""
    try:
        yield
    except (ValueError, OverflowError, MemoryError) as exc:
        raise ConfigurationError(
            f"{layer}: the configured sizes give weights that cannot be drawn ({exc})") from None


class DeepTrack:
    """Interaction-aware trajectory predictor over occupancy grids."""

    def __init__(self, config: Optional[ModelConfig] = None, seed: int = 0):
        self.config = config or ModelConfig()
        cfg = self.config
        self.dtype = np.float64 if cfg.dtype == "float64" else np.float32
        rng = np.random.default_rng(np.random.PCG64(seed))

        with _drawing("neighbor_encoder"):
            self.neighbor_encoder = AtcnEncoder(cfg.neighbor_atcn, rng, self.dtype)
        with _drawing("ego_encoder"):
            self.ego_encoder = AtcnEncoder(cfg.ego_atcn, rng, self.dtype)
        self.geometry = social_geometry(cfg)

        nbr_c = self.neighbor_encoder.out_channels
        ego_c = self.ego_encoder.out_channels
        ctx = self.geometry.flat + cfg.ego_dense_out
        hidden = cfg.decoder_hidden

        def weight_and_bias(c_out: int, *fan_in):
            """Fan-in and tensor shapes of a dense (``fan_in`` = width) or
            conv2d (``c_in, kh, kw``) layer."""
            return math.prod(fan_in), {"w": (c_out, *fan_in), "b": (c_out,)}

        # One ordered table of every layer's tensors, in construction (and so
        # seeding) order; checkpoint names, Adam's order and the cost model
        # all read it. Each layer after the encoders draws its tensors'
        # shapes uniformly within 1 / sqrt(fan_in).
        c1, c2 = cfg.social_conv1, cfg.social_conv2
        self.layers: Dict[str, Dict[str, Tensor]] = {
            f"{prefix}.{unit.name}": unit.parameters()
            for prefix, enc in (("neighbor_encoder", self.neighbor_encoder),
                                ("ego_encoder", self.ego_encoder))
            for unit in enc.units}
        shapes = {
            "social.conv1": weight_and_bias(c1.out_channels, nbr_c, *c1.kernel),
            "social.conv2": weight_and_bias(c2.out_channels, c1.out_channels, *c2.kernel),
            "ego_remap": weight_and_bias(cfg.ego_dense_out, ego_c),
            "decoder_init.fc1": weight_and_bias(cfg.decoder_init_hidden, ctx),
            "decoder_init.fc2": weight_and_bias(2 * hidden, cfg.decoder_init_hidden),
            "decoder": (hidden, {"w_ih": (4 * hidden, cfg.output_dim),
                                 "w_hh": (4 * hidden, hidden), "bias": (4 * hidden,)}),
            "head": weight_and_bias(cfg.output_dim, hidden),
        }
        for name, (fan_in, tensors) in shapes.items():
            with _drawing(name):
                bound = 1.0 / math.sqrt(fan_in)
                self.layers[name] = {
                    suffix: Tensor(_uniform(rng, bound, shape, self.dtype), requires_grad=True)
                    for suffix, shape in tensors.items()}
        self.layers["decoder"]["bias"].data[hidden:2 * hidden] += 1.0  # open the forget gate

        # the same tensors under the names forward_batch and perfbench/layers.py use
        self.social_conv1_w, self.social_conv1_b = self.layers["social.conv1"].values()
        self.social_conv2_w, self.social_conv2_b = self.layers["social.conv2"].values()
        self.ego_remap_w, self.ego_remap_b = self.layers["ego_remap"].values()
        self.init_fc1_w, self.init_fc1_b = self.layers["decoder_init.fc1"].values()
        self.init_fc2_w, self.init_fc2_b = self.layers["decoder_init.fc2"].values()
        self.decoder = LstmWeights(**self.layers["decoder"])
        self.head_w, self.head_b = self.layers["head"].values()

    # -- state ------------------------------------------------------------

    @property
    def config_digest(self) -> str:
        return config_hash(self.config)

    def parameters(self) -> Dict[str, Tensor]:
        """Every learnable tensor as ``{layer}.{suffix}``, in table order."""
        return {f"{layer}.{suffix}": t for layer, tensors in self.layers.items()
                for suffix, t in tensors.items()}

    def buffers(self) -> Dict[str, np.ndarray]:
        """Every running statistic's own array as ``{encoder}.{unit}.bn.{mean,var}``."""
        return {f"{prefix}.{name}": arr
                for prefix, enc in (("neighbor_encoder", self.neighbor_encoder),
                                    ("ego_encoder", self.ego_encoder))
                for name, arr in enc.buffers().items()}

    def state_copy(self) -> Tuple[Dict[str, np.ndarray], Dict[str, np.ndarray]]:
        return ({k: t.data.copy() for k, t in self.parameters().items()},
                {k: v.copy() for k, v in self.buffers().items()})

    def load_state(self, params: Dict[str, np.ndarray],
                   buffers: Dict[str, np.ndarray]) -> None:
        """Copy weights and running statistics into this model's own arrays.

        Every name and shape is checked before anything is written, so a
        rejected state leaves the model as it was. A batch-normed unit's
        ``{unit}.b``, which checkpoints from before such units lost their
        conv bias hold, is folded into its running mean as ``mean - b``.
        """
        params, buffers = dict(params), dict(buffers)
        for name, own in self.buffers().items():
            bias = name[:-len("bn.mean")] + "b"
            if name.endswith(".bn.mean") and bias in params \
                    and np.shape(params[bias]) == np.shape(buffers.get(name)) == own.shape:
                buffers[name] = np.asarray(buffers[name]) - params.pop(bias)
        writes = []
        for what, own, given in (
                ("weight", {k: t.data for k, t in self.parameters().items()}, params),
                ("running statistic", self.buffers(), buffers)):
            missing = sorted(set(own) - set(given))
            extra = sorted(set(given) - set(own))
            if missing or extra:
                raise ConfigurationError(
                    f"{what} names do not match the architecture: "
                    f"missing {missing[:3]}, unexpected {extra[:3]}")
            for name, arr in own.items():
                value = np.asarray(given[name])
                if value.shape != arr.shape:
                    raise ConfigurationError(
                        f"{name}: shape {value.shape} does not fit {arr.shape}")
                writes.append((arr, value))
        for arr, value in writes:
            arr[...] = value

    def zero_grad(self) -> None:
        for tensors in self.layers.values():
            for t in tensors.values():
                t.zero_grad()

    # -- forward ----------------------------------------------------------

    def forward_batch(self, batch: Batch, mode: str = "eval") -> Tensor:
        """Predict ``[B, horizon, 2]`` offsets for a collated batch."""
        cfg = self.config
        act = activation_fn(cfg.neighbor_atcn.activation)
        b = batch.size
        nbr_c = self.neighbor_encoder.out_channels

        # one name down the grid chain: without a graph, the neighbor
        # summaries and each grid are freed as soon as the next layer has
        # read them, so a large frame's temporaries stay few
        if batch.nbr_history.shape[0]:
            v = scatter_grid(self.neighbor_encoder.summary(Tensor(batch.nbr_history), mode),
                             batch.nbr_batch, batch.nbr_cells,
                             (b, nbr_c, cfg.grid_rows, cfg.grid_cols))
        else:
            v = Tensor(np.zeros((b, nbr_c, cfg.grid_rows, cfg.grid_cols), dtype=self.dtype))

        c1, c2, pool = cfg.social_conv1, cfg.social_conv2, cfg.social_pool
        v = act(conv2d(v, self.social_conv1_w, self.social_conv1_b,
                       stride=c1.stride, padding=c1.padding))
        v = act(conv2d(v, self.social_conv2_w, self.social_conv2_b,
                       stride=c2.stride, padding=c2.padding))
        v = max_pool2d(v, pool.window, stride=pool.stride, padding=pool.padding)
        social = v.reshape(b, self.geometry.flat)

        ego_feat = self.ego_encoder.summary(Tensor(batch.ego_history), mode)
        ego_mapped = act(dense(ego_feat, self.ego_remap_w, self.ego_remap_b))

        context = concat([social, ego_mapped], axis=1)
        z = act(dense(context, self.init_fc1_w, self.init_fc1_b))
        z = dense(z, self.init_fc2_w, self.init_fc2_b)  # the decoder state (h | c)
        hidden = cfg.decoder_hidden

        if cfg.autoregressive:
            h, c = z[:, :hidden], z[:, hidden:]
            # nothing to feed back before the first step: a zero input
            prev = Tensor(np.zeros((b, cfg.output_dim), dtype=self.dtype))
            steps: List[Tensor] = []
            for _ in range(cfg.horizon_steps):
                h, c = lstm_cell(prev, h, c, self.decoder)
                y = dense(h, self.head_w, self.head_b)
                steps.append(y)
                prev = y
            return stack(steps, axis=1)

        hs = lstm_unroll(z, self.decoder, cfg.horizon_steps)
        out = dense(hs.reshape(b * cfg.horizon_steps, hidden), self.head_w, self.head_b)
        return out.reshape(b, cfg.horizon_steps, cfg.output_dim)

    def forward(self, sample: TrajectorySample, mode: str = "eval") -> Tensor:
        """Predict ``[horizon, 2]`` for one sample.

        No graph is recorded; train mode still moves the batch-norm running
        statistics. Gradients go through :meth:`forward_batch`.
        """
        with no_grad():
            out = self.forward_batch(collate([sample], self.config), mode)
            return out.reshape(self.config.horizon_steps, self.config.output_dim)

    def predict(self, samples: Sequence[TrajectorySample],
                batch_size: int = 256) -> np.ndarray:
        """Eval-mode predictions as a plain ``[N, horizon, 2]`` array.

        No graph is recorded, so each batch's intermediates are freed as the
        forward pass moves on. ``batch_size`` must be at least 1.
        """
        if batch_size < 1:
            raise ConfigurationError(f"predict batch_size must be at least 1, got {batch_size!r}")
        chunks = []
        with no_grad():
            for lo in range(0, len(samples), batch_size):
                batch = collate(samples[lo:lo + batch_size], self.config)
                chunks.append(self.forward_batch(batch, "eval").data)
        return np.concatenate(chunks, axis=0) if chunks else \
            np.zeros((0, self.config.horizon_steps, self.config.output_dim), dtype=self.dtype)
