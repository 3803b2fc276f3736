"""Shared test oracles: naive convolution loops, finite-difference checks,
and a small model configuration reused across suites.

The oracles are written independently of the library internals on purpose;
they only consume public signatures and raw numpy arrays.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, Iterable, Mapping

import numpy as np

from deeptrack.atcn import AtcnConfig
from deeptrack.configio import Conv2dSpec, ModelConfig, PoolSpec
from deeptrack.ingest import NeighborTrack, TrajectorySample, WindowConfig
from deeptrack.numcore import Tensor


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


def tiny_window_config(**overrides) -> WindowConfig:
    """Window geometry matching :func:`tiny_model_config`."""
    base = dict(history_frames=10, future_frames=6, grid_rows=5, grid_cols=3)
    base.update(overrides)
    return WindowConfig(**base)


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
                    out[n, o, i, j] = np.sum(patch * w[o]) + (0.0 if b is None else b[o])
    return out


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
