"""Differentiable neural-network operations.

Sequence layout is channels-first: ``[C, T]`` for a single sequence or
``[B, C, T]`` batched; grids are ``[B, C, H, W]``. Convolution kernels use
lag-major tap order: tap ``i`` of a 1-d kernel multiplies the input
``i * dilation`` steps in the past, so tap 0 is the current step. Padding
is handled inside the conv ops and both modes preserve sequence length:

* ``"causal"``   — ``(k-1)*d`` zeros on the left; output at time t never
  sees input later than t.
* ``"symmetric"`` — ``ceil(((k-1)*(d-1) + k - 1) / 2)`` zeros on each side,
  then the rightmost surplus outputs are dropped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence, Tuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .tensor import ConfigurationError, GraphError, Tensor, as_tensor

__all__ = [
    "Kernel1D",
    "RunningStats",
    "LstmWeights",
    "sigmoid",
    "tanh",
    "swish",
    "relu",
    "dense",
    "dilated_conv1d",
    "conv2d",
    "max_pool2d",
    "batch_norm",
    "lstm_cell",
    "concat",
    "stack",
    "scatter_grid",
    "same_length_padding",
]

PAD_MODES = ("causal", "symmetric")


# ---------------------------------------------------------------------------
# elementwise activations
# ---------------------------------------------------------------------------

def _logistic(v: np.ndarray) -> np.ndarray:
    """``1 / (1 + exp(-v))``. Below v = -709 exp overflows to inf and the
    result saturates at exactly 0, so the overflow warning is noise."""
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-v))


def sigmoid(x: Tensor) -> Tensor:
    x = as_tensor(x)
    s = _logistic(x.data)

    def backward(g):
        x.accumulate_grad(g * s * (1.0 - s))

    return Tensor._node(s, (x,), backward)


def tanh(x: Tensor) -> Tensor:
    x = as_tensor(x)
    t = np.tanh(x.data)

    def backward(g):
        x.accumulate_grad(g * (1.0 - t * t))

    return Tensor._node(t, (x,), backward)


def swish(x: Tensor) -> Tensor:
    """x * sigmoid(x); smooth, non-monotonic, bounded below by about -0.2785."""
    x = as_tensor(x)
    s = _logistic(x.data)
    out = x.data * s

    def backward(g):
        # d/dx x*s(x) = s(x) * (1 + x * (1 - s(x)))
        x.accumulate_grad(g * s * (1.0 + x.data * (1.0 - s)))

    return Tensor._node(out, (x,), backward)


def relu(x: Tensor) -> Tensor:
    x = as_tensor(x)
    mask = x.data > 0

    def backward(g):
        x.accumulate_grad(g * mask)

    return Tensor._node(x.data * mask, (x,), backward)


_ACTIVATIONS = {"swish": swish, "relu": relu, "tanh": tanh, "sigmoid": sigmoid,
                "identity": lambda t: t}


def activation_fn(name: str):
    try:
        return _ACTIVATIONS[name]
    except KeyError:
        raise ConfigurationError(f"unknown activation {name!r}") from None


# ---------------------------------------------------------------------------
# dense
# ---------------------------------------------------------------------------

def dense(x: Tensor, weight: Tensor, bias: Optional[Tensor] = None) -> Tensor:
    """Affine map ``x @ weight.T + bias`` with x ``[B, in]``, weight ``[out, in]``."""
    x, weight = as_tensor(x), as_tensor(weight)
    if x.data.ndim != 2 or weight.data.ndim != 2:
        raise ConfigurationError(
            f"dense expects x [B, in] and weight [out, in], got {x.shape} and {weight.shape}")
    if x.data.shape[1] != weight.data.shape[1]:
        raise ConfigurationError(
            f"dense input width {x.data.shape[1]} does not match weight fan-in {weight.data.shape[1]}")
    out_data = x.data @ weight.data.T
    parents = [x, weight]
    if bias is not None:
        bias = as_tensor(bias)
        if bias.data.shape != (weight.data.shape[0],):
            raise ConfigurationError(
                f"dense bias shape {bias.data.shape} does not match out width {weight.data.shape[0]}")
        out_data = out_data + bias.data
        parents.append(bias)

    def backward(g):
        x.accumulate_grad(g @ weight.data)
        weight.accumulate_grad(g.T @ x.data)
        if bias is not None:
            bias.accumulate_grad(g.sum(axis=0))

    return Tensor._node(out_data, parents, backward)


# ---------------------------------------------------------------------------
# 1-d convolution
# ---------------------------------------------------------------------------

@dataclass
class Kernel1D:
    """Weights of a dilated 1-d convolution.

    weights: Tensor [out_channels, in_channels // groups, k], lag-major taps.
    bias:    Tensor [out_channels].
    """
    weights: Tensor
    bias: Tensor
    dilation: int = 1
    groups: int = 1

    def __post_init__(self):
        self.weights = as_tensor(self.weights)
        self.bias = as_tensor(self.bias)
        if self.weights.data.ndim != 3:
            raise ConfigurationError(
                f"kernel weights must be [out, in/groups, k], got {self.weights.shape}")
        if self.dilation < 1:
            raise ConfigurationError(f"dilation must be >= 1, got {self.dilation}")
        if self.groups < 1:
            raise ConfigurationError(f"groups must be >= 1, got {self.groups}")
        out_ch = self.weights.data.shape[0]
        if out_ch % self.groups:
            raise ConfigurationError(
                f"out channels {out_ch} not divisible by groups {self.groups}")
        if self.bias.data.shape != (out_ch,):
            raise ConfigurationError(
                f"bias shape {self.bias.data.shape} does not match out channels {out_ch}")

    @property
    def out_channels(self) -> int:
        return self.weights.data.shape[0]

    @property
    def in_channels(self) -> int:
        return self.weights.data.shape[1] * self.groups

    @property
    def k(self) -> int:
        return self.weights.data.shape[2]


def same_length_padding(out_len: int, in_len: int, stride: int, k: int, d: int) -> int:
    """Zeros per side so a stride-s dilated conv maps in_len -> out_len.

    ceil(((out_len - 1) * stride + (k - 1) * (d - 1) - in_len + k) / 2),
    clamped at zero. With out_len == in_len and stride 1 the interior is
    (k - 1) * d, so padding covers half the receptive-field overhang and the
    caller crops the surplus output element when the interior is odd.
    """
    interior = (out_len - 1) * stride + (k - 1) * (d - 1) - in_len + k
    return max(0, math.ceil(interior / 2))


def _conv1d_validate(x: Tensor, kern: Kernel1D, pad_mode: str) -> None:
    if pad_mode not in PAD_MODES:
        raise ConfigurationError(f"pad_mode must be one of {PAD_MODES}, got {pad_mode!r}")
    if x.data.ndim not in (2, 3):
        raise ConfigurationError(f"conv input must be [C, T] or [B, C, T], got {x.shape}")
    c_in = x.data.shape[-2]
    if c_in != kern.in_channels:
        raise ConfigurationError(
            f"input has {c_in} channels but kernel expects {kern.in_channels}")


def dilated_conv1d(x: Tensor, kern: Kernel1D, pad_mode: str = "causal") -> Tensor:
    """Length-preserving dilated 1-d convolution.

    Output step s sums ``w[o, c, i] * x[c, s - i*d]`` over taps i and the
    channels of o's group, treating out-of-range history as zero (causal
    mode). Symmetric mode centers the same window and crops the surplus.

    With groups == 1 the convolution runs as one matrix multiply over an
    im2col matrix. Grouped kernels (the depthwise layers) keep a per-tap
    multiply-add, which is faster at their few channels per group.
    """
    x = as_tensor(x)
    _conv1d_validate(x, kern, pad_mode)
    squeeze = x.data.ndim == 2
    xd = x.data[None] if squeeze else x.data

    w, b = kern.weights, kern.bias
    batch, c_in, length = xd.shape
    groups, d, k = kern.groups, kern.dilation, kern.k
    c_out = kern.out_channels
    og, cg = c_out // groups, c_in // groups

    span = (k - 1) * d
    if pad_mode == "causal":
        pad_left, pad_right = span, 0
    else:
        pad_left = pad_right = same_length_padding(length, length, 1, k, d)
    xp = np.pad(xd, ((0, 0), (0, 0), (pad_left, pad_right)))
    if groups == 1:
        return _dense_conv1d(x, kern, xp, length, pad_left, squeeze)

    wg = w.data.reshape(groups, og, cg, k)
    xg = xp.reshape(batch, groups, cg, length + pad_left + pad_right)
    out = np.zeros((batch, groups, og, length), dtype=xd.dtype)
    # tap i reads the window starting span - i*d into the padded sequence
    for i in range(k):
        seg = xg[:, :, :, span - i * d: span - i * d + length]
        out += np.einsum("goc,bgct->bgot", wg[:, :, :, i], seg)
    out = out.reshape(batch, c_out, length) + b.data[None, :, None]

    def backward(g):
        gd = g[None] if squeeze else g
        gg = gd.reshape(batch, groups, og, length)
        gxp = np.zeros_like(xp).reshape(batch, groups, cg, -1)
        gw = np.zeros_like(w.data).reshape(groups, og, cg, k)
        for i in range(k):
            lo = span - i * d
            seg = xg[:, :, :, lo: lo + length]
            gw[:, :, :, i] = np.einsum("bgot,bgct->goc", gg, seg)
            gxp[:, :, :, lo: lo + length] += np.einsum("goc,bgot->bgct", wg[:, :, :, i], gg)
        gx = gxp.reshape(batch, c_in, -1)[:, :, pad_left: pad_left + length]
        x.accumulate_grad(gx[0] if squeeze else gx)
        w.accumulate_grad(gw.reshape(w.data.shape))
        b.accumulate_grad(gd.sum(axis=(0, 2)))

    out_t = Tensor._node(out[0] if squeeze else out, (x, w, b), backward)
    return out_t


def _dense_conv1d(x: Tensor, kern: Kernel1D, xp: np.ndarray, length: int,
                  pad_left: int, squeeze: bool) -> Tensor:
    """The groups == 1 case of :func:`dilated_conv1d` as one GEMM (im2col).

    Row ``(b, t)`` of the column matrix holds ``xp[b, c, t + span - i*d]``
    in ``(c, i)`` order, which is the order of ``weights.reshape(O, C*k)``.
    """
    w, b = kern.weights, kern.bias
    batch, c_in, _ = xp.shape
    c_out, d, k = kern.out_channels, kern.dilation, kern.k
    span = (k - 1) * d
    win = sliding_window_view(xp, span + 1, axis=2)[:, :, :length, ::-d]
    cols = win.transpose(0, 2, 1, 3).reshape(batch * length, c_in * k)
    w2 = w.data.reshape(c_out, c_in * k)
    out = (cols @ w2.T).reshape(batch, length, c_out).transpose(0, 2, 1) \
        + b.data[None, :, None]

    def backward(g):
        gd = g[None] if squeeze else g
        g2 = gd.transpose(0, 2, 1).reshape(batch * length, c_out)
        w.accumulate_grad((g2.T @ cols).reshape(w.data.shape))
        # col2im: tap i of row (b, t) came from padded step t + span - i*d
        gcols = (g2 @ w2).reshape(batch, length, c_in, k)
        gxp = np.zeros_like(xp)
        for i in range(k):
            lo = span - i * d
            gxp[:, :, lo: lo + length] += gcols[:, :, :, i].transpose(0, 2, 1)
        gx = gxp[:, :, pad_left: pad_left + length]
        x.accumulate_grad(gx[0] if squeeze else gx)
        b.accumulate_grad(gd.sum(axis=(0, 2)))

    return Tensor._node(out[0] if squeeze else out, (x, w, b), backward)


# ---------------------------------------------------------------------------
# 2-d convolution and pooling
# ---------------------------------------------------------------------------

def _pair(v) -> Tuple[int, int]:
    if isinstance(v, int):
        return (v, v)
    a, b = v
    return (int(a), int(b))


def conv2d(x: Tensor, weight: Tensor, bias: Optional[Tensor] = None,
           stride=(1, 1), padding=(0, 0)) -> Tensor:
    """Cross-correlating 2-d convolution over ``[B, C, H, W]`` (zero padding)."""
    x, weight = as_tensor(x), as_tensor(weight)
    squeeze = x.data.ndim == 3
    xd = x.data[None] if squeeze else x.data
    if xd.ndim != 4 or weight.data.ndim != 4:
        raise ConfigurationError(
            f"conv2d expects x [B, C, H, W] and weight [O, C, kh, kw], got {x.shape}, {weight.shape}")
    sh, sw = _pair(stride)
    ph, pw = _pair(padding)
    batch, c_in, height, width = xd.shape
    c_out, wc, kh, kw = weight.data.shape
    if wc != c_in:
        raise ConfigurationError(f"conv2d input has {c_in} channels, weight expects {wc}")
    if height + 2 * ph < kh or width + 2 * pw < kw:
        raise ConfigurationError(
            f"conv2d window {(kh, kw)} larger than padded input {(height + 2 * ph, width + 2 * pw)}")

    # im2col: row (b, i, j) holds the window under output (i, j) in (c, di, dj)
    # order, the order of weight.reshape(O, C*kh*kw); one GEMM does the rest
    xp = np.pad(xd, ((0, 0), (0, 0), (ph, ph), (pw, pw)))
    win = sliding_window_view(xp, (kh, kw), axis=(2, 3))[:, :, ::sh, ::sw]
    h_out, w_out = win.shape[2], win.shape[3]
    cols = win.transpose(0, 2, 3, 1, 4, 5).reshape(batch * h_out * w_out, c_in * kh * kw)
    w2 = weight.data.reshape(c_out, c_in * kh * kw)
    out = (cols @ w2.T).reshape(batch, h_out, w_out, c_out).transpose(0, 3, 1, 2)
    parents = [x, weight]
    if bias is not None:
        bias = as_tensor(bias)
        if bias.data.shape != (c_out,):
            raise ConfigurationError(
                f"conv2d bias shape {bias.data.shape} does not match out channels {c_out}")
        out = out + bias.data[None, :, None, None]
        parents.append(bias)

    def backward(g):
        gd = g[None] if squeeze else g
        g2 = gd.transpose(0, 2, 3, 1).reshape(batch * h_out * w_out, c_out)
        weight.accumulate_grad((g2.T @ cols).reshape(weight.data.shape))
        # col2im: scatter each tap's column block back onto the padded input
        gcols = (g2 @ w2).reshape(batch, h_out, w_out, c_in, kh, kw)
        gxp = np.zeros_like(xp)
        for di in range(kh):
            for dj in range(kw):
                gxp[:, :, di: di + h_out * sh: sh, dj: dj + w_out * sw: sw] += \
                    gcols[..., di, dj].transpose(0, 3, 1, 2)
        gx = gxp[:, :, ph: ph + height, pw: pw + width]
        x.accumulate_grad(gx[0] if squeeze else gx)
        if bias is not None:
            bias.accumulate_grad(gd.sum(axis=(0, 2, 3)))

    return Tensor._node(out[0] if squeeze else out, parents, backward)


def max_pool2d(x: Tensor, window, stride=None, padding=(0, 0)) -> Tensor:
    """Max pooling over ``[B, C, H, W]``; padded cells are -inf, never selected
    unless a window contains only padding (rejected as a configuration error)."""
    x = as_tensor(x)
    squeeze = x.data.ndim == 3
    xd = x.data[None] if squeeze else x.data
    if xd.ndim != 4:
        raise ConfigurationError(f"max_pool2d expects [B, C, H, W], got {x.shape}")
    wh, ww = _pair(window)
    sh, sw = _pair(stride if stride is not None else window)
    ph, pw = _pair(padding)
    if ph >= wh or pw >= ww:
        raise ConfigurationError("pool padding must be smaller than the window")
    batch, chans, height, width = xd.shape
    if height + 2 * ph < wh or width + 2 * pw < ww:
        raise ConfigurationError(
            f"pool window {(wh, ww)} larger than padded input {(height + 2 * ph, width + 2 * pw)}")

    xp = np.pad(xd, ((0, 0), (0, 0), (ph, ph), (pw, pw)), constant_values=-np.inf)
    win = sliding_window_view(xp, (wh, ww), axis=(2, 3))[:, :, ::sh, ::sw]
    h_out, w_out = win.shape[2], win.shape[3]
    flat = win.reshape(batch, chans, h_out, w_out, wh * ww)
    idx = flat.argmax(axis=-1)
    out = np.take_along_axis(flat, idx[..., None], axis=-1)[..., 0]

    def backward(g):
        gd = g[None] if squeeze else g
        gxp = np.zeros_like(xp)
        bi, ci, ii, ji = np.indices(idx.shape)
        hi = ii * sh + idx // ww
        wi = ji * sw + idx % ww
        np.add.at(gxp, (bi, ci, hi, wi), gd)
        gx = gxp[:, :, ph: ph + height, pw: pw + width]
        x.accumulate_grad(gx[0] if squeeze else gx)

    return Tensor._node(out[0] if squeeze else out, (x,), backward)


# ---------------------------------------------------------------------------
# batch normalization
# ---------------------------------------------------------------------------

@dataclass
class RunningStats:
    """Per-channel running mean/variance owned by a batch-norm layer."""
    mean: np.ndarray
    var: np.ndarray

    @classmethod
    def fresh(cls, channels: int, dtype=np.float64) -> "RunningStats":
        return cls(np.zeros(channels, dtype=dtype), np.ones(channels, dtype=dtype))

    def copy(self) -> "RunningStats":
        return RunningStats(self.mean.copy(), self.var.copy())


def batch_norm(x: Tensor, gamma: Tensor, beta: Tensor,
               running: Optional[RunningStats], mode: str,
               momentum: float = 0.1, eps: float = 1e-5) -> Tensor:
    """Normalize per channel (axis after batch) over all other axes.

    Train mode uses batch statistics and folds them into ``running`` with
    ``running = (1 - momentum) * running + momentum * batch``; eval mode is
    the per-channel affine ``x * a + (beta - mean * a)`` with
    ``a = gamma / sqrt(var + eps)`` from the running statistics. The op is
    one graph node; eval mode recomputes ``xhat`` in its backward.
    """
    x, gamma, beta = as_tensor(x), as_tensor(gamma), as_tensor(beta)
    xd = x.data
    c_axis = 0 if xd.ndim == 2 else 1  # a single [C, T] sequence has no batch axis
    channels = xd.shape[c_axis]
    if gamma.data.shape != (channels,) or beta.data.shape != (channels,):
        raise ConfigurationError(
            f"batch_norm scale/shift must have shape ({channels},), got {gamma.shape}, {beta.shape}")
    if mode not in ("train", "eval"):
        raise ConfigurationError(f"batch_norm mode must be 'train' or 'eval', got {mode!r}")
    axes = tuple(a for a in range(xd.ndim) if a != c_axis)
    bshape = tuple(channels if a == c_axis else 1 for a in range(xd.ndim))
    g, b = gamma.data.reshape(bshape), beta.data.reshape(bshape)

    if mode == "train":
        mean = xd.mean(axis=axes, keepdims=True)
        xhat = xd - mean
        var = (xhat * xhat).mean(axis=axes, keepdims=True)
        inv_sd = 1.0 / np.sqrt(var + eps)
        xhat *= inv_sd
        out = xhat * g + b
        if running is not None:
            m = float(momentum)
            running.mean[:] = (1.0 - m) * running.mean + m * mean.reshape(channels)
            running.var[:] = (1.0 - m) * running.var + m * var.reshape(channels)
    else:
        if running is None:
            raise ConfigurationError(
                "batch_norm eval mode needs running statistics; none were recorded")
        mean = running.mean.reshape(bshape).astype(xd.dtype)
        inv_sd = 1.0 / np.sqrt(running.var.reshape(bshape).astype(xd.dtype) + eps)
        xhat = None
        out = xd * (g * inv_sd)
        out += b - mean * g * inv_sd

    def backward(grad):
        xh = (xd - mean) * inv_sd if xhat is None else xhat
        gsum = grad.sum(axis=axes, keepdims=True)
        gdot = (grad * xh).sum(axis=axes, keepdims=True)
        gamma.accumulate_grad(gdot.reshape(channels))
        beta.accumulate_grad(gsum.reshape(channels))
        if xhat is not None:  # in train mode the batch statistics depend on x too
            grad = grad - (gsum + xh * gdot) * (channels / xd.size)
        x.accumulate_grad(grad * (g * inv_sd))

    return Tensor._node(out, (x, gamma, beta), backward)


# ---------------------------------------------------------------------------
# recurrent cell
# ---------------------------------------------------------------------------

@dataclass
class LstmWeights:
    """Stacked-gate LSTM parameters, gate order (input, forget, cell, output).

    w_ih: Tensor [4h, in], w_hh: Tensor [4h, h], bias: Tensor [4h].
    """
    w_ih: Tensor
    w_hh: Tensor
    bias: Tensor

    def __post_init__(self):
        self.w_ih = as_tensor(self.w_ih)
        self.w_hh = as_tensor(self.w_hh)
        self.bias = as_tensor(self.bias)
        rows = self.w_ih.data.shape[0]
        if rows % 4 or self.w_hh.data.shape != (rows, rows // 4) \
                or self.bias.data.shape != (rows,):
            raise ConfigurationError(
                f"inconsistent LSTM shapes: w_ih {self.w_ih.shape}, "
                f"w_hh {self.w_hh.shape}, bias {self.bias.shape}")

    @property
    def hidden(self) -> int:
        return self.w_ih.data.shape[0] // 4

    @property
    def input_size(self) -> int:
        return self.w_ih.data.shape[1]


def lstm_cell(x_t: Optional[Tensor], h_prev: Tensor, c_prev: Tensor,
              weights: LstmWeights) -> Tuple[Tensor, Tensor]:
    """One LSTM step over a batch: returns (h_t, c_t).

    ``x_t=None`` stands for a zero input: the gates start from
    ``h_prev @ w_hh.T + bias`` and ``w_ih`` takes no part in the step.
    """
    x_t = None if x_t is None else as_tensor(x_t)
    h_prev, c_prev = as_tensor(h_prev), as_tensor(c_prev)
    h = weights.hidden
    rows = h_prev.data.shape[:1]  # dense checks that x_t is [rows, in]
    if (x_t is not None and x_t.data.shape[:1] != rows) \
            or h_prev.data.shape != rows + (h,) or c_prev.data.shape != h_prev.data.shape:
        raise ConfigurationError(
            f"lstm_cell shapes: x {None if x_t is None else x_t.shape}, "
            f"h {h_prev.shape}, c {c_prev.shape}, hidden {h}")
    if x_t is None:
        gates = dense(h_prev, weights.w_hh, weights.bias)
    else:
        gates = dense(x_t, weights.w_ih, weights.bias) + dense(h_prev, weights.w_hh)
    i = sigmoid(gates[:, 0 * h:1 * h])
    f = sigmoid(gates[:, 1 * h:2 * h])
    g = tanh(gates[:, 2 * h:3 * h])
    o = sigmoid(gates[:, 3 * h:4 * h])
    c_t = f * c_prev + i * g
    h_t = o * tanh(c_t)
    return h_t, c_t


# ---------------------------------------------------------------------------
# structural ops
# ---------------------------------------------------------------------------

def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Concatenate along an existing axis; gradient splits back."""
    ts = [as_tensor(t) for t in tensors]
    if not ts:
        raise ConfigurationError("concat needs at least one tensor")
    out = np.concatenate([t.data for t in ts], axis=axis)
    sizes = [t.data.shape[axis] for t in ts]
    bounds = np.cumsum([0] + sizes)

    def backward(g):
        g = np.asarray(g)
        index = [slice(None)] * g.ndim
        for t, lo, hi in zip(ts, bounds[:-1], bounds[1:]):
            index[axis] = slice(int(lo), int(hi))
            t.accumulate_grad(g[tuple(index)])

    return Tensor._node(out, ts, backward)


def stack(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Stack equal-shaped tensors along a new axis."""
    ts = [as_tensor(t) for t in tensors]
    if not ts:
        raise ConfigurationError("stack needs at least one tensor")
    out = np.stack([t.data for t in ts], axis=axis)

    def backward(g):
        pieces = np.moveaxis(np.asarray(g), axis, 0)
        for t, piece in zip(ts, pieces):
            t.accumulate_grad(piece)

    return Tensor._node(out, ts, backward)


def scatter_grid(features: Tensor, batch_index: np.ndarray, cells: np.ndarray,
                 grid_shape: Tuple[int, int, int, int]) -> Tensor:
    """Place per-entity feature rows into an empty spatial grid.

    features ``[N, C]`` goes to ``out[batch_index[n], :, cells[n, 0], cells[n, 1]]``;
    untouched cells stay zero. Each (batch, cell) target must be distinct,
    which upstream occupancy resolution guarantees.
    """
    features = as_tensor(features)
    batch, chans, rows, cols = grid_shape
    bi = np.asarray(batch_index, dtype=np.int64)
    cl = np.asarray(cells, dtype=np.int64)
    n = features.data.shape[0] if features.data.ndim == 2 else 0
    if features.data.ndim != 2 or features.data.shape[1] != chans:
        raise ConfigurationError(
            f"scatter_grid features must be [N, {chans}], got {features.shape}")
    if bi.shape != (n,) or cl.shape != (n, 2):
        raise ConfigurationError("scatter_grid index shapes do not match features")
    inside = ((bi >= 0) & (bi < batch) & (cl[:, 0] >= 0) & (cl[:, 0] < rows)
              & (cl[:, 1] >= 0) & (cl[:, 1] < cols))
    if not inside.all():
        raise ConfigurationError(
            "scatter_grid indices out of range; occupancy resolution must reject these")
    linear = (bi * rows + cl[:, 0]) * cols + cl[:, 1]
    if np.unique(linear).size != n:
        raise ConfigurationError(
            "scatter_grid has duplicate cell targets; occupancy resolution must be applied")

    out = np.zeros(grid_shape, dtype=features.data.dtype)
    out[bi, :, cl[:, 0], cl[:, 1]] = features.data

    def backward(g):
        features.accumulate_grad(np.asarray(g)[bi, :, cl[:, 0], cl[:, 1]])

    return Tensor._node(out, (features,), backward)
