"""Differentiable neural-network operations.

Sequence layout is channels-first: ``[C, T]`` for a single sequence or
``[B, C, T]`` batched; grids are ``[B, C, H, W]``. Convolution kernels use
lag-major tap order: tap ``i`` of a 1-d kernel multiplies the input
``i * dilation`` steps in the past, so tap 0 is the current step. Padding
is handled inside the conv ops; both modes add the span ``(k-1)*d`` of
zeros, so they preserve sequence length:

* ``"causal"``   — all of it on the left; output at time t never sees
  input later than t.
* ``"symmetric"`` — ``ceil((k-1)*d / 2)`` zeros on the left, the rest on
  the right.

Every convolution is one call of ``_conv``; ``_tap_window`` alone maps
kernel taps to input cells, for it and for max pooling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product
from typing import Optional, Sequence, Tuple

import numpy as np

from .tensor import ConfigurationError, Tensor, as_tensor

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
    "lstm_unroll",
    "concat",
    "stack",
    "scatter_grid",
    "same_length_padding",
]

PAD_MODES = ("causal", "symmetric")


# ---------------------------------------------------------------------------
# elementwise activations
# ---------------------------------------------------------------------------

def _logistic(v: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """``1 / (1 + exp(-v))``, into ``out`` when given. Below v = -709 exp
    overflows to inf and the result saturates at exactly 0, so callers hold
    ``np.errstate(over="ignore")``: the overflow warning is noise."""
    out = np.negative(v, out=out)
    np.exp(out, out=out)
    out += 1.0
    return np.divide(1.0, out, out=out)


def sigmoid(x: Tensor) -> Tensor:
    x = as_tensor(x)
    with np.errstate(over="ignore"):
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
    with np.errstate(over="ignore"):
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
    def k(self) -> int:
        return self.weights.data.shape[2]


def same_length_padding(out_len: int, in_len: int, stride: int, k: int, d: int) -> int:
    """Zeros per side so a stride-s dilated conv maps in_len -> out_len.

    ceil(((out_len - 1) * stride + (k - 1) * (d - 1) - in_len + k) / 2),
    clamped at zero. With out_len == in_len and stride 1 the interior is
    (k - 1) * d, so this is the left padding of a symmetric convolution and
    the rest of the span goes on the right.
    """
    interior = (out_len - 1) * stride + (k - 1) * (d - 1) - in_len + k
    return max(0, math.ceil(interior / 2))


def dilated_conv1d(x: Tensor, kern: Kernel1D, pad_mode: str = "causal") -> Tensor:
    """Length-preserving dilated 1-d convolution.

    Output step s sums ``w[o, c, i] * x[c, s - i*d]`` over taps i and the
    channels of o's group, treating out-of-range history as zero (causal
    mode). Symmetric mode centers the same window. Either way the sequence,
    padded by the span ``(k-1)*d``, runs through :func:`_conv` as a height-1
    grid with window step ``-d``.
    """
    x = as_tensor(x)
    if pad_mode not in PAD_MODES:
        raise ConfigurationError(f"pad_mode must be one of {PAD_MODES}, got {pad_mode!r}")
    if x.data.ndim not in (2, 3):
        raise ConfigurationError(f"conv input must be [C, T] or [B, C, T], got {x.shape}")
    length = x.data.shape[-1]
    k, d = kern.k, kern.dilation
    span = (k - 1) * d
    left = span if pad_mode == "causal" else same_length_padding(length, length, 1, k, d)
    return _conv(x, kern.weights, kern.bias, ((0, 0), (left, span - left)),
                 kern.groups, step=(1, -d))


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
    if x.data.ndim not in (3, 4) or weight.data.ndim != 4:
        raise ConfigurationError(
            f"conv2d expects x [B, C, H, W] and weight [O, C, kh, kw], got {x.shape}, {weight.shape}")
    ph, pw = _pair(padding)
    height, width = x.data.shape[-2:]
    c_out, _, kh, kw = weight.data.shape
    if height + 2 * ph < kh or width + 2 * pw < kw:
        raise ConfigurationError(
            f"conv2d window {(kh, kw)} larger than padded input {(height + 2 * ph, width + 2 * pw)}")
    if bias is not None:
        bias = as_tensor(bias)
        if bias.data.shape != (c_out,):
            raise ConfigurationError(
                f"conv2d bias shape {bias.data.shape} does not match out channels {c_out}")
    return _conv(x, weight, bias, ((ph, ph), (pw, pw)), stride=_pair(stride))


def max_pool2d(x: Tensor, window, stride=None, padding=(0, 0)) -> Tensor:
    """Max pooling over ``[B, C, H, W]``; padded cells are -inf, never selected
    unless a window contains only padding (rejected as a configuration error).
    Each window's gradient goes to its first maximum."""
    x = as_tensor(x)
    if x.data.ndim not in (3, 4):
        raise ConfigurationError(f"max_pool2d expects [B, C, H, W], got {x.shape}")
    wh, ww = _pair(window)
    sh, sw = _pair(stride if stride is not None else window)
    ph, pw = _pair(padding)
    if ph >= wh or pw >= ww:
        raise ConfigurationError("pool padding must be smaller than the window")
    height, width = x.data.shape[-2:]
    if min(height, width) < 1 or height + 2 * ph < wh or width + 2 * pw < ww:
        raise ConfigurationError(
            f"pool window {(wh, ww)} does not fit input {(height, width)} padded by {(ph, pw)}")

    xd = x.data if x.data.ndim == 4 else x.data[None]
    xp = _padded(xd, ((ph, ph), (pw, pw)), -np.inf)
    win = _tap_window(xp, (wh, ww), (sh, sw))
    flat = win.reshape(win.shape[:4] + (wh * ww,))
    idx = flat.argmax(axis=-1)
    out = np.take_along_axis(flat, idx[..., None], axis=-1)[..., 0]

    def backward(g):
        gxp = np.zeros_like(xp)
        gwin = _tap_window(gxp, (wh, ww), (sh, sw))
        for tap, (p, q) in enumerate(product(range(wh), range(ww))):
            gwin[..., p, q] += np.where(idx == tap, g.reshape(idx.shape), 0.0)
        x.accumulate_grad(gxp[:, :, ph: ph + height, pw: pw + width].reshape(x.data.shape))

    return Tensor._node(out.reshape(x.data.shape[:-2] + out.shape[2:]), (x,), backward)


# ---------------------------------------------------------------------------
# the convolution core
# ---------------------------------------------------------------------------

def _padded(xd: np.ndarray, pads, fill: float = 0.0) -> np.ndarray:
    """C-contiguous ``[B, C, H, W]`` framed by ``((top, bottom), (left, right))`` fill cells."""
    (top, bottom), (left, right) = pads
    batch, chans, height, width = xd.shape
    shape = (batch, chans, top + height + bottom, left + width + right)
    xp = np.full(shape, fill, xd.dtype) if fill else np.zeros(shape, xd.dtype)
    xp[:, :, top: top + height, left: left + width] = xd
    return xp


def _tap_window(xp: np.ndarray, taps, stride, step=(1, 1)) -> np.ndarray:
    """The view ``win[b, c, i, j, p, q]`` of the C-contiguous ``xp`` cell that
    tap (p, q) of output (i, j) reads: the one place taps are laid out.

    Along each axis output i starts ``i * stride`` cells in and tap p lies
    ``p * step`` further; a negative step counts back from the far end of
    the ``(taps - 1) * |step|`` span. Backward passes add into the same view
    of the input gradient, one tap at a time (a tap meets a cell once).
    """
    batch, chans, height, width = xp.shape
    (kh, kw), (sh, sw), (eh, ew) = taps, stride, step
    span_h, span_w = (kh - 1) * abs(eh), (kw - 1) * abs(ew)
    s_b, s_c, s_h, s_w = xp.strides
    start = (span_h * s_h if eh < 0 else 0) + (span_w * s_w if ew < 0 else 0)
    shape = (batch, chans, (height - span_h - 1) // sh + 1, (width - span_w - 1) // sw + 1,
             kh, kw)
    # an empty buffer takes no offset, and an empty view reads nothing
    return np.ndarray(shape, xp.dtype, xp, start if xp.size else 0,
                      (s_b, s_c, sh * s_h, sw * s_w, eh * s_h, ew * s_w))


def _conv(x: Tensor, weight: Tensor, bias: Optional[Tensor], pads, groups: int = 1,
          stride=(1, 1), step=(1, 1)) -> Tensor:
    """Every convolution, as one graph node: ``x`` ``[B, C, *S]`` or ``[C, *S]``
    zero-padded by ``pads`` and correlated with ``weight`` ``[O, C // groups, *K]``,
    S and K both a grid or both a sequence (run as height 1). With groups == 1
    the tap window is an im2col matrix, row (b, i, j) in (c, p, q) order like
    ``weight.reshape(O, -1)``, and one GEMM does the rest. Grouped kernels (the
    depthwise layers) keep a per-tap multiply-add, faster at their few
    channels per group.
    """
    xd, wd = x.data, weight.data
    n_spatial = wd.ndim - 2
    lead, lift = xd.shape[:xd.ndim - n_spatial - 1], (1,) * (2 - n_spatial)
    c_out, cg = wd.shape[:2]
    c_in = cg * groups
    if xd.shape[-n_spatial - 1] != c_in:
        raise ConfigurationError(
            f"input has {xd.shape[-n_spatial - 1]} channels but the weight expects {c_in}")
    x4 = xd.reshape((lead or (1,)) + (c_in,) + lift + xd.shape[-n_spatial:])
    xp = _padded(x4, pads)
    kh, kw = taps = lift + wd.shape[2:]
    win = _tap_window(xp, taps, stride, step)
    batch, _, h_out, w_out = win.shape[:4]
    if groups == 1:
        cols = win.transpose(0, 2, 3, 1, 4, 5).reshape(batch * h_out * w_out, c_in * kh * kw)
        w2 = wd.reshape(c_out, c_in * kh * kw)
        out = (cols @ w2.T).reshape(batch, h_out, w_out, c_out).transpose(0, 3, 1, 2)
    else:
        og = c_out // groups
        wg = wd.reshape(groups, og, cg, kh, kw)
        out = np.zeros((batch, groups, og, h_out * w_out), dtype=xd.dtype)
        for p, q in product(range(kh), range(kw)):
            out += np.einsum("goc,bgct->bgot", wg[..., p, q],
                             win[..., p, q].reshape(batch, groups, cg, h_out * w_out))
        out = out.reshape(batch, c_out, h_out, w_out)
    if bias is not None:
        out = out + bias.data[:, None, None]

    def backward(g):
        g4 = g.reshape(batch, c_out, h_out, w_out)
        gxp = np.zeros_like(xp)
        gwin = _tap_window(gxp, taps, stride, step)
        if groups == 1:
            g2 = g4.transpose(0, 2, 3, 1).reshape(batch * h_out * w_out, c_out)
            gw = g2.T @ cols
            # col2im: each tap's column block goes back where the tap read it
            gcols = (g2 @ w2).reshape(batch, h_out, w_out, c_in, kh, kw)
            for p, q in product(range(kh), range(kw)):
                gwin[..., p, q] += gcols[..., p, q].transpose(0, 3, 1, 2)
        else:
            gg = g4.reshape(batch, groups, og, h_out * w_out)
            gw = np.empty_like(wg)
            for p, q in product(range(kh), range(kw)):
                gw[..., p, q] = np.einsum("bgot,bgct->goc", gg,
                                          win[..., p, q].reshape(batch, groups, cg, h_out * w_out))
                gwin[..., p, q] += np.einsum("goc,bgot->bgct", wg[..., p, q], gg) \
                    .reshape(batch, c_in, h_out, w_out)
        (top, _), (left, _) = pads
        x.accumulate_grad(gxp[:, :, top: top + x4.shape[2], left: left + x4.shape[3]]
                          .reshape(xd.shape))
        weight.accumulate_grad(gw.reshape(wd.shape))
        if bias is not None:
            bias.accumulate_grad(g4.sum(axis=(0, 2, 3)))

    parents = (x, weight) if bias is None else (x, weight, bias)
    return Tensor._node(out.reshape(lead + (c_out,) + (h_out, w_out)[2 - n_spatial:]),
                        parents, backward)


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


def _lstm_step(gates: np.ndarray, c_prev: np.ndarray, act: np.ndarray,
               c_out: np.ndarray, tc: np.ndarray, h_out: np.ndarray) -> None:
    """The LSTM equations forward, written into the caller's buffers.

    From the pre-activations ``gates`` ``[B, 4h]``, ``act`` receives the
    activated gates (i, f, g, o), ``c_out`` the cell state
    ``c_t = f * c_prev + i * g`` (it may be ``c_prev`` itself), ``tc``
    ``tanh(c_t)`` and ``h_out`` ``h_t = o * tc``. The caller holds
    ``np.errstate(over="ignore")`` for the logistic.
    """
    h = c_prev.shape[-1]
    _logistic(gates, out=act)
    np.tanh(gates[:, 2 * h:3 * h], out=act[:, 2 * h:3 * h])
    i, f, g, o = act[:, :h], act[:, h:2 * h], act[:, 2 * h:3 * h], act[:, 3 * h:]
    np.multiply(f, c_prev, out=c_out)
    np.multiply(i, g, out=tc)
    c_out += tc
    np.tanh(c_out, out=tc)
    np.multiply(o, tc, out=h_out)


def _lstm_step_backward(dh: np.ndarray, dc: Optional[np.ndarray], act: np.ndarray,
                        c_prev: np.ndarray, tc: np.ndarray, da: np.ndarray) -> np.ndarray:
    """The LSTM equations backward: from the gradients of ``h_t`` and ``c_t``
    (``dc`` None when nothing reads ``c_t``), with the ``act`` and ``tc`` of
    :func:`_lstm_step`, writes the gradient of the gate pre-activations into
    ``da`` ``[B, 4h]`` and returns that of ``c_prev``."""
    h = c_prev.shape[-1]
    i, f, g, o = act[:, :h], act[:, h:2 * h], act[:, 2 * h:3 * h], act[:, 3 * h:]
    through_h = dh * o * (1.0 - tc * tc)
    dc = through_h if dc is None else dc + through_h
    da[:, 0:h] = dc * g * i * (1.0 - i)
    da[:, h:2 * h] = dc * c_prev * f * (1.0 - f)
    da[:, 2 * h:3 * h] = dc * i * (1.0 - g * g)
    da[:, 3 * h:] = dh * tc * o * (1.0 - o)
    return dc * f


def lstm_cell(x_t: Optional[Tensor], h_prev: Tensor, c_prev: Tensor,
              weights: LstmWeights) -> Tuple[Tensor, Tensor]:
    """One LSTM step over a batch: returns (h_t, c_t), the halves of one node.

    ``x_t=None`` stands for a zero input: the gates start from
    ``h_prev @ w_hh.T + bias`` and ``w_ih`` takes no part in the step.
    """
    x_t = None if x_t is None else as_tensor(x_t)
    h_prev, c_prev = as_tensor(h_prev), as_tensor(c_prev)
    h, rows = weights.hidden, h_prev.data.shape[:1]
    if (x_t is not None and x_t.data.shape != rows + (weights.input_size,)) \
            or h_prev.data.shape != rows + (h,) or c_prev.data.shape != h_prev.data.shape:
        raise ConfigurationError(
            f"lstm_cell shapes: x {None if x_t is None else x_t.shape}, h {h_prev.shape}, "
            f"c {c_prev.shape}, input {weights.input_size}, hidden {h}")
    w_ih, w_hh, bias = weights.w_ih, weights.w_hh, weights.bias
    # ops run in the composed cell's order, so every bit matches it forward and back
    gates = h_prev.data @ w_hh.data.T + bias.data if x_t is None else \
        (x_t.data @ w_ih.data.T + bias.data) + h_prev.data @ w_hh.data.T
    act = np.empty_like(gates)
    out = np.empty((2,) + h_prev.data.shape, np.result_type(gates, c_prev.data))
    tc = np.empty_like(out[1])
    with np.errstate(over="ignore"):
        _lstm_step(gates, c_prev.data, act, out[1], tc, out[0])

    def backward(grad):
        da = np.empty_like(act)
        c_prev.accumulate_grad(_lstm_step_backward(grad[0], grad[1], act, c_prev.data, tc, da))
        h_prev.accumulate_grad(da @ w_hh.data)
        w_hh.accumulate_grad(da.T @ h_prev.data)
        bias.accumulate_grad(da.sum(axis=0))
        if x_t is not None:
            x_t.accumulate_grad(da @ w_ih.data)
            w_ih.accumulate_grad(da.T @ x_t.data)

    parents = (h_prev, c_prev, w_hh, bias) + (() if x_t is None else (x_t, w_ih))
    step = Tensor._node(out, parents, backward)
    return step[0], step[1]


def lstm_unroll(h0: Tensor, c0: Tensor, weights: LstmWeights, steps: int) -> Tensor:
    """``steps`` LSTM steps without input from ``(h0, c0)`` as one graph node:
    the hidden state of every step, ``[B, steps, h]``.

    The output equals a chain of ``lstm_cell(None, ...)`` calls bit for bit.
    Every step runs in buffers allocated once per call (never kept between
    calls, so concurrent inference shares nothing). Only while the graph
    records does the op keep each step's activations and cell state for its
    backward through time, which computes the ``w_hh`` gradient as one GEMM
    over all ``steps * B`` rows and so sums in another order than the chain.
    ``w_ih`` takes no part.
    """
    h0, c0 = as_tensor(h0), as_tensor(c0)
    h, rows = weights.hidden, h0.data.shape[:1]
    if isinstance(steps, bool) or not isinstance(steps, (int, np.integer)) or steps < 1 \
            or h0.data.shape != rows + (h,) or c0.data.shape != h0.data.shape:
        raise ConfigurationError(
            f"lstm_unroll needs steps >= 1 and h, c of shape [B, {h}]: "
            f"steps {steps!r}, h {h0.shape}, c {c0.shape}")
    w_hh, bias = weights.w_hh, weights.bias
    parents = (h0, c0, w_hh, bias)
    keep = steps if Tensor._records(parents) else 1  # one slot, reused, when nothing records
    dtype = np.result_type(h0.data, c0.data, w_hh.data, bias.data)
    batch = rows[0]
    gates = np.empty((batch, 4 * h), dtype)
    acts = np.empty((keep, batch, 4 * h), dtype)
    cs = np.empty((keep, batch, h), dtype)
    tcs = np.empty((keep, batch, h), dtype)
    hs = np.empty((batch, steps, h), dtype)
    w_t, b, h_prev, c_prev = w_hh.data.T, bias.data, h0.data, c0.data
    with np.errstate(over="ignore"):
        for t in range(steps):
            np.matmul(h_prev, w_t, out=gates)
            gates += b
            k = t % keep
            _lstm_step(gates, c_prev, acts[k], cs[k], tcs[k], hs[:, t])
            h_prev, c_prev = hs[:, t], cs[k]

    def backward(grad):
        da = np.empty((steps, batch, 4 * h), dtype)
        dh = dc = None  # nothing reads the last cell state
        for t in reversed(range(steps)):
            dh = grad[:, t] if dh is None else grad[:, t] + dh
            dc = _lstm_step_backward(dh, dc, acts[t], c0.data if t == 0 else cs[t - 1],
                                     tcs[t], da[t])
            dh = da[t] @ w_hh.data
        h0.accumulate_grad(dh)
        c0.accumulate_grad(dc)
        h_read = np.concatenate([h0.data[None], hs[:, :-1].transpose(1, 0, 2)])
        w_hh.accumulate_grad(da.reshape(-1, 4 * h).T @ h_read.reshape(-1, h))
        bias.accumulate_grad(da.sum(axis=(0, 1)))

    return Tensor._node(hs, parents, backward)


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
