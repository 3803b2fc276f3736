"""Differentiable neural-network operations.

Temporal units run channels-last: :func:`conv_unit` takes ``[N, T, C]``
(or one ``[T, C]`` sequence), whose ``N * T`` rows form a contiguous 2-D
view. :func:`dilated_conv1d` and :func:`batch_norm` keep the channels-first
``[C, T]`` / ``[B, C, T]`` signatures and swap axes around the same cores;
grids are ``[B, C, H, W]``. Convolution kernels use lag-major tap order:
tap ``i`` of a 1-d kernel multiplies the input ``i * dilation`` steps in the
past, so tap 0 is the current step. Padding is handled inside the conv ops;
both modes add the span ``(k-1)*d`` of zeros, so they preserve sequence
length, and :func:`pad_sides` alone splits it:

* ``"causal"``   — all of it on the left; output at time t never sees
  input later than t.
* ``"symmetric"`` — ``ceil((k-1)*d / 2)`` zeros on the left, the rest on
  the right.

Every op is one graph node whose backward function returns one gradient
per parent, in parent order, and accumulates nothing (see
``Tensor._node``). Every temporal convolution runs through ``_tap_shift``,
one GEMM per kernel tap on the contiguous rows with no padded copy, and
returns its own backward in that form; ``conv_unit`` runs it with batch
norm and an activation as one node. The grid convolution runs through
``_conv_forward``, an im2col GEMM, whose backward ``conv2d`` hands to its
node as it is; ``_tap_window`` alone maps grid taps to input cells, for it
and for max pooling.
"""

from __future__ import annotations

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
    "conv_unit",
    "lstm_cell",
    "lstm_unroll",
    "concat",
    "stack",
    "scatter_grid",
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


def _sigmoid(v: np.ndarray, inplace: bool):
    """The numpy forward of an activation: ``(out, grad)``, where ``grad`` maps
    the output gradient to that of ``v``. With ``inplace`` the output
    overwrites ``v``; ``grad`` reads only what the forward keeps (the output,
    and the logistic for swish), never ``v``, so it holds either way. The
    same holds for :func:`_tanh`, :func:`_swish`, :func:`_relu` and
    :func:`_identity`."""
    with np.errstate(over="ignore"):
        s = _logistic(v, out=v if inplace else None)
    return s, lambda g: g * s * (1.0 - s)


def _tanh(v: np.ndarray, inplace: bool):
    t = np.tanh(v, out=v if inplace else None)
    return t, lambda g: g * (1.0 - t * t)


def _swish(v: np.ndarray, inplace: bool):
    with np.errstate(over="ignore"):
        s = _logistic(v)
    out = np.multiply(v, s, out=v if inplace else None)
    return out, lambda g: _swish_grad(g, s, out)


def _swish_grad(g: np.ndarray, s: np.ndarray, out: np.ndarray) -> np.ndarray:
    """d/dv v*s(v) = s + v*s*(1 - s) = s + out*(1 - s), times ``g``, in one buffer."""
    inner = 1.0 - out
    inner *= s
    inner += out
    inner *= g
    return inner


def _relu(v: np.ndarray, inplace: bool):
    mask = v > 0
    out = np.multiply(v, mask, out=v if inplace else None)
    return out, lambda g: g * mask


def _identity(v: np.ndarray, inplace: bool):
    return v, lambda g: g


def _activation_node(x: Tensor, forward) -> Tensor:
    x = as_tensor(x)
    out, grad = forward(x.data, False)
    return Tensor._node(out, (x,), lambda g: (grad(g),))


def sigmoid(x: Tensor) -> Tensor:
    return _activation_node(x, _sigmoid)


def tanh(x: Tensor) -> Tensor:
    return _activation_node(x, _tanh)


def swish(x: Tensor) -> Tensor:
    """x * sigmoid(x); smooth, non-monotonic, bounded below by about -0.2785."""
    return _activation_node(x, _swish)


def relu(x: Tensor) -> Tensor:
    return _activation_node(x, _relu)


# name -> (graph op, numpy forward); the identity op adds no node
_ACTIVATIONS = {"swish": (swish, _swish), "relu": (relu, _relu), "tanh": (tanh, _tanh),
                "sigmoid": (sigmoid, _sigmoid), "identity": (lambda t: t, _identity)}


def _activation(name: str):
    try:
        return _ACTIVATIONS[name]
    except KeyError:
        raise ConfigurationError(f"unknown activation {name!r}") from None


def activation_fn(name: str):
    return _activation(name)[0]


# ---------------------------------------------------------------------------
# dense
# ---------------------------------------------------------------------------

def dense(x: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """Affine map ``x @ weight.T + bias`` with x ``[B, in]``, weight ``[out, in]``."""
    x, weight, bias = as_tensor(x), as_tensor(weight), as_tensor(bias)
    if x.data.ndim != 2 or weight.data.ndim != 2:
        raise ConfigurationError(
            f"dense expects x [B, in] and weight [out, in], got {x.shape} and {weight.shape}")
    if x.data.shape[1] != weight.data.shape[1]:
        raise ConfigurationError(
            f"dense input width {x.data.shape[1]} does not match weight fan-in {weight.data.shape[1]}")
    if bias.data.shape != (weight.data.shape[0],):
        raise ConfigurationError(
            f"dense bias shape {bias.data.shape} does not match out width {weight.data.shape[0]}")
    out_data = x.data @ weight.data.T + bias.data

    return Tensor._node(out_data, (x, weight, bias),
                        lambda g: (g @ weight.data, g.T @ x.data, g.sum(axis=0)))


# ---------------------------------------------------------------------------
# 1-d convolution
# ---------------------------------------------------------------------------

@dataclass
class Kernel1D:
    """Weights of a dilated 1-d convolution.

    weights: Tensor [out_channels, in_channels // groups, k], lag-major taps.
    bias:    Tensor [out_channels], or None for a convolution without one.
    """
    weights: Tensor
    bias: Optional[Tensor]
    dilation: int = 1
    groups: int = 1

    def __post_init__(self):
        self.weights = as_tensor(self.weights)
        self.bias = None if self.bias is None else as_tensor(self.bias)
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
        if self.bias is not None and self.bias.data.shape != (out_ch,):
            raise ConfigurationError(
                f"bias shape {self.bias.data.shape} does not match out channels {out_ch}")

    @property
    def out_channels(self) -> int:
        return self.weights.data.shape[0]


def _tap_shift(xd: np.ndarray, wd: np.ndarray, bd: Optional[np.ndarray], dilation: int,
               groups: int, pad_mode: str):
    """The numpy forward of every temporal convolution, channels-last:
    ``xd`` ``[N, T, C]`` or ``[T, C]`` correlated with ``wd``
    ``[O, C // groups, k]`` in ``pad_mode`` and shifted by ``bd`` (None for
    no bias).

    Returns the output ``[N, T, O]`` (``[T, O]``) and its backward, a function
    from the output gradient to those of ``xd``, ``wd`` and ``bd``. Tap p
    reads the input ``lag = p * d - right`` steps back, ``right`` being the
    padding after the sequence (none when causal). It is one GEMM
    ``x2 @ W_p.T`` over the ``N * T`` rows of the contiguous 2-D view, added
    into the output ``lag`` steps later; a tap whose lag reaches past T adds
    nothing. A grouped kernel enters as its block-diagonal dense ``[O, C]``
    matrix per tap, so its weight gradient is the diagonal blocks of
    ``g.T @ x``. The backward runs the same GEMMs on the output gradient,
    with the rows whose tap partner lies outside their sequence zeroed, so
    each tap pairs the flat rows ``lag`` apart.
    """
    if pad_mode not in PAD_MODES:
        raise ConfigurationError(f"pad_mode must be one of {PAD_MODES}, got {pad_mode!r}")
    if xd.ndim not in (2, 3):
        raise ConfigurationError(f"conv input must be [T, C] or [N, T, C], got {xd.shape}")
    c_out, cg, k = wd.shape
    c_in = cg * groups
    if xd.shape[-1] != c_in:
        raise ConfigurationError(
            f"input has {xd.shape[-1]} channels but the weight expects {c_in}")
    steps = xd.shape[-2]
    x2 = xd.reshape(-1, c_in)
    rows = x2.shape[0]
    span = (k - 1) * dilation
    right = pad_sides(span, pad_mode)[1]
    taps = [(p, p * dilation - right) for p in range(k) if abs(p * dilation - right) < steps]
    taps.sort(key=lambda tap: tap[1] != 0)  # a lag-0 tap, if any, starts the output
    if groups == 1:
        wt = np.ascontiguousarray(wd.transpose(2, 0, 1))
    else:
        wt = np.zeros((k, c_out, c_in), wd.dtype)
        _diagonal_blocks(wt, groups)[...] = wd.transpose(2, 0, 1).reshape(
            k, groups, c_out // groups, cg)

    dtype = np.result_type(xd, wd)
    first = bool(taps) and taps[0][1] == 0
    out = x2 @ wt[taps[0][0]].T if first else np.zeros((rows, c_out), dtype)
    y = np.empty_like(out) if len(taps) > first else None  # one product buffer for every tap
    for p, lag in taps[first:]:
        np.matmul(x2, wt[p].T, out=y)
        later, earlier = _paired_rows(y, steps, lag, False)
        out[later] += y[earlier]
    if bd is not None:
        out += bd

    def backward(g):
        g2 = np.reshape(g, (rows, c_out))
        gwt = np.zeros_like(wt)
        gx = g2 @ wt[taps[0][0]] if first else np.zeros(x2.shape, dtype)
        for p, lag in taps:
            gm, later, earlier = g2, slice(None), slice(None)
            if lag:
                gm = g2.copy()
                later, earlier = _paired_rows(gm, steps, lag, True)
                gx[earlier] += gm[later] @ wt[p]
            gwt[p] = gm[later].T @ x2[earlier]
        if groups > 1:
            gwt = _diagonal_blocks(gwt, groups).reshape(k, c_out, cg)
        gw = gwt.transpose(1, 2, 0)
        return gx.reshape(xd.shape), gw, None if bd is None else np.ones(rows, g2.dtype) @ g2

    return out.reshape(xd.shape[:-1] + (c_out,)), backward


def pad_sides(span: int, pad_mode: str) -> Tuple[int, int]:
    """The zeros ``(left, right)`` that ``pad_mode`` puts around a sequence
    for a kernel spanning ``span`` steps: all of them on the left when
    causal; ``span // 2`` of them on the right when symmetric."""
    right = 0 if pad_mode == "causal" else span // 2
    return span - right, right


def _diagonal_blocks(wt: np.ndarray, groups: int) -> np.ndarray:
    """The diagonal blocks of a C-ordered ``wt`` ``[k, O, C]`` as a writable
    strided view ``[k, groups, O / groups, C / groups]``: out channel
    ``g * (O / groups) + i`` reads in channel ``g * (C / groups) + c``, and
    block g starts one block down and one block right of block g - 1."""
    k, c_out, c_in = wt.shape
    og, cg = c_out // groups, c_in // groups
    sk, so, sc = wt.strides
    return np.ndarray((k, groups, og, cg), wt.dtype, wt, 0, (sk, og * so + cg * sc, so, sc))


def _paired_rows(rows: np.ndarray, steps: int, lag: int, later: bool):
    """The flat row slices ``(later, earlier)`` that a tap of ``lag`` pairs:
    row r of a ``[N * T, C]`` view with row ``r - lag``. Some pairs straddle
    two sequences; first the rows of ``rows`` (the later side when ``later``,
    else the earlier) whose partner lies outside their own sequence are
    zeroed, so those pairs add nothing."""
    by_step = rows.reshape(-1, steps, rows.shape[1])
    ahead = lag if later else -lag  # how far this side's partner lies back
    by_step[:, :max(ahead, 0)] = 0.0
    by_step[:, steps + min(ahead, 0):] = 0.0
    n = rows.shape[0]
    return slice(max(lag, 0), n + min(lag, 0)), slice(max(-lag, 0), n - max(lag, 0))


def dilated_conv1d(x: Tensor, kern: Kernel1D, pad_mode: str = "causal") -> Tensor:
    """Length-preserving dilated 1-d convolution of a channels-first
    ``[C, T]`` or ``[B, C, T]`` sequence.

    Output step s sums ``w[o, c, i] * x[c, s - i*d]`` over taps i and the
    channels of o's group, treating out-of-range history as zero (causal
    mode). Symmetric mode centers the same window. It runs the channels-last
    :func:`_tap_shift` on the swapped axes.
    """
    x = as_tensor(x)
    w, b = kern.weights, kern.bias
    if x.data.ndim not in (2, 3):
        raise ConfigurationError(f"conv input must be [C, T] or [B, C, T], got {x.shape}")
    out, grads = _tap_shift(np.swapaxes(x.data, -1, -2), w.data, None if b is None else b.data,
                            kern.dilation, kern.groups, pad_mode)
    parents = (x, w) if b is None else (x, w, b)

    def swapped(g):
        gx, gw, gb = grads(np.swapaxes(g, -1, -2))
        return (np.swapaxes(gx, -1, -2), gw, gb)[:len(parents)]

    return Tensor._node(np.swapaxes(out, -1, -2), parents, swapped)


# ---------------------------------------------------------------------------
# 2-d convolution and pooling
# ---------------------------------------------------------------------------

def conv2d(x: Tensor, weight: Tensor, bias: Tensor,
           stride=(1, 1), padding=(0, 0)) -> Tensor:
    """Cross-correlating 2-d convolution over ``[B, C, H, W]`` (zero padding);
    ``stride`` and ``padding`` are ``(rows, cols)`` pairs."""
    x, weight, bias = as_tensor(x), as_tensor(weight), as_tensor(bias)
    if x.data.ndim != 4 or weight.data.ndim != 4:
        raise ConfigurationError(
            f"conv2d expects x [B, C, H, W] and weight [O, C, kh, kw], got {x.shape}, {weight.shape}")
    ph, pw = padding
    height, width = x.data.shape[-2:]
    c_out, _, kh, kw = weight.data.shape
    if height + 2 * ph < kh or width + 2 * pw < kw:
        raise ConfigurationError(
            f"conv2d window {(kh, kw)} larger than padded input {(height + 2 * ph, width + 2 * pw)}")
    if bias.data.shape != (c_out,):
        raise ConfigurationError(
            f"conv2d bias shape {bias.data.shape} does not match out channels {c_out}")
    out, grads = _conv_forward(x.data, weight.data, bias.data, ((ph, ph), (pw, pw)), stride)
    return Tensor._node(out, (x, weight, bias), grads)


def max_pool2d(x: Tensor, window, stride, padding=(0, 0)) -> Tensor:
    """Max pooling over ``[B, C, H, W]`` with ``(rows, cols)`` pairs for
    ``window``, ``stride`` and ``padding``; padded cells are -inf, never
    selected unless a window contains only padding (rejected as a
    configuration error). Each window's gradient goes to its first maximum."""
    x = as_tensor(x)
    if x.data.ndim != 4:
        raise ConfigurationError(f"max_pool2d expects [B, C, H, W], got {x.shape}")
    (wh, ww), (sh, sw), (ph, pw) = window, stride, padding
    if ph >= wh or pw >= ww:
        raise ConfigurationError("pool padding must be smaller than the window")
    height, width = x.data.shape[-2:]
    if min(height, width) < 1 or height + 2 * ph < wh or width + 2 * pw < ww:
        raise ConfigurationError(
            f"pool window {(wh, ww)} does not fit input {(height, width)} padded by {(ph, pw)}")

    xp = _padded(x.data, ((ph, ph), (pw, pw)), -np.inf)
    win = _tap_window(xp, (wh, ww), (sh, sw))
    flat = win.reshape(win.shape[:4] + (wh * ww,))
    idx = flat.argmax(axis=-1)
    out = np.take_along_axis(flat, idx[..., None], axis=-1)[..., 0]

    def backward(g):
        gxp = np.zeros_like(xp)
        gwin = _tap_window(gxp, (wh, ww), (sh, sw))
        for tap, (p, q) in enumerate(product(range(wh), range(ww))):
            gwin[..., p, q] += np.where(idx == tap, g, 0.0)
        return (gxp[:, :, ph: ph + height, pw: pw + width],)

    return Tensor._node(out, (x,), backward)


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


def _tap_window(xp: np.ndarray, taps, stride) -> np.ndarray:
    """The view ``win[b, c, i, j, p, q]`` of the C-contiguous ``xp`` cell that
    tap (p, q) of output (i, j) reads: the one place grid taps are laid out.
    Output (i, j) starts at cell ``(i * sh, j * sw)``. Backward passes add
    into the same view of the input gradient, one tap at a time (a tap meets
    a cell once).
    """
    batch, chans, height, width = xp.shape
    (kh, kw), (sh, sw) = taps, stride
    s_b, s_c, s_h, s_w = xp.strides
    shape = (batch, chans, (height - kh) // sh + 1, (width - kw) // sw + 1, kh, kw)
    return np.ndarray(shape, xp.dtype, xp, 0, (s_b, s_c, sh * s_h, sw * s_w, s_h, s_w))


def _conv_forward(xd: np.ndarray, wd: np.ndarray, bd: np.ndarray, pads, stride):
    """The numpy forward of the grid convolution: ``xd`` ``[B, C, H, W]``
    zero-padded by ``pads``, correlated with ``wd`` ``[O, C, kh, kw]`` and
    shifted by ``bd``.

    Returns the output ``[B, O, H_out, W_out]`` and its backward, a function
    from the output gradient to those of ``xd``, ``wd`` and ``bd``. The tap
    window is an im2col matrix, row (b, i, j) in (c, p, q) order like the
    rows of ``wd.reshape(O, -1)``, and one GEMM does the rest.
    """
    c_out, c_in, kh, kw = wd.shape
    if xd.shape[1] != c_in:
        raise ConfigurationError(
            f"input has {xd.shape[1]} channels but the weight expects {c_in}")
    batch = xd.shape[0]
    xp = _padded(xd, pads)
    win = _tap_window(xp, (kh, kw), stride)
    h_out, w_out = win.shape[2:4]
    cols = win.transpose(0, 2, 3, 1, 4, 5).reshape(batch * h_out * w_out, c_in * kh * kw)
    w2 = wd.reshape(c_out, c_in * kh * kw)
    out = cols @ w2.T
    out += bd
    out = out.reshape(batch, h_out, w_out, c_out).transpose(0, 3, 1, 2)

    def backward(g):
        g4 = np.reshape(g, (batch, c_out, h_out, w_out))
        g2 = g4.transpose(0, 2, 3, 1).reshape(-1, c_out)
        # col2im: each tap's column block goes back where the tap read it
        gcols = (g2 @ w2).reshape(batch, h_out, w_out, c_in, kh, kw)
        gxp = np.zeros_like(xp)
        gwin = _tap_window(gxp, (kh, kw), stride)
        for p, q in product(range(kh), range(kw)):
            gwin[..., p, q] += gcols[..., p, q].transpose(0, 3, 1, 2)
        (top, _), (left, _) = pads
        gx = gxp[:, :, top: top + xd.shape[2], left: left + xd.shape[3]]
        return gx, (g2.T @ cols).reshape(wd.shape), g4.sum(axis=(0, 2, 3))

    return out, backward


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


def _batch_statistics(x2: np.ndarray, eps: float):
    """``(xhat, mean, var, inv_sd)`` of the rows of ``x2`` ``[M, C]``: the
    input normalized in place and its per-channel statistics, each ``[C]``.
    The sums over rows are one GEMV each, which beats numpy's reduction
    along a short inner axis. Zero rows have no statistics and raise
    ConfigurationError."""
    rows = x2.shape[0]
    if not rows:
        raise ConfigurationError("train-mode batch norm needs at least one row; "
                                 "zero rows have no statistics")
    mean = np.ones(rows, x2.dtype) @ x2 / rows
    xhat = x2
    xhat -= mean
    var = np.einsum("ij,ij->j", xhat, xhat) / rows
    inv_sd = 1.0 / np.sqrt(var + eps)
    xhat *= inv_sd
    return xhat, mean, var, inv_sd


def _track(running: Optional[RunningStats], mean: np.ndarray, var: np.ndarray,
           momentum: float) -> None:
    """``running = (1 - momentum) * running + momentum * batch``, in place."""
    if running is not None:
        m = float(momentum)
        running.mean[:] = (1.0 - m) * running.mean + m * mean
        running.var[:] = (1.0 - m) * running.var + m * var


def _batch_norm_backward(grad: np.ndarray, xhat: np.ndarray, scale: np.ndarray, train: bool):
    """Gradients of the input, ``gamma`` and ``beta`` of ``xhat * gamma + beta``
    from the output gradient, all ``[M, C]``; ``scale`` is ``gamma * inv_sd``.
    In train mode the batch statistics depend on the input too."""
    gsum = np.ones(grad.shape[0], grad.dtype) @ grad
    gdot = np.einsum("ij,ij->j", grad, xhat)
    if train:  # grad - (gsum + xhat * gdot) * (1 / M), in one buffer
        gx = xhat * gdot
        gx += gsum
        gx *= 1.0 / xhat.shape[0]
        np.subtract(grad, gx, out=gx)
        gx *= scale
    else:
        gx = grad * scale
    return gx, gdot, gsum


def batch_norm(x: Tensor, gamma: Tensor, beta: Tensor,
               running: Optional[RunningStats], mode: str,
               momentum: float = 0.1, eps: float = 1e-5) -> Tensor:
    """Normalize per channel (axis after batch) over all other axes.

    Train mode uses batch statistics and folds them into ``running`` with
    ``running = (1 - momentum) * running + momentum * batch``; eval mode is
    the per-channel affine ``x * a + (beta - mean * a)`` with
    ``a = gamma / sqrt(var + eps)`` from the running statistics. Train mode
    on an input with no rows raises ConfigurationError and leaves
    ``running`` as it was. The op is
    one graph node over the channels-last rows ``[M, C]`` that
    :func:`conv_unit` normalizes too; eval mode recomputes ``xhat`` in its
    backward.
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
    last = np.moveaxis(xd, c_axis, -1)
    x2 = last.reshape(-1, channels)
    g, b = gamma.data, beta.data

    if mode == "train":
        xhat, mean, var, inv_sd = _batch_statistics(x2.copy(), eps)
        out = xhat * g
        out += b
        _track(running, mean, var, momentum)
    else:
        if running is None:
            raise ConfigurationError(
                "batch_norm eval mode needs running statistics; none were recorded")
        mean = running.mean.astype(xd.dtype)
        inv_sd = 1.0 / np.sqrt(running.var.astype(xd.dtype) + eps)
        xhat = None
        out = x2 * (g * inv_sd)
        out += b - mean * g * inv_sd

    def backward(grad):
        xh = (x2 - mean) * inv_sd if xhat is None else xhat
        g2 = np.moveaxis(grad, c_axis, -1).reshape(-1, channels)
        gx, ggamma, gbeta = _batch_norm_backward(g2, xh, g * inv_sd, xhat is not None)
        return np.moveaxis(gx.reshape(last.shape), -1, c_axis), ggamma, gbeta

    return Tensor._node(np.moveaxis(out.reshape(last.shape), -1, c_axis), (x, gamma, beta),
                        backward)


def conv_unit(x: Tensor, kern: Kernel1D, gamma: Optional[Tensor], beta: Optional[Tensor],
              stats: Optional[RunningStats], mode: str, activation: str = "identity",
              pad_mode: str = "causal", momentum: float = 0.1, eps: float = 1e-5) -> Tensor:
    """``activation(batch_norm(dilated_conv1d(x, kern, pad_mode), gamma, beta,
    stats, mode, momentum, eps))`` as one graph node on a channels-last
    ``[N, T, C]`` or ``[T, C]`` sequence; without batch norm when ``gamma`` is
    None. The kernel has a bias just when batch norm, whose centering would
    cancel it, is off.

    Eval mode folds the running statistics, ``gamma`` and ``beta`` into the
    convolution on every call, ``w * a`` and ``beta - mean * a`` with
    ``a = gamma / sqrt(var + eps)``; nothing is cached, so a later change to
    any of them shows in the next call. Its output matches the chain of
    three ops to rounding, and its backward carries the gradient back
    through the fold. Train mode normalizes with the statistics over the
    ``N * T`` rows of the output and moves ``stats`` as :func:`batch_norm`
    does; output and statistics equal the chain's bit for bit. Like
    :func:`batch_norm`, train mode with batch norm on an input with no rows
    raises ConfigurationError and leaves ``stats`` as they were. The
    activation runs in place on the unit's own buffer.
    """
    x = as_tensor(x)
    if mode not in ("train", "eval"):
        raise ConfigurationError(f"conv_unit mode must be 'train' or 'eval', got {mode!r}")
    act = _activation(activation)[1]
    w, b = kern.weights, kern.bias
    norm = gamma is not None
    if norm == (b is not None):
        raise ConfigurationError("conv_unit needs exactly one of a kernel bias and batch norm")
    if norm:
        channels = w.data.shape[0]
        if gamma.data.shape != (channels,) or beta.data.shape != (channels,):
            raise ConfigurationError(
                f"conv_unit scale/shift must have shape ({channels},), "
                f"got {gamma.shape}, {beta.shape}")
        if stats is None and mode == "eval":
            raise ConfigurationError(
                "conv_unit eval mode needs running statistics; none were recorded")
        parents = (x, w, gamma, beta)
    else:
        parents = (x, w, b)
    fold = norm and mode == "eval"
    train_norm = norm and mode == "train"

    wd, bd = w.data, None if norm else b.data
    if fold:
        mean, sd = stats.mean.copy(), np.sqrt(stats.var + eps)
        scale = gamma.data / sd
        wd = wd * scale[:, None, None]
        bd = beta.data - mean * scale
    z, conv_grads = _tap_shift(x.data, wd, bd, kern.dilation, kern.groups, pad_mode)
    z2 = z.reshape(-1, z.shape[-1])
    if train_norm:
        xhat, mean, var, inv_sd = _batch_statistics(z2, eps)
        z2 = xhat * gamma.data
        z2 += beta.data
        _track(stats, mean, var, momentum)
    out, act_grad = act(z2, True)  # z2 is this call's own buffer

    def backward(grad):
        gz = act_grad(np.reshape(grad, z2.shape))
        if train_norm:
            gz, ggamma, gbeta = _batch_norm_backward(gz, xhat, gamma.data * inv_sd, True)
        gx, gw, gb = conv_grads(gz)
        if fold:
            # back through w * a and beta - mean * a, a = gamma / sd
            gbeta = gb
            ggamma = ((gw * w.data).sum(axis=(1, 2)) - gb * mean) / sd
            gw = gw * scale[:, None, None]
        return (gx, gw, ggamma, gbeta) if norm else (gx, gw, gb)

    return Tensor._node(out.reshape(z.shape), parents, backward)


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


def lstm_cell(x_t: Tensor, h_prev: Tensor, c_prev: Tensor,
              weights: LstmWeights) -> Tuple[Tensor, Tensor]:
    """One LSTM step over a batch: returns (h_t, c_t), the halves of one node."""
    x_t, h_prev, c_prev = as_tensor(x_t), as_tensor(h_prev), as_tensor(c_prev)
    h, rows = weights.hidden, h_prev.data.shape[:1]
    if x_t.data.shape != rows + (weights.input_size,) \
            or h_prev.data.shape != rows + (h,) or c_prev.data.shape != h_prev.data.shape:
        raise ConfigurationError(
            f"lstm_cell shapes: x {x_t.shape}, h {h_prev.shape}, "
            f"c {c_prev.shape}, input {weights.input_size}, hidden {h}")
    w_ih, w_hh, bias = weights.w_ih, weights.w_hh, weights.bias
    # ops run in the composed cell's order, so every bit matches it forward and back
    gates = (x_t.data @ w_ih.data.T + bias.data) + h_prev.data @ w_hh.data.T
    act = np.empty_like(gates)
    out = np.empty((2,) + h_prev.data.shape, np.result_type(gates, c_prev.data))
    tc = np.empty_like(out[1])
    with np.errstate(over="ignore"):
        _lstm_step(gates, c_prev.data, act, out[1], tc, out[0])

    def backward(grad):
        da = np.empty_like(act)
        dc = _lstm_step_backward(grad[0], grad[1], act, c_prev.data, tc, da)
        return (da @ w_hh.data, dc, da.T @ h_prev.data, da.sum(axis=0),
                da @ w_ih.data, da.T @ x_t.data)

    step = Tensor._node(out, (h_prev, c_prev, w_hh, bias, x_t, w_ih), backward)
    return step[0], step[1]


def lstm_unroll(state: Tensor, weights: LstmWeights, steps: int) -> Tensor:
    """``steps`` LSTM steps without input from ``state`` ``[B, 2h]``, laid out
    ``(h0 | c0)``, as one graph node: the hidden state of every step,
    ``[B, steps, h]``.

    The output equals a chain of ``lstm_cell`` calls on a zero input bit
    for bit. Every step runs in buffers allocated once per call (never kept
    between calls, so concurrent inference shares nothing). Only while the
    graph records does the op keep each step's activations and cell state
    for its backward through time, which computes the ``w_hh`` gradient as
    one GEMM over all ``steps * B`` rows and so sums in another order than
    the chain. ``w_ih`` takes no part, where the chain gives it an all-zero
    gradient. ``h0`` and ``c0`` are read as views of ``state``, and its
    gradient is theirs side by side.
    """
    state = as_tensor(state)
    h = weights.hidden
    if isinstance(steps, bool) or not isinstance(steps, (int, np.integer)) or steps < 1 \
            or state.data.ndim != 2 or state.data.shape[1] != 2 * h:
        raise ConfigurationError(
            f"lstm_unroll needs steps >= 1 and a state of shape [B, {2 * h}]: "
            f"steps {steps!r}, state {state.shape}")
    w_hh, bias = weights.w_hh, weights.bias
    parents = (state, w_hh, bias)
    keep = steps if Tensor._records(parents) else 1  # one slot, reused, when nothing records
    dtype = np.result_type(state.data, w_hh.data, bias.data)
    batch = state.data.shape[0]
    h0, c0 = state.data[:, :h], state.data[:, h:]
    gates = np.empty((batch, 4 * h), dtype)
    acts = np.empty((keep, batch, 4 * h), dtype)
    cs = np.empty((keep, batch, h), dtype)
    tcs = np.empty((keep, batch, h), dtype)
    hs = np.empty((batch, steps, h), dtype)
    w_t, b, h_prev, c_prev = w_hh.data.T, bias.data, h0, c0
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
            dc = _lstm_step_backward(dh, dc, acts[t], c0 if t == 0 else cs[t - 1],
                                     tcs[t], da[t])
            dh = da[t] @ w_hh.data
        h_read = np.concatenate([h0[None], hs[:, :-1].transpose(1, 0, 2)])
        return (np.concatenate([dh, dc], axis=1),
                da.reshape(-1, 4 * h).T @ h_read.reshape(-1, h), da.sum(axis=(0, 1)))

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
    bounds = np.cumsum([t.data.shape[axis] for t in ts])[:-1]
    return Tensor._node(out, ts, lambda g: np.split(np.asarray(g), bounds, axis=axis))


def stack(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Stack equal-shaped tensors along a new axis."""
    ts = [as_tensor(t) for t in tensors]
    if not ts:
        raise ConfigurationError("stack needs at least one tensor")
    out = np.stack([t.data for t in ts], axis=axis)
    return Tensor._node(out, ts, lambda g: np.moveaxis(np.asarray(g), axis, 0))


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

    return Tensor._node(out, (features,),
                        lambda g: (np.asarray(g)[bi, :, cl[:, 0], cl[:, 1]],))
