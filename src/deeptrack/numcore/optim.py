"""Adam with gradient clipping over named parameter dictionaries."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Mapping

import numpy as np

from .tensor import NumericsError, ConfigurationError, Tensor, check_fields

__all__ = ["AdamState", "GradNorm", "adam_step", "global_grad_norm", "clip_gradients"]

CLIP_MODES = ("norm", "value", "none")


@dataclass
class AdamState:
    """Optimizer hyperparameters plus per-parameter moment estimates."""
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    clip_norm: float = 10.0
    clip_mode: str = "norm"
    step_count: int = 0
    first_moment: Dict[str, np.ndarray] = field(default_factory=dict)
    second_moment: Dict[str, np.ndarray] = field(default_factory=dict)

    def __post_init__(self):
        check_fields(self)
        if self.clip_mode not in CLIP_MODES:
            raise ConfigurationError(
                f"clip_mode must be one of {CLIP_MODES}, got {self.clip_mode!r}")
        if not self.lr > 0:
            raise ConfigurationError(f"learning rate must be positive, got {self.lr}")
        # a negative bound flips the sign of every clipped gradient, so the
        # step would climb the loss
        if not self.clip_norm > 0:
            raise ConfigurationError(f"clip_norm must be positive, got {self.clip_norm}")


def global_grad_norm(grads: Mapping[str, np.ndarray]) -> float:
    """L2 norm of all gradients flattened together."""
    total = 0.0
    for g in grads.values():
        total += float(np.dot(g.reshape(-1), g.reshape(-1)))
    return float(np.sqrt(total))


class GradNorm(float):
    """The global gradient norm before clipping. It is that number wherever
    a float goes; ``clipped`` tells whether clipping changed any gradient."""

    def __new__(cls, norm: float, clipped: bool):
        out = super().__new__(cls, norm)
        out.clipped = clipped
        return out


def clip_gradients(grads: Dict[str, np.ndarray], state: AdamState) -> GradNorm:
    """Clip ``grads`` in place per ``state.clip_mode``; returns the pre-clip norm.

    norm mode rescales every gradient by clip_norm / ||g|| when the global
    norm exceeds the threshold; value mode clamps each entry to
    [-clip_norm, clip_norm].
    """
    norm = global_grad_norm(grads)
    clipped = state.clip_mode == "norm" and norm > state.clip_norm
    if clipped:
        scale = state.clip_norm / norm
        for name in grads:
            grads[name] = grads[name] * scale
    elif state.clip_mode == "value":
        for name, g in grads.items():
            clipped = clipped or bool(np.any(np.abs(g) > state.clip_norm))
            grads[name] = np.clip(g, -state.clip_norm, state.clip_norm)
    return GradNorm(norm, clipped)


def adam_step(params: Mapping[str, Tensor], grads: Dict[str, np.ndarray],
              state: AdamState) -> GradNorm:
    """One Adam update, in place on ``params`` data; returns the global
    gradient norm before clipping, as :func:`clip_gradients` reports it.

    Gradients are validated for finiteness before any state mutation so an
    aborted step leaves parameters and moments untouched.
    """
    missing = [n for n in params if n not in grads]
    if missing:
        raise ConfigurationError(f"gradients missing for parameters: {missing[:5]}")
    bad = [n for n, g in grads.items() if not np.isfinite(g).all()]
    if bad:
        raise NumericsError(f"non-finite gradient for parameters: {sorted(bad)[:5]}")

    norm = clip_gradients(grads, state)
    state.step_count += 1
    t = state.step_count
    bc1 = 1.0 - state.beta1 ** t
    bc2 = 1.0 - state.beta2 ** t
    for name, p in params.items():
        g = grads[name].astype(np.float64, copy=False)
        m = state.first_moment.get(name)
        v = state.second_moment.get(name)
        if m is None:
            m = np.zeros_like(g)
            v = np.zeros_like(g)
        m = state.beta1 * m + (1.0 - state.beta1) * g
        v = state.beta2 * v + (1.0 - state.beta2) * g * g
        state.first_moment[name] = m
        state.second_moment[name] = v
        update = (state.lr * (m / bc1) / (np.sqrt(v / bc2) + state.epsilon))
        p.data -= update.astype(p.data.dtype, copy=False)
    return norm
