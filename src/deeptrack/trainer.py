"""Training loop with plateau LR decay, plus horizon displacement metrics.

The metric report follows the usual convention for this kind of predictor:
RMSE of the euclidean displacement at a handful of decoder steps, and their
mean as the single summary number. Sums use ``math.fsum`` so the result does
not depend on sample order.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from .ingest import TrajectorySample
from .model import DeepTrack, collate
from .numcore import (
    AdamState,
    ConfigurationError,
    NumericsError,
    Tensor,
    adam_step,
    check_fields,
)
from .numcore.tensor import no_grad

__all__ = [
    "TrainConfig", "EpochRecord", "TrainResult", "TrainingDiverged",
    "EvalReport", "loss_fn", "mse_loss", "smooth_l1_loss",
    "train", "evaluate", "zero_baseline", "history_to_text",
]

DEFAULT_METRIC_STEPS = (5, 10, 15, 20, 25)


# ---------------------------------------------------------------------------
# losses
# ---------------------------------------------------------------------------

def _mean_loss(pred: Tensor, target: np.ndarray, term: Callable, slope: Callable) -> Tensor:
    """Mean of ``term(d)``, ``d = pred - target``, as one node; ``slope`` is term's derivative."""
    d = pred.data - np.asarray(target, dtype=pred.data.dtype)
    scale = np.array([1.0 / d.size], dtype=d.dtype)

    def backward(g):
        pred.accumulate_grad(slope(d) * (g * scale))

    return Tensor._node(term(d).sum() * scale, (pred,), backward)


def mse_loss(pred: Tensor, target: np.ndarray) -> Tensor:
    return _mean_loss(pred, target, lambda d: d * d, lambda d: 2.0 * d)


def smooth_l1_loss(pred: Tensor, target: np.ndarray, beta: float = 1.0) -> Tensor:
    """Quadratic inside ``|d| < beta``, linear outside; C1 at the seam."""
    return _mean_loss(
        pred, target,
        lambda d: np.where(np.abs(d) < beta, d * d * (0.5 / beta), np.abs(d) - 0.5 * beta),
        lambda d: np.where(np.abs(d) < beta, d / beta, np.sign(d)))


_LOSSES: Dict[str, Callable[[Tensor, np.ndarray], Tensor]] = {
    "mse": mse_loss,
    "smooth-l1": smooth_l1_loss,
}


def loss_fn(kind: str) -> Callable[[Tensor, np.ndarray], Tensor]:
    try:
        return _LOSSES[kind]
    except KeyError:
        raise ConfigurationError(
            f"unknown loss {kind!r}, expected one of {sorted(_LOSSES)}") from None


# ---------------------------------------------------------------------------
# configuration and results
# ---------------------------------------------------------------------------

@dataclass
class TrainConfig:
    epochs: int = 10
    batch_size: int = 32
    learning_rate: float = 1e-3
    clip_norm: float = 10.0
    clip_mode: str = "norm"
    loss: str = "mse"
    seed: int = 0
    plateau_factor: float = 0.1
    plateau_patience: int = 2
    min_improvement: float = 1e-4
    min_learning_rate: float = 1e-7

    def __post_init__(self):
        check_fields(self)
        if self.epochs < 1 or self.batch_size < 1:
            raise ConfigurationError("epochs and batch_size must be >= 1")
        if not 0.0 < self.plateau_factor < 1.0:
            raise ConfigurationError("plateau_factor must be in (0, 1)")
        if self.plateau_patience < 1:
            raise ConfigurationError("plateau_patience must be >= 1")
        if self.seed < 0:
            raise ConfigurationError(f"seed must be an integer >= 0, got {self.seed!r}")
        loss_fn(self.loss)
        self.optimizer()  # rejects a bad learning rate, clip norm or clip mode now

    def optimizer(self) -> AdamState:
        """A fresh Adam state with this run's learning rate and clipping."""
        return AdamState(lr=self.learning_rate, clip_norm=self.clip_norm,
                         clip_mode=self.clip_mode)


@dataclass
class EpochRecord:
    """One epoch's losses and telemetry. The two timing fields differ from
    run to run; everything else repeats exactly for the same seeds."""
    epoch: int          # 1-based
    train_loss: float
    val_loss: float
    learning_rate: float  # the rate the epoch's updates used
    seconds: float        # wall time of the training steps and the validation pass
    samples_per_s: float  # training samples over the wall time of the training steps
    grad_norm_mean: float  # global gradient norm before clipping, over the steps
    grad_norm_max: float
    clip_rate: float      # share of steps whose gradients clipping changed

    def as_dict(self) -> Dict:
        return {"epoch": self.epoch, "trainLoss": self.train_loss,
                "valLoss": self.val_loss, "learningRate": self.learning_rate,
                "seconds": self.seconds, "samplesPerS": self.samples_per_s,
                "gradNormMean": self.grad_norm_mean, "gradNormMax": self.grad_norm_max,
                "clipRate": self.clip_rate}


@dataclass
class TrainResult:
    history: List[EpochRecord]
    best_epoch: int
    best_val_loss: float
    best_params: Dict[str, np.ndarray]
    best_buffers: Dict[str, np.ndarray]


class TrainingDiverged(NumericsError):
    """Loss or gradients went non-finite; carries the last usable weights."""

    def __init__(self, message: str, history: List[EpochRecord],
                 params: Dict[str, np.ndarray], buffers: Dict[str, np.ndarray]):
        super().__init__(message)
        self.history = history
        self.params = params
        self.buffers = buffers


def history_to_text(history: Sequence[EpochRecord]) -> str:
    lines = [f"{'epoch':>5}  {'train':>12}  {'val':>12}  {'lr':>10}  {'seconds':>8}"
             f"  {'samples/s':>9}  {'norm mean':>10}  {'norm max':>10}  {'clipped':>7}"]
    for r in history:
        lines.append(f"{r.epoch:>5}  {r.train_loss:>12.6f}  {r.val_loss:>12.6f}"
                     f"  {r.learning_rate:>10.2e}  {r.seconds:>8.2f}  {r.samples_per_s:>9.1f}"
                     f"  {r.grad_norm_mean:>10.4g}  {r.grad_norm_max:>10.4g}"
                     f"  {r.clip_rate:>7.1%}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# the loop
# ---------------------------------------------------------------------------

def _epoch_loss(model: DeepTrack, samples: Sequence[TrajectorySample],
                batch_size: int, loss: Callable) -> float:
    """Eval-mode mean loss over ``samples`` (no graph, no stat updates)."""
    terms: List[float] = []
    with no_grad():
        for lo in range(0, len(samples), batch_size):
            batch = collate(samples[lo:lo + batch_size], model.config)
            value = loss(model.forward_batch(batch, "eval"), batch.future).item()
            terms.append(value * batch.size)
    return math.fsum(terms) / len(samples)


def train(model: DeepTrack, train_samples: Sequence[TrajectorySample],
          val_samples: Sequence[TrajectorySample], config: Optional[TrainConfig] = None,
          log: Optional[Callable[[str], None]] = None) -> TrainResult:
    """Fit ``model`` in place; returns the history and the best-epoch weights.

    Validation runs after every epoch in eval mode. When it fails to improve
    by ``min_improvement`` for ``plateau_patience`` consecutive epochs the
    learning rate is multiplied by ``plateau_factor``. A non-finite loss or
    gradient aborts with :class:`TrainingDiverged` carrying the best weights
    seen so far, so a long run cannot be lost to one bad step.
    """
    config = config or TrainConfig()
    if not train_samples or not val_samples:
        raise ConfigurationError("training and validation sets must be non-empty")
    loss = loss_fn(config.loss)
    optimizer = config.optimizer()
    rng = np.random.default_rng(config.seed)
    params = model.parameters()

    history: List[EpochRecord] = []
    best_params, best_buffers = model.state_copy()
    best_val = math.inf
    best_epoch = 0
    stale = 0

    def diverged(reason: str) -> TrainingDiverged:
        return TrainingDiverged(f"training diverged: {reason}",
                                history, best_params, best_buffers)

    order = np.arange(len(train_samples))
    for epoch in range(1, config.epochs + 1):
        rng.shuffle(order)
        epoch_lr = optimizer.lr
        started = time.perf_counter()
        terms: List[float] = []
        norms: List[float] = []
        clipped = 0
        for lo in range(0, len(order), config.batch_size):
            chunk = [train_samples[i] for i in order[lo:lo + config.batch_size]]
            batch = collate(chunk, model.config)
            model.zero_grad()
            value = loss(model.forward_batch(batch, "train"), batch.future)
            if not math.isfinite(value.item()):
                raise diverged(f"loss {value.item()} in epoch {epoch}")
            value.backward()
            # parameters outside the graph sit this step out: decoder.w_ih
            # when the decoder runs without input, the neighbor encoder on a
            # batch without a single in-grid neighbor
            active = {name: t for name, t in params.items() if t.grad is not None}
            grads = {name: t.grad for name, t in active.items()}
            # value mode clips entries, so only an entry beyond the bound tells
            entry_clipped = optimizer.clip_mode == "value" and any(
                np.any(np.abs(g) > optimizer.clip_norm) for g in grads.values())
            try:
                norm = adam_step(active, grads, optimizer)
            except NumericsError as exc:
                raise diverged(str(exc)) from exc
            norms.append(norm)
            clipped += entry_clipped or (optimizer.clip_mode == "norm"
                                         and norm > optimizer.clip_norm)
            terms.append(value.item() * batch.size)
        train_loss = math.fsum(terms) / len(train_samples)
        train_seconds = time.perf_counter() - started

        val_loss = _epoch_loss(model, val_samples, config.batch_size, loss)
        if not math.isfinite(val_loss):
            raise diverged(f"validation loss {val_loss} in epoch {epoch}")
        record = EpochRecord(epoch, train_loss, val_loss, epoch_lr,
                             seconds=time.perf_counter() - started,
                             samples_per_s=len(train_samples) / train_seconds,
                             grad_norm_mean=math.fsum(norms) / len(norms),
                             grad_norm_max=max(norms), clip_rate=clipped / len(norms))
        history.append(record)
        if log:
            log(f"epoch {epoch}: train {train_loss:.6f} val {val_loss:.6f} "
                f"lr {epoch_lr:.2e} {record.seconds:.2f} s {record.samples_per_s:.1f} "
                f"samples/s grad norm mean {record.grad_norm_mean:.4g} "
                f"max {record.grad_norm_max:.4g} clipped {record.clip_rate:.1%}")

        if val_loss < best_val - config.min_improvement:
            best_val = val_loss
            best_epoch = epoch
            best_params, best_buffers = model.state_copy()
            stale = 0
        else:
            stale += 1
            if stale >= config.plateau_patience:
                optimizer.lr = max(optimizer.lr * config.plateau_factor,
                                   config.min_learning_rate)
                stale = 0

    return TrainResult(history=history, best_epoch=best_epoch, best_val_loss=best_val,
                       best_params=best_params, best_buffers=best_buffers)


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

@dataclass
class EvalReport:
    """Displacement RMSE by decoder step plus their mean."""
    horizon_rmse: Dict[int, float]  # 1-based decoder step -> meters
    ade: float
    samples: int

    def to_text(self, seconds_per_step: float = 0.2) -> str:
        lines = [f"{'step':>6}  {'horizon':>8}  {'rmse_m':>8}"]
        for step, rmse in sorted(self.horizon_rmse.items()):
            lines.append(f"{step:>6}  {step * seconds_per_step:>7.1f}s  {rmse:>8.3f}")
        lines.append(f"mean displacement {self.ade:.3f} m over {self.samples} samples")
        return "\n".join(lines) + "\n"

    def as_dict(self) -> Dict:
        return {"horizonRmse": {str(k): v for k, v in sorted(self.horizon_rmse.items())},
                "ade": self.ade, "samples": self.samples}


def _metric_report(pred: np.ndarray, truth: np.ndarray,
                   steps: Sequence[int]) -> EvalReport:
    n, horizon = truth.shape[0], truth.shape[1]
    for step in steps:
        if not 1 <= step <= horizon:
            raise ConfigurationError(
                f"metric step {step} outside the horizon 1..{horizon}")
    rmse: Dict[int, float] = {}
    for step in steps:
        delta = pred[:, step - 1, :] - truth[:, step - 1, :]
        squared = delta[:, 0] ** 2 + delta[:, 1] ** 2
        rmse[step] = math.sqrt(math.fsum(squared.tolist()) / n)
    ade = math.fsum(rmse.values()) / len(rmse)
    return EvalReport(horizon_rmse=rmse, ade=ade, samples=n)


def evaluate(model: DeepTrack, samples: Sequence[TrajectorySample],
             steps: Sequence[int] = DEFAULT_METRIC_STEPS,
             batch_size: int = 256) -> EvalReport:
    """Eval-mode displacement RMSE of ``model`` at the requested steps."""
    if not samples:
        raise ConfigurationError("cannot evaluate on an empty sample set")
    pred = model.predict(samples, batch_size)
    truth = np.stack([s.future for s in samples])
    return _metric_report(pred, truth, steps)


def zero_baseline(samples: Sequence[TrajectorySample],
                  steps: Sequence[int] = DEFAULT_METRIC_STEPS) -> EvalReport:
    """Metrics for the constant-position predictor (all offsets zero).

    Positions are relative to the anchor frame, so standing still scores the
    raw displacement magnitude. Any useful model must beat this.
    """
    if not samples:
        raise ConfigurationError("cannot evaluate on an empty sample set")
    truth = np.stack([s.future for s in samples])
    return _metric_report(np.zeros_like(truth), truth, steps)
