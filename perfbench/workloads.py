"""The three stages a user runs: ingest a recording, train, predict.

Every run executes all three stages, so that every result carries every
metric. Each stage runs in a fresh process of its own, one after another,
after a first one has written the inputs; a stage is then measured the way a
user's process would see it, whatever ran before it. The workload picks the
stage that is set up several times and repeated for the measured seconds
(its home stage); the others run ``MIN_ROUNDS`` rounds.

A round is a fixed list of operations, so every run attempts whole rounds:
- ingest: parse the recording, window it keeping every ``INGEST_STRIDE``-th
  anchor, split, then save the windows archive and load it back,
  ``ARCHIVE_REPEATS`` times;
- train: ``LEARNING_STEPS`` minibatch steps at batch 32 and one validation
  pass on the train workload, ``PROBE_STEPS`` steps elsewhere;
- predict: one ``predict`` call per anchored frame on the 5 Hz grid,
  ``forward`` on every ``SINGLE_EVERY``-th of those samples, then
  ``evaluate`` on the first ``EVAL_SAMPLES`` held-out samples,
  ``EVAL_WARMUPS`` untimed and ``EVAL_REPEATS`` timed times.
Calls are closed-loop: each starts when the previous one returns.
"""

from __future__ import annotations

import dataclasses
import resource
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional

import numpy as np

from deeptrack.atcn import receptive_field
from deeptrack.ingest import (
    NeighborTrack, WindowConfig, load_samples, parse_tracks, save_samples,
    split_dataset, window_samples,
)
from deeptrack.model import DeepTrack, collate
from deeptrack.numcore import AdamState, adam_step, load_weights, save_weights
from deeptrack.trainer import evaluate, mse_loss, zero_baseline

import checks
import layers
from clock import Clock
from recording import Recording, generate
from tracing import Tracer

DATASET_ID = "bench"
RECORDING, ARCHIVE, CHECKPOINT = "tracks.tsv", "windows.bin", "checkpoint.bin"
INGEST_ARCHIVE = "ingest.bin"
MODEL_SEED = 0
BATCH = 32                  # the trainer's default minibatch
LEARNING_RATE = 3e-3
LEARNING_STEPS = 64         # enough to pass the learning gate on every seed tried
PROBE_STEPS = 16
FRAME_EVERY = 2             # predict at 5 Hz on the 10 Hz recording
SINGLE_EVERY = 30
INGEST_STRIDE = 4           # every 4th anchor: a round lasts about a second
ARCHIVE_REPEATS = 3         # save and load calls per ingest round
EVAL_SAMPLES = 256          # one batch at evaluate's default size
EVAL_WARMUPS = 1            # the first call in a process faults in all its memory
EVAL_REPEATS = 4
SETUP_REPEATS = {"ingest": 9, "train": 3, "predict": 5}   # the home stage's set-ups
MIN_ROUNDS = {"ingest": 4, "train": 1, "predict": 1}
METRIC_STEPS = (5, 10, 15, 20, 25)   # 1..5 s at 5 Hz
GRADIENT_PROBES = ("social.conv1.w", "decoder.w_hh", "neighbor_encoder.block0.conv.w")
FD_STEP = 1e-6
FD_CANDIDATES = 4
FD_SMOOTH_TOL = 1e-7


class OperationFailed(RuntimeError):
    pass


def prepare_inputs(seed: int, work: str) -> None:
    """Write the recording, its windows archive and the initial checkpoint.

    Runs in a child process, so that the measuring process starts like a
    user's process: it loads an archive and a checkpoint, and no earlier
    stage has shaped its allocator.
    """
    work_dir = Path(work)
    generate(seed).write(work_dir / RECORDING)
    points, _ = parse_tracks(str(work_dir / RECORDING))
    samples, _ = window_samples(points, WindowConfig(), DATASET_ID)
    save_samples(work_dir / ARCHIVE, samples)
    model = DeepTrack(seed=MODEL_SEED)
    save_weights(work_dir / CHECKPOINT, model.parameters(), model.buffers(),
                 model.config_digest)


@dataclass
class Run:
    """State shared by the stages of one run."""
    seed: int
    work: Path
    tracer: Tracer
    clock: Clock = field(default_factory=Clock)
    attempted: int = 0
    failed: int = 0
    failures: List[str] = field(default_factory=list)

    def call(self, name: str, fn: Callable, *args, key=None, scale: bool = True):
        """One timed operation: (result, seconds); the result is None on failure.

        ``scale`` reports the time at the clock's reference speed, from the
        loops timed around the call. Unscaled are ``evaluate``, which faults
        in most of its memory afresh and follows the memory system rather than
        the loop, and the ingest calls, which their stage scales as a whole.
        """
        self.attempted += 1
        before = self.clock.reference()
        error = None
        with self.tracer.span(name, key):
            start = time.perf_counter()
            try:
                out = fn(*args)
            except Exception as exc:  # counted and reported; the run goes on
                out, error = None, exc
            raw = time.perf_counter() - start
        if error is not None:
            self.failed += 1
            traceback.print_exception(error, file=sys.stderr)
        after = self.clock.reference()
        return out, self.clock.scale(raw, before, after) if scale else raw

    def need(self, name: str, fn: Callable, *args, key=None, scale: bool = True):
        """An operation later work depends on: its failure ends the run."""
        out, seconds = self.call(name, fn, *args, key=key, scale=scale)
        if out is None:
            raise OperationFailed(f"{name} failed; nothing after it can run")
        return out, seconds

    def measure(self, fn: Callable) -> float:
        """Seconds of ``fn()``, a stage set-up, scaled by the loops around it."""
        before = self.clock.reference()
        start = time.perf_counter()
        fn()
        raw = time.perf_counter() - start
        return self.clock.scale(raw, before, self.clock.reference())

    def check(self, fn: Callable, *args) -> None:
        try:
            fn(*args)
        except checks.CheckFailed as err:
            self.failures.append(f"{fn.__name__}: {err}")


def repeat_rounds(run_round: Callable[[int], float], seconds: float, least: int) -> int:
    """Run at least ``least`` rounds, and more until their time reaches ``seconds``."""
    rounds, spent = 0, 0.0
    while rounds < least or spent < seconds:
        spent += run_round(rounds)
        rounds += 1
    return rounds


def graph_nodes(root) -> int:
    """Tensors reachable from ``root`` through the autodiff graph.

    The tensor keeps its parents in ``_parents``; there is no public walk.
    """
    seen = {id(root)}
    todo = [root]
    while todo:
        for parent in todo.pop()._parents:
            if id(parent) not in seen:
                seen.add(id(parent))
                todo.append(parent)
    return len(seen)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values), q))


# ---------------------------------------------------------------------------
# ingest
# ---------------------------------------------------------------------------

class IngestStage:
    def __init__(self, run: Run):
        self.run = run
        self.window = WindowConfig(stride=INGEST_STRIDE)
        self.raw = run.work / RECORDING
        self.archive = run.work / INGEST_ARCHIVE
        self.recording: Optional[Recording] = None
        self.setup_s: List[float] = []
        self.windows_per_s: List[float] = []
        self.save_per_s: List[float] = []
        self.load_per_s: List[float] = []
        self.samples = 0
        self.mean_in_grid = 0.0
        self.in_grid_ratio = 0.0
        self.bytes_per_sample = 0.0

    def setup(self) -> None:
        with self.run.tracer.span("ingest.setup"):
            self.recording = generate(self.run.seed)
            self.recording.write(self.raw)

    def round(self, index: int) -> float:
        run = self.run
        (points, _), parse_s = run.need("ingest.parse", parse_tracks, str(self.raw),
                                        key=index, scale=False)
        (samples, stats), window_s = run.need("ingest.window", window_samples, points,
                                              self.window, DATASET_ID, key=index,
                                              scale=False)
        parts, split_s = run.need("ingest.split", split_dataset, samples, key=index,
                                  scale=False)
        spent = parse_s + window_s + split_s
        self.windows_per_s.append(len(samples) / spent)
        for _ in range(ARCHIVE_REPEATS):
            _, save_s = run.call("ingest.save", save_samples, self.archive, samples,
                                 key=index, scale=False)
            loaded, load_s = run.need("ingest.load", load_samples, self.archive, key=index,
                                      scale=False)
            self.save_per_s.append(len(samples) / save_s)
            self.load_per_s.append(len(samples) / load_s)
            spent += save_s + load_s
        if index == 0:
            run.check(checks.check_windows, self.recording, samples, self.window)
            run.check(checks.check_partitions, samples, parts)
            run.check(checks.check_archive, samples, loaded)
            self.samples = len(samples)
            self.mean_in_grid = stats.neighbors_in_grid / len(samples)
            self.in_grid_ratio = stats.neighbors_in_grid / (
                stats.neighbors_in_grid + stats.neighbors_outside)
            self.bytes_per_sample = self.archive.stat().st_size / len(samples)
        return spent

    def figures(self) -> dict:
        # every ingest call is long enough to average over speed changes; the
        # stage's mean loop time says how fast the machine ran meanwhile
        speed = 1.0 / self.run.clock.stage_scale()
        return {"setup_s": self.setup_s,
                "windows_per_s": [r * speed for r in self.windows_per_s],
                "save_per_s": [r * speed for r in self.save_per_s],
                "load_per_s": [r * speed for r in self.load_per_s],
                "vehicles": len(self.recording.vehicle_ids), "samples": self.samples,
                "mean_in_grid": self.mean_in_grid, "in_grid_ratio": self.in_grid_ratio,
                "bytes_per_sample": self.bytes_per_sample}


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------

class TrainStage:
    def __init__(self, run: Run, home: bool):
        self.run = run
        self.home = home
        self.steps = LEARNING_STEPS if home else PROBE_STEPS
        self.archive = run.work / ARCHIVE
        self.setup_s: List[float] = []
        self.step_s: List[float] = []
        self.losses: List[float] = []
        self.val_ade: Optional[float] = None
        self.baseline_ade: Optional[float] = None
        self.model: Optional[DeepTrack] = None

    def setup(self) -> None:
        self.train = self.val = self.model = None  # let a repeated set-up start clean
        with self.run.tracer.span("train.setup"):
            samples = self.run.need("train.load", load_samples, self.archive)[0]
            self.train, self.val, _ = split_dataset(samples)
            self.model = DeepTrack(seed=MODEL_SEED)
            self.params = self.model.parameters()
            self.optimizer = AdamState(lr=LEARNING_RATE)
        if len(self.train) < self.steps * BATCH:
            raise OperationFailed(f"{len(self.train)} training samples cannot fill "
                                  f"{self.steps} batches of {BATCH}")

    def _step(self, chunk) -> float:
        tracer, model = self.run.tracer, self.model
        with tracer.span("train.collate"):
            batch = collate(chunk, model.config)
        with tracer.span("train.forward"):
            model.zero_grad()
            loss = mse_loss(model.forward_batch(batch, "train"), batch.future)
        if tracer.enabled and not tracer.counts["train.graph_nodes"]:
            tracer.count("train.graph_nodes", graph_nodes(loss))
        with tracer.span("train.backward"):
            loss.backward()
        with tracer.span("train.adam"):
            active = {n: t for n, t in self.params.items() if t.grad is not None}
            adam_step(active, {n: t.grad for n, t in active.items()}, self.optimizer)
        return loss.item()

    def gradient_probe(self, chunk) -> None:
        """Finite differences on the largest entries of a few parameters' gradients.

        Max pooling makes the loss piecewise smooth. An entry whose central
        differences at two step sizes disagree sits near a kink, where finite
        differences say nothing about the gradient; it is passed over for the
        next largest.
        """
        model = self.model
        saved = model.state_copy()
        batch = collate(chunk, model.config)

        def loss_value() -> float:
            return mse_loss(model.forward_batch(batch, "train"), batch.future).item()

        def central(flat, index, step) -> float:
            keep = flat[index]
            flat[index] = keep + step
            hi = loss_value()
            flat[index] = keep - step
            lo = loss_value()
            flat[index] = keep
            return (hi - lo) / (2.0 * step)

        model.zero_grad()
        mse_loss(model.forward_batch(batch, "train"), batch.future).backward()
        analytic, numeric = {}, {}
        for name in GRADIENT_PROBES:
            tensor = self.params[name]
            flat = tensor.data.reshape(-1)
            grad = tensor.grad.reshape(-1)
            for index in np.argsort(-np.abs(grad), kind="stable")[:FD_CANDIDATES]:
                fine, coarse = central(flat, index, FD_STEP), central(flat, index, 2 * FD_STEP)
                if abs(fine - coarse) <= FD_SMOOTH_TOL * max(1.0, abs(fine)):
                    analytic[f"{name}[{index}]"] = float(grad[index])
                    numeric[f"{name}[{index}]"] = fine
                    break
            else:
                self.run.failures.append(f"gradient_probe: no smooth entry among the "
                                         f"{FD_CANDIDATES} largest of {name}")
        model.zero_grad()
        model.load_state(*saved)  # the probe's forwards moved the batch-norm statistics
        self.run.check(checks.check_gradients, analytic, numeric)

    def round(self, index: int) -> float:
        run = self.run
        order = np.random.default_rng([run.seed, index]).permutation(len(self.train))
        chunks = [[self.train[i] for i in order[k * BATCH:(k + 1) * BATCH]]
                  for k in range(self.steps)]
        if index == 0 and self.home:
            self.gradient_probe(chunks[0])
        spent = 0.0
        for k, chunk in enumerate(chunks):
            loss, seconds = run.call("train.step", self._step, chunk, key=(index, k))
            spent += seconds
            if loss is not None:
                self.step_s.append(seconds)
                self.losses.append(loss)
        if index == 0:
            run.check(checks.check_losses, self.losses)
        if not self.home:  # a probe round is too short to learn anything
            return spent
        report, seconds = run.call("train.validate", evaluate, self.model, self.val,
                                   METRIC_STEPS, key=index)
        spent += seconds
        if index == 0 and report is not None:
            self.val_ade = report.ade
            self.baseline_ade = zero_baseline(self.val, METRIC_STEPS).ade
            run.check(checks.check_learning, self.val_ade, self.baseline_ade)
        return spent

    def figures(self) -> dict:
        return {"setup_s": self.setup_s, "step_s": self.step_s, "steps": len(self.step_s),
                "val_ade_m": self.val_ade, "val_standing_still_ade_m": self.baseline_ade}

    def layer_table(self) -> dict:
        """Per-layer times on the first training batch, checked against the cost model."""
        batch = collate(self.train[:BATCH], self.model.config)
        self.run.check(checks.check_layer_names,
                       list(layers.build_layers(self.model, batch)),
                       layers.cost_model_names(self.model))
        return layers.time_layers(self.model, batch)


# ---------------------------------------------------------------------------
# predict
# ---------------------------------------------------------------------------

def shift_old_history(sample, steps: int):
    """The sample with every history point older than ``steps`` moved by 1 m."""
    old = slice(0, sample.ego_history.shape[0] - steps)
    ego = sample.ego_history.copy()
    ego[old] += 1.0
    neighbors = []
    for n in sample.neighbors:
        track = n.track.copy()
        track[old] += 1.0
        neighbors.append(NeighborTrack(n.vehicle_id, n.cell, track, n.valid))
    return dataclasses.replace(sample, ego_history=ego, neighbors=neighbors)


class PredictStage:
    def __init__(self, run: Run):
        self.run = run
        self.archive = run.work / ARCHIVE
        self.checkpoint = run.work / CHECKPOINT
        self.setup_s: List[float] = []
        self.frame_s: List[float] = []
        self.single_s: List[float] = []
        self.eval_per_s: List[float] = []
        self.model: Optional[DeepTrack] = None

    def setup(self) -> None:
        run = self.run
        self.model = self.frames = self.singles = self.held_out = None
        with run.tracer.span("predict.setup"):
            with run.tracer.span("predict.archive_load"):
                samples = run.need("predict.load", load_samples, self.archive)[0]
            with run.tracer.span("predict.checkpoint_load"):
                model = DeepTrack(seed=MODEL_SEED)
                state = run.need("predict.load_weights", load_weights, self.checkpoint)[0]
                if state.config_hash != model.config_digest:
                    raise OperationFailed("checkpoint was written for another config")
                model.load_state(state.params, state.buffers)
            self.model = model
            held_out = {s.vehicle_id for part in split_dataset(samples)[1:] for s in part}
            by_frame: Dict[int, list] = {}
            for s in samples:
                by_frame.setdefault(s.t0_frame, []).append(s)
            first = min(by_frame)
            self.frames = [(frame, sorted(by_frame[frame], key=lambda s: s.vehicle_id))
                           for frame in sorted(by_frame)
                           if (frame - first) % FRAME_EVERY == 0]
            ordered = [s for _, group in self.frames for s in group]
            self.singles = ordered[::SINGLE_EVERY]
            self.held_out = [s for s in ordered if s.vehicle_id in held_out][:EVAL_SAMPLES]

    def _traced_frame(self, frame: int, group) -> None:
        """The frame again, split into its collate and forward calls."""
        tracer, model = self.run.tracer, self.model
        with tracer.span("predict.collate", frame):
            batch = collate(group, model.config)
        with tracer.span("predict.forward", frame):
            out = model.forward_batch(batch, "eval")
        tracer.count("predict.graph_nodes", graph_nodes(out))

    def round(self, index: int) -> float:
        run, model = self.run, self.model
        spent = 0.0
        predicted: Dict[tuple, np.ndarray] = {}
        for frame, group in self.frames:
            out, seconds = run.call("predict.frame", model.predict, group, key=frame)
            spent += seconds
            if out is None:
                continue
            self.frame_s.append(seconds)
            for s, row in zip(group, out):
                predicted[(s.vehicle_id, s.t0_frame)] = row
            if run.tracer.enabled:
                self._traced_frame(frame, group)
        singles = []
        for s in self.singles:
            out, seconds = run.call("predict.single", model.forward, s, key=s.sample_id)
            spent += seconds
            if out is not None:
                self.single_s.append(seconds)
                singles.append((s, out.data))
        for repeat in range(EVAL_WARMUPS + EVAL_REPEATS):
            report, seconds = run.call("predict.evaluate", evaluate, model, self.held_out,
                                       METRIC_STEPS, key=(index, repeat), scale=False)
            spent += seconds
            if report is not None and repeat >= EVAL_WARMUPS:
                self.eval_per_s.append(len(self.held_out) / seconds)
        if index == 0:
            self._check(predicted, singles, report)
        return spent

    def _check(self, predicted, singles, report) -> None:
        run, model = self.run, self.model
        for s, out in singles:
            run.check(checks.check_close, predicted[(s.vehicle_id, s.t0_frame)], out,
                      f"frame batch vs single forward for {s.sample_id}")
        if report is not None:
            pred = np.stack([predicted[(s.vehicle_id, s.t0_frame)] for s in self.held_out])
            truth = np.stack([s.future for s in self.held_out])
            run.check(checks.check_rmse, report, pred, truth, METRIC_STEPS)

        frame, group = max(self.frames, key=lambda item: len(item[1]))
        base = np.stack([predicted[(s.vehicle_id, s.t0_frame)] for s in group])
        reach = max(receptive_field(model.config.neighbor_atcn),
                    receptive_field(model.config.ego_atcn))
        moved = model.predict([shift_old_history(s, reach) for s in group])
        run.check(checks.check_identical, base, moved,
                  f"frame {frame} with history older than {reach} steps moved")

        again = run.work / "checkpoint_again.bin"
        save_weights(again, model.parameters(), model.buffers(), model.config_digest)
        state = load_weights(again)
        reloaded = DeepTrack(seed=MODEL_SEED + 1)
        reloaded.load_state(state.params, state.buffers)
        run.check(checks.check_identical, base, reloaded.predict(group),
                  f"frame {frame} after a checkpoint round trip")

    def figures(self) -> dict:
        return {"setup_s": self.setup_s, "frame_s": self.frame_s,
                "single_s": self.single_s, "eval_per_s": self.eval_per_s}


STAGES = {"ingest": IngestStage, "train": TrainStage, "predict": PredictStage}


def run_stage(name: str, seed: int, work: str, home: bool, seconds: float,
              trace: bool) -> dict:
    """Set up and run one stage in this process; returns its figures and spans.

    The home stage is set up ``SETUP_REPEATS[name]`` times and repeats rounds until
    their time reaches ``seconds``; any stage runs at least ``MIN_ROUNDS``.
    """
    run = Run(seed, Path(work), Tracer(trace))
    stage = TrainStage(run, home) if name == "train" else STAGES[name](run)
    for _ in range(SETUP_REPEATS[name] if home else 1):
        stage.setup_s.append(run.measure(stage.setup))
    repeat_rounds(stage.round, seconds if home else 0.0, MIN_ROUNDS[name])
    figures = stage.figures()
    figures["peak_rss_mb"] = peak_rss_mb()
    if trace and name == "train":
        figures["layers"] = stage.layer_table()
    return {"figures": figures, "attempted": run.attempted, "failed": run.failed,
            "failures": run.failures, "spans": run.tracer.spans,
            "counts": dict(run.tracer.counts), "clock": run.clock.summary()}

