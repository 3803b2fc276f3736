"""Smoke tests for the benchmark, on a small recording that runs in seconds.

Every stage passes its checks on the program as it is; every check rejects
a planted wrong answer; the layer table names exactly the cost model's
layers. Run from the repository root:

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import dataclasses
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from deeptrack.complexity import complexity_report
from deeptrack.configio import default_model_config
from deeptrack.ingest import (NeighborTrack, TrajectorySample, WindowConfig, load_samples,
                              parse_tracks, save_samples, split_dataset, window_samples)
from deeptrack.model import DeepTrack, collate
from deeptrack.trainer import evaluate

import checks
import layers
import recording
import workloads

SEED = 3
BENCH = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    """Every stage as its workload's home stage, traced, on 24 vehicles over 140 frames."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(recording, "VEHICLES", 24)
        patch.setattr(recording, "FRAMES", 140)
        patch.setattr(workloads, "BATCH", 8)
        patch.setattr(workloads, "LEARNING_STEPS", 48)
        work = tmp_path_factory.mktemp("bench")
        workloads.prepare_inputs(SEED, str(work))
        results = {name: workloads.run_stage(name, SEED, str(work), True, 0.0, True)
                   for name in ("train", "predict", "ingest")}
        yield work, results


@pytest.fixture(scope="module")
def windows(smoke):
    work, _ = smoke
    points, _ = parse_tracks(str(work / workloads.RECORDING))
    samples, _ = window_samples(points, WindowConfig(), workloads.DATASET_ID)
    return recording.generate(SEED), samples


def test_every_stage_passes_its_checks(smoke):
    _, results = smoke
    for result in results.values():
        assert result["failures"] == []
        assert result["failed"] == 0 and result["attempted"] > 0
    train = results["train"]["figures"]
    assert train["val_ade_m"] < 0.5 * train["val_standing_still_ade_m"]  # the gate ran
    assert len(train["layers"]) == 21
    for row in train["layers"].values():
        assert row["fwd_us"] > 0 and row["bwd_us"] > 0 and row["mmacs_per_s"] > 0
    assert results["ingest"]["figures"]["mean_in_grid"] >= 5.0
    spans = {span["name"] for result in results.values() for span in result["spans"]}
    assert {"train.backward", "predict.frame", "predict.forward", "ingest.window"} <= spans


def test_layer_names_match_the_cost_model():
    model = DeepTrack(seed=0)
    config = default_model_config()
    expected = [layer.name for layer in complexity_report(config).layers]
    assert len(expected) == 21
    assert layers.cost_model_names(model) == expected
    sample = _sample_with_neighbors()
    built = layers.build_layers(model, collate([sample, sample], model.config))
    assert list(built) == expected
    checks.check_layer_names(list(built), expected)
    with pytest.raises(checks.CheckFailed):
        checks.check_layer_names(list(built)[:-1], expected)


def _sample_with_neighbors():
    config = WindowConfig()
    rng = np.random.default_rng(0)
    h, f = config.history_points, config.future_points
    neighbors = [NeighborTrack(10 + i, (i, 1), rng.normal(size=(h, 2)), np.ones(h, bool))
                 for i in range(3)]
    history = rng.normal(size=(h, 2))
    history[-1] = 0.0
    return TrajectorySample("t", 1, 40, history, rng.normal(size=(f, 2)), neighbors)


# -- planted wrong answers: ingest -------------------------------------------

def test_window_check_rejects_a_window_shifted_by_one_frame(windows):
    rec, samples = windows
    checks.check_windows(rec, samples, WindowConfig())
    k = next(i for i in range(len(samples) - 1)
             if samples[i + 1].vehicle_id == samples[i].vehicle_id)
    later = dataclasses.replace(samples[k + 1], t0_frame=samples[k].t0_frame)
    with pytest.raises(checks.CheckFailed, match="ego"):
        checks.check_windows(rec, samples[:k] + [later] + samples[k + 1:], WindowConfig())
    relabelled = dataclasses.replace(samples[k], t0_frame=samples[k].t0_frame + 1)
    with pytest.raises(checks.CheckFailed, match="anchors"):
        checks.check_windows(rec, samples[:k] + [relabelled] + samples[k + 1:],
                             WindowConfig())


def test_window_check_rejects_a_neighbor_one_cell_off(windows):
    rec, samples = windows
    k, j = next((k, j) for k, s in enumerate(samples)
                for j, n in enumerate(s.neighbors) if n.cell is not None)
    n = samples[k].neighbors[j]
    moved = NeighborTrack(n.vehicle_id, (n.cell[0] + 1, n.cell[1]), n.track, n.valid)
    neighbors = list(samples[k].neighbors)
    neighbors[j] = moved
    bad = dataclasses.replace(samples[k], neighbors=neighbors)
    with pytest.raises(checks.CheckFailed, match="cell"):
        checks.check_windows(rec, samples[:k] + [bad] + samples[k + 1:], WindowConfig())


def test_partition_check_rejects_a_vehicle_in_two_partitions(windows):
    _, samples = windows
    train, val, test = split_dataset(samples)
    checks.check_partitions(samples, (train, val, test))
    with pytest.raises(checks.CheckFailed, match="two partitions"):
        checks.check_partitions(samples, (train[1:], val + train[:1], test))


def test_archive_check_rejects_one_flipped_byte(windows, tmp_path):
    _, samples = windows
    path = tmp_path / "windows.bin"
    save_samples(path, samples[:50])
    checks.check_archive(samples[:50], load_samples(path))
    blob = bytearray(path.read_bytes())
    blob[-8] ^= 0x01  # the lowest mantissa byte of the last stored coordinate
    path.write_bytes(bytes(blob))
    with pytest.raises(checks.CheckFailed, match="changed in the archive"):
        checks.check_archive(samples[:50], load_samples(path))


# -- planted wrong answers: predict ------------------------------------------

def test_prediction_checks_reject_an_answer_off_by_1e_6(windows):
    _, samples = windows
    model = DeepTrack(seed=0)
    group = [s for s in samples if s.t0_frame == samples[0].t0_frame]
    batched = model.predict(group)
    single = model.forward(group[0]).data
    checks.check_close(batched[0], single, "single")
    checks.check_identical(batched, model.predict(group), "again")
    off = single.copy()
    off[3, 1] += 1e-6
    with pytest.raises(checks.CheckFailed):
        checks.check_close(batched[0], off, "single")
    planted = batched.copy()
    planted[0, 3, 1] += 1e-6
    with pytest.raises(checks.CheckFailed):
        checks.check_identical(batched, planted, "again")


def test_receptive_field_probe_leaves_predictions_bit_identical(windows):
    _, samples = windows
    model = DeepTrack(seed=0)
    group = [s for s in samples if s.t0_frame == samples[0].t0_frame]
    base = model.predict(group)
    checks.check_identical(base, model.predict(
        [workloads.shift_old_history(s, 4) for s in group]), "old history")
    with pytest.raises(checks.CheckFailed):  # the newest four steps are in reach
        checks.check_identical(base, model.predict(
            [workloads.shift_old_history(s, 3) for s in group]), "in reach")


def test_rmse_check_rejects_a_report_off_by_1e_6(windows):
    _, samples = windows
    model = DeepTrack(seed=0)
    group = samples[:40]
    report = evaluate(model, group, workloads.METRIC_STEPS)
    pred = model.predict(group)
    truth = np.stack([s.future for s in group])
    checks.check_rmse(report, pred, truth, workloads.METRIC_STEPS)
    rmse = dict(report.horizon_rmse)
    rmse[15] += 1e-6
    planted = dataclasses.replace(report, horizon_rmse=rmse)
    with pytest.raises(checks.CheckFailed, match="step 15"):
        checks.check_rmse(planted, pred, truth, workloads.METRIC_STEPS)


# -- planted wrong answers: train --------------------------------------------

def test_train_checks_reject_planted_failures():
    checks.check_losses([3.0, 2.0])
    with pytest.raises(checks.CheckFailed):
        checks.check_losses([3.0, math.nan])
    checks.check_gradients({"w[0]": 2.0}, {"w[0]": 2.0 * (1 + 1e-8)})
    with pytest.raises(checks.CheckFailed):
        checks.check_gradients({"w[0]": 2.0}, {"w[0]": 2.0 * (1 + 1e-5)})
    checks.check_learning(4.9, 10.0)
    with pytest.raises(checks.CheckFailed):
        checks.check_learning(5.0, 10.0)


# -- the command -------------------------------------------------------------

def test_run_fails_without_the_program(tmp_path):
    """A checkout holding only the benchmark exits non-zero and prints no result."""
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__", "tests"))
    env = dict(os.environ, PYTHONPATH="")
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "predict",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""


def _children(pid: int) -> list:
    """Processes whose parent is ``pid``, from ``/proc``."""
    found = []
    for entry in Path("/proc").iterdir():
        if entry.name.isdigit():
            try:
                stat = (entry / "stat").read_text()
            except OSError:  # ended while we looked
                continue
            if int(stat.rsplit(")", 1)[1].split()[1]) == pid:
                found.append(int(entry.name))
    return found


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="needs /proc")
def test_a_child_process_leaves_no_process_behind():
    import run
    assert run.in_child("peak_rss_mb") > 0
    assert _children(os.getpid()) == []
