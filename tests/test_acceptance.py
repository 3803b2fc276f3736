"""The release gate: one test per acceptance criterion, run with -v to get
one pass/fail line each.

Each criterion states its own tolerance and, where relevant, its time
budget. Slow pieces (the conv oracle sweep, the gradient suite, the learning
smoke test) are timed against generous desktop-CPU budgets.
"""

import dataclasses
import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deeptrack.atcn import AtcnConfig, AtcnEncoder, receptive_field
from deeptrack.cli import main
from deeptrack.complexity import REFERENCE_MACS, REFERENCE_PARAMS, complexity_report
from deeptrack.configio import default_model_config
from deeptrack.ingest import (
    TrackTable,
    WindowConfig,
    grid_assign,
    window_samples,
)
from deeptrack.model import DeepTrack, collate
from deeptrack.numcore import (
    Kernel1D,
    LstmWeights,
    RunningStats,
    Tensor,
    batch_norm,
    concat,
    conv2d,
    dense,
    dilated_conv1d,
    lstm_cell,
    max_pool2d,
    scatter_grid,
    stack,
    swish,
)
from deeptrack.synthetic import constant_velocity_samples, write_tracks_csv
from deeptrack.trainer import TrainConfig, evaluate, train, zero_baseline

from helpers import (
    check_gradients,
    naive_dilated_conv1d,
    random_sample,
    symmetric_left_padding,
    tiny_model_config,
    track_table,
)

FT = 0.3048


def test_criterion_1_convolution_oracle():
    """200 random standard/depthwise/pointwise convs match a naive loop."""
    rng = np.random.default_rng(20260815)
    started = time.monotonic()
    worst = 0.0
    for case in range(200):
        mode = ("standard", "depthwise", "pointwise")[case % 3]
        t = int(rng.integers(1, 24))
        d = int(rng.integers(1, 4))
        if mode == "standard":
            c_in, c_out = int(rng.integers(1, 5)), int(rng.integers(1, 5))
            k, groups = int(rng.integers(1, 5)), 1
        elif mode == "depthwise":
            c_in = c_out = groups = int(rng.integers(1, 6))
            k = int(rng.integers(1, 5))
        else:
            c_in, c_out = int(rng.integers(1, 6)), int(rng.integers(1, 6))
            k, groups, d = 1, 1, 1
        x = rng.normal(size=(c_in, t))
        w = rng.normal(size=(c_out, c_in // groups, k))
        b = rng.normal(size=c_out)
        kern = Kernel1D(Tensor(w), Tensor(b), dilation=d, groups=groups)
        got = dilated_conv1d(Tensor(x), kern, pad_mode="causal").data
        want = naive_dilated_conv1d(x, w, b, d, groups)
        worst = max(worst, float(np.max(np.abs(got - want))))
    elapsed = time.monotonic() - started
    assert worst < 1e-9, f"worst abs error {worst:.2e}"
    assert elapsed < 10.0, f"oracle sweep took {elapsed:.1f}s"


def test_criterion_2_gradient_suite():
    """Every layer plus the full model pass finite-difference checks."""
    started = time.monotonic()
    rng = np.random.default_rng(7)

    def tensor(*shape, scale=1.0):
        return Tensor(rng.normal(size=shape) * scale, requires_grad=True)

    # dense
    w, b, x = tensor(3, 4), tensor(3), tensor(5, 4)
    check_gradients(lambda: swish(dense(x, w, b)).sum(), {"w": w, "b": b, "x": x})

    # one conv1d per mode, in both padding alignments
    for groups, c_in, c_out, k in ((1, 3, 4, 3), (3, 3, 3, 2), (1, 3, 4, 1)):
        for pad_mode in ("causal", "symmetric"):
            cw, cb, cx = tensor(c_out, c_in // groups, k), tensor(c_out), tensor(c_in, 9)
            kern = Kernel1D(cw, cb, dilation=2 if k > 1 else 1, groups=groups)
            check_gradients(
                lambda: (dilated_conv1d(cx, kern, pad_mode=pad_mode) ** 2.0).sum(),
                {"w": cw, "b": cb, "x": cx})

    # conv2d + max pool
    qw, qb, qx = tensor(2, 3, 3, 3), tensor(2), tensor(2, 3, 6, 5)
    check_gradients(
        lambda: max_pool2d(conv2d(qx, qw, qb, padding=(1, 1)), (2, 1),
                           stride=(2, 1), padding=(1, 0)).sum(),
        {"w": qw, "b": qb, "x": qx})

    # batch norm, both modes
    g, beta, bx = tensor(3, scale=0.5), tensor(3), tensor(4, 3, 7)
    stats = RunningStats(np.full(3, 0.3), np.full(3, 1.7))
    for mode in ("train", "eval"):
        check_gradients(
            lambda: (batch_norm(bx, g + 1.0, beta, stats.copy(), mode) ** 2.0).mean(),
            {"gamma": g, "beta": beta, "x": bx})

    # lstm cell + shape ops
    hdim = 3
    weights = LstmWeights(tensor(4 * hdim, 2), tensor(4 * hdim, hdim), tensor(4 * hdim))
    lx, lh, lc = tensor(2, 2), tensor(2, hdim), tensor(2, hdim)
    def lstm_loss():
        h, c = lstm_cell(lx, lh, lc, weights)
        h, c = lstm_cell(lx, h, c, weights)
        return (concat([h, c], axis=1) ** 2.0).sum()
    check_gradients(lstm_loss, {"w_ih": weights.w_ih, "w_hh": weights.w_hh,
                                "bias": weights.bias, "x": lx, "h": lh, "c": lc})

    sx = tensor(2, 3)
    check_gradients(
        lambda: (scatter_grid(sx, np.array([0, 1]), np.array([[0, 1], [2, 0]]),
                              (2, 3, 3, 2)) ** 2.0).sum() + stack([sx, sx], axis=0).mean(),
        {"x": sx})

    # the full model, train and eval
    cfg = tiny_model_config()
    model = DeepTrack(cfg, seed=11)
    batch = collate([random_sample(cfg, rng, vid=i, n_in_grid=2) for i in range(2)], cfg)
    for mode in ("train", "eval"):
        check_gradients(
            lambda: ((model.forward_batch(batch, mode) - batch.future) ** 2.0).mean(),
            model.parameters())

    elapsed = time.monotonic() - started
    assert elapsed < 60.0, f"gradient suite took {elapsed:.1f}s"


def test_criterion_3_receptive_field_and_padding():
    """Probed receptive field is exactly 4; padding matches the worked cases."""
    config = AtcnConfig(2, (16, 32, 64), (2, 2, 2), (1, 1, 1))
    rf = receptive_field(config)
    assert rf == 4  # 1 + (2-1)*1 * 3 layers

    # empirical probe: in eval mode, wiggling the newest in-reach step moves
    # the last summary; one step earlier does not. The summary reads only the
    # last rf steps, so the same probe also runs on the full-length forward.
    encoder = AtcnEncoder(config, np.random.default_rng(0))
    t = 16
    x = np.random.default_rng(1).normal(size=(2, t))
    inside = x.copy()
    inside[:, t - rf] += 1.0
    outside = x.copy()
    outside[:, t - rf - 1] += 1.0
    for newest in (lambda v: encoder.summary(Tensor(v), "eval").data,
                   lambda v: encoder.forward(Tensor(v), "eval").data[:, -1]):
        base = newest(x)
        assert not np.allclose(newest(inside), base)
        assert np.array_equal(newest(outside), base)

    assert symmetric_left_padding(2, 1) == 1
    assert symmetric_left_padding(1, 3) == 0
    assert symmetric_left_padding(2, 2) == 1


def test_criterion_4_displacement_metric_convention():
    """The published per-horizon profile averages to its published summary."""
    profile = {5: 0.43, 10: 1.12, 15: 1.91, 20: 2.87, 25: 4.07}
    sample = constant_velocity_samples(1, seed=0)[0]
    sample.future[:] = 0.0
    for step, value in profile.items():
        sample.future[step - 1] = (value, 0.0)
    report = zero_baseline([sample])  # standing still scores |truth| exactly
    for step, value in profile.items():
        assert report.horizon_rmse[step] == pytest.approx(value, abs=1e-12)
    assert abs(report.ade - 2.08) <= 0.005


def test_criterion_5_complexity_calibration():
    """Cost model sits within 10% of the reference totals; unit counts exact."""
    report = complexity_report(default_model_config())
    assert abs(report.total_params - REFERENCE_PARAMS) <= 0.10 * REFERENCE_PARAMS, \
        f"params {report.total_params} vs {REFERENCE_PARAMS}"
    assert abs(report.total_macs - REFERENCE_MACS) <= 0.10 * REFERENCE_MACS, \
        f"macs {report.total_macs} vs {REFERENCE_MACS}"

    def macs_by_layer(cfg):
        return {l.name: l.macs for l in complexity_report(cfg).layers}

    cfg = default_model_config()
    assert {l.name: l.params for l in report.layers}["ego_remap"] == 2_640  # dense 32 -> 80
    depthwise = AtcnConfig(2, (64, 64), (2, 2), (1, 1), bottleneck_divisor=1,
                           use_batch_norm=False)  # 64 channels, k=2, over 16 steps
    assert macs_by_layer(dataclasses.replace(cfg, neighbor_atcn=depthwise))[
        "neighbor_encoder.block1.dw"] == 2_048

    # factored hidden blocks must at least halve the standard-conv MACs
    # (conv MACs only: batch norm off, T=16, one neighbor)
    for prefix, field in (("neighbor_encoder", "neighbor_atcn"), ("ego_encoder", "ego_atcn")):
        enc = dataclasses.replace(getattr(cfg, field), use_batch_norm=False)
        factored = macs_by_layer(dataclasses.replace(cfg, **{field: enc}))
        for j in range(1, enc.depth):
            conv = AtcnConfig(enc.in_channels_of(j), (enc.channels[j],),
                              (enc.kernel_sizes[j],), (1,), use_batch_norm=False)
            standard = macs_by_layer(dataclasses.replace(cfg, **{field: conv}))
            block = sum(factored[f"{prefix}.block{j}.{part}"]
                        for part in ("pw_in", "dw", "pw_out"))
            assert block * 2 <= standard[f"{prefix}.block0.conv"], f"{prefix} hidden block {j}"


def test_criterion_6_learning_smoke_test():
    """10 epochs on 500 constant-velocity agents beat standing still 2x."""
    started = time.monotonic()
    samples = constant_velocity_samples(500, seed=0)
    fit, val = samples[:450], samples[450:]
    model = DeepTrack(seed=0)
    train(model, fit, val, TrainConfig(epochs=10, batch_size=16,
                                       learning_rate=3e-3, seed=0))
    trained = evaluate(model, val)
    baseline = zero_baseline(val)
    elapsed = time.monotonic() - started
    assert trained.ade < 0.5 * baseline.ade, \
        f"trained {trained.ade:.2f} vs baseline {baseline.ade:.2f}"
    assert elapsed < 300.0, f"smoke training took {elapsed:.0f}s"


def test_criterion_7_bit_identical_checkpoints(tmp_path):
    """The train command is reproducible to the byte."""
    tracks = tmp_path / "tracks.tsv"
    write_tracks_csv(tracks, n_vehicles=10, n_frames=120, seed=5)
    ingest_dir = tmp_path / "ing"
    assert main(["ingest", "--data", str(tracks), "--out", str(ingest_dir),
                 "--stride", "12"]) == 0
    blobs = []
    for run in ("a", "b"):
        out = tmp_path / run
        assert main(["train", "--data", str(ingest_dir), "--out", str(out),
                     "--epochs", "2", "--batch-size", "16", "--seed", "7"]) == 0
        blobs.append((out / "checkpoint.bin").read_bytes())
    assert blobs[0] == blobs[1]


class TestCriterion8PipelineInvariants:
    """Relative geometry survives translation; no future frame leaks back;
    grid rows bin exactly as documented."""

    @staticmethod
    def _build_tracks(shift_x=0.0, shift_y=0.0):
        rows = []
        for vid, lane, y0, speed in ((1, 2, 100.0, 40.0), (2, 2, 160.0, 38.0),
                                     (3, 1, 60.0, 45.0)):
            for frame in range(1, 101):
                t = (frame - 1) / 10.0
                rows.append((vid, frame, (lane * 12.0 + shift_x) * FT,
                             (y0 + speed * t + shift_y) * FT, lane))
        return track_table(rows)

    @settings(max_examples=25, deadline=None)
    @given(shift_x=st.floats(-5000, 5000), shift_y=st.floats(-5000, 5000))
    def test_translation_invariance(self, shift_x, shift_y):
        cfg = WindowConfig()
        base, _ = window_samples(self._build_tracks(), cfg, "d")
        moved, _ = window_samples(self._build_tracks(shift_x, shift_y), cfg, "d")
        assert len(base) == len(moved) > 0
        for a, b in zip(base, moved):
            assert np.allclose(a.ego_history, b.ego_history, atol=1e-7)
            assert np.allclose(a.future, b.future, atol=1e-7)
            assert [n.cell for n in a.neighbors] == [n.cell for n in b.neighbors]

    @settings(max_examples=25, deadline=None)
    @given(offset=st.integers(1, 50), bump=st.floats(1.0, 500.0))
    def test_no_temporal_leakage(self, offset, bump):
        cfg = WindowConfig()
        tracks = self._build_tracks()
        base, _ = window_samples(tracks, cfg, "d")
        t0 = base[0].t0_frame
        poked = TrackTable(tracks.vehicle_id, tracks.frame_id, tracks.x,
                           np.where(tracks.frame_id == t0 + offset, tracks.y + bump, tracks.y),
                           tracks.lane_id)
        after, _ = window_samples(poked, cfg, "d")
        pairs = [(a, b) for a, b in zip(base, after) if a.t0_frame == t0
                 and b.t0_frame == t0]
        assert pairs
        for a, b in pairs:
            assert np.array_equal(a.ego_history, b.ego_history)
            assert a.neighbors == b.neighbors

    # documented row bands, in feet relative to the ego (15 ft cells)
    @settings(max_examples=60, deadline=None)
    @given(dy_ft=st.floats(-90.0, 105.0, exclude_max=True))
    def test_grid_row_binning(self, dy_ft):
        (row, col), = grid_assign(np.array([dy_ft * FT]), np.array([0]),
                                  WindowConfig()).tolist()
        assert (row, col) != (-1, -1)
        assert row == math.floor(dy_ft * FT / 4.572) + 6

    def test_grid_row_landmarks(self):
        cases = {-90.0: 0, -80.0: 0, 0.0: 6, 14.9: 6, 90.0: 12, 104.9: 12}
        cells = grid_assign(np.array(list(cases)) * FT, np.zeros(len(cases), dtype=np.int64),
                            WindowConfig())
        for (dy_ft, row), cell in zip(cases.items(), cells.tolist()):
            assert cell == [row, 1], f"{dy_ft} ft"
        beyond = grid_assign(np.array([105.0 * FT]), np.array([0]), WindowConfig())
        assert beyond.tolist() == [[-1, -1]]


@pytest.mark.skip(reason="non-gating stretch experiment: requires the real "
                  "highway recordings (not bundled) and multi-hour full "
                  "training; the manual procedure is documented in README.md")
def test_criterion_9_full_scale_replication():
    """Full-data training matching the published RMSE profile within 15%."""
