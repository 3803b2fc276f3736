"""Losses, the training loop, and displacement metrics."""

import math

import numpy as np
import pytest

from deeptrack.configio import config_from_dict, config_to_dict
import deeptrack.trainer as trainer_module
from deeptrack.model import DeepTrack
from deeptrack.numcore import ConfigurationError, Tensor, adam_step
from deeptrack.synthetic import constant_velocity_samples
from deeptrack.trainer import (
    TrainConfig,
    TrainingDiverged,
    evaluate,
    history_to_text,
    loss_fn,
    mse_loss,
    smooth_l1_loss,
    train,
    zero_baseline,
)

from helpers import check_gradients, tiny_model_config, tiny_window_config

STEPS = (1, 2, 3)


def dataset(count, seed=0, **kwargs):
    return constant_velocity_samples(count, seed=seed,
                                     config=tiny_window_config(), **kwargs)


class TestLosses:
    def test_mse_value(self):
        pred = Tensor(np.array([[1.0, 0.0], [0.0, 2.0]]))
        target = np.zeros((2, 2))
        assert mse_loss(pred, target).item() == pytest.approx(5.0 / 4.0)

    def test_smooth_l1_quadratic_inside(self):
        pred = Tensor(np.array([0.5]))
        assert smooth_l1_loss(pred, np.zeros(1)).item() == pytest.approx(0.125)

    def test_smooth_l1_linear_outside(self):
        pred = Tensor(np.array([3.0, -3.0]))
        assert smooth_l1_loss(pred, np.zeros(2)).item() == pytest.approx(2.5)

    def test_smooth_l1_continuous_at_seam(self):
        lo = smooth_l1_loss(Tensor(np.array([1.0 - 1e-9])), np.zeros(1)).item()
        hi = smooth_l1_loss(Tensor(np.array([1.0 + 1e-9])), np.zeros(1)).item()
        assert abs(hi - lo) < 1e-8

    @pytest.mark.parametrize("kind", ["mse", "smooth-l1"])
    def test_loss_gradients(self, kind):
        loss = loss_fn(kind)
        rng = np.random.default_rng(0)
        pred = Tensor(rng.normal(size=(3, 4)) * 2.0, requires_grad=True)
        target = rng.normal(size=(3, 4))
        check_gradients(lambda: loss(pred, target), {"pred": pred})

    def test_unknown_loss(self):
        with pytest.raises(ConfigurationError):
            loss_fn("l0")

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_mse_equals_composed_mean_bit_for_bit(self, dtype):
        rng = np.random.default_rng(3)
        pred = Tensor(rng.normal(size=(4, 5, 2)).astype(dtype), requires_grad=True)
        target = rng.normal(size=(4, 5, 2)).astype(dtype)
        loss = mse_loss(pred, target)
        loss.backward()
        grad, pred.grad = pred.grad, None
        t = Tensor(target)
        want = ((pred - t) * (pred - t)).mean()
        want.backward()
        assert loss.shape == want.shape == (1,)
        assert loss.data.dtype == want.data.dtype and np.array_equal(loss.data, want.data)
        assert grad.dtype == pred.grad.dtype and np.array_equal(grad, pred.grad)

    @pytest.mark.parametrize("beta", [1.0, 0.5])
    def test_smooth_l1_gradient_at_zero_and_seam(self, beta):
        # slope d / beta inside |d| < beta, sign(d) on the seam and outside
        d = np.array([0.0, beta / 2, -beta / 4, beta, -beta, 3 * beta, -2 * beta, beta / 8])
        pred = Tensor(d.copy(), requires_grad=True)
        smooth_l1_loss(pred, np.zeros_like(d), beta=beta).backward()
        slope = np.array([0.0, 0.5, -0.25, 1.0, -1.0, 1.0, -1.0, 0.125])
        assert np.array_equal(pred.grad, slope / d.size)

    @pytest.mark.parametrize("loss", [mse_loss, smooth_l1_loss])
    def test_one_node_per_loss(self, loss):
        pred = Tensor(np.ones((2, 3)), requires_grad=True)
        assert loss(pred, np.zeros((2, 3)))._parents == (pred,)


class TestTrainConfig:
    def test_defaults(self):
        cfg = TrainConfig()
        assert cfg.learning_rate == 1e-3
        assert cfg.clip_norm == 10.0
        assert cfg.plateau_patience == 2

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            TrainConfig(epochs=0)
        with pytest.raises(ConfigurationError):
            TrainConfig(plateau_factor=1.5)
        with pytest.raises(ConfigurationError):
            TrainConfig(loss="nope")

    @pytest.mark.parametrize("seed", [-1, 1.5, True, "0"])
    def test_seed_must_be_a_nonnegative_int(self, seed):
        with pytest.raises(ConfigurationError):
            TrainConfig(seed=seed)
        with pytest.raises(ConfigurationError):
            config_from_dict(TrainConfig, {"seed": seed})

    @pytest.mark.parametrize("entry", [
        {"epochs": 2.5}, {"learningRate": "0.1"}, {"batchSize": True}, {"epochs": "3"},
        {"plateauPatience": 1.5}, {"clipMode": 0}, {"clipNorm": -1.0}, {"clipNorm": 0},
        {"learningRate": 0}, {"learningRate": 10**400}])
    def test_mistyped_or_out_of_range_values_rejected(self, entry):
        with pytest.raises(ConfigurationError):
            config_from_dict(TrainConfig, entry)

    def test_integral_values_keep_their_types(self):
        cfg = config_from_dict(TrainConfig, {"epochs": 3.0, "learningRate": 1, "clipNorm": 5})
        assert (cfg.epochs, cfg.learning_rate, cfg.clip_norm) == (3, 1.0, 5.0)
        assert type(cfg.epochs) is int and type(cfg.learning_rate) is float

    def test_dict_round_trip(self):
        cfg = TrainConfig(epochs=3, batch_size=8, learning_rate=0.01,
                          loss="smooth-l1", seed=7)
        again = config_from_dict(TrainConfig, config_to_dict(cfg))
        assert again == cfg

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigurationError):
            config_from_dict(TrainConfig, {"momentum": 0.9})


class TestTrainLoop:
    def test_loss_decreases_on_learnable_data(self):
        model = DeepTrack(tiny_model_config(), seed=0)
        result = train(model, dataset(48), dataset(16, seed=1),
                       TrainConfig(epochs=4, batch_size=8, learning_rate=3e-3))
        assert len(result.history) == 4
        assert result.history[-1].val_loss < result.history[0].val_loss
        assert 1 <= result.best_epoch <= 4
        assert result.best_val_loss == min(r.val_loss for r in result.history)

    def test_deterministic_given_seeds(self):
        cfg = TrainConfig(epochs=2, batch_size=8, seed=3)
        runs = []
        for _ in range(2):
            model = DeepTrack(tiny_model_config(), seed=5)
            result = train(model, dataset(32), dataset(8, seed=1), cfg)
            runs.append((result, model.state_copy()))
        (ra, sa), (rb, sb) = runs

        def untimed(history):  # wall time and throughput differ run to run
            return [{k: v for k, v in r.as_dict().items() if k not in ("seconds", "samplesPerS")}
                    for r in history]

        assert untimed(ra.history) == untimed(rb.history)
        for name in sa[0]:
            assert np.array_equal(sa[0][name], sb[0][name]), name
        for name in ra.best_params:
            assert np.array_equal(ra.best_params[name], rb.best_params[name]), name

    def test_plateau_decay_schedule(self):
        # min_improvement so large nothing after epoch 1 counts as progress:
        # patience 2 halts the rate after epochs 3 and 5
        model = DeepTrack(tiny_model_config(), seed=0)
        result = train(model, dataset(16), dataset(8, seed=1),
                       TrainConfig(epochs=6, batch_size=8, learning_rate=1e-3,
                                   min_improvement=1e9, plateau_patience=2,
                                   plateau_factor=0.1))
        assert [r.learning_rate for r in result.history] == [
            1e-3, 1e-3, 1e-3, 1e-4, 1e-4, 1e-5]
        assert result.best_epoch == 1

    def test_learning_rate_floor(self):
        model = DeepTrack(tiny_model_config(), seed=0)
        result = train(model, dataset(16), dataset(8, seed=1),
                       TrainConfig(epochs=8, batch_size=8, min_improvement=1e9,
                                   plateau_patience=1, plateau_factor=0.01,
                                   min_learning_rate=1e-5))
        assert all(r.learning_rate >= 1e-5 for r in result.history)
        assert result.history[-1].learning_rate == 1e-5

    def test_best_params_snapshot_matches_early_stop(self):
        # same seeds: a 1-epoch run ends exactly where the 3-epoch run's
        # never-improving best (epoch 1) was captured
        short = DeepTrack(tiny_model_config(), seed=2)
        train(short, dataset(24), dataset(8, seed=1),
              TrainConfig(epochs=1, batch_size=8, seed=4))
        long = DeepTrack(tiny_model_config(), seed=2)
        result = train(long, dataset(24), dataset(8, seed=1),
                       TrainConfig(epochs=3, batch_size=8, seed=4,
                                   min_improvement=1e9))
        assert result.best_epoch == 1
        for name, arr in short.state_copy()[0].items():
            assert np.array_equal(result.best_params[name], arr), name

    def test_neighborless_batches_train(self):
        # no sample has a neighbor, so the neighbor encoder never enters the
        # graph; those weights must simply stay put
        model = DeepTrack(tiny_model_config(), seed=0)
        samples = dataset(16, max_neighbors=0)
        before = {n: t.data.copy() for n, t in model.parameters().items()
                  if n.startswith("neighbor_encoder.")}
        result = train(model, samples, dataset(4, seed=1, max_neighbors=0),
                       TrainConfig(epochs=2, batch_size=8))
        assert len(result.history) == 2
        for name, arr in before.items():
            assert np.array_equal(model.parameters()[name].data, arr), name

    def test_validation_records_no_graph(self, monkeypatch):
        model = DeepTrack(tiny_model_config(), seed=0)
        outputs = {"train": [], "eval": []}
        forward_batch = model.forward_batch

        def spy(batch, mode="eval"):
            outputs[mode].append(forward_batch(batch, mode))
            return outputs[mode][-1]

        monkeypatch.setattr(model, "forward_batch", spy)
        train(model, dataset(16), dataset(12, seed=1), TrainConfig(epochs=2, batch_size=8))
        assert len(outputs["train"]) == 4 and len(outputs["eval"]) == 4
        assert all(out._parents for out in outputs["train"])
        for out in outputs["eval"]:
            assert out._parents == () and not out.requires_grad

    def test_empty_sets_rejected(self):
        model = DeepTrack(tiny_model_config(), seed=0)
        with pytest.raises(ConfigurationError):
            train(model, [], dataset(4), TrainConfig(epochs=1))
        with pytest.raises(ConfigurationError):
            train(model, dataset(4), [], TrainConfig(epochs=1))

    def test_divergence_carries_finite_state(self):
        model = DeepTrack(tiny_model_config(), seed=0)
        samples = dataset(8)
        samples[3].future[0, 1] = np.inf
        with pytest.raises(TrainingDiverged) as info:
            train(model, samples, dataset(4, seed=1),
                  TrainConfig(epochs=2, batch_size=8))
        exc = info.value
        assert exc.history == []
        for arr in exc.params.values():
            assert np.isfinite(arr).all()

    def test_history_renders(self):
        model = DeepTrack(tiny_model_config(), seed=0)
        result = train(model, dataset(16), dataset(8, seed=1),
                       TrainConfig(epochs=2, batch_size=8))
        text = history_to_text(result.history)
        assert "epoch" in text and text.count("\n") == 3


class TestTelemetry:
    def test_norms_are_the_ones_adam_step_returned(self, monkeypatch):
        returned = []

        def spy(*args):
            returned.append(adam_step(*args))
            return returned[-1]

        monkeypatch.setattr(trainer_module, "adam_step", spy)
        model = DeepTrack(tiny_model_config(), seed=0)
        result = train(model, dataset(24), dataset(8, seed=1),
                       TrainConfig(epochs=2, batch_size=8))
        assert len(returned) == 6
        for record, norms in zip(result.history, (returned[:3], returned[3:])):
            assert record.grad_norm_mean == math.fsum(norms) / 3
            assert record.grad_norm_max == max(norms)
            # the epoch's time covers its training steps and more
            assert record.seconds > 0 and record.samples_per_s * record.seconds > 24

    @pytest.mark.parametrize("mode", ["norm", "value", "none"])
    def test_clip_rate_counts_steps_clipping_changed(self, mode):
        for clip_norm, rate in ((1e-9, 0.0 if mode == "none" else 1.0), (1e9, 0.0)):
            model = DeepTrack(tiny_model_config(), seed=0)
            result = train(model, dataset(16), dataset(8, seed=1),
                           TrainConfig(epochs=1, batch_size=8, clip_norm=clip_norm,
                                       clip_mode=mode))
            assert result.history[0].clip_rate == rate, clip_norm

    def test_clip_rate_turns_at_the_bound(self):
        # one step: its gradient comes before any update, whatever the bound
        def epoch(clip_norm):
            model = DeepTrack(tiny_model_config(), seed=0)
            return train(model, dataset(16), dataset(8, seed=1),
                         TrainConfig(epochs=1, batch_size=16, clip_norm=clip_norm)).history[0]

        norm = epoch(1e9).grad_norm_max
        assert epoch(norm * 0.99).clip_rate == 1.0
        assert epoch(norm * 1.01).clip_rate == 0.0


class TestMetrics:
    def test_zero_baseline_hand_worked(self):
        cfg = tiny_model_config()
        s = dataset(1)[0]
        s.future[:] = [[3.0, 4.0]] * cfg.horizon_steps
        report = zero_baseline([s], steps=STEPS)
        assert report.samples == 1
        assert report.horizon_rmse == {1: 5.0, 2: 5.0, 3: 5.0}
        assert report.ade == 5.0

    def test_rmse_pools_across_samples(self):
        a, b = dataset(2)
        a.future[:] = 0.0
        b.future[:] = [[3.0, 4.0]] * 3
        report = zero_baseline([a, b], steps=STEPS)
        assert report.horizon_rmse[1] == pytest.approx(math.sqrt(12.5))

    def test_zero_weight_model_equals_baseline(self):
        cfg = tiny_model_config()
        model = DeepTrack(cfg, seed=0)
        for t in model.parameters().values():
            t.data[:] = 0.0
        samples = dataset(12)
        by_model = evaluate(model, samples, steps=STEPS)
        by_rule = zero_baseline(samples, steps=STEPS)
        assert by_model.horizon_rmse == by_rule.horizon_rmse
        assert by_model.ade == by_rule.ade

    def test_sample_order_invariance(self):
        model = DeepTrack(tiny_model_config(), seed=1)
        samples = dataset(10)
        forward = evaluate(model, samples, steps=STEPS, batch_size=1)
        backward = evaluate(model, samples[::-1], steps=STEPS, batch_size=1)
        assert forward.ade == backward.ade
        assert forward.horizon_rmse == backward.horizon_rmse

    def test_step_validation(self):
        with pytest.raises(ConfigurationError):
            zero_baseline(dataset(2), steps=(1, 99))
        with pytest.raises(ConfigurationError):
            evaluate(DeepTrack(tiny_model_config(), seed=0), [], steps=STEPS)

    def test_report_round_trip_and_text(self):
        report = zero_baseline(dataset(5), steps=STEPS)
        d = report.as_dict()
        assert set(d) == {"horizonRmse", "ade", "samples"}
        assert list(d["horizonRmse"]) == ["1", "2", "3"]
        text = report.to_text(seconds_per_step=0.2)
        assert "rmse" in text and "0.2s" in text

    def test_training_beats_standing_still(self):
        samples = dataset(96, seed=9)
        val = dataset(24, seed=10)
        model = DeepTrack(tiny_model_config(), seed=0)
        train(model, samples, val,
              TrainConfig(epochs=6, batch_size=12, learning_rate=5e-3))
        trained = evaluate(model, val, steps=STEPS)
        still = zero_baseline(val, steps=STEPS)
        assert trained.ade < still.ade
