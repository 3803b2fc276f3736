"""Full predictor: shapes, invariances, state round-trips, gradients."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from deeptrack.configio import (
    config_hash,
    default_model_config,
    model_config_from_dict,
    model_config_to_dict,
)
from deeptrack.ingest import NeighborTrack, TrajectorySample
from deeptrack.model import DeepTrack, collate, social_geometry
from deeptrack.numcore import ConfigurationError, save_weights, load_weights

from helpers import check_gradients, random_sample as make_sample
from helpers import tiny_model_config as tiny_config


class TestShapes:
    def test_batched_output_shape(self):
        cfg = default_model_config()
        model = DeepTrack(cfg, seed=0)
        rng = np.random.default_rng(0)
        samples = [make_sample(cfg, rng, vid=i, n_in_grid=i % 3) for i in range(4)]
        out = model.forward_batch(collate(samples, cfg), "eval")
        assert out.shape == (4, 25, 2)

    def test_single_sample_matches_batch_row(self):
        cfg = default_model_config()
        model = DeepTrack(cfg, seed=1)
        rng = np.random.default_rng(1)
        samples = [make_sample(cfg, rng, vid=i, n_in_grid=2) for i in range(3)]
        batched = model.forward_batch(collate(samples, cfg), "eval").data
        for i, s in enumerate(samples):
            assert np.allclose(model.forward(s, "eval").data, batched[i], atol=1e-12)

    def test_social_geometry_of_default(self):
        geo = social_geometry(default_model_config())
        assert geo.conv1_hw == (11, 1)
        assert geo.conv2_hw == (9, 1)
        assert geo.pool_hw == (5, 1)
        assert geo.flat == 80

    def test_empty_batch_rejected(self):
        with pytest.raises(ConfigurationError):
            collate([], default_model_config())

    def test_bad_sample_shape_rejected(self):
        cfg = default_model_config()
        rng = np.random.default_rng(0)
        s = make_sample(cfg, rng)
        s.ego_history = s.ego_history[:-1]
        with pytest.raises(ConfigurationError):
            collate([s], cfg)

    def test_invalid_cell_asserts(self):
        cfg = default_model_config()
        rng = np.random.default_rng(0)
        s = make_sample(cfg, rng, n_in_grid=1)
        s.neighbors[0].cell = (99, 0)
        with pytest.raises(ConfigurationError, match="outside the grid"):
            collate([s], cfg)


class TestZeroWeights:
    def test_all_zero_parameters_predict_zero(self):
        cfg = tiny_config()
        model = DeepTrack(cfg, seed=0)
        for t in model.parameters().values():
            t.data[:] = 0.0
        rng = np.random.default_rng(2)
        out = model.forward(make_sample(cfg, rng), "eval")
        assert np.array_equal(out.data, np.zeros((cfg.horizon_steps, 2)))


class TestNeighborHandling:
    def test_no_neighbors_equals_outside_only(self):
        cfg = tiny_config()
        model = DeepTrack(cfg, seed=3)
        rng = np.random.default_rng(3)
        bare = make_sample(cfg, rng, n_in_grid=0)
        with_outside = TrajectorySample(
            bare.dataset_id, bare.vehicle_id, bare.t0_frame,
            bare.ego_history.copy(), bare.future.copy(),
            [NeighborTrack(7, None, rng.normal(size=(cfg.history_steps, 2)),
                           np.ones(cfg.history_steps, dtype=bool))])
        a = model.forward(bare, "eval").data
        b = model.forward(with_outside, "eval").data
        assert np.array_equal(a, b)

    def test_outside_neighbor_track_is_ignored(self):
        cfg = tiny_config()
        model = DeepTrack(cfg, seed=4)
        rng = np.random.default_rng(4)
        s = make_sample(cfg, rng, n_in_grid=2, n_outside=1)
        base = model.forward(s, "eval").data
        s.neighbors[-1].track = s.neighbors[-1].track + 500.0
        assert np.array_equal(model.forward(s, "eval").data, base)

    def test_in_grid_neighbor_matters(self):
        cfg = tiny_config()
        model = DeepTrack(cfg, seed=5)
        rng = np.random.default_rng(5)
        s = make_sample(cfg, rng, n_in_grid=1)
        base = model.forward(s, "eval").data
        s.neighbors[0].track = s.neighbors[0].track + 1.0
        assert not np.array_equal(model.forward(s, "eval").data, base)

    def test_neighbor_permutation_invariance_eval(self):
        cfg = tiny_config()
        model = DeepTrack(cfg, seed=6)
        rng = np.random.default_rng(6)
        s = make_sample(cfg, rng, n_in_grid=4, n_outside=1)
        base = model.forward(s, "eval").data
        rng.shuffle(s.neighbors)
        assert np.array_equal(model.forward(s, "eval").data, base)


class TestDeterminismAndState:
    def test_same_seed_same_weights(self):
        cfg = tiny_config()
        a = DeepTrack(cfg, seed=9)
        b = DeepTrack(cfg, seed=9)
        for name, t in a.parameters().items():
            assert np.array_equal(t.data, b.parameters()[name].data), name

    def test_different_seed_different_weights(self):
        cfg = tiny_config()
        a = DeepTrack(cfg, seed=1)
        b = DeepTrack(cfg, seed=2)
        assert any(not np.array_equal(t.data, b.parameters()[n].data)
                   for n, t in a.parameters().items())

    def test_forget_gate_bias_offset(self):
        cfg = tiny_config()
        model = DeepTrack(cfg, seed=0)
        h = cfg.decoder_hidden
        bias = model.decoder.bias.data
        bound = 1.0 / np.sqrt(h)
        assert (np.abs(bias[h:2 * h] - 1.0) <= bound).all()
        others = np.concatenate([bias[:h], bias[2 * h:]])
        assert (np.abs(others) <= bound).all()

    def test_state_round_trip_through_checkpoint(self, tmp_path):
        cfg = tiny_config()
        model = DeepTrack(cfg, seed=7)
        rng = np.random.default_rng(7)
        s = make_sample(cfg, rng)
        model.forward(s, "train")  # move the running stats off their init
        before = model.forward(s, "eval").data

        path = tmp_path / "weights.bin"
        save_weights(path, model.parameters(), model.buffers(), config_hash(cfg))
        fresh = DeepTrack(cfg, seed=99)
        data = load_weights(path)
        assert data.config_hash == config_hash(cfg)
        fresh.load_state(data.params, data.buffers)
        assert np.array_equal(fresh.forward(s, "eval").data, before)

    def test_load_state_validates_names_and_shapes(self):
        cfg = tiny_config()
        model = DeepTrack(cfg, seed=0)
        params, buffers = model.state_copy()
        params.pop("head.w")
        with pytest.raises(ConfigurationError):
            model.load_state(params, buffers)
        params, buffers = model.state_copy()
        params["head.w"] = np.zeros((3, 3))
        with pytest.raises(ConfigurationError):
            model.load_state(params, buffers)

    def test_config_hash_tracks_architecture(self):
        a = config_hash(tiny_config())
        b = config_hash(tiny_config(decoder_hidden=8))
        assert a != b
        assert a == config_hash(tiny_config())

    def test_config_dict_round_trip(self):
        cfg = default_model_config()
        again = model_config_from_dict(model_config_to_dict(cfg))
        assert config_hash(again) == config_hash(cfg)


class TestModes:
    def test_eval_forward_pure_function(self):
        cfg = tiny_config()
        model = DeepTrack(cfg, seed=8)
        rng = np.random.default_rng(8)
        s = make_sample(cfg, rng)
        stats = {k: v.copy() for k, v in model.buffers().items()}
        a = model.forward(s, "eval").data
        b = model.forward(s, "eval").data
        assert np.array_equal(a, b)
        for k, v in model.buffers().items():
            assert np.array_equal(v, stats[k])

    def test_train_forward_moves_stats(self):
        cfg = tiny_config()
        model = DeepTrack(cfg, seed=8)
        rng = np.random.default_rng(8)
        s = make_sample(cfg, rng)
        stats = {k: v.copy() for k, v in model.buffers().items()}
        model.forward(s, "train")
        assert any(not np.array_equal(v, stats[k])
                   for k, v in model.buffers().items())

    def test_autoregressive_mode_runs_and_differs(self):
        quiet_cfg = tiny_config()
        auto_cfg = tiny_config(autoregressive=True)
        rng = np.random.default_rng(9)
        s = make_sample(quiet_cfg, rng)
        quiet = DeepTrack(quiet_cfg, seed=10).forward(s, "eval").data
        auto = DeepTrack(auto_cfg, seed=10).forward(s, "eval").data
        assert auto.shape == quiet.shape
        # identical weights, different feedback: first step agrees, later diverge
        assert np.allclose(auto[0], quiet[0], atol=1e-12)
        assert not np.allclose(auto[1:], quiet[1:])


class TestPredictRecordsNoGraph:
    def _model_and_samples(self):
        cfg = default_model_config()
        model = DeepTrack(cfg, seed=3)
        rng = np.random.default_rng(3)
        return model, [make_sample(cfg, rng, vid=i, n_in_grid=i % 4) for i in range(6)]

    def test_predict_equals_eval_forward_bit_for_bit(self):
        model, samples = self._model_and_samples()
        want = model.forward_batch(collate(samples, model.config), "eval").data
        assert np.array_equal(model.predict(samples), want)

    def test_predict_outputs_have_no_parents(self, monkeypatch):
        model, samples = self._model_and_samples()
        outputs = []
        forward_batch = model.forward_batch

        def spy(batch, mode="eval"):
            outputs.append(forward_batch(batch, mode))
            return outputs[-1]

        monkeypatch.setattr(model, "forward_batch", spy)
        model.predict(samples, batch_size=4)
        assert len(outputs) == 2
        for out in outputs:
            assert out._parents == () and not out.requires_grad

    def test_training_graph_survives_predict_that_raised(self):
        model, samples = self._model_and_samples()
        model.predict(samples)
        bad = make_sample(model.config, np.random.default_rng(4))
        bad.ego_history = bad.ego_history[:-1]
        with pytest.raises(ConfigurationError):
            model.predict(samples + [bad], batch_size=3)
        batch = collate(samples, model.config)
        model.zero_grad()
        ((model.forward_batch(batch, "train") - batch.future) ** 2.0).mean().backward()
        assert all(p.grad is not None for p in model.parameters().values())


class TestInvariantsUnderOptimize:
    """Invariant checks raise ConfigurationError, which ``python -O`` keeps."""

    @pytest.mark.parametrize("call", [
        "scatter_grid(Tensor(np.ones((1, 2))), np.array([0]), np.array([[5, 0]]), (1, 2, 3, 2))",
        "scatter_grid(Tensor(np.ones((2, 2))), np.array([0, 0]), np.array([[1, 1], [1, 1]]),"
        " (1, 2, 3, 2))",
        "collate([bad], cfg)",
    ], ids=["grid-out-of-range", "grid-duplicate", "collate-out-of-grid"])
    def test_rejected_with_asserts_stripped(self, call):
        script = "\n".join([
            "import numpy as np",
            "from deeptrack.configio import default_model_config",
            "from deeptrack.model import collate",
            "from deeptrack.numcore import ConfigurationError, Tensor, scatter_grid",
            "from helpers import random_sample",
            "cfg = default_model_config()",
            "bad = random_sample(cfg, np.random.default_rng(0), n_in_grid=1)",
            "bad.neighbors[0].cell = (99, 0)",
            "try:",
            f"    {call}",
            "except ConfigurationError:",
            "    print('rejected')",
        ])
        here = Path(__file__).resolve().parent
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(here.parent / "src"), str(here), os.environ.get("PYTHONPATH", "")]))
        done = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                              capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "rejected"


class TestFullModelGradients:
    @pytest.mark.parametrize("mode", ["eval", "train"])
    def test_finite_differences_every_parameter(self, mode):
        cfg = tiny_config()
        model = DeepTrack(cfg, seed=11)
        rng = np.random.default_rng(11)
        samples = [make_sample(cfg, rng, vid=i, n_in_grid=2, n_outside=1)
                   for i in range(2)]
        batch = collate(samples, cfg)
        truth = batch.future

        def loss():
            pred = model.forward_batch(batch, mode)
            return ((pred - truth) ** 2.0).mean()

        check_gradients(loss, model.parameters())
