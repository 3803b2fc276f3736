"""Full predictor: shapes, invariances, state round-trips, gradients."""

import dataclasses
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from deeptrack.atcn import AtcnConfig
from deeptrack.configio import (
    Conv2dSpec,
    ModelConfig,
    config_from_dict,
    config_hash,
    config_to_dict,
    default_model_config,
    save_config_file,
)
from deeptrack.ingest import (
    NeighborTrack, TrajectorySample, WindowConfig, load_samples, save_samples,
)
from deeptrack.model import DeepTrack, collate, social_geometry
from deeptrack.numcore import ConfigurationError, save_weights, load_weights
from deeptrack.synthetic import constant_velocity_samples
from deeptrack.trainer import TrainConfig, mse_loss

import deeptrack.model as model_module
from helpers import (
    chained_lstm_cells,
    check_gradients,
    composed_lstm_cell,
    graph_nodes,
    random_model_config,
    symmetric_model_config,
)
from helpers import random_sample as make_sample
from helpers import reference_collate, replace_neighbor
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
        s = replace_neighbor(make_sample(cfg, rng, n_in_grid=1), 0, cell=(99, 0))
        with pytest.raises(ConfigurationError, match="outside the grid"):
            collate([s], cfg)


class TestCollate:
    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_arrays_equal_a_per_neighbor_construction(self, dtype):
        cfg = tiny_config(dtype=dtype)
        rng = np.random.default_rng(4)
        samples = [make_sample(cfg, rng, vid=i, n_in_grid=i % 4, n_outside=1)
                   for i in range(6)]
        batch = collate(samples, cfg)
        want = np.stack([n.track.astype(np.dtype(dtype))
                         for s in samples for n in s.neighbors if n.cell is not None])
        assert batch.nbr_history.dtype == want.dtype
        assert np.array_equal(batch.nbr_history, want)
        assert batch.nbr_batch.tolist() == [i for i, s in enumerate(samples)
                                            for n in s.neighbors if n.cell is not None]
        assert batch.ego_history.tobytes() == np.stack(
            [s.ego_history for s in samples]).astype(np.dtype(dtype)).tobytes()

    def test_seeded_sweep_equals_the_per_neighbor_loop(self, tmp_path):
        # bit for bit, layout included: float64 and float32, samples with no
        # neighbors or only out-of-grid ones, single samples, and samples
        # loaded from an archive (int32 cells) mixed with built ones
        rng = np.random.default_rng(26)
        seen = set()
        for trial in range(120):
            cfg = tiny_config(dtype=("float64", "float32")[trial % 2])
            count = 1 if trial % 5 == 0 else int(rng.integers(2, 9))
            mix = [(0, 0), (0, int(rng.integers(1, 4)))] + [
                (int(rng.integers(0, 6)), int(rng.integers(0, 4))) for _ in range(4)]
            samples = [make_sample(cfg, rng, vid=i, **dict(zip(
                ("n_in_grid", "n_outside"), mix[int(rng.integers(0, len(mix)))])))
                for i in range(count)]
            if trial % 3 == 0:
                save_samples(tmp_path / "s.bin", samples)
                loaded = load_samples(tmp_path / "s.bin")
                samples = [a if rng.random() < 0.5 else b for a, b in zip(samples, loaded)]
            got, want = collate(samples, cfg), reference_collate(samples, cfg)
            # the histories are the oracle's channels-first arrays transposed,
            # and C-contiguous; the channels-first views of them equal the
            # oracle's arrays and share the histories' memory
            for name, field in (("ego", "ego_history"), ("future", "future"),
                                ("nbr_tracks", "nbr_history"), ("nbr_batch", "nbr_batch"),
                                ("nbr_cells", "nbr_cells")):
                a, b = getattr(got, field), getattr(want, name)
                if field != name:
                    view, ref = getattr(got, name), b
                    b = np.ascontiguousarray(ref.transpose(0, 2, 1))
                    assert (view.dtype, view.shape, view.tobytes()) \
                        == (ref.dtype, ref.shape, ref.tobytes()), (trial, name)
                    assert a.flags.c_contiguous, (trial, field)
                    assert a.size == 0 or np.shares_memory(view, a), (trial, name)
                assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), \
                    (trial, field)
                assert a.size == 0 or [st for st, n in zip(a.strides, a.shape) if n > 1] \
                    == [st for st, n in zip(b.strides, b.shape) if n > 1], (trial, field)
            in_grid = [len(s.neighbors) and int((s.neighbors.cell[:, 0] >= 0).sum())
                       for s in samples]
            seen.add(cfg.dtype)
            seen.update({"single" if count == 1 else "batch",
                         "none" if 0 in map(len, (s.neighbors for s in samples)) else "",
                         "all-outside" if any(len(s.neighbors) and not k
                                              for s, k in zip(samples, in_grid)) else "",
                         "empty-batch" if not sum(in_grid) else "",
                         "loaded" if trial % 3 == 0 else ""})
        assert {"float64", "float32", "single", "batch", "none", "all-outside",
                "empty-batch", "loaded"} <= seen

    @pytest.mark.parametrize("cut", [(0, 1), (1, 1)], ids=["all-short", "mixed"])
    def test_short_neighbor_track_rejected(self, cut):
        # a sample cannot be built with neighbor tracks shorter than its history
        cfg = default_model_config()
        s = make_sample(cfg, np.random.default_rng(0), n_in_grid=2)
        rows = [dataclasses.replace(n, track=n.track[drop * 3:])
                for n, drop in zip(s.neighbors, cut)]
        with pytest.raises(ConfigurationError, match="vehicle 1 at frame 30"):
            dataclasses.replace(s, neighbors=rows)

    def test_table_of_another_history_length_rejected(self):
        # a table swapped in after construction is checked when collated
        cfg = default_model_config()
        rng = np.random.default_rng(0)
        s = make_sample(cfg, rng, n_in_grid=2)
        s.neighbors = make_sample(dataclasses.replace(cfg, history_steps=5), rng).neighbors
        with pytest.raises(ConfigurationError, match="track has shape"):
            collate([s], cfg)

    @pytest.mark.parametrize("field", ["track", "valid"])
    def test_out_of_grid_short_track_is_rejected(self, field):
        # the length check holds for a neighbor outside the grid too
        cfg = default_model_config()
        s = make_sample(cfg, np.random.default_rng(0), n_in_grid=1, n_outside=1)
        with pytest.raises(ConfigurationError, match="vehicle 1 at frame 30"):
            replace_neighbor(s, 1, **{field: getattr(s.neighbors[1], field)[:3]})


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
        moved = replace_neighbor(s, -1, track=s.neighbors[-1].track + 500.0)
        assert np.array_equal(model.forward(moved, "eval").data, base)

    def test_in_grid_neighbor_matters(self):
        cfg = tiny_config()
        model = DeepTrack(cfg, seed=5)
        rng = np.random.default_rng(5)
        s = make_sample(cfg, rng, n_in_grid=1)
        base = model.forward(s, "eval").data
        moved = replace_neighbor(s, 0, track=s.neighbors[0].track + 1.0)
        assert not np.array_equal(model.forward(moved, "eval").data, base)

    def test_neighbor_permutation_invariance_eval(self):
        cfg = tiny_config()
        model = DeepTrack(cfg, seed=6)
        rng = np.random.default_rng(6)
        s = make_sample(cfg, rng, n_in_grid=4, n_outside=1)
        base = model.forward(s, "eval").data
        rows = list(s.neighbors)
        rng.shuffle(rows)
        shuffled = dataclasses.replace(s, neighbors=rows)
        assert [n.vehicle_id for n in shuffled.neighbors] != [n.vehicle_id for n in s.neighbors]
        assert np.array_equal(model.forward(shuffled, "eval").data, base)


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

    def test_wrong_shaped_running_statistic_is_named(self):
        model = DeepTrack(tiny_config(), seed=0)
        params, buffers = model.state_copy()
        name = "ego_encoder.block1.dw.bn.var"
        buffers[name] = np.ones(buffers[name].size + 1)
        with pytest.raises(ConfigurationError, match=name.replace(".", r"\.")):
            model.load_state(params, buffers)
        buffers.pop(name)
        with pytest.raises(ConfigurationError, match="running statistic"):
            model.load_state(params, buffers)

    def test_rejected_state_changes_nothing(self):
        model = DeepTrack(tiny_config(), seed=0)
        model.forward(make_sample(model.config, np.random.default_rng(0)), "train")
        before_params, before_buffers = model.state_copy()
        params, buffers = DeepTrack(tiny_config(), seed=1).state_copy()
        last = list(params)[-1]
        params[last] = np.zeros(params[last].shape + (1,))
        with pytest.raises(ConfigurationError, match=last):
            model.load_state(params, buffers)
        for name, t in model.parameters().items():
            assert np.array_equal(t.data, before_params[name]), name
        for name, arr in model.buffers().items():
            assert np.array_equal(arr, before_buffers[name]), name

    def test_load_writes_into_the_running_statistics_in_place(self):
        model = DeepTrack(tiny_config(), seed=0)
        units = [unit for enc in (model.neighbor_encoder, model.ego_encoder)
                 for unit in enc.units]
        held = [(unit.stats.mean, unit.stats.var) for unit in units]
        rng = np.random.default_rng(3)
        params, buffers = model.state_copy()
        buffers = {name: rng.uniform(0.5, 2.0, arr.shape) for name, arr in buffers.items()}
        model.load_state(params, buffers)
        for unit, (mean, var) in zip(units, held):
            assert unit.stats.mean is mean and unit.stats.var is var
        # buffers() lists each unit's mean, then its var, in unit order
        assert np.array_equal(np.concatenate([a for pair in held for a in pair]),
                              np.concatenate(list(buffers.values())))

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_state_with_the_old_conv_bias_of_batch_normed_units_loads(self, dtype):
        # checkpoints written before batch-normed units dropped their conv
        # bias hold a {unit}.b, with running means that absorbed it
        cfg = dataclasses.replace(default_model_config(), dtype=dtype)
        model = DeepTrack(cfg, seed=0)
        rng = np.random.default_rng(21)
        samples = [make_sample(cfg, rng, vid=i, n_in_grid=i % 4) for i in range(12)]
        model.forward_batch(collate(samples, cfg), "train")  # move the stats off their init
        want = model.predict(samples)
        params, buffers = model.state_copy()
        for name in [n for n in buffers if n.endswith(".bn.mean")]:
            bias = rng.uniform(-0.5, 0.5, buffers[name].shape).astype(buffers[name].dtype)
            params[name[:-len("bn.mean")] + "b"] = bias
            buffers[name] = buffers[name] + bias
        assert len(params) == len(model.parameters()) + 14
        fresh = DeepTrack(cfg, seed=1)
        fresh.load_state(params, buffers)
        got = fresh.predict(samples)
        bound = 16 * np.finfo(dtype).eps * float(np.abs(want).max())
        assert float(np.abs(got - want).max()) <= bound
        # a stale bias that fits no unit is an unexpected name, as before
        params["ego_encoder.block0.conv.b"] = np.zeros(3)
        with pytest.raises(ConfigurationError, match=r"\['ego_encoder\.block0\.conv\.b'\]"):
            fresh.load_state(params, buffers)

    def test_float32_state_round_trips_bit_for_bit(self, tmp_path):
        cfg = dataclasses.replace(tiny_config(), dtype="float32")
        model = DeepTrack(cfg, seed=4)
        model.forward(make_sample(cfg, np.random.default_rng(4)), "train")
        path = tmp_path / "weights.bin"
        save_weights(path, model.parameters(), model.buffers(), model.config_digest)
        fresh = DeepTrack(cfg, seed=5)
        data = load_weights(path)
        fresh.load_state(data.params, data.buffers)
        for (name, a), b in zip(model.parameters().items(), fresh.parameters().values()):
            assert b.data.dtype == np.float32 and a.data.tobytes() == b.data.tobytes(), name
        for (name, a), b in zip(model.buffers().items(), fresh.buffers().values()):
            assert b.dtype == np.float32 and a.tobytes() == b.tobytes(), name

    def test_config_hash_tracks_architecture(self):
        a = config_hash(tiny_config())
        b = config_hash(tiny_config(decoder_hidden=8))
        assert a != b
        assert a == config_hash(tiny_config())

    def test_config_dict_round_trip(self):
        rng = np.random.default_rng(2017)
        configs = [default_model_config(), symmetric_model_config(),
                   TrainConfig(), TrainConfig(loss="smooth-l1", seed=7, clip_norm=2.5),
                   WindowConfig(), WindowConfig(stride=12, grid_rows=15, cell_length=9.0)]
        configs += [random_model_config(rng) for _ in range(40)]
        for cfg in configs:
            again = config_from_dict(type(cfg), json.loads(json.dumps(config_to_dict(cfg))))
            assert again == cfg
            if isinstance(cfg, ModelConfig):
                assert config_hash(again) == config_hash(cfg)


def _with(section: str, **entries) -> dict:
    """The default config's JSON form with some entries of one encoder replaced."""
    d = config_to_dict(default_model_config())
    d[section].update(entries)
    return d


class TestConfigJson:
    def test_default_config_file_is_pinned(self, tmp_path):
        # the config.json a training run writes, train section included
        path = tmp_path / "config.json"
        save_config_file(path, default_model_config(), config_to_dict(TrainConfig()))
        assert hashlib.sha256(path.read_bytes()).hexdigest() == \
            "26ab028ad7fe5b7d9f9cbf2f3600082fcf0a0e2acebf5ea4c64c6250848e12e3"

    def test_missing_keys_take_the_defaults(self):
        assert config_from_dict(ModelConfig, {}) == default_model_config()
        assert config_from_dict(TrainConfig, {}) == TrainConfig()
        pool = config_from_dict(ModelConfig, {"socialPool": {"window": [3, 1],
                                                             "stride": [1, 1]}})
        assert pool.social_pool.padding == (0, 0)  # PoolSpec's default, not the model's

    @pytest.mark.parametrize("d, message", [
        ({"socialPool": []}, "object"), ({"socialConv1": {"outChannels": 64}}, "kernel"),
        ({"egoAtcn": {"inputChannels": 2}}, "outputFeatures"),
        ({"neighborAtcn": {**config_to_dict(default_model_config().neighbor_atcn),
                           "channels": [16, 32, 64]}}, "unknown"),
    ])
    def test_bad_sections_name_their_key(self, d, message):
        section = next(iter(d))
        with pytest.raises(ConfigurationError, match=f"^{section}: .*{message}"):
            config_from_dict(ModelConfig, d)


class TestConfigTypes:
    def test_default_hashes_are_pinned(self):
        # checkpoints embed this digest; a type rule must not move it
        assert config_hash(default_model_config()) == \
            "a526c55da0933fd71bbeb0e8b7715b6d4b0b889b6aae660a2a2a11cff54489fa"
        assert config_hash(symmetric_model_config()) == \
            "7becdc6bc0cb8fcf32b7686a5c9d95722b4a8c9343255620e893397cea94021a"

    def test_integral_floats_and_ints_keep_the_hash(self):
        base = default_model_config()
        cfg = config_from_dict(ModelConfig, {
            "decoderHidden": 104.0, "gridRows": 13.0,
            "socialConv1": {"outChannels": 64, "kernel": [3.0, 3]}})
        assert config_hash(cfg) == config_hash(base)
        assert type(cfg.decoder_hidden) is int and type(cfg.social_conv1.kernel[0]) is int
        five = config_from_dict(ModelConfig, {"cellLength": 5})
        assert five.cell_length == 5.0 and type(five.cell_length) is float
        assert config_hash(five) == config_hash(dataclasses.replace(base, cell_length=5.0))

    @pytest.mark.parametrize("d", [
        {"autoregressive": "false"}, {"autoregressive": 0},
        _with("neighborAtcn", batchNorm="false"), _with("egoAtcn", batchNorm=1),
        {"decoderHidden": 8.9}, {"decoderHidden": "8"}, {"gridRows": True},
        {"socialConv1": {"outChannels": 64, "kernel": [3.5, 3]}},
        {"socialConv1": {"outChannels": 64, "kernel": [3, 3, 3]}},
        {"socialPool": {"window": [2, 1], "stride": "21"}},
        _with("neighborAtcn", outputFeatures=[16.7, 32, 64]),
        _with("neighborAtcn", bnMomentum="0.1"), _with("egoAtcn", padMode=1),
        {"cellLength": "4.5"}, {"cellLength": False}, {"dtype": 64},
    ])
    def test_coercible_values_are_rejected(self, d):
        with pytest.raises(ConfigurationError):
            config_from_dict(ModelConfig, d)

    def test_constructors_check_types_too(self):
        with pytest.raises(ConfigurationError, match="channels"):
            AtcnConfig(2, (16.5,), (2,), (1,))
        with pytest.raises(ConfigurationError, match="use_batch_norm"):
            AtcnConfig(2, (16,), (2,), (1,), use_batch_norm="false")
        with pytest.raises(ConfigurationError, match="stride"):
            Conv2dSpec(8, (3, 3), stride=(1,))
        with pytest.raises(ConfigurationError, match="autoregressive"):
            dataclasses.replace(default_model_config(), autoregressive="false")


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
    def _model_and_samples(self, dtype="float64"):
        cfg = dataclasses.replace(default_model_config(), dtype=dtype)
        model = DeepTrack(cfg, seed=3)
        rng = np.random.default_rng(3)
        return model, [make_sample(cfg, rng, vid=i, n_in_grid=i % 4) for i in range(6)]

    def _check_predict_equals_eval_forward(self, dtype):
        # the graph-free unroll reuses one slot per buffer; the recording one keeps every step
        model, samples = self._model_and_samples(dtype)
        want = model.forward_batch(collate(samples, model.config), "eval").data
        got = model.predict(samples)
        assert got.dtype == want.dtype == np.dtype(dtype)
        assert np.array_equal(got, want)

    def test_predict_equals_eval_forward_bit_for_bit(self):
        self._check_predict_equals_eval_forward("float64")

    def test_predict_equals_eval_forward_bit_for_bit_in_float32(self):
        self._check_predict_equals_eval_forward("float32")

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_empty_input_keeps_the_model_dtype(self, dtype):
        model, samples = self._model_and_samples(dtype)
        empty = model.predict([])
        assert empty.shape == (0, model.config.horizon_steps, model.config.output_dim)
        assert empty.dtype == model.predict(samples).dtype == np.dtype(dtype)

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

    def test_forward_records_no_graph_and_equals_forward_batch(self):
        model, samples = self._model_and_samples()
        for s in samples:
            out = model.forward(s, "eval")
            assert out._parents == () and not out.requires_grad
            want = model.forward_batch(collate([s], model.config), "eval").data
            assert np.array_equal(out.data, want[0])

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
        # the decoder runs without input, so w_ih never enters the graph
        without = {name for name, p in model.parameters().items() if p.grad is None}
        assert without == {"decoder.w_ih"}


class TestDecoderAgainstCellChain:
    """The decoder against the same model with its LSTM built another way."""

    @staticmethod
    def run(cfg, monkeypatch, name=None, replacement=None):
        if name:
            monkeypatch.setattr(model_module, name, replacement)
        model = DeepTrack(cfg, seed=4)
        rng = np.random.default_rng(4)
        samples = [make_sample(cfg, rng, vid=i, n_in_grid=i % 3) for i in range(5)]
        batch = collate(samples, cfg)
        out = model.forward_batch(batch, "train")
        mse_loss(out, batch.future).backward()
        grads = {n: t.grad for n, t in model.parameters().items()}
        return out.data, grads, model.predict(samples)

    @pytest.mark.parametrize("cfg", [tiny_config(), default_model_config()],
                             ids=["tiny", "default"])
    def test_unroll_equals_chained_cells(self, cfg, monkeypatch):
        out, grads, pred = self.run(cfg, monkeypatch)
        want_out, want_grads, want_pred = self.run(cfg, monkeypatch, "lstm_unroll",
                                                   chained_lstm_cells)
        assert np.array_equal(out, want_out) and np.array_equal(pred, want_pred)
        for name, want in want_grads.items():
            got = grads[name]
            if name == "decoder.w_ih":  # left out of the unroll, fed zeros in the chain
                assert got is None and not want.any(), name
            elif want is None:
                assert got is None, name
            elif name in ("decoder.w_hh", "decoder.bias"):  # summed over steps in one GEMM
                assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want)), name
            else:
                assert np.array_equal(got, want), name

    def test_autoregressive_equals_composed_cells_bit_for_bit(self, monkeypatch):
        cfg = dataclasses.replace(default_model_config(), autoregressive=True)
        out, grads, pred = self.run(cfg, monkeypatch)
        want_out, want_grads, want_pred = self.run(cfg, monkeypatch, "lstm_cell",
                                                   composed_lstm_cell)
        assert np.array_equal(out, want_out) and np.array_equal(pred, want_pred)
        assert grads.keys() == want_grads.keys()
        for name, want in want_grads.items():
            assert (grads[name] is None and want is None) \
                or np.array_equal(grads[name], want), name


class TestGraphSize:
    def test_default_train_step_node_count(self):
        # each of the 14 encoder units (conv, batch norm and activation) is
        # one node with three leaves and no conv bias, the 25-step decoder
        # unroll one node that the head reads through one reshape, and the
        # loss one node
        model = DeepTrack(default_model_config(), seed=0)
        batch = collate(constant_velocity_samples(32, seed=0), model.config)
        loss = mse_loss(model.forward_batch(batch, "train"), batch.future)
        assert graph_nodes(loss) == 94


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
            "import dataclasses",
            "import numpy as np",
            "from deeptrack.configio import default_model_config",
            "from deeptrack.model import collate",
            "from deeptrack.numcore import ConfigurationError, Tensor, scatter_grid",
            "from helpers import random_sample",
            "cfg = default_model_config()",
            "bad = random_sample(cfg, np.random.default_rng(0), n_in_grid=1)",
            "bad = dataclasses.replace(bad, neighbors=[",
            "    dataclasses.replace(bad.neighbors[0], cell=(99, 0))])",
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
