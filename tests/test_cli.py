"""End-to-end command line flows on synthetic data."""

import dataclasses
import hashlib
import json

import numpy as np
import pytest

from deeptrack.cli import main
from deeptrack.configio import (
    config_hash,
    config_to_dict,
    default_model_config,
    load_config_file,
    save_config_file,
)
from deeptrack.ingest import SAMPLE_MAGIC, WindowConfig, load_samples, save_samples
from deeptrack.model import DeepTrack
from deeptrack.numcore import load_weights, save_weights
from deeptrack.synthetic import constant_velocity_samples, write_tracks_csv
from deeptrack.trainer import LOSSES


@pytest.fixture()
def tracks_file(tmp_path):
    path = tmp_path / "tracks.tsv"
    write_tracks_csv(path, n_vehicles=14, n_frames=120, seed=3)
    return path


@pytest.fixture()
def ingested(tmp_path, tracks_file):
    out = tmp_path / "ing"
    assert main(["ingest", "--data", str(tracks_file), "--out", str(out),
                 "--stride", "12"]) == 0
    return out


@pytest.fixture()
def trained(tmp_path, ingested):
    out = tmp_path / "run"
    assert main(["train", "--data", str(ingested), "--out", str(out),
                 "--epochs", "1", "--batch-size", "16", "--seed", "0"]) == 0
    return out


def set_frame_61_cell(tracks_file, column, value):
    """Overwrite one cell of the 61st data row, which holds frame 61."""
    lines = tracks_file.read_text().splitlines(keepends=True)
    header = lines[0].rstrip("\n").split("\t")
    cells = lines[61].rstrip("\n").split("\t")
    assert cells[header.index("Frame_ID")] == "61"
    cells[header.index(column)] = value
    lines[61] = "\t".join(cells) + "\n"
    tracks_file.write_text("".join(lines))


class TestIngest:
    def test_writes_partition_archives_and_stats(self, ingested):
        stats = json.loads((ingested / "stats.json").read_text())
        for part in ("train", "val", "test"):
            samples = load_samples(ingested / f"{part}_samples.bin")
            assert len(samples) == stats["partitions"][part]
        assert stats["windows"]["samples"] == sum(stats["partitions"].values())
        assert stats["window"] == config_to_dict(WindowConfig(stride=12))
        manifest = json.loads((ingested / "manifest.json").read_text())
        assert manifest["command"] == "ingest"
        assert len(manifest["datasetFingerprint"]) == 64

    def test_output_bytes_are_pinned(self, ingested):
        # windowing, splitting and the archive layout all feed these digests
        digests = {
            "train_samples.bin": "75ef78e690830d98cbe57355e9ffede4dc2d5ec25778d381640a575b8ab10091",
            "val_samples.bin": "f195096b75e91d29d9284b1a4f200248773ef5b284c5652536ded9c461c59d05",
            "test_samples.bin": "3a01c5b85fd081ac35b671dd830071b7012a55baf6f92b4384619d34df6e6bdb",
            "stats.json": "cdb0d36ddf075271c524256952c799b17630d17ee93e10bfef13f939123dbef5",
        }
        for name, digest in digests.items():
            assert hashlib.sha256((ingested / name).read_bytes()).hexdigest() == digest, name

    def test_format_option_is_gone(self, tmp_path, tracks_file):
        with pytest.raises(SystemExit) as info:
            main(["ingest", "--data", str(tracks_file), "--out", str(tmp_path / "x"),
                  "--format", "text"])
        assert info.value.code == 2

    def test_vehicle_id_the_archive_cannot_hold_is_exit_2(self, tmp_path, capsys):
        path = tmp_path / "tracks.tsv"
        write_tracks_csv(path, n_vehicles=6, n_frames=100, seed=1)
        lines = path.read_text().splitlines(keepends=True)
        path.write_text("".join("-" + line if line.startswith("3\t") else line
                                for line in lines))
        assert main(["ingest", "--data", str(path), "--out", str(tmp_path / "ing"),
                     "--stride", "10"]) == 2
        err = capsys.readouterr().err
        assert "vehicle -3 at frame" in err and "Traceback" not in err

    @pytest.mark.parametrize("column, value", [("Vehicle_ID", "inf")] + [
        (column, value) for column in ("Local_X", "Local_Y") for value in ("nan", "inf", "1e400")])
    def test_non_finite_cell_drops_its_row(self, tmp_path, tracks_file, column, value):
        # one bad cell at frame 61 of a vehicle: that row counts as malformed
        # and every stored window stays finite
        set_frame_61_cell(tracks_file, column, value)
        out = tmp_path / "ing"
        assert main(["ingest", "--data", str(tracks_file), "--out", str(out),
                     "--stride", "12"]) == 0
        parse = json.loads((out / "stats.json").read_text())["parse"]
        assert parse["malformed"] == 1 and parse["rows_kept"] == parse["rows_read"] - 1
        for part in ("train", "val", "test"):
            for sample in load_samples(out / f"{part}_samples.bin"):
                arrays = [sample.ego_history, sample.future,
                          *(n.track for n in sample.neighbors)]
                assert all(np.isfinite(a).all() for a in arrays)

    @pytest.mark.parametrize("column", ["Vehicle_ID", "Frame_ID", "Lane_ID"])
    def test_id_beyond_64_bits_is_exit_2(self, tmp_path, tracks_file, capsys, column):
        set_frame_61_cell(tracks_file, column, str(2 ** 63))
        out = tmp_path / "ing"
        assert main(["ingest", "--data", str(tracks_file), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "must fit in 64-bit integers" in err and "Traceback" not in err
        assert not (out / "stats.json").exists()

    def test_undecodable_track_file_is_exit_2(self, tmp_path, tracks_file, capsys):
        blob = bytearray(tracks_file.read_bytes())
        blob[blob.index(b"\n", 1000) - 2] = 0xFF
        tracks_file.write_bytes(bytes(blob))
        assert main(["ingest", "--data", str(tracks_file), "--out", str(tmp_path / "ing")]) == 2
        err = capsys.readouterr().err
        assert "not UTF-8 text" in err and "Traceback" not in err

    def test_stride_thins_samples(self, tmp_path, tracks_file):
        dense = tmp_path / "dense"
        sparse = tmp_path / "sparse"
        main(["ingest", "--data", str(tracks_file), "--out", str(dense)])
        main(["ingest", "--data", str(tracks_file), "--out", str(sparse),
              "--stride", "10"])
        count = lambda d: json.loads((d / "stats.json").read_text())["windows"]["samples"]
        assert 0 < count(sparse) < count(dense)

    def test_missing_input_is_exit_2(self, tmp_path):
        assert main(["ingest", "--data", str(tmp_path / "nope.csv"),
                     "--out", str(tmp_path / "x")]) == 2

    def test_argparse_usage_error(self):
        with pytest.raises(SystemExit) as info:
            main(["ingest"])  # --data is required
        assert info.value.code == 2


class TestTrain:
    def test_writes_run_artifacts(self, trained):
        for name in ("checkpoint.bin", "config.json", "history.json",
                     "history.txt", "manifest.json"):
            assert (trained / name).exists(), name
        history = json.loads((trained / "history.json").read_text())
        assert len(history) == 1
        assert set(history[0]) == {"epoch", "trainLoss", "valLoss", "learningRate",
                                   "seconds", "samplesPerS", "gradNormMean", "gradNormMax",
                                   "clipRate"}
        cfg, train_dict = load_config_file(trained / "config.json")
        data = load_weights(trained / "checkpoint.bin")
        assert data.config_hash == config_hash(cfg)
        assert train_dict["epochs"] == 1 and train_dict["batchSize"] == 16

    def test_directory_reads_only_the_bin_archives(self, tmp_path, ingested, capsys):
        for part in ("train", "val", "test"):
            archive = ingested / f"{part}_samples.bin"
            archive.rename(archive.with_suffix(".jsonl"))
        assert main(["train", "--data", str(ingested), "--out", str(tmp_path / "run"),
                     "--epochs", "1"]) == 2
        assert "no train_samples.bin under" in capsys.readouterr().err

    def test_single_archive_carves_validation(self, tmp_path, ingested):
        out = tmp_path / "run_single"
        assert main(["train", "--data", str(ingested / "train_samples.bin"),
                     "--out", str(out), "--epochs", "1", "--batch-size", "16"]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["valSamples"] >= 1

    @pytest.mark.parametrize("command", ["train", "eval", "predict", "complexity"])
    def test_pad_mode_is_no_flag(self, tmp_path, ingested, trained, command):
        # each encoder section of the config sets its padMode, and a
        # checkpoint fixes its padding in config.json
        args = {"train": ["--data", str(ingested)], "complexity": []}.get(command, [
            "--checkpoint", str(trained / "checkpoint.bin"), "--data", str(ingested)])
        with pytest.raises(SystemExit) as info:
            main([command, *args, "--out", str(tmp_path / "o"), "--pad-mode", "symmetric"])
        assert info.value.code == 2

    def test_loss_choices_are_the_trainer_losses(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as info:
            main(["train", "--help"])
        assert info.value.code == 0
        assert "--loss {" + ",".join(LOSSES) + "}" in capsys.readouterr().out
        with pytest.raises(SystemExit) as info:
            main(["train", "--data", str(tmp_path), "--loss", "l0"])
        assert info.value.code == 2
        assert "invalid choice: 'l0'" in capsys.readouterr().err

    def test_negative_seed_is_exit_2(self, tmp_path, ingested, capsys):
        assert main(["train", "--data", str(ingested), "--out", str(tmp_path / "neg"),
                     "--epochs", "1", "--seed", "-1"]) == 2
        assert "seed" in capsys.readouterr().err
        path = tmp_path / "config.json"
        save_config_file(path, default_model_config(), {"seed": -1})
        assert main(["train", "--data", str(ingested), "--out", str(tmp_path / "cfg"),
                     "--config", str(path)]) == 2
        assert "seed" in capsys.readouterr().err

    @pytest.mark.parametrize("entry", [
        {"epochs": 2.5}, {"learningRate": "0.1"}, {"batchSize": True}, {"clipNorm": -1.0},
        {"learningRate": 1e-3, "minLearningRate": 1.0}])
    def test_mistyped_train_settings_are_exit_2(self, tmp_path, ingested, capsys, entry):
        path = tmp_path / "config.json"
        save_config_file(path, default_model_config(), entry)
        assert main(["train", "--data", str(ingested), "--out", str(tmp_path / "run"),
                     "--config", str(path), "--epochs", "1"]) == 2
        err = capsys.readouterr().err
        assert "error:" in err and "Traceback" not in err
        assert not (tmp_path / "run" / "checkpoint.bin").exists()

    def test_clip_mode_setting_is_exit_2_but_old_run_configs_still_load(
            self, tmp_path, ingested, trained, capsys):
        # global-norm rescaling is the one clipping rule; a config.json an
        # earlier run wrote with "clipMode" still serves eval and predict,
        # which ignore the train section
        config = json.loads((trained / "config.json").read_text())
        config["train"]["clipMode"] = "norm"
        path = tmp_path / "old_config.json"
        path.write_text(json.dumps(config))
        assert main(["train", "--data", str(ingested), "--out", str(tmp_path / "run"),
                     "--config", str(path), "--epochs", "1"]) == 2
        err = capsys.readouterr().err
        assert "unknown TrainConfig settings: ['clipMode']" in err and "Traceback" not in err
        (trained / "config.json").write_text(json.dumps(config))
        assert main(["eval", "--checkpoint", str(trained / "checkpoint.bin"),
                     "--data", str(ingested)]) == 0
        assert main(["predict", "--checkpoint", str(trained / "checkpoint.bin"),
                     "--data", str(ingested), "--out", str(tmp_path / "pred"),
                     "--limit", "1"]) == 0

    @pytest.mark.parametrize("entry, field", [
        ({"train": {"minImprovement": float("nan")}}, "min_improvement"),
        ({"cellLength": float("inf")}, "cell_length"),
        ({"train": {"minLearningRate": float("nan")}}, "min_learning_rate"),
    ], ids=["minImprovement-NaN", "cellLength-Infinity", "minLearningRate-NaN"])
    def test_non_finite_settings_are_exit_2(self, tmp_path, ingested, capsys, entry, field):
        # json writes and reads the bare NaN and Infinity literals
        config = {**config_to_dict(default_model_config()), **entry}
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        assert main(["train", "--data", str(ingested), "--out", str(tmp_path / "run"),
                     "--config", str(path), "--epochs", "1"]) == 2
        err = capsys.readouterr().err
        assert f"{field} must be a finite number" in err and "Traceback" not in err
        assert not (tmp_path / "run" / "checkpoint.bin").exists()

    @pytest.mark.parametrize("output_dim", [1, 3])
    def test_output_dim_other_than_two_is_exit_2(self, tmp_path, ingested, capsys,
                                                 output_dim):
        # the targets are (x, y) offsets: one output coordinate would
        # broadcast onto both, three would not fit them
        cfg = dataclasses.replace(default_model_config(), output_dim=output_dim)
        path = tmp_path / "config.json"
        save_config_file(path, cfg)
        assert main(["train", "--data", str(ingested), "--out", str(tmp_path / "run"),
                     "--config", str(path), "--epochs", "1"]) == 2
        err = capsys.readouterr().err
        assert f"outputDim is {output_dim}" in err and "Traceback" not in err
        assert not (tmp_path / "run" / "checkpoint.bin").exists()
        # a checkpoint saved through the Python API next to its config
        model = DeepTrack(cfg, seed=0)
        save_weights(tmp_path / "checkpoint.bin", model.parameters(), model.buffers(),
                     model.config_digest)
        for command in (["eval"], ["predict", "--out", str(tmp_path / "predicted")]):
            assert main([*command, "--checkpoint", str(tmp_path / "checkpoint.bin"),
                         "--data", str(ingested)]) == 2
            err = capsys.readouterr().err
            assert f"outputDim is {output_dim}" in err and "Traceback" not in err
        assert not (tmp_path / "predicted").exists()

    def test_divergence_keeps_last_good_weights(self, tmp_path):
        samples = constant_velocity_samples(12, seed=0)
        samples[0].future[5, 1] = np.inf
        archive = tmp_path / "bad_samples.bin"
        save_samples(archive, samples)
        out = tmp_path / "run_bad"
        assert main(["train", "--data", str(archive), "--out", str(out),
                     "--epochs", "1", "--batch-size", "16"]) == 3
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["diverged"] is True
        data = load_weights(out / "checkpoint.bin")
        assert all(np.isfinite(arr).all() for arr in data.params.values())


class TestGridGeometry:
    """The model grid must be the one the ingest directory was windowed on."""

    @pytest.fixture()
    def mismatched_run(self, tmp_path):
        """A checkpoint and config.json for a 15-row grid."""
        model = DeepTrack(dataclasses.replace(default_model_config(), grid_rows=15), seed=0)
        save_weights(tmp_path / "checkpoint.bin", model.parameters(), model.buffers(),
                     model.config_digest)
        save_config_file(tmp_path / "config.json", model.config)
        return tmp_path / "checkpoint.bin"

    @pytest.mark.parametrize("entry, field", [
        ({"gridRows": 15}, "grid_rows"), ({"gridCols": 5}, "grid_cols"),
        ({"cellLength": 9.0}, "cell_length")])
    def test_train_on_other_geometry_is_exit_2(self, tmp_path, ingested, capsys,
                                               entry, field):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(entry))
        out = tmp_path / "run"
        assert main(["train", "--data", str(ingested), "--out", str(out),
                     "--config", str(path), "--epochs", "1"]) == 2
        assert field in capsys.readouterr().err
        assert not (out / "checkpoint.bin").exists()

    def test_default_config_file_trains(self, tmp_path, ingested):
        path = tmp_path / "config.json"
        save_config_file(path, default_model_config())
        assert main(["train", "--data", str(ingested), "--out", str(tmp_path / "run"),
                     "--config", str(path), "--epochs", "1", "--batch-size", "16"]) == 0

    @pytest.mark.parametrize("command", ["eval", "predict"])
    def test_checkpoint_on_other_geometry_is_exit_2(self, tmp_path, ingested, capsys,
                                                    mismatched_run, command):
        assert main([command, "--checkpoint", str(mismatched_run),
                     "--data", str(ingested), "--out", str(tmp_path / "o")]) == 2
        assert "grid_rows" in capsys.readouterr().err

    def test_directory_without_record_has_default_geometry(self, tmp_path, ingested,
                                                          capsys, mismatched_run):
        stats = json.loads((ingested / "stats.json").read_text())
        del stats["window"]
        (ingested / "stats.json").write_text(json.dumps(stats))
        assert main(["eval", "--checkpoint", str(mismatched_run),
                     "--data", str(ingested)]) == 2
        assert "grid_rows" in capsys.readouterr().err
        (ingested / "stats.json").unlink()
        assert main(["eval", "--checkpoint", str(mismatched_run),
                     "--data", str(ingested)]) == 2
        assert main(["train", "--data", str(ingested), "--out", str(tmp_path / "run"),
                     "--epochs", "1", "--batch-size", "16"]) == 0

    def test_corrupt_stats_is_exit_2(self, tmp_path, ingested, capsys):
        (ingested / "stats.json").write_text("{not json")
        assert main(["train", "--data", str(ingested), "--out", str(tmp_path / "run"),
                     "--epochs", "1"]) == 2
        assert "stats" in capsys.readouterr().err


class TestEvalAndPredict:
    def test_eval_writes_report(self, tmp_path, ingested, trained, capsys):
        out = tmp_path / "ev"
        assert main(["eval", "--checkpoint", str(trained / "checkpoint.bin"),
                     "--data", str(ingested), "--out", str(out)]) == 0
        assert "rmse" in capsys.readouterr().out
        payload = json.loads((out / "eval.json").read_text())
        assert set(payload) >= {"horizonRmse", "ade", "samples", "baselineAde"}
        assert list(payload["horizonRmse"]) == ["5", "10", "15", "20", "25"]

    def test_eval_stdout_only_without_out(self, tmp_path, monkeypatch, ingested,
                                          trained, capsys):
        monkeypatch.chdir(tmp_path)
        monkeypatch.delenv("DEEPTRACK_OUT_ROOT", raising=False)
        assert main(["eval", "--checkpoint", str(trained / "checkpoint.bin"),
                     "--data", str(ingested)]) == 0
        assert "rmse" in capsys.readouterr().out
        assert not (tmp_path / "runs").exists()

    def test_hash_mismatch_is_exit_4(self, tmp_path, ingested, trained):
        other = config_to_dict(default_model_config())
        other["decoderHidden"] = 64
        bad_cfg = tmp_path / "other.json"
        bad_cfg.write_text(json.dumps(other))
        assert main(["eval", "--checkpoint", str(trained / "checkpoint.bin"),
                     "--data", str(ingested), "--config", str(bad_cfg)]) == 4

    def test_predict_trace_layout(self, tmp_path, ingested, trained):
        out = tmp_path / "pred"
        assert main(["predict", "--checkpoint", str(trained / "checkpoint.bin"),
                     "--data", str(ingested), "--out", str(out),
                     "--limit", "2"]) == 0
        lines = (out / "predictions.csv").read_text().splitlines()
        assert lines[0] == "datasetId,vehicleId,t0Frame,role,step,x,y"
        assert len(lines) == 1 + 2 * (16 + 25 + 25)
        roles = [line.split(",")[3] for line in lines[1:]]
        assert roles.count("history") == 32
        assert roles.count("truth") == 50
        assert roles.count("prediction") == 50

    def test_predict_floats_round_trip(self, tmp_path, ingested, trained):
        out = tmp_path / "pred_rt"
        main(["predict", "--checkpoint", str(trained / "checkpoint.bin"),
              "--data", str(ingested), "--out", str(out), "--limit", "1"])
        sample = load_samples(ingested / "test_samples.bin")[0]
        rows = [line.split(",") for line in
                (out / "predictions.csv").read_text().splitlines()[1:]]
        history = [(float(r[5]), float(r[6])) for r in rows if r[3] == "history"]
        assert np.array_equal(np.array(history), sample.ego_history)

    def test_limit_below_one_is_exit_2(self, tmp_path, ingested, trained, capsys):
        for limit in ("-1", "0"):
            out = tmp_path / f"pred{limit}"
            assert main(["predict", "--checkpoint", str(trained / "checkpoint.bin"),
                         "--data", str(ingested), "--out", str(out),
                         "--limit", limit]) == 2
            assert "--limit" in capsys.readouterr().err
            assert not (out / "predictions.csv").exists()

    def test_wrong_shaped_running_statistic_is_exit_2(self, tmp_path, ingested, trained,
                                                      capsys):
        data = load_weights(trained / "checkpoint.bin")
        name = "ego_encoder.block1.dw.bn.var"
        data.buffers[name] = np.ones(data.buffers[name].size + 1)
        save_weights(tmp_path / "checkpoint.bin", data.params, data.buffers, data.config_hash)
        (tmp_path / "config.json").write_bytes((trained / "config.json").read_bytes())
        assert main(["eval", "--checkpoint", str(tmp_path / "checkpoint.bin"),
                     "--data", str(ingested)]) == 2
        err = capsys.readouterr().err
        assert name in err and "Traceback" not in err

    def test_missing_checkpoint_is_exit_2(self, tmp_path, ingested):
        assert main(["eval", "--checkpoint", str(tmp_path / "none.bin"),
                     "--data", str(ingested)]) == 2

    def test_truncated_checkpoint_is_exit_2(self, tmp_path, ingested, capsys):
        model = DeepTrack(seed=0)
        path = tmp_path / "half.bin"
        save_weights(path, model.parameters(), model.buffers(), model.config_digest)
        path.write_bytes(path.read_bytes()[:path.stat().st_size // 2])
        save_config_file(tmp_path / "config.json", model.config)
        assert main(["eval", "--checkpoint", str(path), "--data", str(ingested)]) == 2
        assert "corrupt checkpoint" in capsys.readouterr().err


    def test_predict_with_short_neighbor_track_is_exit_2(self, tmp_path, capsys):
        model = DeepTrack(seed=0)
        save_weights(tmp_path / "checkpoint.bin", model.parameters(), model.buffers(),
                     model.config_digest)
        save_config_file(tmp_path / "config.json", model.config)
        samples = constant_velocity_samples(4, seed=0)
        short = next(n for s in samples for n in s.neighbors if n.cell is not None)
        # save_samples refuses a short track, so the first two steps are cut
        # from the stored bytes: the layout stores every track at the history
        # length, so the cut archive is shorter than its header says and is
        # rejected at load; collate's own check is covered in test_model.py
        archive = tmp_path / "test_samples.bin"
        save_samples(archive, samples)
        blob = archive.read_bytes()
        at = blob.index(np.ascontiguousarray(short.track, dtype="<f8").tobytes())
        archive.write_bytes(blob[:at] + blob[at + 2 * 2 * 8:])
        assert main(["predict", "--checkpoint", str(tmp_path / "checkpoint.bin"),
                     "--data", str(archive), "--out", str(tmp_path / "pred")]) == 2
        assert "corrupt sample archive" in capsys.readouterr().err

    @pytest.mark.parametrize("content", ["empty", "checkpoint", "json-lines", "version-1"])
    def test_file_that_is_no_sample_archive_is_exit_2(self, tmp_path, trained, capsys,
                                                      content):
        path = tmp_path / "test_samples.bin"
        if content == "checkpoint":
            path = trained / "checkpoint.bin"
        elif content == "empty":
            path.write_bytes(b"")
        elif content == "version-1":
            # an empty archive as version 1 wrote it: magic, u32 version, u64 count
            path.write_bytes(SAMPLE_MAGIC + (1).to_bytes(4, "little") + bytes(8))
        else:  # one record of the JSON-lines format earlier versions wrote
            s = constant_velocity_samples(1, seed=0)[0]
            path.write_text(json.dumps({
                "datasetId": s.dataset_id, "vehicleId": s.vehicle_id, "t0Frame": s.t0_frame,
                "egoHistory": s.ego_history.tolist(), "future": s.future.tolist(),
                "neighbors": []}) + "\n")
        assert main(["predict", "--checkpoint", str(trained / "checkpoint.bin"),
                     "--data", str(path), "--out", str(tmp_path / "pred")]) == 2
        err = capsys.readouterr().err
        if content == "version-1":
            assert "version 1" in err and "re-run `deeptrack ingest`" in err
        else:
            assert "not a sample archive" in err
        assert "Traceback" not in err


class TestArtifactLayout:
    def test_json_artifacts_are_indented_with_a_final_newline(self, tmp_path, ingested,
                                                               trained):
        ev, cx = tmp_path / "ev", tmp_path / "cx"
        assert main(["eval", "--checkpoint", str(trained / "checkpoint.bin"),
                     "--data", str(ingested), "--out", str(ev)]) == 0
        assert main(["complexity", "--out", str(cx)]) == 0
        # records keep their field order; files that hold settings sort theirs
        sorted_keys = {ingested / "manifest.json": True, ingested / "stats.json": True,
                       trained / "config.json": True, trained / "history.json": False,
                       ev / "eval.json": False, cx / "complexity.json": False}
        sorted_keys.update({out / "manifest.json": True for out in (trained, ev, cx)})
        for path, sort_keys in sorted_keys.items():
            text = path.read_text(encoding="utf-8")
            assert text == json.dumps(json.loads(text), indent=2, sort_keys=sort_keys) + "\n", \
                path


class TestComplexity:
    def test_prints_costs(self, capsys):
        assert main(["complexity"]) == 0
        out = capsys.readouterr().out
        assert "173,290" in out and "1,674,512" in out

    def test_out_dir_via_environment(self, tmp_path, monkeypatch):
        monkeypatch.setenv("DEEPTRACK_OUT_ROOT", str(tmp_path / "envroot"))
        assert main(["complexity"]) == 0
        payload = json.loads(
            (tmp_path / "envroot" / "complexity" / "complexity.json").read_text())
        assert payload["totalParams"] == 173_290
        assert payload["totalMacs"] == 1_674_512
        assert (tmp_path / "envroot" / "complexity" / "manifest.json").exists()

    @pytest.mark.parametrize("neighbors", ["-3", "-1"])
    def test_negative_neighbor_count_is_exit_2(self, capsys, neighbors):
        assert main(["complexity", "--neighbors", neighbors]) == 2
        captured = capsys.readouterr()
        assert "neighbors must be an integer >= 0" in captured.err and captured.out == ""

    @pytest.mark.parametrize("config", [
        {"decoderHiden": 8},
        {"neighborAtcn": {**config_to_dict(default_model_config())["neighborAtcn"],
                          "kernelSize": 3}},
        {"egoAtcn": {**config_to_dict(default_model_config())["egoAtcn"],
                     "dilation": [1, 1, 1]}},
        {"socialConv1": {"outChannels": 64, "kernel": [3, 3], "strides": [1, 1]}},
        {"socialConv2": {"outChannels": 16, "kernel": [3, 1], "pad": [0, 0]}},
        {"socialPool": {"window": [2, 1], "stride": [2, 1], "paddding": [1, 0]}},
        {"socialPool": {"window": [0, 1], "stride": [0, 1]}},
        {"socialPool": {"window": [2, 1], "stride": [2, 1], "padding": [2, 0]}},
        {"socialPool": {}}, {"socialPool": []}, {"socialPool": None},
    ], ids=["top", "neighborAtcn", "egoAtcn", "socialConv1", "socialConv2",
            "socialPool", "pool-zero-window", "pool-padding-covers-window",
            "pool-empty-object", "pool-empty-list", "pool-null"])
    def test_config_typos_and_bad_pool_are_exit_2(self, tmp_path, capsys, config):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        assert main(["complexity", "--config", str(path)]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("section, entry, field", [
        ("socialConv1", {"padding": [-1, 0]}, "conv spec"),
        ("neighborAtcn", {"bnMomentum": 2.0}, "bn_momentum"),
        ("neighborAtcn", {"bnMomentum": -0.1}, "bn_momentum"),
        ("egoAtcn", {"bnEpsilon": -1.0}, "bn_epsilon"),
    ])
    def test_config_values_out_of_range_are_exit_2(self, tmp_path, capsys, section,
                                                   entry, field):
        config = config_to_dict(default_model_config())
        config[section].update(entry)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        assert main(["complexity", "--config", str(path)]) == 2
        captured = capsys.readouterr()
        assert field in captured.err and captured.out == ""

    @pytest.mark.parametrize("config, layer", [
        ({"outputDim": 2 ** 63}, "decoder"),
        ({"neighborAtcn": {**config_to_dict(default_model_config())["neighborAtcn"],
                           "kernelSizes": [1e308, 2, 2]}}, "neighbor_encoder"),
    ], ids=["outputDim-2**63", "kernelSizes-1e308"])
    def test_sizes_no_weight_can_take_are_exit_2(self, tmp_path, capsys, config, layer):
        # numpy refuses these shapes before it allocates anything
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        assert main(["complexity", "--config", str(path)]) == 2
        captured = capsys.readouterr()
        assert f"error: {layer}: " in captured.err and captured.out == ""

    def test_config_that_is_not_utf8_is_exit_2(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_bytes(b'{"gridRows": 13, "dtype": "\xff"}')
        assert main(["complexity", "--config", str(path)]) == 2
        assert "not valid JSON" in capsys.readouterr().err

    @pytest.mark.parametrize("section, entry", [
        (None, {"autoregressive": "false"}),
        ("neighborAtcn", {"batchNorm": "false"}),
        (None, {"decoderHidden": 8.9}),
        ("socialConv1", {"kernel": [3.5, 3]}),
        ("neighborAtcn", {"outputFeatures": [16.7, 32, 64]}),
    ])
    def test_coercible_config_values_are_exit_2(self, tmp_path, capsys, section, entry):
        config = config_to_dict(default_model_config())
        (config[section] if section else config).update(entry)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        assert main(["complexity", "--config", str(path)]) == 2
        captured = capsys.readouterr()
        assert "error:" in captured.err and captured.out == ""
