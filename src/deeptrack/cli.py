"""Command line front end: ingest, train, eval, predict, complexity.

Exit codes: 0 success, 2 bad input or configuration, 3 numeric failure
(training divergence), 4 checkpoint/config hash mismatch.

Every run that writes artifacts also writes ``manifest.json`` recording the
tool version, config hash, a fingerprint of the input data, the seed, and
wall-clock bounds, so results can be traced back to their inputs.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import os
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from . import __version__
from .complexity import complexity_report
from .configio import (
    ModelConfig,
    config_from_dict,
    config_hash,
    config_to_dict,
    default_model_config,
    load_config_file,
    read_json_object,
    save_config_file,
    write_json,
)
from .ingest import PARTITION_NAMES, WindowConfig, load_samples, parse_tracks, save_samples, \
    split_dataset, window_samples
from .model import DeepTrack
from .numcore import ConfigurationError, NumericsError, load_weights, save_weights
from .trainer import (
    LOSSES,
    TrainConfig,
    TrainingDiverged,
    check_xy_output,
    evaluate,
    history_to_text,
    train,
    zero_baseline,
)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NUMERIC = 3
EXIT_HASH_MISMATCH = 4

OUT_ROOT_VAR = "DEEPTRACK_OUT_ROOT"


# ---------------------------------------------------------------------------
# shared plumbing
# ---------------------------------------------------------------------------

def _now() -> str:
    return time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())


def _out_dir(args, command: str, required: bool) -> Optional[Path]:
    if args.out:
        path = Path(args.out)
    elif os.environ.get(OUT_ROOT_VAR):
        path = Path(os.environ[OUT_ROOT_VAR]) / command
    elif required:
        path = Path("runs") / command
    else:
        return None
    path.mkdir(parents=True, exist_ok=True)
    return path


def _fingerprint(paths: Sequence[Path]) -> str:
    digest = hashlib.sha256()
    for path in sorted(Path(p) for p in paths):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _write_manifest(out: Path, command: str, started: str, *,
                    cfg_hash: Optional[str] = None,
                    fingerprint: Optional[str] = None,
                    seed: Optional[int] = None,
                    extra: Optional[Dict] = None) -> None:
    manifest = {
        "command": command,
        "toolVersion": __version__,
        "configHash": cfg_hash,
        "datasetFingerprint": fingerprint,
        "seed": seed,
        "startedAt": started,
        "finishedAt": _now(),
    }
    if extra:
        manifest.update(extra)
    write_json(out / "manifest.json", manifest, sort_keys=True)


def _load_model_config(args) -> tuple:
    """(ModelConfig, train overrides dict) from --config, else defaults."""
    if args.config:
        return load_config_file(args.config)
    return default_model_config(), {}


def _check_grid(data: Path, cfg: ModelConfig) -> None:
    """Reject a model whose grid differs from the one ``data`` was windowed on.

    An ingest directory records its window settings in stats.json; one
    without that record was windowed with the ``WindowConfig`` defaults, the
    only geometry earlier versions had.
    """
    stats = data / "stats.json"
    record = read_json_object(stats, "stats").get("window", {}) if stats.exists() else {}
    window = config_from_dict(WindowConfig, record)
    for name in ("grid_rows", "grid_cols", "cell_length"):
        if getattr(window, name) != getattr(cfg, name):
            raise ConfigurationError(
                f"{name} is {getattr(cfg, name)} in the model config but "
                f"{getattr(window, name)} in the windows under {data}")


def _load_part(data: Path, part: str, cfg: ModelConfig) -> tuple:
    """Load one partition for a model of config ``cfg``: the ``{part}`` archive
    of an ingest directory, once its grid passes, or a bare archive, which
    records no grid."""
    if not data.is_dir():
        return load_samples(data), data
    _check_grid(data, cfg)
    path = data / f"{part}_samples.bin"
    if not path.exists():
        raise ConfigurationError(f"no {path.name} under {data}; run ingest first")
    return load_samples(path), path


def _resolve_checkpoint(args) -> tuple:
    """Model and config behind --checkpoint, hash-verified.

    The config comes from --config when given, else from the config.json the
    training run wrote next to the checkpoint.
    """
    ckpt_path = Path(args.checkpoint)
    if args.config:
        cfg, _ = _load_model_config(args)
    else:
        sibling = ckpt_path.parent / "config.json"
        if not sibling.exists():
            raise ConfigurationError(
                f"no --config given and no config.json next to {ckpt_path}")
        cfg, _ = load_config_file(sibling)
    data = load_weights(ckpt_path)
    expected = config_hash(cfg)
    if data.config_hash != expected:
        raise _HashMismatch(
            f"checkpoint {ckpt_path} was trained against config "
            f"{data.config_hash[:12]}..., but the resolved config hashes to "
            f"{expected[:12]}...")
    model = DeepTrack(cfg, seed=0)
    model.load_state(data.params, data.buffers)
    return model, cfg, ckpt_path


class _HashMismatch(ConfigurationError):
    """Checkpoint and config disagree; mapped to its own exit code."""


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_ingest(args) -> int:
    started = _now()
    out = _out_dir(args, "ingest", required=True)
    data_path = Path(args.data)
    window = WindowConfig(stride=args.stride)
    tracks, parse_stats = parse_tracks(str(data_path))
    dataset_id = args.dataset_id or data_path.stem
    samples, window_stats = window_samples(tracks, window, dataset_id)
    parts = split_dataset(samples, seed=args.seed)

    counts = {}
    for name, part in zip(PARTITION_NAMES, parts):
        save_samples(out / f"{name}_samples.bin", part)
        counts[name] = len(part)
    stats = {
        "parse": dataclasses.asdict(parse_stats),
        "windows": dataclasses.asdict(window_stats),
        "partitions": counts,
        "window": config_to_dict(window),
    }
    write_json(out / "stats.json", stats, sort_keys=True)
    _write_manifest(out, "ingest", started,
                    fingerprint=_fingerprint([data_path]), seed=args.seed,
                    extra={"datasetId": dataset_id, "samples": len(samples),
                           "partitions": counts})
    print(f"ingest: {len(samples)} samples "
          f"(train {counts['train']} / val {counts['val']} / test {counts['test']}) "
          f"-> {out}")
    return EXIT_OK


def cmd_train(args) -> int:
    started = _now()
    out = _out_dir(args, "train", required=True)
    cfg, train_dict = _load_model_config(args)
    flags = {name: getattr(args, name) for name in ("loss", "seed", "epochs", "batch_size")}
    train_cfg = dataclasses.replace(config_from_dict(TrainConfig, train_dict),
                                    **{k: v for k, v in flags.items() if v is not None})

    data = Path(args.data)
    train_set, train_path = _load_part(data, "train", cfg)
    val_set: List = []
    val_path = train_path
    if data.is_dir():
        val_set, val_path = _load_part(data, "val", cfg)
        if not val_set:
            print("train: validation partition is empty; holding out a tail "
                  "of the training samples instead", file=sys.stderr)
    if not val_set:
        # single archive, or a vehicle split too small to reach val
        cut = max(1, len(train_set) // 10)
        train_set, val_set = train_set[:-cut], train_set[-cut:]
        val_path = train_path

    model = DeepTrack(cfg, seed=train_cfg.seed)
    cfg_hash = config_hash(cfg)

    def _write_outputs(history, params, buffers):
        save_weights(out / "checkpoint.bin", params, buffers, cfg_hash)
        save_config_file(out / "config.json", cfg, config_to_dict(train_cfg))
        write_json(out / "history.json", [config_to_dict(r) for r in history])
        (out / "history.txt").write_text(history_to_text(history) if history else "",
                                         encoding="utf-8")

    fingerprint = _fingerprint({train_path, val_path})
    try:
        result = train(model, train_set, val_set, train_cfg,
                       log=lambda line: print(line, file=sys.stderr))
    except TrainingDiverged as diverged:
        _write_outputs(diverged.history, diverged.params, diverged.buffers)
        _write_manifest(out, "train", started, cfg_hash=cfg_hash,
                        fingerprint=fingerprint, seed=train_cfg.seed,
                        extra={"diverged": True})
        print(f"train: {diverged}", file=sys.stderr)
        print(f"train: last usable weights kept at {out}", file=sys.stderr)
        return EXIT_NUMERIC

    _write_outputs(result.history, result.best_params, result.best_buffers)
    _write_manifest(out, "train", started, cfg_hash=cfg_hash,
                    fingerprint=fingerprint, seed=train_cfg.seed,
                    extra={"bestEpoch": result.best_epoch,
                           "bestValLoss": result.best_val_loss,
                           "trainSamples": len(train_set),
                           "valSamples": len(val_set)})
    print(f"train: best epoch {result.best_epoch} "
          f"(val loss {result.best_val_loss:.6f}) -> {out / 'checkpoint.bin'}")
    return EXIT_OK


def cmd_eval(args) -> int:
    started = _now()
    model, cfg, ckpt_path = _resolve_checkpoint(args)
    samples, data_path = _load_part(Path(args.data), "test", cfg)
    report = evaluate(model, samples)
    baseline = zero_baseline(samples)
    text = report.to_text()
    print(text, end="")
    print(f"standing-still baseline {baseline.ade:.3f} m")

    out = _out_dir(args, "eval", required=False)
    if out:
        payload = {**config_to_dict(report), "baselineAde": baseline.ade}
        # keys stay in horizon order; sorting would shuffle "10" before "5"
        write_json(out / "eval.json", payload)
        (out / "eval.txt").write_text(text, encoding="utf-8")
        _write_manifest(out, "eval", started, cfg_hash=config_hash(cfg),
                        fingerprint=_fingerprint([data_path]),
                        extra={"checkpoint": str(ckpt_path),
                               "samples": report.samples})
    return EXIT_OK


def cmd_predict(args) -> int:
    started = _now()
    model, cfg, ckpt_path = _resolve_checkpoint(args)
    check_xy_output(model)
    samples, data_path = _load_part(Path(args.data), "test", cfg)
    if args.limit is not None and args.limit < 1:
        raise ConfigurationError(f"--limit must be >= 1, got {args.limit}")
    samples = samples[:args.limit]
    pred = model.predict(samples)

    out = _out_dir(args, "predict", required=True)
    trace = out / "predictions.csv"
    with open(trace, "w", encoding="utf-8") as fh:
        fh.write("datasetId,vehicleId,t0Frame,role,step,x,y\n")
        for i, s in enumerate(samples):
            key = f"{s.dataset_id},{s.vehicle_id},{s.t0_frame}"
            for rows, role in ((s.ego_history, "history"),
                               (s.future, "truth"),
                               (pred[i], "prediction")):
                for step, (x, y) in enumerate(rows, start=1):
                    fh.write(f"{key},{role},{step},{float(x)!r},{float(y)!r}\n")
    _write_manifest(out, "predict", started, cfg_hash=config_hash(cfg),
                    fingerprint=_fingerprint([data_path]),
                    extra={"checkpoint": str(ckpt_path), "samples": len(samples)})
    per_sample = samples[0].ego_history.shape[0] + samples[0].future.shape[0] \
        + pred.shape[1] if samples else 0
    print(f"predict: {len(samples)} samples x {per_sample} rows -> {trace}")
    return EXIT_OK


def cmd_complexity(args) -> int:
    started = _now()
    cfg, _ = _load_model_config(args)
    report = complexity_report(cfg, args.neighbors)
    text = report.to_text()
    print(text, end="")
    out = _out_dir(args, "complexity", required=False)
    if out:
        (out / "complexity.txt").write_text(text, encoding="utf-8")
        payload = {
            "layers": [dataclasses.asdict(l) for l in report.layers],
            "totalParams": report.total_params,
            "totalMacs": report.total_macs,
            "bnState": report.bn_state,
        }
        write_json(out / "complexity.json", payload)
        _write_manifest(out, "complexity", started, cfg_hash=config_hash(cfg))
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser and entry point
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="deeptrack",
        description="Vehicle trajectory prediction: data ingest, training, "
                    "evaluation, and cost analysis.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, config=True):
        if config:
            p.add_argument("--config", help="model config JSON")
        p.add_argument("--out", help=f"output directory "
                       f"(default ${OUT_ROOT_VAR}/<command>)")

    p = sub.add_parser("ingest", help="raw tracks -> windowed sample archives")
    p.add_argument("--data", required=True, help="raw track file (csv/tsv)")
    p.add_argument("--dataset-id", help="label stored in each sample")
    p.add_argument("--seed", type=int, default=0, help="vehicle split seed")
    p.add_argument("--stride", type=int, default=1,
                   help="keep every n-th eligible window per vehicle")
    add_common(p, config=False)
    p.set_defaults(handler=cmd_ingest)

    p = sub.add_parser("train", help="fit the predictor on ingested samples")
    p.add_argument("--data", required=True,
                   help="ingest output directory, or one sample archive")
    p.add_argument("--loss", choices=tuple(LOSSES))
    p.add_argument("--seed", type=int)
    p.add_argument("--epochs", type=int)
    p.add_argument("--batch-size", type=int)
    add_common(p)
    p.set_defaults(handler=cmd_train)

    p = sub.add_parser("eval", help="horizon RMSE of a checkpoint")
    p.add_argument("--checkpoint", required=True, help="checkpoint.bin path")
    p.add_argument("--data", required=True,
                   help="ingest output directory, or one sample archive")
    add_common(p)
    p.set_defaults(handler=cmd_eval)

    p = sub.add_parser("predict", help="write per-sample trajectory traces")
    p.add_argument("--checkpoint", required=True, help="checkpoint.bin path")
    p.add_argument("--data", required=True,
                   help="ingest output directory, or one sample archive")
    p.add_argument("--limit", type=int, help="only the first n samples")
    add_common(p)
    p.set_defaults(handler=cmd_predict)

    p = sub.add_parser("complexity", help="parameter and MAC breakdown")
    p.add_argument("--neighbors", type=int, default=1,
                   help="occupied grid cells assumed per sample")
    add_common(p)
    p.set_defaults(handler=cmd_complexity)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except _HashMismatch as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_HASH_MISMATCH
    except (ConfigurationError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INPUT
    except NumericsError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    raise SystemExit(main())
