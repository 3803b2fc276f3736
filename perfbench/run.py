"""Benchmark entry point.

    python3 perfbench/run.py --workload {ingest,train,predict} --seed N \
        --seconds S --trace {0,1}

Run it from the root of a checkout; it imports the program from ``src/``.
The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``. With ``--trace 0`` the metrics are
the end-to-end ones, with ``--trace 1`` the per-layer ones from the spans.
The line before it is the numeric environment and the make-up of the
inputs. Each run also writes ``perfbench/out/result-<workload>-seed<N>-trace<T>.json``,
and a traced run ``perfbench/out/trace-<workload>-seed<N>.json`` with every span.
"""

from __future__ import annotations

import os
import sys

# one BLAS thread, fixed before numpy loads, in this process and its children
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
# numpy asks for huge pages behind arrays of 4 MB and more; whether the kernel
# finds any depends on the whole host's memory, which moved `evaluate` by 15%
# between processes
os.environ["NUMPY_MADVISE_HUGEPAGE"] = "0"

import argparse
import json
import pickle
import shutil
import signal
import subprocess
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("ingest", "train", "predict")
CHILD_TIMEOUT_S = 150


class Aborted(RuntimeError):
    pass


def _import_program():
    """Import the program from this checkout's ``src``, or explain why not."""
    sys.path[:0] = [str(HERE), str(ROOT / "src")]
    try:
        import deeptrack
    except ImportError as err:
        return f"cannot import deeptrack from {ROOT / 'src'}: {err}"
    if Path(deeptrack.__file__).resolve().parent.parent != (ROOT / "src").resolve():
        return f"deeptrack resolved to {deeptrack.__file__}, not to this checkout"
    return None


def in_child(name: str, *args):
    """Run ``workloads.<name>(*args)`` in a fresh process and return its value.

    One child runs at a time and is always waited for, so the load comes
    from one process at any moment and none outlives the run (``multiprocessing``
    would leave its resource tracker process running). The child's standard
    output goes to standard error, so that the result line stays last.
    """
    OUT.mkdir(parents=True, exist_ok=True)
    reply = OUT / f"reply-{os.getpid()}.pickle"
    reply.unlink(missing_ok=True)
    command = [sys.executable, str(HERE / "child.py"), name, str(reply), json.dumps(args)]
    try:
        subprocess.run(command, stdout=sys.stderr.fileno(), timeout=CHILD_TIMEOUT_S)
        status, value = (pickle.loads(reply.read_bytes()) if reply.exists()
                         else ("aborted", "the process died"))
    except subprocess.TimeoutExpired:
        status, value = "aborted", f"timed out after {CHILD_TIMEOUT_S} s"
    finally:
        reply.unlink(missing_ok=True)
    if status != "done":
        raise Aborted(f"{name}{args[:1]}: {value}")
    return value


def end_to_end(home: dict, stages: dict) -> dict:
    from statistics import median
    from workloads import BATCH, percentile
    ingest, train, predict = stages["ingest"], stages["train"], stages["predict"]
    return {
        "setup_s": (median(home["setup_s"]), "s"),
        "peak_rss_mb": (home["peak_rss_mb"], "MB"),
        "train_samples_per_s": (BATCH / median(train["step_s"]), "1/s"),
        "frame_p50_ms": (percentile(predict["frame_s"], 50) * 1e3, "ms"),
        "frame_p90_ms": (percentile(predict["frame_s"], 90) * 1e3, "ms"),
        "single_p50_ms": (median(predict["single_s"]) * 1e3, "ms"),
        "eval_samples_per_s": (median(predict["eval_per_s"]), "1/s"),
        "ingest_windows_per_s": (median(ingest["windows_per_s"]), "1/s"),
        "archive_save_samples_per_s": (median(ingest["save_per_s"]), "1/s"),
        "archive_load_samples_per_s": (median(ingest["load_per_s"]), "1/s"),
    }


def per_layer(tracer, stages: dict) -> dict:
    ms = 1e3
    ingest = stages["ingest"]
    out = {
        "train.collate_ms": (tracer.median_s("train.collate") * ms, "ms"),
        "train.forward_ms": (tracer.median_s("train.forward") * ms, "ms"),
        "train.backward_ms": (tracer.median_s("train.backward") * ms, "ms"),
        "train.adam_ms": (tracer.median_s("train.adam") * ms, "ms"),
        "train.graph_nodes": (tracer.median_count("train.graph_nodes"), "count"),
        "train.page_faults_per_step": (tracer.median_faults("train.step"), "count"),
        "predict.collate_ms": (tracer.median_s("predict.collate") * ms, "ms"),
        "predict.forward_ms": (tracer.median_s("predict.forward") * ms, "ms"),
        "predict.graph_nodes_per_frame": (tracer.median_count("predict.graph_nodes"),
                                          "count"),
        "predict.page_faults_per_frame": (tracer.median_faults("predict.frame"), "count"),
        "predict.checkpoint_load_ms": (tracer.median_s("predict.checkpoint_load") * ms,
                                       "ms"),
        "predict.archive_load_ms": (tracer.median_s("predict.archive_load") * ms, "ms"),
        "ingest.parse_s": (tracer.median_s("ingest.parse"), "s"),
        "ingest.window_s": (tracer.median_s("ingest.window"), "s"),
        "ingest.split_s": (tracer.median_s("ingest.split"), "s"),
        "ingest.save_s": (tracer.median_s("ingest.save"), "s"),
        "ingest.load_s": (tracer.median_s("ingest.load"), "s"),
        "ingest.archive_bytes_per_sample": (ingest["bytes_per_sample"], "B/sample"),
        "ingest.neighbors_in_grid_ratio": (ingest["in_grid_ratio"], "ratio"),
    }
    for name, row in stages["train"]["layers"].items():
        out[f"layer.{name}.fwd_us"] = (row["fwd_us"], "us")
        out[f"layer.{name}.bwd_us"] = (row["bwd_us"], "us")
        out[f"layer.{name}.mmacs_per_s"] = (row["mmacs_per_s"], "MMAC/s")
    return out


def execute(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Write the inputs, then run every stage in a process of its own."""
    from tracing import Tracer

    work = OUT / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        in_child("prepare_inputs", seed, str(work))
        tracer = Tracer(trace)
        stages, children = {}, {}
        for name in [workload] + [s for s in ("train", "predict", "ingest") if s != workload]:
            child = in_child("run_stage", name, seed, str(work), name == workload,
                             seconds, trace)
            for span in child["spans"]:
                tracer.spans.append(dict(span, stage=name))
            for key, values in child["counts"].items():
                tracer.counts[key].extend(values)
            stages[name], children[name] = child["figures"], child
    finally:
        shutil.rmtree(work, ignore_errors=True)

    values = end_to_end(stages[workload], stages)
    return {
        "metrics": per_layer(tracer, stages) if trace else values,
        # a traced run keeps its end-to-end figures too: the difference to an
        # untraced run is the tracing overhead
        "end_to_end": {name: value for name, (value, _) in values.items()},
        "attempted": sum(c["attempted"] for c in children.values()),
        "failed": sum(c["failed"] for c in children.values()),
        "failures": [f for c in children.values() for f in c["failures"]],
        "clock": {name: c["clock"] for name, c in children.items()},
        "stages": stages, "tracer": tracer,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    problem = _import_program()
    if problem:
        print(problem, file=sys.stderr)
        return 2
    from envinfo import numeric_environment

    env = numeric_environment()
    try:
        result = execute(args.workload, args.seed, args.seconds, bool(args.trace))
    except Aborted as err:
        print(f"run aborted: {err}", file=sys.stderr)
        return 1
    for reason in result["failures"]:
        print(f"check failed: {reason}", file=sys.stderr)

    summary = {"correct": not result["failures"], "attempted": result["attempted"],
               "failed": result["failed"],
               "metrics": {name: {"value": float(value), "unit": unit}
                           for name, (value, unit) in result["metrics"].items()}}
    ingest, train = result["stages"]["ingest"], result["stages"]["train"]
    inputs = {"vehicles": ingest["vehicles"], "ingest_windows": ingest["samples"],
              "mean_in_grid_neighbors": ingest["mean_in_grid"], "train_steps": train["steps"],
              "val_ade_m": train["val_ade_m"],
              "val_standing_still_ade_m": train["val_standing_still_ade_m"]}
    header = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": env, "inputs": inputs,
              "clock": result["clock"]}
    stem = f"{args.workload}-seed{args.seed}"
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"result-{stem}-trace{args.trace}.json").write_text(
        json.dumps(dict(header, end_to_end=result["end_to_end"], **summary), indent=1),
        encoding="utf-8")
    if args.trace:
        result["tracer"].dump(OUT / f"trace-{stem}.json", header)
    print(json.dumps({"environment": env, "inputs": inputs}))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    # a terminated run raises SystemExit, on which subprocess.run kills and
    # waits for the running child and execute() removes its work directory
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    sys.exit(main())
