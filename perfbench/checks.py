"""Correctness checks on the program's outputs.

Each check raises :class:`CheckFailed` with a reason. The expected values are
computed here from the generator's own record of what it wrote, with numpy,
or are properties the method must have (causality, batch independence,
exact round trips). None of them calls back into the program.
"""

from __future__ import annotations

import math
from typing import Dict, List, Mapping, Sequence

import numpy as np

from recording import FEET_TO_METERS, Recording, expected_anchors

POSITION_TOL_M = 1e-9
PREDICTION_TOL_M = 1e-9
GRADIENT_TOL = 1e-6
RMSE_REL_TOL = 1e-9


class CheckFailed(AssertionError):
    pass


def _require(ok: bool, reason: str) -> None:
    if not ok:
        raise CheckFailed(reason)


def _positions(rec: Recording) -> Dict[int, np.ndarray]:
    """Per vehicle, a [frame, 2] table of metric positions, NaN when unobserved."""
    table = {}
    for vid in rec.vehicle_ids:
        pos = np.full((max(rec.frames[vid]) + 1, 2), np.nan)
        for frame in rec.frames[vid]:
            pos[frame] = (rec.x_ft[vid][frame] * FEET_TO_METERS,
                          rec.y_ft[vid][frame] * FEET_TO_METERS)
        table[vid] = pos
    return table


def _at(pos: np.ndarray, frames: np.ndarray) -> np.ndarray:
    out = np.full((len(frames), 2), np.nan)
    inside = (frames >= 0) & (frames < len(pos))
    out[inside] = pos[frames[inside]]
    return out


def check_windows(rec: Recording, samples: Sequence, window) -> None:
    """Anchors, ego tracks and grid cells against the recording.

    ``window`` carries the geometry (history/future frames, sampling, grid);
    the expected cell is the lane offset and ``floor(dy / cell_length)``
    shifted to the grid middle, with one vehicle per cell.
    """
    by_vehicle: Dict[int, List[int]] = {}
    for s in samples:
        by_vehicle.setdefault(s.vehicle_id, []).append(s.t0_frame)
    for vid in rec.vehicle_ids:
        want = expected_anchors(rec, vid, window.history_frames, window.future_frames,
                                window.stride)
        got = by_vehicle.pop(vid, [])
        _require(got == want, f"vehicle {vid}: anchors {got[:3]}.. ({len(got)}), "
                              f"expected {want[:3]}.. ({len(want)})")
    _require(not by_vehicle, f"windows for unknown vehicles {sorted(by_vehicle)[:3]}")

    pos = _positions(rec)
    present = {}
    for vid in rec.vehicle_ids:
        for frame in rec.frames[vid]:
            present.setdefault(frame, []).append(vid)
    step = window.sample_every
    mid_row, mid_col = window.grid_rows // 2, window.grid_cols // 2
    for s in samples:
        vid, t0 = s.vehicle_id, s.t0_frame
        hist = np.arange(t0 - window.history_frames, t0 + 1, step)
        fut = np.arange(t0 + step, t0 + window.future_frames + 1, step)
        anchor = pos[vid][t0]
        for name, frames, got in (("history", hist, s.ego_history),
                                  ("future", fut, s.future)):
            want = _at(pos[vid], frames) - anchor
            _require(got.shape == want.shape
                     and float(np.max(np.abs(got - want))) <= POSITION_TOL_M,
                     f"sample {vid}:{t0}: ego {name} differs from the recording")

        others = sorted(v for v in present[t0] if v != vid)
        _require([n.vehicle_id for n in s.neighbors] == others,
                 f"sample {vid}:{t0}: neighbors {len(s.neighbors)} differ from "
                 f"the {len(others)} vehicles observed on the anchor frame")
        taken = set()
        for n in s.neighbors:
            dy = pos[n.vehicle_id][t0][1] - anchor[1]
            row = math.floor(dy / window.cell_length) + mid_row
            col = rec.lane[n.vehicle_id] - rec.lane[vid] + mid_col
            inside = 0 <= row < window.grid_rows and 0 <= col < window.grid_cols
            want_cell = (row, col) if inside else None
            got_cell = tuple(n.cell) if n.cell is not None else None
            _require(got_cell == want_cell,
                     f"sample {vid}:{t0}: neighbor {n.vehicle_id} in cell {got_cell}, "
                     f"expected {want_cell}")
            if want_cell is None:
                continue
            _require(want_cell not in taken,
                     f"sample {vid}:{t0}: two vehicles in cell {want_cell}")
            taken.add(want_cell)
            track = _at(pos[n.vehicle_id], hist) - anchor
            seen = ~np.isnan(track[:, 0])
            _require(np.array_equal(np.asarray(n.valid, dtype=bool), seen),
                     f"sample {vid}:{t0}: neighbor {n.vehicle_id} validity mask")
            _require(float(np.max(np.abs(n.track[seen] - track[seen]), initial=0.0))
                     <= POSITION_TOL_M and not np.any(n.track[~seen]),
                     f"sample {vid}:{t0}: neighbor {n.vehicle_id} track")


def check_partitions(samples: Sequence, parts: Sequence[Sequence]) -> None:
    """Every vehicle lands in exactly one partition; no sample is lost."""
    _require(sum(len(p) for p in parts) == len(samples),
             f"partitions hold {sum(len(p) for p in parts)} of {len(samples)} samples")
    owner: Dict[int, int] = {}
    for index, part in enumerate(parts):
        for s in part:
            _require(owner.setdefault(s.vehicle_id, index) == index,
                     f"vehicle {s.vehicle_id} is in two partitions")
    _require(set(owner) == {s.vehicle_id for s in samples},
             "partitions do not cover every vehicle")


def _sample_bytes(s) -> tuple:
    return (s.dataset_id, s.vehicle_id, s.t0_frame,
            s.ego_history.dtype.str, s.ego_history.shape, s.ego_history.tobytes(),
            s.future.dtype.str, s.future.shape, s.future.tobytes(),
            tuple((n.vehicle_id, None if n.cell is None else tuple(n.cell),
                   n.track.dtype.str, n.track.shape, n.track.tobytes(),
                   np.asarray(n.valid, dtype=bool).tobytes())
                  for n in s.neighbors))


def check_archive(saved: Sequence, loaded: Sequence) -> None:
    """The loaded archive equals the saved samples bit for bit."""
    _require(len(saved) == len(loaded),
             f"archive holds {len(loaded)} samples, {len(saved)} were saved")
    for a, b in zip(saved, loaded):
        _require(_sample_bytes(a) == _sample_bytes(b),
                 f"sample {a.vehicle_id}:{a.t0_frame} changed in the archive")


def check_close(batched: np.ndarray, single: np.ndarray, what: str,
                tol: float = PREDICTION_TOL_M) -> None:
    _require(batched.shape == single.shape
             and float(np.max(np.abs(batched - single), initial=0.0)) <= tol,
             f"{what}: predictions differ by more than {tol} m")


def check_identical(a: np.ndarray, b: np.ndarray, what: str) -> None:
    _require(a.shape == b.shape and a.tobytes() == b.tobytes(),
             f"{what}: predictions are not bit-identical")


def check_rmse(report, predictions: np.ndarray, truth: np.ndarray,
               steps: Sequence[int]) -> None:
    """The evaluation report against displacement RMSE recomputed here."""
    delta = predictions - truth
    for step in steps:
        want = float(np.sqrt(np.mean(np.sum(delta[:, step - 1] ** 2, axis=1))))
        got = report.horizon_rmse[step]
        _require(abs(got - want) <= RMSE_REL_TOL * want,
                 f"RMSE at step {step}: reported {got!r}, recomputed {want!r}")
    want_mean = float(np.mean([report.horizon_rmse[k] for k in steps]))
    _require(abs(report.ade - want_mean) <= RMSE_REL_TOL * want_mean,
             f"mean displacement {report.ade!r} is not the mean of the horizons")


def check_losses(losses: Sequence[float]) -> None:
    bad = [i for i, v in enumerate(losses) if not math.isfinite(v)]
    _require(not bad, f"non-finite loss at steps {bad[:5]}")


def check_gradients(analytic: Mapping[str, float], numeric: Mapping[str, float],
                    tol: float = GRADIENT_TOL) -> None:
    """Relative error max|a - n| / max(1, |a|, |n|) per checked entry."""
    for key, a in analytic.items():
        n = numeric[key]
        err = abs(a - n) / max(1.0, abs(a), abs(n))
        _require(err < tol, f"gradient {key}: analytic {a!r}, finite difference "
                            f"{n!r}, relative error {err:.2e}")


def check_learning(ade: float, baseline_ade: float) -> None:
    _require(ade < 0.5 * baseline_ade,
             f"validation ADE {ade:.3f} m is not below half the standing-still "
             f"{baseline_ade:.3f} m")


def check_layer_names(timed: Sequence[str], cost_model: Sequence[str]) -> None:
    """The layer table covers exactly the cost model's layers, in its order."""
    _require(list(timed) == list(cost_model),
             f"timed layers {sorted(set(timed) ^ set(cost_model))[:4]} differ from "
             f"the cost model's")
