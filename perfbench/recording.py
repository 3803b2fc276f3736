"""A seeded highway recording and the ground truth the checks compare against.

The recording is a tab-separated track table in the NGSIM dialect (feet,
10 Hz frames), so it reaches the program only through ``parse_tracks``.

Which frames each vehicle is observed on is fixed, not seeded: it decides the
window count, the frame batch sizes and the partition sizes, and those must
not move between seeds or the timings would. The seed draws everything else:
lane speeds and accelerations, gaps between vehicles, lateral sway.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List

import numpy as np

VEHICLES = 60
FRAMES = 240
LANES = 5
LANE_WIDTH_FT = 12.0
# stop-and-go traffic: slow enough that the learning gate is reached in a
# round, and no vehicle reverses within the recording
LANE_SPEEDS = (2.0, 2.5, 3.0, 3.5, 4.0)                 # m/s
LANE_ACCELERATIONS = (-0.06, -0.03, 0.0, 0.03, 0.06)    # m/s^2
FEET_TO_METERS = 0.3048  # the unit conversion documented for the input format
COLUMNS = ("Vehicle_ID", "Frame_ID", "Local_X", "Local_Y", "Lane_ID")


def observed_frames(index: int) -> List[int]:
    """Frames on which vehicle ``index`` (0-based) is observed.

    Entries are staggered two frames apart and stays last 110..220 frames,
    so anchored frames hold from 1 to about 34 vehicles. Every seventh
    vehicle drops one frame mid-track, as real recordings do.
    """
    start = 1 + 2 * index
    end = min(start + 110 + (37 * index) % 111 - 1, FRAMES)
    frames = list(range(start, end + 1))
    if index % 7 == 3:
        frames.remove((start + end) // 2)
    return frames


@dataclass
class Recording:
    """The table text plus, per vehicle, the values written into it."""
    text: str
    lane: Dict[int, int]                 # vehicle id -> lane id
    frames: Dict[int, List[int]]         # vehicle id -> observed frames, sorted
    x_ft: Dict[int, Dict[int, float]]    # vehicle id -> frame -> value as written
    y_ft: Dict[int, Dict[int, float]]

    @property
    def vehicle_ids(self) -> List[int]:
        return sorted(self.lane)

    def write(self, path: Path) -> None:
        path.write_text(self.text, encoding="utf-8")


def generate(seed: int) -> Recording:
    rng = np.random.default_rng(seed)
    # the lanes swap speeds between seeds; the spread of speeds stays, so the
    # learning problem is equally hard on every seed
    lane_speed = rng.permutation(LANE_SPEEDS)
    lane_accel = rng.permutation(LANE_ACCELERATIONS)
    lane_start = rng.uniform(0.0, 10.0, LANES)           # m
    gaps = rng.uniform(9.0, 15.0, VEHICLES)              # m, > one grid cell
    sway_ft = rng.uniform(0.3, 1.5, VEHICLES)
    sway_hz = rng.uniform(0.05, 0.2, VEHICLES)
    sway_phase = rng.uniform(0.0, 2.0 * math.pi, VEHICLES)

    lane: Dict[int, int] = {}
    frames: Dict[int, List[int]] = {}
    x_ft: Dict[int, Dict[int, float]] = {}
    y_ft: Dict[int, Dict[int, float]] = {}
    lines = ["\t".join(COLUMNS)]
    along = lane_start.copy()
    for index in range(VEHICLES):
        vid = index + 1
        ln = index % LANES
        # vehicles of one lane share speed and acceleration, so gaps hold
        along[ln] += gaps[index]
        y0 = along[ln]
        lane[vid] = ln + 1
        frames[vid] = observed_frames(index)
        xs: Dict[int, float] = {}
        ys: Dict[int, float] = {}
        for frame in frames[vid]:
            t = (frame - 1) / 10.0
            x = (ln + 0.5) * LANE_WIDTH_FT + sway_ft[index] * math.sin(
                2.0 * math.pi * sway_hz[index] * t + sway_phase[index])
            y = (y0 + lane_speed[ln] * t + 0.5 * lane_accel[ln] * t * t) / FEET_TO_METERS
            x_text, y_text = f"{x:.3f}", f"{y:.3f}"
            xs[frame], ys[frame] = float(x_text), float(y_text)
            lines.append(f"{vid}\t{frame}\t{x_text}\t{y_text}\t{ln + 1}")
        x_ft[vid], y_ft[vid] = xs, ys
    return Recording("\n".join(lines) + "\n", lane, frames, x_ft, y_ft)


def contiguous_runs(frames: List[int]) -> List[List[int]]:
    runs: List[List[int]] = []
    for frame in frames:
        if runs and frame == runs[-1][-1] + 1:
            runs[-1].append(frame)
        else:
            runs.append([frame])
    return runs


def expected_anchors(rec: Recording, vid: int, history_frames: int,
                     future_frames: int, stride: int) -> List[int]:
    """Every ``stride``-th anchor frame with the whole history and future observed."""
    anchors: List[int] = []
    for run in contiguous_runs(rec.frames[vid]):
        anchors.extend(run[history_frames:len(run) - future_frames])
    return anchors[::stride]
