"""Synthetic straight-road traffic for demos, smoke training and CLI tests.

Two layers of fidelity:

* :func:`constant_velocity_samples` builds ready-made training samples
  directly, skipping the parser. Futures are exactly linear in the history,
  so a few epochs must beat the standing-still baseline by a wide margin.
* :func:`write_tracks_csv` emits a small raw track file in the source-data
  dialect (tab separated, positions in feet, 10 Hz frames) to exercise the
  full ingest path.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from .ingest import NeighborTable, TrajectorySample, WindowConfig
from .ingest.tracks import FRAME_RATE_HZ, REQUIRED_COLUMNS

__all__ = ["constant_velocity_samples", "write_tracks_csv"]

_SPEED_RANGE = (3.0, 9.0)      # m/s along the road
_LATERAL_RANGE = (-0.4, 0.4)   # m/s across it


def constant_velocity_samples(count: int, seed: int = 0,
                              config: Optional[WindowConfig] = None,
                              max_neighbors: int = 3) -> List[TrajectorySample]:
    """Samples whose ego and neighbors all move at constant velocity.

    Positions follow the sample convention: meters relative to the ego at
    the anchor frame, history ending at exactly (0, 0).
    """
    config = config or WindowConfig()
    rng = np.random.default_rng(seed)
    h, f = config.history_points, config.future_points
    dt = config.sample_every / FRAME_RATE_HZ
    past_t = (np.arange(h) - (h - 1)) * dt   # ... -0.4 -0.2 0.0
    future_t = np.arange(1, f + 1) * dt

    samples: List[TrajectorySample] = []
    for i in range(count):
        v = np.array([rng.uniform(*_LATERAL_RANGE), rng.uniform(*_SPEED_RANGE)])
        if rng.random() < 0.2:
            v[1] = -v[1]  # some oncoming/reversing traffic
        ego_history = past_t[:, None] * v
        future = future_t[:, None] * v

        cells = [(r, c) for r in range(config.grid_rows)
                 for c in range(config.grid_cols)]
        rng.shuffle(cells)
        n = int(rng.integers(0, max_neighbors + 1))
        tracks = []
        for row, col in cells[:n]:
            base = np.array([(col - config.grid_cols // 2) * 3.7,
                             (row - config.grid_rows // 2 + 0.5) * config.cell_length])
            nv = np.array([rng.uniform(*_LATERAL_RANGE), rng.uniform(*_SPEED_RANGE)])
            tracks.append(base + past_t[:, None] * nv)
        neighbors = NeighborTable(
            np.arange(1000, 1000 + n, dtype=np.uint64), np.array(cells[:n], np.int64).reshape(n, 2),
            np.array(tracks).reshape(n, h, 2), np.ones((n, h), dtype=bool))

        samples.append(TrajectorySample(
            dataset_id="synthetic", vehicle_id=i + 1, t0_frame=100,
            ego_history=ego_history, future=future, neighbors=neighbors))
    return samples


def write_tracks_csv(path, n_vehicles: int = 10, n_frames: int = 140,
                     seed: int = 0) -> None:
    """Write a raw tab-separated constant-velocity track file covering
    frames 1..n_frames.

    Every vehicle is observed on every frame, so each one yields eligible
    windows once ``n_frames`` covers a full history-plus-future span. Lanes
    are 12 ft apart; speeds sit in a plausible 20..80 ft/s band.
    """
    rng = np.random.default_rng(seed)
    columns = list(REQUIRED_COLUMNS)
    rows = []
    for vid in range(1, n_vehicles + 1):
        lane = int(rng.integers(1, 4))
        x0 = lane * 12.0 + rng.uniform(-1.5, 1.5)
        y0 = rng.uniform(0.0, 300.0)
        speed = rng.uniform(20.0, 80.0) * (1 if rng.random() < 0.9 else -1)
        drift = rng.uniform(-0.2, 0.2)
        for frame in range(1, n_frames + 1):
            t = (frame - 1) / FRAME_RATE_HZ
            rows.append((vid, frame, x0 + drift * t, y0 + speed * t, lane))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\t".join(columns) + "\n")
        for vid, frame, x, y, lane in rows:
            fh.write("\t".join((str(vid), str(frame),
                                f"{x:.3f}", f"{y:.3f}", str(lane))) + "\n")
