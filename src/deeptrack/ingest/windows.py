"""Sliding-window sample extraction with occupancy-grid neighbor assignment.

A sample anchors at ego frame t0. The ego must be observed on every frame
of [t0 - history_frames, t0 + future_frames]; history keeps every
``sample_every``-th frame ending at t0, the label keeps every
``sample_every``-th frame after t0. All positions are expressed relative to
the ego position at t0, so the last history point is exactly (0, 0).

Neighbors are the vehicles co-observed at t0. Each maps to a grid cell by
lane offset (column) and longitudinal gap (row); vehicles beyond the grid
stay in the sample marked outside and are ignored by the model. When two
vehicles land in one cell the smaller |dy| wins (ties: lower vehicle id)
and the loser is marked outside.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..numcore import ConfigurationError, check_fields
from .tracks import TrackPoint

__all__ = ["WindowConfig", "NeighborTrack", "TrajectorySample", "WindowStats",
           "grid_assign", "window_samples"]


@dataclass
class WindowConfig:
    history_frames: int = 30
    future_frames: int = 50
    sample_every: int = 2
    stride: int = 1
    grid_rows: int = 13
    grid_cols: int = 3
    cell_length: float = 4.572

    def __post_init__(self):
        check_fields(self)
        if self.history_frames < 0 or self.future_frames < 1:
            raise ConfigurationError("window lengths must be positive")
        if self.sample_every < 1 or self.stride < 1:
            raise ConfigurationError("sample_every and stride must be >= 1")
        if self.history_frames % self.sample_every or self.future_frames % self.sample_every:
            raise ConfigurationError(
                "window lengths must be multiples of the downsampling factor")
        if self.grid_rows < 1 or self.grid_cols < 1 or self.cell_length <= 0:
            raise ConfigurationError("bad grid geometry")

    @property
    def history_points(self) -> int:
        """Points per history track, t0 included."""
        return self.history_frames // self.sample_every + 1

    @property
    def future_points(self) -> int:
        return self.future_frames // self.sample_every


@dataclass
class NeighborTrack:
    vehicle_id: int
    cell: Optional[Tuple[int, int]]  # None = outside the grid
    track: np.ndarray  # [history_points, 2] relative meters, zero where invalid
    valid: np.ndarray  # [history_points] bool

    def __eq__(self, other):
        return (isinstance(other, NeighborTrack)
                and self.vehicle_id == other.vehicle_id
                and self.cell == other.cell
                and np.array_equal(self.track, other.track)
                and np.array_equal(self.valid, other.valid))


@dataclass
class TrajectorySample:
    dataset_id: str
    vehicle_id: int
    t0_frame: int
    ego_history: np.ndarray  # [history_points, 2]
    future: np.ndarray       # [future_points, 2]
    neighbors: List[NeighborTrack] = field(default_factory=list)

    def __eq__(self, other):
        return (isinstance(other, TrajectorySample)
                and self.dataset_id == other.dataset_id
                and self.vehicle_id == other.vehicle_id
                and self.t0_frame == other.t0_frame
                and np.array_equal(self.ego_history, other.ego_history)
                and np.array_equal(self.future, other.future)
                and self.neighbors == other.neighbors)

    @property
    def sample_id(self) -> str:
        return f"{self.vehicle_id}:{self.t0_frame}"


@dataclass
class WindowStats:
    samples: int = 0
    vehicles_with_samples: int = 0
    grid_collisions: int = 0
    neighbors_in_grid: int = 0
    neighbors_outside: int = 0


def grid_assign(ego: TrackPoint, neighbor: TrackPoint,
                config: WindowConfig) -> Optional[Tuple[int, int]]:
    """Cell of ``neighbor`` in the ego-centered grid, or None when outside.

    Column is the lane offset shifted to the middle column; row bins the
    longitudinal gap dy into cell_length stripes with the ego mid-grid, so
    dy in [0, cell_length) already sits one row ahead of dy < 0.
    """
    col = neighbor.lane_id - ego.lane_id + config.grid_cols // 2
    row = math.floor((neighbor.y - ego.y) / config.cell_length) + config.grid_rows // 2
    if 0 <= row < config.grid_rows and 0 <= col < config.grid_cols:
        return (row, col)
    return None


def _resolve_occupancy(ego: TrackPoint, neighbors: List[TrackPoint],
                       config: WindowConfig,
                       stats: WindowStats) -> Dict[int, Optional[Tuple[int, int]]]:
    """Assign cells, demoting all but the closest claimant of each cell."""
    order = sorted(neighbors, key=lambda p: (abs(p.y - ego.y), p.vehicle_id))
    taken: set = set()
    cells: Dict[int, Optional[Tuple[int, int]]] = {}
    for nbr in order:
        cell = grid_assign(ego, nbr, config)
        if cell is not None and cell in taken:
            stats.grid_collisions += 1
            cell = None
        if cell is not None:
            taken.add(cell)
        cells[nbr.vehicle_id] = cell
    return cells


def window_samples(points: Sequence[TrackPoint], config: WindowConfig,
                   dataset_id: str = "") -> Tuple[List[TrajectorySample], WindowStats]:
    """Extract every eligible window, in (vehicle, t0) order."""
    by_vehicle: Dict[int, Dict[int, TrackPoint]] = defaultdict(dict)
    at_frame: Dict[int, List[TrackPoint]] = defaultdict(list)
    for p in points:
        by_vehicle[p.vehicle_id][p.frame_id] = p
        at_frame[p.frame_id].append(p)

    stats = WindowStats()
    samples: List[TrajectorySample] = []
    for vid in sorted(by_vehicle):
        frames = by_vehicle[vid]
        eligible = [t0 for t0 in sorted(frames)
                    if all(t in frames
                           for t in range(t0 - config.history_frames,
                                          t0 + config.future_frames + 1))]
        had_any = False
        for idx, t0 in enumerate(eligible):
            if idx % config.stride:
                continue
            ego0 = frames[t0]
            hist_frames = range(t0 - config.history_frames, t0 + 1, config.sample_every)
            fut_frames = range(t0 + config.sample_every,
                               t0 + config.future_frames + 1, config.sample_every)
            ego_history = np.array([[frames[t].x - ego0.x, frames[t].y - ego0.y]
                                    for t in hist_frames])
            future = np.array([[frames[t].x - ego0.x, frames[t].y - ego0.y]
                               for t in fut_frames])

            nbr_points = [p for p in at_frame[t0] if p.vehicle_id != vid]
            cells = _resolve_occupancy(ego0, nbr_points, config, stats)
            neighbors: List[NeighborTrack] = []
            for nbr in sorted(nbr_points, key=lambda p: p.vehicle_id):
                nbr_frames = by_vehicle[nbr.vehicle_id]
                track = np.zeros((config.history_points, 2))
                valid = np.zeros(config.history_points, dtype=bool)
                for i, t in enumerate(hist_frames):
                    q = nbr_frames.get(t)
                    if q is not None:
                        track[i] = (q.x - ego0.x, q.y - ego0.y)
                        valid[i] = True
                cell = cells[nbr.vehicle_id]
                if cell is None:
                    stats.neighbors_outside += 1
                else:
                    stats.neighbors_in_grid += 1
                neighbors.append(NeighborTrack(nbr.vehicle_id, cell, track, valid))

            samples.append(TrajectorySample(
                dataset_id=dataset_id, vehicle_id=vid, t0_frame=t0,
                ego_history=ego_history, future=future, neighbors=neighbors))
            had_any = True
        if had_any:
            stats.vehicles_with_samples += 1
    stats.samples = len(samples)
    return samples, stats
