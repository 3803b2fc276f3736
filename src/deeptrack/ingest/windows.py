"""Sliding-window sample extraction with occupancy-grid neighbor assignment.

A sample anchors at ego frame t0. The ego must be observed on every frame
of [t0 - history_frames, t0 + future_frames]; history keeps every
``sample_every``-th frame ending at t0, the label keeps every
``sample_every``-th frame after t0. All positions are expressed relative to
the ego position at t0, so the last history point is exactly (0, 0).

Neighbors are the vehicles co-observed at t0, in vehicle-id order. Each
maps to a grid cell by lane offset (column) and longitudinal gap (row);
vehicles beyond the grid stay in the sample marked outside and are ignored
by the model. When two vehicles land in one cell the smaller |dy| wins
(ties: lower vehicle id) and the loser is marked outside.

The points come as the columns of a :class:`TrackTable`, which is sorted by
(vehicle, frame) and checked. Each vehicle's points form one block of
slots, one slot per frame from its first to its last; a gap longer than the
history is cut short, since no lookup reaches across it, and an empty slot
points at a sentinel row. A neighbor's history is then a fixed set of slot
offsets from its slot at t0. All windows of one ego vehicle are gathered at
once, into one array each for the ego histories, the futures and the
neighbor ids, cells, tracks and valid masks; a sample's arrays are views
into these per-ego-vehicle blocks.

A sample holds its neighbors as a :class:`NeighborTable`, four aligned
columns that are slices of those blocks, so no object is built per
neighbor. A :class:`NeighborTrack` is one row of a table, built only when a
caller indexes or iterates it, or given in a list to build a table from.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, List, Optional, Tuple

import numpy as np

from ..numcore import ConfigurationError, check_fields
from .tracks import TrackTable

__all__ = ["WindowConfig", "NeighborTrack", "NeighborTable", "TrajectorySample",
           "WindowStats", "grid_assign", "window_samples"]


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


def as_column(values, dtype, shape: tuple) -> np.ndarray:
    """``values`` as one array of ``dtype`` whose rows have ``shape``, a copy
    only when the dtype differs; a row of another shape, or an integer the
    dtype does not hold, raises ValueError."""
    if not len(values):
        return np.empty((0, *shape), dtype)
    out = np.asarray(values, dtype)
    if out.shape[1:] != shape:
        raise ValueError(f"rows of shape {out.shape[1:]} where the layout needs {shape}")
    if out.dtype.kind in "iu" and not np.array_equal(out, values):
        raise ValueError(f"values that are not {out.dtype.name} integers")
    return out


@dataclass(frozen=True)
class NeighborTrack:
    """One neighbor of a sample: a row of its :class:`NeighborTable`, or a
    row to build one from."""
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


@dataclass(eq=False, slots=True)
class NeighborTable:
    """The neighbors of one sample as four aligned columns, one row per
    neighbor in vehicle-id order: ``vehicle_id`` [n], ``cell`` [n, 2] as
    (row, col), (-1, -1) outside the grid, ``track`` [n, H, 2] relative
    meters, zero where invalid, and ``valid`` [n, H] bool. Indexing with an
    integer and iterating give :class:`NeighborTrack` rows whose arrays are
    views of the columns; a slice gives a table."""
    vehicle_id: np.ndarray
    cell: np.ndarray
    track: np.ndarray
    valid: np.ndarray

    @classmethod
    def from_rows(cls, rows: Iterable[NeighborTrack], points: int) -> "NeighborTable":
        """The table of ``rows``. An id that is not an integer in [0, 2**64),
        a cell that is not None or two non-negative integers, or a track or
        valid mask of other than ``points`` steps raises ValueError."""
        rows = list(rows)
        cells = [n.cell for n in rows]
        given = as_column([c for c in cells if c is not None], np.int64, (2,))
        if (given < 0).any():
            raise ValueError("a neighbor cell must be None or two non-negative integers")
        cell = np.full((len(rows), 2), -1, np.int64)
        cell[[c is not None for c in cells]] = given
        return cls(as_column([n.vehicle_id for n in rows], np.uint64, ()), cell,
                   as_column([n.track for n in rows], np.float64, (points, 2)),
                   as_column([n.valid for n in rows], np.bool_, (points,)))

    def __len__(self) -> int:
        return len(self.vehicle_id)

    def __getitem__(self, j):
        if isinstance(j, slice):
            return NeighborTable(self.vehicle_id[j], self.cell[j], self.track[j], self.valid[j])
        row, col = self.cell[j].tolist()
        return NeighborTrack(self.vehicle_id[j].item(), None if row < 0 else (row, col),
                             self.track[j], self.valid[j])

    def __iter__(self) -> Iterator[NeighborTrack]:
        return map(self.__getitem__, range(len(self)))

    def __eq__(self, other):
        return isinstance(other, NeighborTable) and all(
            np.array_equal(getattr(self, name), getattr(other, name))
            for name in ("vehicle_id", "cell", "track", "valid"))


@dataclass(slots=True)
class TrajectorySample:
    """One window. ``neighbors`` may be given as a list of
    :class:`NeighborTrack` rows, which construction turns into a table; a
    neighbor the table cannot hold, or a neighbor track or valid mask whose
    length is not the ego history's, raises ConfigurationError naming the
    sample."""
    dataset_id: str
    vehicle_id: int
    t0_frame: int
    ego_history: np.ndarray  # [history_points, 2]
    future: np.ndarray       # [future_points, 2]
    neighbors: NeighborTable = field(default_factory=list)

    def __post_init__(self):
        try:
            points = len(self.ego_history)
            if not isinstance(self.neighbors, NeighborTable):
                self.neighbors = NeighborTable.from_rows(self.neighbors, points)
            elif (self.neighbors.track.shape[1:] != (points, 2)
                  or self.neighbors.valid.shape[1:] != (points,)):
                raise ValueError(f"neighbor tracks of shape {self.neighbors.track.shape[1:]} "
                                 f"and masks of {self.neighbors.valid.shape[1:]} where the "
                                 f"ego history has {points} points")
        except (ValueError, TypeError, OverflowError) as err:
            raise ConfigurationError(
                f"the sample of vehicle {self.vehicle_id} at frame {self.t0_frame} in "
                f"{self.dataset_id!r}: {err}") from err

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


def grid_assign(dy: np.ndarray, lane_offset: np.ndarray,
                config: WindowConfig) -> np.ndarray:
    """Cells [N, 2] as (row, col) of neighbors at longitudinal gaps ``dy`` and
    lane offsets ``lane_offset`` from the ego; (-1, -1) where outside the grid.

    Column is the lane offset shifted to the middle column; row bins the
    longitudinal gap dy into cell_length stripes with the ego mid-grid, so
    dy in [0, cell_length) already sits one row ahead of dy < 0.
    """
    row = np.floor(dy / config.cell_length) + config.grid_rows // 2
    col = lane_offset + config.grid_cols // 2
    inside = (row >= 0) & (row < config.grid_rows) & (col >= 0) & (col < config.grid_cols)
    cells = np.full((len(dy), 2), -1, dtype=np.int64)
    cells[inside, 0] = row[inside]
    cells[inside, 1] = col[inside]
    return cells


def window_samples(tracks: TrackTable, config: WindowConfig,
                   dataset_id: str = "") -> Tuple[List[TrajectorySample], WindowStats]:
    """Extract every eligible window, in (vehicle, t0) order."""
    stats = WindowStats()
    if len(tracks) <= config.history_frames + config.future_frames:
        return [], stats  # too few points for a single window
    gather = _Gather(tracks.vehicle_id, tracks.frame_id, tracks.lane_id, tracks.x, tracks.y,
                     config)
    samples: List[TrajectorySample] = []
    for rows in gather.anchors_by_ego():
        samples += gather.windows(rows, dataset_id, stats)
        stats.vehicles_with_samples += 1
    stats.samples = len(samples)
    return samples, stats


class _Gather:
    """Lookups over the sorted columns: the runs of consecutive frames, each
    point's slot in its vehicle's block, and each frame's points in vehicle
    order."""

    def __init__(self, vid, frame, lane, x, y, config: WindowConfig):
        self.vid, self.frame, self.lane, self.config = vid, frame, lane, config
        # row n is a sentinel at position zero, the row of every empty slot
        self.x, self.y = np.r_[x, 0.0], np.r_[y, 0.0]
        n, hist_len = vid.size, config.history_frames
        same_vehicle = vid[1:] == vid[:-1]
        gap = frame[1:] - frame[:-1]  # >= 1 within a vehicle; wraps negative on overflow
        self.run_start = np.flatnonzero(np.r_[True, ~same_vehicle | (gap != 1)])

        # gaps beyond the history are cut short, since no lookup crosses them
        advance = np.where(same_vehicle & (gap >= 1) & (gap <= hist_len), gap, hist_len + 1)
        self.slot = np.cumsum(np.r_[hist_len + 1, advance])
        self.row_at_slot = np.full(self.slot[-1] + 1, n)
        self.row_at_slot[self.slot] = np.arange(n)

        self.by_frame = np.lexsort((vid, frame))
        in_order = frame[self.by_frame]
        self.frame_start = np.flatnonzero(np.r_[True, in_order[1:] != in_order[:-1]])
        self.frame_count = np.diff(np.r_[self.frame_start, n])
        self.frame_of = np.empty(n, dtype=np.int64)
        self.frame_of[self.by_frame] = np.repeat(np.arange(self.frame_start.size),
                                                 self.frame_count)
        self.hist_off = np.arange(-hist_len, 1, config.sample_every)
        self.fut_off = np.arange(config.sample_every, config.future_frames + 1,
                                 config.sample_every)

    def anchors_by_ego(self) -> List[np.ndarray]:
        """The anchor rows of each ego vehicle: every stride-th of the rows
        whose whole window lies in one run."""
        n, cfg = self.vid.size, self.config
        run_len = np.diff(np.r_[self.run_start, n])
        run_first = np.repeat(self.run_start, run_len)
        run_last = np.repeat(self.run_start + run_len - 1, run_len)
        rows = np.arange(n)
        eligible = np.flatnonzero((rows - cfg.history_frames >= run_first)
                                  & (rows + cfg.future_frames <= run_last))
        if not eligible.size:
            return []
        ego = self.vid[eligible]
        first = np.flatnonzero(np.r_[True, ego[1:] != ego[:-1]])
        rank = np.arange(eligible.size) - np.repeat(first, np.diff(np.r_[first, eligible.size]))
        anchors = eligible[rank % cfg.stride == 0]
        return np.split(anchors, np.flatnonzero(np.diff(self.vid[anchors])) + 1)

    def windows(self, a: np.ndarray, dataset_id: str,
                stats: WindowStats) -> List[TrajectorySample]:
        """The windows anchored on rows ``a``, all of one ego vehicle."""
        vid, lane, x, y = self.vid, self.lane, self.x, self.y
        hist_off, fut_off = self.hist_off, self.fut_off
        ex, ey = x[a][:, None], y[a][:, None]
        ego = np.empty((a.size, hist_off.size, 2))
        ego[..., 0] = x[a[:, None] + hist_off] - ex
        ego[..., 1] = y[a[:, None] + hist_off] - ey
        future = np.empty((a.size, fut_off.size, 2))
        future[..., 0] = x[a[:, None] + fut_off] - ex
        future[..., 1] = y[a[:, None] + fut_off] - ey

        # every point on each anchor frame but the ego's own
        group = self.frame_of[a]
        count = self.frame_count[group]
        owner = np.repeat(np.arange(a.size), count)
        at = np.arange(count.sum()) + np.repeat(self.frame_start[group] - np.cumsum(count)
                                                + count, count)
        nbr = self.by_frame[at]
        keep = nbr != a[owner]
        nbr, owner = nbr[keep], owner[keep]

        # the nearest claimant of each cell wins it; the sort is stable and
        # the claims come in vehicle order, so a tie goes to the lower id
        dy = y[nbr] - ey[owner, 0]
        cells = grid_assign(dy, lane[nbr] - lane[a][owner], self.config)
        claims = np.flatnonzero(cells[:, 0] >= 0)
        row, col, who = cells[claims, 0], cells[claims, 1], owner[claims]
        order = np.lexsort((np.abs(dy[claims]), col, row, who))
        row, col, who = row[order], col[order], who[order]
        wins = np.ones(order.size, dtype=bool)
        wins[1:] = (row[1:] != row[:-1]) | (col[1:] != col[:-1]) | (who[1:] != who[:-1])
        winners = claims[order[wins]]
        cells[claims[order[~wins]]] = -1  # the losers stay in the sample, outside
        stats.grid_collisions += claims.size - winners.size
        stats.neighbors_in_grid += winners.size
        stats.neighbors_outside += nbr.size - winners.size

        held = self.row_at_slot[self.slot[nbr][:, None] + hist_off]
        valid = held < vid.size
        track = np.empty((nbr.size, hist_off.size, 2))
        track[..., 0] = x[held] - ex[owner]
        track[..., 1] = y[held] - ey[owner]
        track[~valid] = 0.0

        return build_samples([dataset_id] * a.size, vid[a], self.frame[a], ego, future,
                             count - 1, vid[nbr], cells, track, valid)


def build_samples(dataset_ids: List[str], vehicle_ids: np.ndarray, t0_frames: np.ndarray,
                  ego: np.ndarray, future: np.ndarray, counts: np.ndarray,
                  neighbor_ids: np.ndarray, cells: np.ndarray, tracks: np.ndarray,
                  valid: np.ndarray) -> List[TrajectorySample]:
    """Samples from per-sample and per-neighbor arrays, the neighbors of
    sample 0 first; a cell of (-1, -1) is outside the grid. Each sample's
    arrays and neighbor columns are views into the given blocks."""
    bounds = np.r_[0, np.cumsum(counts)].tolist()
    return [TrajectorySample(d, v, t0, h, f, NeighborTable(neighbor_ids[lo:hi], cells[lo:hi],
                                                            tracks[lo:hi], valid[lo:hi]))
            for d, v, t0, h, f, lo, hi in zip(dataset_ids, vehicle_ids.tolist(),
                                              t0_frames.tolist(), ego, future,
                                              bounds[:-1], bounds[1:])]
