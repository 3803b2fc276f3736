"""Raw trajectory table parsing into a sorted, checked column table.

Input is a delimited text export with a header row carrying at least
Vehicle_ID, Frame_ID, Local_X, Local_Y and Lane_ID. Positions arrive in
feet and are converted to meters here, once, at the boundary; everything
downstream is metric. Frames tick at 10 Hz.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import IO, Sequence, Tuple, Union

import numpy as np

from ..numcore import ConfigurationError

__all__ = ["TrackTable", "ParseStats", "parse_tracks", "FEET_TO_METERS",
           "FRAME_RATE_HZ", "REQUIRED_COLUMNS"]

FEET_TO_METERS = 0.3048
FRAME_RATE_HZ = 10.0
REQUIRED_COLUMNS = ("Vehicle_ID", "Frame_ID", "Local_X", "Local_Y", "Lane_ID")


class TrackTable:
    """Vehicle observations sorted by (vehicle, frame), as five aligned
    read-only columns: int64 ``vehicle_id``, ``frame_id`` and ``lane_id`` and
    float64 metric ``x`` (lateral, across lanes) and ``y`` (along the road).
    Construction sorts once and rejects an id beyond int64, a non-finite
    position and a repeated (vehicle, frame), so every table is valid.
    """

    def __init__(self, vehicle_id: Sequence[int], frame_id: Sequence[int],
                 x: Sequence[float], y: Sequence[float], lane_id: Sequence[int]):
        try:
            vid, frame, lane = (np.array(c, dtype=np.int64)
                                for c in (vehicle_id, frame_id, lane_id))
        except OverflowError:
            raise ConfigurationError(
                "vehicle, frame and lane ids must fit in 64-bit integers") from None
        x, y = np.array(x, dtype=np.float64), np.array(y, dtype=np.float64)
        if vid.ndim != 1 or any(c.shape != vid.shape for c in (frame, lane, x, y)):
            raise ConfigurationError("track columns must be 1-D and of one length")
        order = np.lexsort((frame, vid))
        vid, frame, lane, x, y = (c[order] for c in (vid, frame, lane, x, y))
        bad = np.flatnonzero(~np.isfinite(x) | ~np.isfinite(y))
        if bad.size:
            i = bad[0]
            raise ConfigurationError(f"vehicle {vid[i]} at frame {frame[i]}: "
                                     f"non-finite position ({x[i]}, {y[i]})")
        twice = np.flatnonzero((vid[1:] == vid[:-1]) & (frame[1:] == frame[:-1]))
        if twice.size:
            i = twice[0]
            raise ConfigurationError(f"vehicle {vid[i]} at frame {frame[i]}: "
                                     "the point is given twice")
        for c in (vid, frame, lane, x, y):
            c.flags.writeable = False
        self.vehicle_id, self.frame_id, self.lane_id, self.x, self.y = vid, frame, lane, x, y

    def __len__(self) -> int:
        return self.vehicle_id.size


@dataclass
class ParseStats:
    rows_read: int = 0
    rows_kept: int = 0
    malformed: int = 0
    duplicates: int = 0
    vehicles: int = 0


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"expected a finite number, got {text!r}")
    return value


def _integer(text: str) -> int:
    """Integer text exactly; an integral decimal such as ``3.0`` only below
    2**53 in magnitude, where every integer is a double."""
    try:
        return int(text)
    except ValueError:
        value = _finite(text)
    if value != int(value) or abs(value) >= 2.0 ** 53:
        raise ValueError(f"expected an exact integer, got {text!r}")
    return int(value)


def _sniff_delimiter(header_line: str) -> str:
    return "\t" if "\t" in header_line else ","


def parse_tracks(source: Union[str, IO[str]]) -> Tuple[TrackTable, ParseStats]:
    """Parse one table into a :class:`TrackTable`.

    Malformed rows, among them any with a non-finite value, are skipped and
    counted; a duplicate (vehicle, frame) keeps the first occurrence in file
    order. A missing required column, a file that is not UTF-8 text or an
    id beyond 64 bits is fatal.
    """
    if isinstance(source, (str, bytes)) or hasattr(source, "__fspath__"):
        with open(source, "r", encoding="utf-8", newline="") as fh:
            try:
                return parse_tracks(fh)
            except UnicodeDecodeError as err:
                raise ConfigurationError(
                    f"track table {source} is not UTF-8 text: {err}") from None

    first = source.readline()
    if not first.strip():
        raise ConfigurationError("track table is empty")
    delimiter = _sniff_delimiter(first)
    header = [h.strip() for h in first.rstrip("\r\n").split(delimiter)]
    missing = [c for c in REQUIRED_COLUMNS if c not in header]
    if missing:
        raise ConfigurationError(f"track table is missing columns: {missing}")
    col = {name: header.index(name) for name in REQUIRED_COLUMNS}
    width = len(header)

    stats = ParseStats()
    vids, frames, xs, ys, lanes = [], [], [], [], []
    seen: set = set()
    reader = csv.reader(source, delimiter=delimiter)
    for row in reader:
        if not row or (len(row) == 1 and not row[0].strip()):
            continue
        stats.rows_read += 1
        if len(row) != width:
            stats.malformed += 1
            continue
        try:
            vid = _integer(row[col["Vehicle_ID"]])
            frame = _integer(row[col["Frame_ID"]])
            lane = _integer(row[col["Lane_ID"]])
            x_ft = _finite(row[col["Local_X"]])
            y_ft = _finite(row[col["Local_Y"]])
        except ValueError:
            stats.malformed += 1
            continue
        key = (vid, frame)
        if key in seen:
            stats.duplicates += 1
            continue
        seen.add(key)
        vids.append(vid)
        frames.append(frame)
        xs.append(x_ft * FEET_TO_METERS)
        ys.append(y_ft * FEET_TO_METERS)
        lanes.append(lane)
    tracks = TrackTable(vids, frames, xs, ys, lanes)
    stats.rows_kept = len(tracks)
    stats.vehicles = int(np.count_nonzero(np.diff(tracks.vehicle_id))) + (len(tracks) > 0)
    return tracks, stats
