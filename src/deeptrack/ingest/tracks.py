"""Raw trajectory table parsing.

Input is a delimited text export with a header row carrying at least
Vehicle_ID, Frame_ID, Local_X, Local_Y and Lane_ID. Positions arrive in
feet and are converted to meters here, once, at the boundary; everything
downstream is metric. Frames tick at 10 Hz.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import IO, List, Tuple, Union

from ..numcore import ConfigurationError

__all__ = ["TrackPoint", "ParseStats", "parse_tracks", "FEET_TO_METERS",
           "FRAME_RATE_HZ", "REQUIRED_COLUMNS"]

FEET_TO_METERS = 0.3048
FRAME_RATE_HZ = 10.0
REQUIRED_COLUMNS = ("Vehicle_ID", "Frame_ID", "Local_X", "Local_Y", "Lane_ID")


@dataclass(frozen=True)
class TrackPoint:
    """One vehicle observation: metric position in road coordinates.

    x is lateral (across lanes), y longitudinal (along the road).
    """
    vehicle_id: int
    frame_id: int
    x: float
    y: float
    lane_id: int


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
    value = _finite(text)
    if value != int(value):
        raise ValueError(f"expected an integer, got {text!r}")
    return int(value)


def _sniff_delimiter(header_line: str) -> str:
    return "\t" if "\t" in header_line else ","


def parse_tracks(source: Union[str, IO[str]]) -> Tuple[List[TrackPoint], ParseStats]:
    """Parse one table into points sorted by (vehicle, frame).

    Malformed rows, among them any with a non-finite value, are skipped and
    counted; a duplicate (vehicle, frame) keeps the first occurrence in file
    order. A missing required column or a file that is not UTF-8 text is
    fatal.
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
    points: List[TrackPoint] = []
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
        points.append(TrackPoint(vehicle_id=vid, frame_id=frame,
                                 x=x_ft * FEET_TO_METERS, y=y_ft * FEET_TO_METERS,
                                 lane_id=lane))
    stats.rows_kept = len(points)
    points.sort(key=lambda p: (p.vehicle_id, p.frame_id))
    stats.vehicles = len({p.vehicle_id for p in points})
    return points, stats
