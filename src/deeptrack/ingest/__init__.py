"""Trajectory data ingest: parsing, windowing, splitting, archives."""

from .tracks import (
    FEET_TO_METERS,
    FRAME_RATE_HZ,
    REQUIRED_COLUMNS,
    ParseStats,
    TrackTable,
    parse_tracks,
)
from .windows import (
    NeighborTable,
    NeighborTrack,
    TrajectorySample,
    WindowConfig,
    WindowStats,
    grid_assign,
    window_samples,
)
from .split import PARTITION_NAMES, split_dataset, vehicle_partition
from .archive import SAMPLE_MAGIC, load_samples, save_samples

__all__ = [
    "FEET_TO_METERS", "FRAME_RATE_HZ", "REQUIRED_COLUMNS",
    "ParseStats", "TrackTable", "parse_tracks",
    "NeighborTable", "NeighborTrack", "TrajectorySample", "WindowConfig", "WindowStats",
    "grid_assign", "window_samples",
    "PARTITION_NAMES", "split_dataset", "vehicle_partition",
    "SAMPLE_MAGIC", "load_samples", "save_samples",
]
