"""The sample archive: a packed binary layout, little-endian throughout.

Samples round-trip exactly (float64 bit patterns are stored as they are):

    magic     8 bytes  b"DTRKSMP\\0"
    version   u32
    count     u64
    sample    dataset_id: u16 length + utf-8
              vehicle_id u64, t0_frame i64
              history_points u16, future_points u16, neighbor_count u32
              ego history  f8 * H * 2
              future       f8 * F * 2
              neighbor     vehicle_id u64, row i32, col i32 (-1, -1 = outside)
                           valid u8 * H, track f8 * H * 2
"""

from __future__ import annotations

import struct
from typing import List, Sequence

import numpy as np

from ..numcore import ConfigurationError
from .windows import NeighborTrack, TrajectorySample

__all__ = ["save_samples", "load_samples", "SAMPLE_MAGIC"]

SAMPLE_MAGIC = b"DTRKSMP\x00"
SAMPLE_VERSION = 1


def save_samples(path, samples: Sequence[TrajectorySample]) -> None:
    """Write ``samples`` to ``path``; a field the layout cannot hold, such as
    a negative vehicle id or a track whose shape is not the sample's
    ``(H, 2)``, raises ConfigurationError naming the sample, and no file is
    written."""
    chunks: List[bytes] = [SAMPLE_MAGIC, struct.pack("<IQ", SAMPLE_VERSION, len(samples))]
    try:
        for s in samples:
            ds = s.dataset_id.encode("utf-8")
            h = s.ego_history.shape[0]
            f = s.future.shape[0]
            track, mask = (h, 2), (h,)
            if s.ego_history.shape != track or s.future.shape != (f, 2):
                raise ValueError(f"ego history {s.ego_history.shape} and future "
                                 f"{s.future.shape} must both be [points, 2]")
            chunks.append(struct.pack("<H", len(ds)))
            chunks.append(ds)
            chunks.append(struct.pack("<QqHHI", s.vehicle_id, s.t0_frame, h, f,
                                      len(s.neighbors)))
            chunks.append(np.ascontiguousarray(s.ego_history, dtype="<f8").tobytes())
            chunks.append(np.ascontiguousarray(s.future, dtype="<f8").tobytes())
            for n in s.neighbors:
                valid = np.asarray(n.valid, dtype=bool)  # one byte each, 0 or 1
                points = np.ascontiguousarray(n.track, dtype="<f8")
                if points.shape != track or valid.shape != mask:
                    raise ValueError(
                        f"neighbor {n.vehicle_id} has track {points.shape} and valid mask "
                        f"{valid.shape}; the ego history needs {track} and {mask}")
                row, col = n.cell if n.cell is not None else (-1, -1)
                chunks.append(struct.pack("<Qii", n.vehicle_id, row, col))
                chunks.append(valid.tobytes())
                chunks.append(points.tobytes())
    except (struct.error, ValueError) as err:
        raise ConfigurationError(
            f"{path}: cannot archive the sample of vehicle {s.vehicle_id} at frame "
            f"{s.t0_frame} in {s.dataset_id!r}: {err}") from err
    with open(path, "wb") as fh:
        fh.write(b"".join(chunks))


def load_samples(path) -> List[TrajectorySample]:
    """Read an archive ``save_samples`` wrote; any other file raises
    ConfigurationError."""
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError as err:
        raise ConfigurationError(f"cannot read samples {path}: {err}") from err
    if not blob.startswith(SAMPLE_MAGIC):
        raise ConfigurationError(f"{path}: not a sample archive (no {SAMPLE_MAGIC!r} magic)")
    off = len(SAMPLE_MAGIC) + 12
    if len(blob) < off:
        raise ConfigurationError(f"{path}: truncated sample archive header")
    version, count = struct.unpack_from("<IQ", blob, len(SAMPLE_MAGIC))
    if version != SAMPLE_VERSION:
        raise ConfigurationError(
            f"{path}: sample archive version {version} unsupported (expected {SAMPLE_VERSION})")
    samples: List[TrajectorySample] = []
    try:
        for _ in range(count):
            (ds_len,) = struct.unpack_from("<H", blob, off)
            off += 2
            dataset_id = blob[off:off + ds_len].decode("utf-8")
            off += ds_len
            vid, t0, h, f, n_nbr = struct.unpack_from("<QqHHI", blob, off)
            off += 24
            ego = np.frombuffer(blob, "<f8", h * 2, off).reshape(h, 2).copy()
            off += h * 16
            fut = np.frombuffer(blob, "<f8", f * 2, off).reshape(f, 2).copy()
            off += f * 16
            neighbors: List[NeighborTrack] = []
            for _ in range(n_nbr):
                nvid, row, col = struct.unpack_from("<Qii", blob, off)
                off += 16
                valid = np.frombuffer(blob, np.uint8, h, off).astype(bool)
                off += h
                track = np.frombuffer(blob, "<f8", h * 2, off).reshape(h, 2).copy()
                off += h * 16
                cell = (row, col) if row >= 0 else None
                neighbors.append(NeighborTrack(nvid, cell, track, valid))
            samples.append(TrajectorySample(dataset_id, vid, t0, ego, fut, neighbors))
    except (struct.error, ValueError) as err:  # UnicodeDecodeError is a ValueError
        raise ConfigurationError(f"{path}: corrupt sample archive: {err}") from err
    if off != len(blob):
        raise ConfigurationError(f"{path}: trailing bytes after last sample")
    return samples
