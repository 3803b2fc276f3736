"""Sample archives: JSON-lines text and a packed binary format.

Both round-trip samples exactly (float64 bit patterns survive the JSON
repr). The binary layout, little-endian throughout:

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

import json
import struct
from typing import List, Sequence

import numpy as np

from ..numcore import ConfigurationError
from .windows import NeighborTrack, TrajectorySample

__all__ = ["save_samples", "load_samples", "SAMPLE_MAGIC", "SAMPLE_FORMATS"]

SAMPLE_MAGIC = b"DTRKSMP\x00"
SAMPLE_VERSION = 1
SAMPLE_FORMATS = ("text", "binary")


# ---------------------------------------------------------------------------
# text
# ---------------------------------------------------------------------------

def _sample_to_obj(s: TrajectorySample) -> dict:
    return {
        "datasetId": s.dataset_id,
        "vehicleId": s.vehicle_id,
        "t0Frame": s.t0_frame,
        "egoHistory": s.ego_history.tolist(),
        "future": s.future.tolist(),
        "neighbors": [{
            "vehicleId": n.vehicle_id,
            "cell": list(n.cell) if n.cell is not None else None,
            "track": n.track.tolist(),
            "valid": [int(v) for v in n.valid],
        } for n in s.neighbors],
    }


def _sample_from_obj(obj: dict) -> TrajectorySample:
    neighbors = [NeighborTrack(
        vehicle_id=int(n["vehicleId"]),
        cell=tuple(n["cell"]) if n["cell"] is not None else None,
        track=np.asarray(n["track"], dtype=np.float64),
        valid=np.asarray(n["valid"], dtype=bool),
    ) for n in obj["neighbors"]]
    return TrajectorySample(
        dataset_id=obj["datasetId"],
        vehicle_id=int(obj["vehicleId"]),
        t0_frame=int(obj["t0Frame"]),
        ego_history=np.asarray(obj["egoHistory"], dtype=np.float64),
        future=np.asarray(obj["future"], dtype=np.float64),
        neighbors=neighbors,
    )


def _save_text(path, samples: Sequence[TrajectorySample]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for s in samples:
            fh.write(json.dumps(_sample_to_obj(s), separators=(",", ":")))
            fh.write("\n")


def _load_text(path) -> List[TrajectorySample]:
    out: List[TrajectorySample] = []
    line_no = 0
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for line_no, line in enumerate(fh, 1):
                if line.strip():
                    out.append(_sample_from_obj(json.loads(line)))
    except (KeyError, TypeError, ValueError, OverflowError) as err:
        # json.JSONDecodeError and UnicodeDecodeError are ValueErrors
        raise ConfigurationError(f"{path}:{line_no}: bad sample record: {err}") from err
    return out


# ---------------------------------------------------------------------------
# binary
# ---------------------------------------------------------------------------

def _save_binary(path, samples: Sequence[TrajectorySample]) -> None:
    chunks: List[bytes] = [SAMPLE_MAGIC, struct.pack("<IQ", SAMPLE_VERSION, len(samples))]
    for s in samples:
        ds = s.dataset_id.encode("utf-8")
        h = s.ego_history.shape[0]
        f = s.future.shape[0]
        chunks.append(struct.pack("<H", len(ds)))
        chunks.append(ds)
        chunks.append(struct.pack("<QqHHI", s.vehicle_id, s.t0_frame, h, f,
                                  len(s.neighbors)))
        chunks.append(np.ascontiguousarray(s.ego_history, dtype="<f8").tobytes())
        chunks.append(np.ascontiguousarray(s.future, dtype="<f8").tobytes())
        for n in s.neighbors:
            row, col = n.cell if n.cell is not None else (-1, -1)
            chunks.append(struct.pack("<Qii", n.vehicle_id, row, col))
            chunks.append(np.asarray(n.valid, dtype=np.uint8).tobytes())
            chunks.append(np.ascontiguousarray(n.track, dtype="<f8").tobytes())
    with open(path, "wb") as fh:
        fh.write(b"".join(chunks))


def _load_binary(path) -> List[TrajectorySample]:
    with open(path, "rb") as fh:
        blob = fh.read()
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


# ---------------------------------------------------------------------------
# public API
# ---------------------------------------------------------------------------

def save_samples(path, samples: Sequence[TrajectorySample],
                 fmt: str = "binary") -> None:
    if fmt not in SAMPLE_FORMATS:
        raise ConfigurationError(f"format must be one of {SAMPLE_FORMATS}, got {fmt!r}")
    if fmt == "text":
        _save_text(path, samples)
    else:
        _save_binary(path, samples)


def load_samples(path) -> List[TrajectorySample]:
    """Load an archive, sniffing the format from the leading bytes."""
    try:
        with open(path, "rb") as fh:
            head = fh.read(len(SAMPLE_MAGIC))
    except OSError as err:
        raise ConfigurationError(f"cannot read samples {path}: {err}") from err
    if head == SAMPLE_MAGIC:
        return _load_binary(path)
    return _load_text(path)
