"""The sample archive: one array per field, little-endian throughout.

A 56-byte header, then one section per field, each zero-padded to a
multiple of 8 bytes. N samples of H history and F future points hold K
neighbors in all; D dataset ids take S bytes of utf-8:

    header     magic b"DTRKSMP\\0", u32 version 2, u32 D, u64 N, K, H, F, S
    datasets   u64 [D] end of each id, u8 [S] the ids, u32 [N] index per sample
    samples    u64 [N] vehicle_id, i64 [N] t0_frame, u32 [N] neighbor count,
               f64 [N, H, 2] ego history, f64 [N, F, 2] future
    neighbors  u64 [K] vehicle_id, i32 [K, 2] cell ((-1, -1) = outside),
               u8 [K, H] valid (0 or 1), f64 [K, H, 2] track, sample 0's first

The neighbor sections are the four columns of the samples' neighbor tables
(:class:`NeighborTable`), concatenated on save and sliced per sample on
load, so neither builds an object per neighbor. Samples round-trip
exactly. A loaded sample's arrays and columns are views into one buffer
that holds the whole file.
"""

from __future__ import annotations

import itertools
import math
import os
import struct
from typing import List, Sequence

import numpy as np

from ..numcore import ConfigurationError
from .windows import TrajectorySample, as_column, build_samples

__all__ = ["save_samples", "load_samples", "SAMPLE_MAGIC"]

SAMPLE_MAGIC = b"DTRKSMP\x00"
SAMPLE_VERSION = 2
_HEADER = struct.Struct("<8sII5Q")  # magic, version, D, N, K, H, F, S


def _layout(d: int, n: int, k: int, h: int, f: int, s: int) -> tuple:
    """(dtype, shape) of each section, in file order."""
    return (("<u8", (d,)), ("u1", (s,)), ("<u4", (n,)), ("<u8", (n,)), ("<i8", (n,)),
            ("<u4", (n,)), ("<f8", (n, h, 2)), ("<f8", (n, f, 2)),
            ("<u8", (k,)), ("<i4", (k, 2)), ("?", (k, h)), ("<f8", (k, h, 2)))


def _sections(samples: Sequence[TrajectorySample], h: int, f: int) -> tuple:
    """The header counts of ``samples`` and their section arrays; the
    neighbor sections are the samples' table columns, concatenated."""
    ids = list(dict.fromkeys(s.dataset_id for s in samples))
    index = {name: i for i, name in enumerate(ids)}
    names = [name.encode("utf-8") for name in ids]
    tables = [s.neighbors for s in samples]
    columns = [np.concatenate([getattr(t, name) for t in tables]) if tables else []
               for name in ("vehicle_id", "cell", "valid", "track")]
    counts = (len(ids), len(samples), len(columns[0]), h, f, sum(map(len, names)))
    values = (list(itertools.accumulate(map(len, names))), list(b"".join(names)),
              [index[s.dataset_id] for s in samples], [s.vehicle_id for s in samples],
              [s.t0_frame for s in samples], list(map(len, tables)),
              [s.ego_history for s in samples], [s.future for s in samples], *columns)
    arrays = [as_column(v, dtype, shape[1:])
              for v, (dtype, shape) in zip(values, _layout(*counts))]
    cell = arrays[9]
    if not ((cell >= 0).all(axis=1) | (cell == -1).all(axis=1)).all():
        raise ValueError("a neighbor cell must be (-1, -1) or two non-negative integers")
    return counts, arrays


def save_samples(path, samples: Sequence[TrajectorySample]) -> None:
    """Write ``samples`` to ``path``. A field the layout cannot hold, such as
    a negative vehicle id, a cell beyond int32 or a history length other
    than the first sample's, raises ConfigurationError naming the sample,
    and no file is written."""
    h, f = (len(samples[0].ego_history), len(samples[0].future)) if samples else (0, 0)
    try:
        counts, arrays = _sections(samples, h, f)
    except (ValueError, TypeError, OverflowError):
        for s in samples:  # name the first sample the layout cannot hold
            try:
                _sections([s], h, f)
            except (ValueError, TypeError, OverflowError) as err:
                raise ConfigurationError(
                    f"{path}: cannot archive the sample of vehicle {s.vehicle_id} at frame "
                    f"{s.t0_frame} in {s.dataset_id!r}: {err}") from err
        raise
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(SAMPLE_MAGIC, SAMPLE_VERSION, *counts))
        for arr in arrays:
            fh.write(arr)
            fh.write(bytes(-arr.nbytes % 8))


def load_samples(path) -> List[TrajectorySample]:
    """Read an archive ``save_samples`` wrote; any other file, or an archive
    of an earlier version, raises ConfigurationError."""
    try:
        with open(path, "rb") as fh:
            head = fh.read(_HEADER.size)
            if not head.startswith(SAMPLE_MAGIC):
                raise ConfigurationError(
                    f"{path}: not a sample archive (no {SAMPLE_MAGIC!r} magic)")
            version = int.from_bytes(head[8:12], "little")
            if len(head) >= 12 and version != SAMPLE_VERSION:
                raise ConfigurationError(
                    f"{path}: sample archive version {version} is not read by this version; "
                    "re-run `deeptrack ingest` on the track file to rebuild it")
            if len(head) < _HEADER.size:
                raise ConfigurationError(f"{path}: truncated sample archive header")
            counts = _HEADER.unpack(head)[2:]
            layout = _layout(*counts)
            sizes = [np.dtype(dtype).itemsize * math.prod(shape) for dtype, shape in layout]
            sizes = [size + -size % 8 for size in sizes]
            found = os.fstat(fh.fileno()).st_size - _HEADER.size
            if found != sum(sizes):
                raise ConfigurationError(f"{path}: corrupt sample archive: {found} bytes after "
                                         f"the header, which needs {sum(sizes)}")
            buf = np.empty(found, np.uint8)
            if fh.readinto(buf) != found:
                raise ConfigurationError(f"{path}: corrupt sample archive: short read")
    except OSError as err:
        raise ConfigurationError(f"cannot read samples {path}: {err}") from err
    d, _, k, _, _, s = counts
    try:  # an empty archive may still claim lengths no array can have
        ends, names, index, vehicle_id, t0_frame, count, ego, future, nbr_id, cell, valid, \
            track = (np.ndarray(shape, dtype, buf, off) for (dtype, shape), off
                     in zip(layout, itertools.accumulate(sizes, initial=0)))
        bounds = [0, *ends.tolist()]
        ids = [names[lo:hi].tobytes().decode("utf-8") for lo, hi in zip(bounds, bounds[1:])]
        if (bounds != sorted(bounds) or bounds[-1] != s or (index >= d).any()
                or count.sum() != k or (valid.view("u1") > 1).any()
                or not ((cell >= 0).all(axis=1) | (cell == -1).all(axis=1)).all()):
            raise ValueError("a stored count, index, cell or valid flag is out of range")
    except ValueError as err:  # UnicodeDecodeError is a ValueError
        raise ConfigurationError(f"{path}: corrupt sample archive: {err}") from err
    return build_samples([ids[i] for i in index.tolist()], vehicle_id, t0_frame, ego, future,
                         count, nbr_id, cell, track, valid)
