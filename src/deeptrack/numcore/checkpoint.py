"""Versioned binary weight checkpoints.

Layout (all integers little-endian):

    magic     8 bytes  b"DTRKWTS\\0"
    version   u32
    hash      32 bytes sha256 digest of the canonical model config
    count     u32      number of records
    record    kind u8 (0 = parameter, 1 = buffer)
              name_len u16, name utf-8
              ndim u8, dims u32 * ndim
              values float64 little-endian, C order
    crc32     u32      zlib.crc32 of every byte before it (version 2 only)

Version 1 files, which end after the last record, still load. Values are
always stored as float64; float32 weights promote and recover bit-exactly,
so save/load round-trips are bit-identical at either precision.
"""

from __future__ import annotations

import math
import struct
import zlib
from dataclasses import dataclass
from typing import Dict, Mapping, Union

import numpy as np

from .tensor import ConfigurationError, Tensor

__all__ = ["CheckpointData", "save_weights", "load_weights", "CHECKPOINT_MAGIC"]

CHECKPOINT_MAGIC = b"DTRKWTS\x00"
CHECKPOINT_VERSION = 2
_READABLE_VERSIONS = (1, CHECKPOINT_VERSION)

_KIND_PARAM = 0
_KIND_BUFFER = 1


@dataclass
class CheckpointData:
    """Deserialized checkpoint contents. Arrays are float64."""
    params: Dict[str, np.ndarray]
    buffers: Dict[str, np.ndarray]
    config_hash: str


def _write_record(out: list, kind: int, name: str, array: np.ndarray) -> None:
    encoded = name.encode("utf-8")
    if len(encoded) > 0xFFFF:
        raise ConfigurationError(f"weight name too long: {name[:40]}...")
    arr = np.ascontiguousarray(array, dtype=np.float64)
    out.append(struct.pack("<BH", kind, len(encoded)))
    out.append(encoded)
    out.append(struct.pack("<B", arr.ndim))
    out.append(struct.pack(f"<{arr.ndim}I", *arr.shape) if arr.ndim else b"")
    out.append(arr.astype("<f8", copy=False).tobytes())


def save_weights(path, params: Mapping[str, Union[Tensor, np.ndarray]],
                 buffers: Mapping[str, np.ndarray], config_hash: str) -> None:
    """Write parameters and buffers in a stable, name-ordered layout."""
    digest = bytes.fromhex(config_hash)
    if len(digest) != 32:
        raise ConfigurationError("config_hash must be a sha256 hex digest")
    chunks: list = [CHECKPOINT_MAGIC, struct.pack("<I", CHECKPOINT_VERSION), digest,
                    struct.pack("<I", len(params) + len(buffers))]
    for name in sorted(params):
        value = params[name]
        _write_record(chunks, _KIND_PARAM, name,
                      value.data if isinstance(value, Tensor) else value)
    for name in sorted(buffers):
        _write_record(chunks, _KIND_BUFFER, name, buffers[name])
    blob = b"".join(chunks)
    with open(path, "wb") as fh:
        fh.write(blob)
        fh.write(struct.pack("<I", zlib.crc32(blob)))


def load_weights(path) -> CheckpointData:
    """Read a checkpoint written by :func:`save_weights`; a truncated or
    corrupt file raises ConfigurationError before any oversized read, and a
    version 2 file whose checksum fails before any record is parsed."""
    with open(path, "rb") as fh:
        blob = fh.read()
    header = len(CHECKPOINT_MAGIC) + 4 + 32 + 4
    if len(blob) < header or not blob.startswith(CHECKPOINT_MAGIC):
        raise ConfigurationError(f"{path}: not a weight checkpoint")
    off = len(CHECKPOINT_MAGIC)
    (version,) = struct.unpack_from("<I", blob, off)
    off += 4
    if version not in _READABLE_VERSIONS:
        raise ConfigurationError(
            f"{path}: checkpoint format version {version} is not supported "
            f"(expected one of {_READABLE_VERSIONS})")
    if version == 2:
        blob, trailer = blob[:-4], blob[-4:]
        if len(blob) < header or zlib.crc32(blob) != int.from_bytes(trailer, "little"):
            raise ConfigurationError(f"{path}: corrupt checkpoint: checksum mismatch")
    config_hash = blob[off:off + 32].hex()
    off += 32
    (count,) = struct.unpack_from("<I", blob, off)
    off += 4

    params: Dict[str, np.ndarray] = {}
    buffers: Dict[str, np.ndarray] = {}
    try:
        for _ in range(count):
            kind, name_len = struct.unpack_from("<BH", blob, off)
            name = blob[off + 3:off + 3 + name_len].decode("utf-8")
            off += 3 + name_len
            (ndim,) = struct.unpack_from("<B", blob, off)
            shape = struct.unpack_from(f"<{ndim}I", blob, off + 1)
            off += 1 + 4 * ndim
            n = math.prod(shape)
            if kind not in (_KIND_PARAM, _KIND_BUFFER) or 8 * n > len(blob) - off:
                raise ValueError(f"record {name!r}: kind {kind}, {n} values, "
                                 f"{len(blob) - off} bytes left")
            arr = np.frombuffer(blob, dtype="<f8", count=n, offset=off).reshape(shape).copy()
            off += 8 * n
            (params if kind == _KIND_PARAM else buffers)[name] = arr
    except (struct.error, ValueError) as err:  # UnicodeDecodeError is a ValueError
        raise ConfigurationError(f"{path}: corrupt checkpoint: {err}") from err
    if off != len(blob):
        raise ConfigurationError(f"{path}: trailing bytes after last record")
    return CheckpointData(params=params, buffers=buffers, config_hash=config_hash)
