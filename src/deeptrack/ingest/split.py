"""Deterministic train/val/test partitioning by vehicle.

Every sample of a vehicle lands in the same partition, so no trajectory
leaks across splits. Assignment hashes (seed, vehicle id) with blake2b,
which is stable across processes and platforms, unlike the interpreter's
salted builtin hash.
"""

from __future__ import annotations

import hashlib
from typing import List, Sequence, Tuple

from ..numcore import ConfigurationError
from .windows import TrajectorySample

__all__ = ["vehicle_partition", "split_dataset", "PARTITION_NAMES"]

PARTITION_NAMES = ("train", "val", "test")


def _unit_hash(vehicle_id: int, seed: int) -> float:
    digest = hashlib.blake2b(f"{seed}:{vehicle_id}".encode(), digest_size=8).digest()
    return int.from_bytes(digest, "big") / 2.0 ** 64


def vehicle_partition(vehicle_id: int, seed: int,
                      ratios: Tuple[float, float, float]) -> int:
    """Partition index (0 train, 1 val, 2 test) for one vehicle."""
    u = _unit_hash(vehicle_id, seed)
    if u < ratios[0]:
        return 0
    if u < ratios[0] + ratios[1]:
        return 1
    return 2


def split_dataset(samples: Sequence[TrajectorySample],
                  ratios: Tuple[float, float, float] = (0.7, 0.1, 0.2),
                  seed: int = 0,
                  ) -> Tuple[List[TrajectorySample], List[TrajectorySample], List[TrajectorySample]]:
    """Split samples by hashed ego vehicle id, each vehicle hashed once;
    order within splits is kept."""
    if len(ratios) != 3 or min(ratios) < 0 or abs(sum(ratios) - 1.0) > 1e-9:
        raise ConfigurationError(f"ratios must be three non-negatives summing to 1, got {ratios}")
    part_of = {vid: vehicle_partition(vid, seed, ratios)
               for vid in dict.fromkeys(s.vehicle_id for s in samples)}
    parts: Tuple[List[TrajectorySample], ...] = ([], [], [])
    for sample in samples:
        parts[part_of[sample.vehicle_id]].append(sample)
    return parts
