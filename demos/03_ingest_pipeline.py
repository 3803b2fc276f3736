"""
From raw highway tracks to training samples
===========================================

Raw recordings arrive as one row per (vehicle, frame) with positions in feet
at 10 Hz. Ingest converts to meters, slides an 8-second window over every
vehicle (3 s history + 5 s future at half rate), anchors all coordinates on
the ego position at the split frame, and bins the neighbors into a 13x3
occupancy grid. Vehicles are hashed into train/val/test so no vehicle
straddles partitions.
"""

import tempfile
from pathlib import Path

from deeptrack.ingest import (
    WindowConfig, load_samples, parse_tracks, save_samples, split_dataset,
    window_samples,
)
from deeptrack.synthetic import write_tracks_csv

workdir = Path(tempfile.mkdtemp(prefix="ingest_demo_"))

# -- 1. a raw track file -----------------------------------------------------

raw = workdir / "tracks.tsv"
write_tracks_csv(raw, n_vehicles=25, n_frames=150, seed=4)
tracks, parse_stats = parse_tracks(str(raw))  # columns sorted by (vehicle, frame)
print(f"parsed {len(tracks)} points of {parse_stats.vehicles} vehicles from "
      f"{parse_stats.rows_read} rows ({parse_stats.malformed} malformed, "
      f"{parse_stats.duplicates} duplicates)")
print(f"first point: vehicle {tracks.vehicle_id[0]} at frame {tracks.frame_id[0]} in lane "
      f"{tracks.lane_id[0]}, at ({tracks.x[0]:.2f}, {tracks.y[0]:.2f}) m")

# -- 2. windowing ------------------------------------------------------------

config = WindowConfig(stride=5)  # keep every 5th eligible anchor per vehicle
samples, stats = window_samples(tracks, config, dataset_id="demo")
print(f"\n{stats.samples} samples from {stats.vehicles_with_samples} vehicles; "
      f"{stats.neighbors_in_grid} neighbors in grid, "
      f"{stats.neighbors_outside} outside, "
      f"{stats.grid_collisions} cell collisions resolved")

s = samples[0]
print(f"\nsample {s.sample_id}: history {s.ego_history.shape}, "
      f"future {s.future.shape}, {len(s.neighbors)} neighbors")
print("history ends at the anchor, so the last point is the origin:",
      s.ego_history[-1])
for n in s.neighbors[:4]:
    print(f"  neighbor {n.vehicle_id}: cell {n.cell}, "
          f"track valid on {int(n.valid.sum())}/{len(n.valid)} steps")

# -- 3. vehicle-hashed partitions --------------------------------------------

train, val, test = split_dataset(samples, seed=0)
print(f"\nsplit: {len(train)} train / {len(val)} val / {len(test)} test")
overlap = ({x.vehicle_id for x in train} & {x.vehicle_id for x in val}
           | {x.vehicle_id for x in train} & {x.vehicle_id for x in test})
print("vehicles shared between partitions:", overlap or "none")

# -- 4. archives round-trip exactly ------------------------------------------

archive = workdir / "train_samples.bin"
save_samples(archive, train)
again = load_samples(archive)
print(f"\narchived {len(train)} samples to {archive.name}; "
      f"round-trip equal: {again == train}")
