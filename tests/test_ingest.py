"""Parsing, windowing, grid geometry, splits, and archives."""

import dataclasses
import io
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from deeptrack.ingest import (
    FEET_TO_METERS,
    SAMPLE_MAGIC,
    NeighborTable,
    NeighborTrack,
    TrackTable,
    TrajectorySample,
    WindowConfig,
    WindowStats,
    grid_assign,
    load_samples,
    parse_tracks,
    save_samples,
    split_dataset,
    vehicle_partition,
    window_samples,
)
from deeptrack.numcore import ConfigurationError

from deeptrack.model import collate
from deeptrack.configio import ModelConfig
from helpers import (
    loads_or_rejects, reference_window_samples, replace_neighbor, track_table,
)

HEADER = "Vehicle_ID,Frame_ID,Local_X,Local_Y,Lane_ID\n"


def table(rows):
    return io.StringIO(HEADER + "\n".join(rows) + "\n")


def straight_track(vid, frames, x_ft=6.0, y0_ft=100.0, vy_ftpf=1.0, lane=2):
    return [f"{vid},{t},{x_ft},{y0_ft + vy_ftpf * (t - frames[0])},{lane}"
            for t in frames]


def keys(tracks):
    return list(zip(tracks.vehicle_id.tolist(), tracks.frame_id.tolist()))


class TestParsing:
    def test_feet_to_meters(self):
        tracks, stats = parse_tracks(table(["7,100,6.45,330.0,2"]))
        assert stats.rows_kept == 1
        assert (tracks.vehicle_id[0], tracks.frame_id[0], tracks.lane_id[0]) == (7, 100, 2)
        assert abs(tracks.x[0] - 1.96596) < 1e-9
        assert abs(tracks.y[0] - 100.584) < 1e-9
        assert tracks.x[0] == 6.45 * FEET_TO_METERS

    def test_tab_delimiter_autodetected(self):
        src = io.StringIO("Vehicle_ID\tFrame_ID\tLocal_X\tLocal_Y\tLane_ID\n"
                          "1\t5\t3.0\t30.0\t1\n")
        tracks, _ = parse_tracks(src)
        assert tracks.vehicle_id[0] == 1 and tracks.y[0] == 30.0 * FEET_TO_METERS

    def test_missing_column_is_fatal(self):
        src = io.StringIO("Vehicle_ID,Frame_ID,Local_X,Lane_ID\n1,1,1.0,1\n")
        with pytest.raises(ConfigurationError, match="Local_Y"):
            parse_tracks(src)

    def test_malformed_rows_skipped_and_counted(self):
        tracks, stats = parse_tracks(table([
            "1,1,1.0,10.0,1",
            "not,a,valid,row,x",
            "2,1,1.0",
            "2,2,2.0,20.0,2",
        ]))
        assert stats.malformed == 2
        assert stats.rows_kept == 2
        assert tracks.vehicle_id.tolist() == [1, 2]

    @pytest.mark.parametrize("row", [
        "inf,2,1.0,10.0,1", "1,inf,1.0,10.0,1", "1,2,1.0,10.0,-inf",
        "1,2,nan,10.0,1", "1,2,-Infinity,10.0,1", "1,2,1e400,10.0,1",
        "1,2,1.0,nan,1", "1,2,1.0,inf,1", "1,2,1.0,1e400,1"])
    def test_non_finite_values_are_malformed(self, row):
        tracks, stats = parse_tracks(table(["1,1,1.0,10.0,1", row]))
        assert (stats.malformed, stats.rows_kept) == (1, 1)
        assert keys(tracks) == [(1, 1)]

    def test_ids_beyond_double_precision_parse_exactly(self):
        # 2**53 + 1 rounds to 2**53 as a double
        tracks, stats = parse_tracks(table([
            "9007199254740993,1,1.0,10.0,1",
            "9007199254740992,1,1.0,10.0,1",
        ]))
        assert (stats.vehicles, stats.duplicates, stats.rows_kept) == (2, 0, 2)
        assert tracks.vehicle_id.tolist() == [9007199254740992, 9007199254740993]

    @pytest.mark.parametrize("row", [
        "9007199254740993.0,1,1.0,10.0,1", "9007199254740992.0,1,1.0,10.0,1",
        "1,-1e16,1.0,10.0,1", "1,1,1.0,10.0,1.5"])
    def test_decimal_ids_are_malformed_unless_exact_integers(self, row):
        tracks, stats = parse_tracks(table(["3.0,2.0,1.0,10.0,1e0", row]))
        assert (stats.malformed, stats.rows_kept) == (1, 1)
        assert (tracks.vehicle_id[0], tracks.frame_id[0], tracks.lane_id[0]) == (3, 2, 1)

    def test_undecodable_file_is_fatal(self, tmp_path):
        path = tmp_path / "tracks.csv"
        path.write_bytes(HEADER.encode() + b"1,1,1.0,10.0,1\n1,2,1.0,\xff0.0,1\n")
        with pytest.raises(ConfigurationError, match="not UTF-8 text"):
            parse_tracks(path)

    def test_duplicate_keeps_first_occurrence(self):
        tracks, stats = parse_tracks(table([
            "1,1,1.0,10.0,1",
            "1,1,9.0,90.0,1",
        ]))
        assert stats.duplicates == 1
        assert len(tracks) == 1 and tracks.x[0] == 1.0 * FEET_TO_METERS

    def test_sorted_by_vehicle_then_frame(self):
        tracks, stats = parse_tracks(table([
            "2,5,1.0,10.0,1",
            "1,9,1.0,10.0,1",
            "1,2,1.0,10.0,1",
        ]))
        assert keys(tracks) == [(1, 2), (1, 9), (2, 5)]
        assert stats.vehicles == 2
        tracks, stats = parse_tracks(table([]))
        assert (len(tracks), stats.vehicles) == (0, 0)

    def test_extra_columns_ignored(self):
        src = io.StringIO("Vehicle_ID,Frame_ID,Total_Frames,Local_X,Local_Y,Lane_ID\n"
                          "1,1,500,1.0,10.0,1\n")
        tracks, _ = parse_tracks(src)
        assert tracks.lane_id[0] == 1


class TestGridAssign:
    CFG = WindowConfig()

    def cell(self, feet, lane=2):
        """Cell of a neighbor ``feet`` ahead of an ego at y = 100 m in lane 2."""
        ego_y, ego_lane = 100.0, 2
        dy = np.array([(100.0 + feet * FEET_TO_METERS) - ego_y])
        (cell,) = grid_assign(dy, np.array([lane - ego_lane]), self.CFG).tolist()
        return tuple(cell)

    def test_ego_position_maps_to_center_cell(self):
        assert self.cell(0.0) == (6, 1)

    def test_20_feet_ahead(self):
        assert self.cell(20.0) == (7, 1)

    def test_100_feet_ahead_is_last_row(self):
        assert self.cell(100.0) == (12, 1)

    def test_105_feet_ahead_is_outside(self):
        assert self.cell(105.0) == (-1, -1)

    def test_just_behind_drops_a_row(self):
        assert self.cell(-1.0) == (5, 1)

    def test_lane_offsets_map_to_columns(self):
        assert self.cell(0.0, lane=1) == (6, 0)
        assert self.cell(0.0, lane=3) == (6, 2)
        assert self.cell(0.0, lane=4) == (-1, -1)

    def test_one_call_bins_like_one_call_each(self):
        feet = [0.0, 20.0, 100.0, 105.0, -1.0, 0.0, 0.0, 0.0]
        lanes = [2, 2, 2, 2, 2, 1, 3, 4]
        dy = np.array([(100.0 + f * FEET_TO_METERS) - 100.0 for f in feet])
        cells = grid_assign(dy, np.array(lanes) - 2, self.CFG)
        assert cells.dtype == np.int64 and cells.shape == (8, 2)
        assert [tuple(c) for c in cells.tolist()] == [
            self.cell(f, lane) for f, lane in zip(feet, lanes)]


class TestWindowing:
    @pytest.mark.parametrize("entry", [
        {"grid_rows": 13.5}, {"grid_rows": True}, {"stride": "2"}, {"cell_length": "4.5"},
        {"history_frames": None}])
    def test_config_values_are_type_checked(self, entry):
        # window settings are read back from an ingest directory's stats.json
        with pytest.raises(ConfigurationError, match=next(iter(entry))):
            WindowConfig(**entry)
        assert WindowConfig(grid_rows=13.0, cell_length=5).cell_length == 5.0

    def test_81_consecutive_frames_give_exactly_one_sample(self):
        tracks, _ = parse_tracks(table(straight_track(1, range(81))))
        samples, stats = window_samples(tracks, WindowConfig())
        assert stats.samples == 1
        s = samples[0]
        assert s.t0_frame == 30
        assert s.ego_history.shape == (16, 2)
        assert s.future.shape == (25, 2)

    def test_80_frames_give_none(self):
        tracks, _ = parse_tracks(table(straight_track(1, range(80))))
        samples, _ = window_samples(tracks, WindowConfig())
        assert samples == []

    def test_last_history_point_is_origin(self):
        tracks, _ = parse_tracks(table(straight_track(1, range(100))))
        samples, _ = window_samples(tracks, WindowConfig())
        for s in samples:
            assert np.array_equal(s.ego_history[-1], [0.0, 0.0])

    def test_history_spacing_is_every_second_frame(self):
        # constant 1 ft/frame: consecutive sampled points are 2 ft apart
        tracks, _ = parse_tracks(table(straight_track(1, range(81))))
        samples, _ = window_samples(tracks, WindowConfig())
        dy = np.diff(samples[0].ego_history[:, 1])
        assert np.allclose(dy, 2.0 * FEET_TO_METERS)
        dyf = np.diff(np.concatenate([[0.0], samples[0].future[:, 1]]))
        assert np.allclose(dyf, 2.0 * FEET_TO_METERS)

    def test_stride_thins_windows(self):
        tracks, _ = parse_tracks(table(straight_track(1, range(96))))
        all_samples, _ = window_samples(tracks, WindowConfig())
        every_5, _ = window_samples(tracks, WindowConfig(stride=5))
        assert len(all_samples) == 16
        assert len(every_5) == 4
        assert [s.t0_frame for s in every_5] == [30, 35, 40, 45]

    def test_gap_in_frames_blocks_windows(self):
        frames = [t for t in range(81) if t != 40]
        tracks, _ = parse_tracks(table(straight_track(1, frames)))
        samples, _ = window_samples(tracks, WindowConfig())
        assert samples == []

    def test_neighbor_present_at_t0_with_partial_history(self):
        rows = straight_track(1, range(81), lane=2)
        rows += straight_track(2, range(24, 81), y0_ft=110.0, lane=3)
        tracks, _ = parse_tracks(table(rows))
        samples, _ = window_samples(tracks, WindowConfig())
        (s,) = samples
        assert len(s.neighbors) == 1
        n = s.neighbors[0]
        assert n.vehicle_id == 2
        # frames 0..28 step 2 cover indices 0..14; the neighbor starts at 24
        assert not n.valid[:12].any()
        assert n.valid[12:].all()
        assert np.array_equal(n.track[0], [0.0, 0.0])
        assert n.valid[-1]

    def test_neighbor_absent_at_t0_not_listed(self):
        rows = straight_track(1, range(81), lane=2)
        rows += straight_track(2, range(0, 30), y0_ft=110.0, lane=3)  # gone by t0
        tracks, _ = parse_tracks(table(rows))
        samples, _ = window_samples(tracks, WindowConfig())
        assert len(samples[0].neighbors) == 0

    def test_collision_nearest_wins_tie_on_lower_id(self):
        rows = straight_track(1, range(81), lane=2)
        # both neighbors in lane 3 within one cell ahead of the ego
        rows += straight_track(5, range(81), y0_ft=104.0, lane=3)
        rows += straight_track(4, range(81), y0_ft=106.0, lane=3)
        tracks, _ = parse_tracks(table(rows))
        samples, stats = window_samples(tracks, WindowConfig())
        cells = {n.vehicle_id: n.cell for n in samples[0].neighbors}
        assert cells[5] is not None  # |dy| 4 ft beats 6 ft
        assert cells[4] is None
        assert stats.grid_collisions == 1

        # equal |dy|: vehicle 4 (lower id) wins
        rows = straight_track(1, range(81), lane=2)
        rows += straight_track(5, range(81), y0_ft=105.0, lane=3)
        rows += straight_track(4, range(81), y0_ft=105.0, lane=3)
        tracks, _ = parse_tracks(table(rows))
        samples, _ = window_samples(tracks, WindowConfig())
        cells = {n.vehicle_id: n.cell for n in samples[0].neighbors}
        assert cells[4] is not None and cells[5] is None

    def test_neighbors_sorted_by_vehicle_id(self):
        rows = straight_track(1, range(81), lane=2)
        rows += straight_track(9, range(81), y0_ft=120.0, lane=3)
        rows += straight_track(3, range(81), y0_ft=80.0, lane=1)
        tracks, _ = parse_tracks(table(rows))
        samples, _ = window_samples(tracks, WindowConfig())
        assert [n.vehicle_id for n in samples[0].neighbors] == [3, 9]

    def test_determinism(self):
        rows = straight_track(1, range(100)) + straight_track(2, range(100), y0_ft=90.0, lane=1)
        tracks, _ = parse_tracks(table(rows))
        a, _ = window_samples(tracks, WindowConfig())
        b, _ = window_samples(tracks, WindowConfig())
        assert a == b

    def test_translation_invariance(self):
        # shifting the whole scene never changes relative geometry
        rng = np.random.default_rng(0)
        rows = straight_track(1, range(81)) + straight_track(2, range(81), y0_ft=90.0, lane=3)
        tracks, _ = parse_tracks(table(rows))
        base, _ = window_samples(tracks, WindowConfig())
        for _ in range(5):
            dx, dy = rng.uniform(-500, 500, size=2)
            moved = TrackTable(tracks.vehicle_id, tracks.frame_id, tracks.x + dx, tracks.y + dy,
                               tracks.lane_id)
            shifted, _ = window_samples(moved, WindowConfig())
            for s, t in zip(base, shifted):
                assert np.allclose(s.ego_history, t.ego_history, atol=1e-9)
                assert np.allclose(s.future, t.future, atol=1e-9)
                assert [n.cell for n in s.neighbors] == [n.cell for n in t.neighbors]

    def test_no_future_leakage_into_features(self):
        rows = straight_track(1, range(81)) + straight_track(2, range(81), y0_ft=90.0, lane=3)
        tracks, _ = parse_tracks(table(rows))
        base, _ = window_samples(tracks, WindowConfig())
        # corrupt every observation after t0 = 30
        late = np.where(tracks.frame_id > 30, 1000.0, 0.0)
        corrupted = TrackTable(tracks.vehicle_id, tracks.frame_id, tracks.x + late,
                               tracks.y + late, tracks.lane_id)
        after, _ = window_samples(corrupted, WindowConfig())
        assert np.array_equal(base[0].ego_history, after[0].ego_history)
        for n0, n1 in zip(base[0].neighbors, after[0].neighbors):
            assert np.array_equal(n0.track, n1.track)
            assert n0.cell == n1.cell
        assert not np.array_equal(base[0].future, after[0].future)

    def test_no_past_leakage_into_labels(self):
        rows = straight_track(1, range(81))
        tracks, _ = parse_tracks(table(rows))
        base, _ = window_samples(tracks, WindowConfig())
        early = np.where(tracks.frame_id < 30, 7.0, 0.0)
        corrupted = TrackTable(tracks.vehicle_id, tracks.frame_id, tracks.x - early, tracks.y,
                               tracks.lane_id)
        after, _ = window_samples(corrupted, WindowConfig())
        assert np.array_equal(base[0].future, after[0].future)
        assert not np.array_equal(base[0].ego_history, after[0].ego_history)


class TestBadPoints:
    """A track table sorts its rows and rejects points windowing cannot use,
    whether they are parsed or built directly."""

    @staticmethod
    def rows():
        return [(vid, frame, 1.5 * vid, 30.0 + vid + 0.5 * frame, 2)
                for vid in (2, 1) for frame in range(81)]

    def test_sorts_rows_given_in_any_order(self):
        rows = self.rows()
        np.random.default_rng(0).shuffle(rows)
        tracks = track_table(rows)
        assert keys(tracks) == [(vid, frame) for vid in (1, 2) for frame in range(81)]
        assert tracks.x.tolist() == [1.5 * vid for vid, _ in keys(tracks)]
        assert tracks.y.tolist() == [30.0 + vid + 0.5 * frame for vid, frame in keys(tracks)]
        assert [c.dtype for c in (tracks.vehicle_id, tracks.frame_id, tracks.lane_id,
                                  tracks.x, tracks.y)] == [np.int64] * 3 + [np.float64] * 2

    def test_columns_are_read_only(self):
        tracks = track_table(self.rows())
        for column in (tracks.vehicle_id, tracks.frame_id, tracks.lane_id, tracks.x, tracks.y):
            with pytest.raises(ValueError, match="read-only"):
                column[0] = 0

    def test_duplicate_point_is_rejected(self):
        with pytest.raises(ConfigurationError, match="vehicle 2 at frame 61: the point is "
                                                     "given twice"):
            track_table(self.rows() + [(2, 61, 0.0, 0.0, 2)])

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_position_is_rejected(self, value):
        for at in (2, 3):
            rows = [row[:at] + (value,) + row[at + 1:] if row[:2] == (2, 30) else row
                    for row in self.rows()]
            with pytest.raises(ConfigurationError, match="vehicle 2 at frame 30: non-finite"):
                track_table(rows)

    def test_id_beyond_64_bits_is_rejected(self):
        for at in (0, 1, 4):
            row = (3, 0, 0.0, 0.0, 2)
            with pytest.raises(ConfigurationError, match="fit in 64-bit integers"):
                track_table(self.rows() + [row[:at] + (2 ** 63,) + row[at + 1:]])

    def test_columns_of_unequal_length_are_rejected(self):
        with pytest.raises(ConfigurationError, match="of one length"):
            TrackTable([1, 1], [1, 2], [0.0, 0.0], [0.0], [2, 2])


def random_scene(rng):
    """The track table of a small scene that exercises the windowing rules:
    vehicles enter late and leave early, drop frames, change lanes and share
    exact positions (cell collisions, |dy| ties); ids are sparse, frames may
    be negative, and the rows come in no particular order."""
    rows = []
    ids = rng.choice(10_000, size=int(rng.integers(1, 11)), replace=False)
    start = int(rng.integers(-40, 20))
    span = int(rng.integers(5, 50))
    for vid in ids.tolist():
        enter = start + int(rng.integers(0, span // 2 + 1))
        leave = start + span - int(rng.integers(0, span // 2 + 1))
        lane = int(rng.integers(1, 4))
        drop = rng.choice([0.0, 0.05, 0.2])
        for frame in range(enter, leave + 1):
            if rng.random() < drop:
                continue
            if rng.random() < 0.1:
                lane += int(rng.choice([-1, 1]))
            y = 0.5 * int(rng.integers(-12, 13))  # exact in binary: ties are common
            rows.append((vid, frame, lane * 3.7 + rng.normal(scale=0.3), y, lane))
    rng.shuffle(rows)
    return track_table(rows)


def random_window_config(rng):
    step = int(rng.integers(1, 4))
    return WindowConfig(history_frames=step * int(rng.integers(0, 5)),
                        future_frames=step * int(rng.integers(1, 4)),
                        sample_every=step, stride=int(rng.integers(1, 8)),
                        grid_rows=int(rng.integers(1, 7)), grid_cols=int(rng.integers(1, 5)),
                        cell_length=float(rng.choice([0.5, 1.0, 1.5, 3.0])))


class TestWindowOracle:
    """window_samples against the point-by-point loop it replaced."""

    def assert_same(self, tracks, config, tmp_path):
        got, got_stats = window_samples(tracks, config, "sweep")
        want, want_stats = reference_window_samples(tracks, config, "sweep")
        assert got_stats == want_stats
        assert got == want
        for s, r in zip(got, want):
            assert type(s.vehicle_id) is int and type(s.t0_frame) is int
            assert s.ego_history.tobytes() == r.ego_history.tobytes()
            assert s.future.tobytes() == r.future.tobytes()
            for n, m in zip(s.neighbors, r.neighbors):
                assert type(n.vehicle_id) is int
                assert n.cell is None or (type(n.cell) is tuple
                                          and [type(c) for c in n.cell] == [int, int])
                assert n.valid.dtype == bool
                assert n.track.tobytes() == m.track.tobytes()
        save_samples(tmp_path / "got.bin", got)
        save_samples(tmp_path / "want.bin", want)
        assert (tmp_path / "got.bin").read_bytes() == (tmp_path / "want.bin").read_bytes()
        return got_stats

    def test_seeded_sweep(self, tmp_path):
        rng = np.random.default_rng(19)
        seen = dict(samples=0, collisions=0, ties=0, empty_egos=0, grids=set(),
                    strides=set(), steps=set())
        for _ in range(150):
            tracks, config = random_scene(rng), random_window_config(rng)
            stats = self.assert_same(tracks, config, tmp_path)
            seen["samples"] += stats.samples
            seen["collisions"] += stats.grid_collisions
            seen["empty_egos"] += (len(set(tracks.vehicle_id.tolist()))
                                   - stats.vehicles_with_samples)
            seen["grids"].add((config.grid_rows % 2, config.grid_cols % 2))
            seen["strides"].add(config.stride)
            seen["steps"].add(config.sample_every)
            at = dict(zip(keys(tracks), zip(tracks.lane_id.tolist(), tracks.y.tolist())))
            for s in window_samples(tracks, config)[0]:
                spots = [at[n.vehicle_id, s.t0_frame] for n in s.neighbors]
                seen["ties"] += len(spots) - len(set(spots))
        # the sweep reached every case it is meant to cover
        assert seen["samples"] > 1000 and seen["collisions"] > 25 and seen["ties"] > 50
        assert seen["empty_egos"] > 50
        assert seen["grids"] == {(0, 0), (0, 1), (1, 0), (1, 1)}
        assert seen["strides"] == set(range(1, 8)) and seen["steps"] == {1, 2, 3}

    def test_one_cell_grid(self, tmp_path):
        rng = np.random.default_rng(5)
        config = WindowConfig(history_frames=4, future_frames=2, sample_every=2,
                              grid_rows=1, grid_cols=1, cell_length=3.0)
        collisions = [self.assert_same(random_scene(rng), config, tmp_path).grid_collisions
                      for _ in range(20)]
        assert sum(collisions) > 0

    def test_exact_tie_goes_to_lower_id(self, tmp_path):
        # one lane: 7 and 3 share y = 2 m, 9 sits at -2 m and 40 at 0 m
        rows = [(vid, frame, 3.0, y, 2)
                for vid, y in ((40, 0.0), (7, 2.0), (3, 2.0), (9, -2.0))
                for frame in range(-6, 3)]
        config = WindowConfig(history_frames=4, future_frames=2, sample_every=2)
        stats = self.assert_same(track_table(rows[::-1]), config, tmp_path)
        # per anchor frame, egos 40, 3 and 7 lose one claimant each, ego 9 two
        assert stats.samples == 12 and stats.grid_collisions == 3 * 5
        samples, _ = window_samples(track_table(rows), config)
        cells = {n.vehicle_id: n.cell for n in samples[-1].neighbors}
        assert samples[-1].vehicle_id == 40
        assert cells == {3: (6, 1), 7: None, 9: (5, 1)}

    def test_frame_ids_at_the_ends_of_int64(self, tmp_path):
        # frame gaps wider than int64 wrap negative in numpy, not in the loop
        edge = 2 ** 63 - 40
        frames = [*range(-edge, -edge + 30), *range(edge, edge + 30)]
        tracks = track_table((vid, frame, 3.0, 2.0 * vid, 2) for vid in (1, 2) for frame in frames)
        config = WindowConfig(history_frames=10, future_frames=4, sample_every=2, stride=3)
        # 2 x 16 eligible anchors per vehicle, every third of them kept
        assert self.assert_same(tracks, config, tmp_path).samples == 2 * 11

    def test_empty_input(self, tmp_path):
        assert self.assert_same(track_table([]), WindowConfig(), tmp_path) == WindowStats()


class TestSplit:
    def test_vehicle_never_straddles_partitions(self):
        rows = []
        for vid in range(1, 21):
            rows += straight_track(vid, range(81), y0_ft=vid * 500.0)
        tracks, _ = parse_tracks(table(rows))
        samples, _ = window_samples(tracks, WindowConfig())
        train, val, test = split_dataset(samples, seed=3)
        seen = {}
        for name, part in (("train", train), ("val", val), ("test", test)):
            for s in part:
                assert seen.setdefault(s.vehicle_id, name) == name

    def test_hash_uniformity_1000_vehicles(self):
        counts = [0, 0, 0]
        for vid in range(1, 1001):
            counts[vehicle_partition(vid, 0, (0.7, 0.1, 0.2))] += 1
        assert counts == [700, 107, 193]  # frozen for seed 0
        for count, ratio in zip(counts, (0.7, 0.1, 0.2)):
            assert abs(count / 1000 - ratio) <= 0.03

    def test_stable_across_calls_and_seed_sensitivity(self):
        a = [vehicle_partition(v, 11, (0.7, 0.1, 0.2)) for v in range(100)]
        b = [vehicle_partition(v, 11, (0.7, 0.1, 0.2)) for v in range(100)]
        c = [vehicle_partition(v, 12, (0.7, 0.1, 0.2)) for v in range(100)]
        assert a == b
        assert a != c

    def test_bad_ratios_rejected(self):
        with pytest.raises(ConfigurationError):
            split_dataset([], ratios=(0.5, 0.2, 0.2))

    def test_partitions_equal_hashing_every_sample(self):
        # each vehicle is hashed once per call; the partitions are those of
        # hashing every sample's vehicle on its own
        rng = np.random.default_rng(26)
        for seed, ratios in enumerate([(0.7, 0.1, 0.2), (0.2, 0.5, 0.3), (0.25, 0.25, 0.5)]):
            vids = rng.integers(0, 2 ** 63, size=40).tolist() * 3 + list(range(60))
            samples = [TrajectorySample("s", int(v), i, np.zeros((1, 2)), np.zeros((1, 2)))
                       for i, v in enumerate(rng.permutation(np.array(vids, dtype=object)))]
            want = ([], [], [])
            for sample in samples:
                want[vehicle_partition(sample.vehicle_id, seed, ratios)].append(sample)
            got = split_dataset(samples, ratios, seed)
            assert [[id(s) for s in part] for part in got] == \
                [[id(s) for s in part] for part in want]
            assert all(len(part) for part in got)


class TestNeighborTable:
    """A sample's neighbors as four columns, read row by row through frozen
    NeighborTrack views."""

    def scene(self):
        rows = straight_track(1, range(81), lane=2)
        rows += straight_track(2, range(81), y0_ft=110.0, lane=3)
        rows += straight_track(3, range(81), y0_ft=900.0, lane=3)  # beyond the grid
        samples, _ = window_samples(parse_tracks(table(rows))[0], WindowConfig(), "u")
        return samples

    def test_rows_read_as_the_columns(self):
        t = self.scene()[0].neighbors
        assert isinstance(t, NeighborTable) and len(t) == 2
        assert t.cell.tolist() == [[6, 2], [-1, -1]]
        first, second = t
        assert (first.vehicle_id, first.cell) == (2, (6, 2))
        assert (second.vehicle_id, second.cell) == (3, None)
        assert type(first.vehicle_id) is int and [type(c) for c in first.cell] == [int, int]
        assert np.shares_memory(first.track, t.track) and np.shares_memory(second.valid, t.valid)
        assert t[-1] == second and list(t[1:]) == [second]
        assert isinstance(t[:1], NeighborTable) and t[:1] == NeighborTable.from_rows([first], 16)

    def test_rows_are_frozen(self):
        n = self.scene()[0].neighbors[0]
        for field, value in (("cell", (0, 0)), ("track", n.track[:3]), ("vehicle_id", 9)):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(n, field, value)

    def test_a_list_of_rows_becomes_a_table(self):
        s = self.scene()[0]
        rebuilt = TrajectorySample(s.dataset_id, s.vehicle_id, s.t0_frame, s.ego_history,
                                   s.future, list(s.neighbors))
        assert isinstance(rebuilt.neighbors, NeighborTable) and rebuilt == s
        assert rebuilt.neighbors.vehicle_id.dtype == np.uint64
        assert not np.shares_memory(rebuilt.neighbors.track, s.neighbors.track)
        bare = TrajectorySample("u", 1, 0, np.zeros((4, 2)), np.zeros((2, 2)))
        assert bare.neighbors.track.shape == (0, 4, 2) and bare.neighbors.valid.shape == (0, 4)

    @pytest.mark.parametrize("changes", [
        dict(vehicle_id=-1), dict(vehicle_id=2 ** 64), dict(vehicle_id=1.5),
        dict(cell=(-1, 2)), dict(cell=(1, 2, 3)), dict(cell=(6.5, 1)),
        dict(track=np.zeros((15, 2))), dict(track=np.zeros((16, 3))),
        dict(valid=np.ones(17, bool))],
        ids=["negative-id", "id-2**64", "fractional-id", "negative-cell", "three-cell",
             "fractional-cell", "short-track", "wide-track", "long-valid"])
    def test_a_row_the_table_cannot_hold_is_rejected_at_construction(self, changes):
        s = self.scene()[0]
        with pytest.raises(ConfigurationError, match="vehicle 1 at frame 30 in 'u'"):
            replace_neighbor(s, 1, **changes)

    def test_a_table_of_another_history_length_is_rejected(self):
        s = self.scene()[0]
        with pytest.raises(ConfigurationError, match="ego history has 15 points"):
            dataclasses.replace(s, ego_history=s.ego_history[1:])


def test_the_data_path_builds_no_neighbor_rows(tmp_path, monkeypatch):
    # windowing, saving, loading, splitting and collating read and write
    # the table columns only; a spy on the row class counts every row built
    built = []
    init = NeighborTrack.__init__

    def spy(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(NeighborTrack, "__init__", spy)
    rows = []
    for vid in range(1, 13):
        rows += straight_track(vid, range(100), y0_ft=40.0 * vid, lane=1 + vid % 3)
    samples, stats = window_samples(parse_tracks(table(rows))[0], WindowConfig(stride=3))
    assert stats.neighbors_in_grid and stats.neighbors_outside
    save_samples(tmp_path / "s.bin", samples)
    loaded = load_samples(tmp_path / "s.bin")
    assert loaded == samples
    parts = split_dataset(loaded, seed=1)
    batches = [collate(part, ModelConfig()) for part in parts if part]
    assert sum(b.nbr_tracks.shape[0] for b in batches) == stats.neighbors_in_grid
    assert built == []
    loaded[0].neighbors[0]  # the spy sees a row when one is read
    assert len(built) == 1


class TestArchives:
    def build_samples(self):
        rows = straight_track(1, range(82)) + straight_track(2, range(82), y0_ft=90.0, lane=3)
        tracks, _ = parse_tracks(table(rows))
        samples, _ = window_samples(tracks, WindowConfig(), dataset_id="unit")
        assert len(samples) >= 2
        return samples

    def test_round_trip_equality(self, tmp_path):
        samples = self.build_samples()
        path = tmp_path / "samples.bin"
        save_samples(path, samples)
        assert load_samples(path) == samples

    def test_binary_detected_by_magic(self, tmp_path):
        samples = self.build_samples()
        path = tmp_path / "data.bin"
        save_samples(path, samples)
        blob = path.read_bytes()
        assert blob.startswith(SAMPLE_MAGIC) and load_samples(path) == samples
        path.write_bytes(b"X" + blob[1:])
        with pytest.raises(ConfigurationError, match="not a sample archive"):
            load_samples(path)

    def test_corrupt_text_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"vehicleId": 1}\n')
        with pytest.raises(ConfigurationError):
            load_samples(path)

    def test_outside_cell_survives_round_trip(self, tmp_path):
        samples = self.build_samples()
        samples[0] = dataclasses.replace(samples[0], neighbors=[
            *samples[0].neighbors,
            NeighborTrack(vehicle_id=99, cell=None,
                          track=np.zeros((16, 2)), valid=np.zeros(16, dtype=bool))])
        path = tmp_path / "o.bin"
        save_samples(path, samples)
        loaded = load_samples(path)
        assert loaded[0].neighbors[-1].cell is None
        assert loaded == samples

    @pytest.mark.parametrize("field", ["vehicle_id", "neighbor_id", "cell", "cell_negative",
                                       "cell_fraction", "ego_3_columns", "ego_1d",
                                       "future_3_columns", "neighbor_track_short",
                                       "neighbor_valid_short"])
    def test_field_the_layout_cannot_hold_is_rejected(self, tmp_path, field):
        # a neighbor field is rejected as the sample is built, a sample field
        # as it is saved; either way the sample is named and no file written
        samples = self.build_samples()
        bad = samples[-1]
        h, f = bad.ego_history.shape[0], bad.future.shape[0]
        n = bad.neighbors[0]
        sample_changes = {
            "vehicle_id": dict(vehicle_id=-bad.vehicle_id),
            "ego_3_columns": dict(ego_history=np.zeros((h, 3))),
            "ego_1d": dict(ego_history=np.zeros(h)),
            "future_3_columns": dict(future=np.zeros((f, 3)))}
        neighbor_changes = {
            "neighbor_id": dict(vehicle_id=2 ** 64),
            "cell": dict(cell=(2 ** 31, 0)),
            "cell_negative": dict(cell=(-1, 2)),  # would load back as outside, (-1, -1)
            "cell_fraction": dict(cell=(6.5, 1)),
            "neighbor_track_short": dict(track=n.track[:-1]),
            "neighbor_valid_short": dict(valid=n.valid[:-1])}
        vid = -bad.vehicle_id if field == "vehicle_id" else bad.vehicle_id
        path = tmp_path / "s.bin"
        with pytest.raises(ConfigurationError, match=f"vehicle {vid} at frame"):
            if field in sample_changes:
                samples[-1] = dataclasses.replace(bad, **sample_changes[field])
            else:
                samples[-1] = replace_neighbor(bad, 0, **neighbor_changes[field])
            save_samples(path, samples)
        assert not path.exists()

    def test_loaded_arrays_are_views_of_one_writable_buffer(self, tmp_path):
        path = tmp_path / "s.bin"
        save_samples(path, self.build_samples())
        loaded = load_samples(path)
        arrays = [a for s in loaded for a in (s.ego_history, s.future)]
        arrays += [a for s in loaded for n in s.neighbors for a in (n.track, n.valid)]
        roots = set()
        for a in arrays:
            assert a.flags.writeable
            while a.base is not None:
                a = a.base
            roots.add(id(a))
        assert len(roots) == 1


DATASET_IDS = ("", "unit", "Straße", "高速公路", "🚗 lane 2", "naïve")


@st.composite
def sample_lists(draw):
    """Samples of one history and one future length, with 0 to 3 neighbors
    each, cells None or in the grid, and dataset ids from a pool of mostly
    non-ASCII names."""
    h, f = draw(st.integers(0, 4)), draw(st.integers(0, 3))
    ids = st.integers(0, 2 ** 64 - 1)

    def points(n):
        return arrays(np.float64, (n, 2), elements=st.floats(allow_nan=False))

    neighbor = st.builds(
        NeighborTrack, vehicle_id=ids, track=points(h), valid=arrays(bool, (h,)),
        cell=st.none() | st.tuples(st.integers(0, 2 ** 31 - 1), st.integers(0, 2 ** 31 - 1)))
    sample = st.builds(
        TrajectorySample, dataset_id=st.sampled_from(DATASET_IDS) | st.text(max_size=3),
        vehicle_id=ids, t0_frame=st.integers(-2 ** 63, 2 ** 63 - 1),
        ego_history=points(h), future=points(f), neighbors=st.lists(neighbor, max_size=3))
    return draw(st.lists(sample, max_size=6))


def layout_of(a: np.ndarray) -> tuple:
    return a.dtype.str, a.shape, a.tobytes()


@settings(max_examples=200, deadline=None)
@given(samples=sample_lists())
@example(samples=[])
def test_any_sample_list_round_trips(tmp_path_factory, samples):
    path = tmp_path_factory.getbasetemp() / "round_trip.bin"
    save_samples(path, samples)
    loaded = load_samples(path)
    assert loaded == samples
    for s, r in zip(samples, loaded):
        assert layout_of(s.ego_history) == layout_of(r.ego_history)
        assert layout_of(s.future) == layout_of(r.future)
        for n, m in zip(s.neighbors, r.neighbors):
            assert layout_of(n.track) == layout_of(m.track)
            assert layout_of(n.valid) == layout_of(m.valid)


@pytest.fixture(scope="module")
def binary_archive(tmp_path_factory):
    """The bytes of a two-sample binary archive (one neighbor each), and a
    path to write altered copies to."""
    rows = straight_track(1, range(81)) + straight_track(2, range(81), y0_ft=90.0, lane=3)
    samples, _ = window_samples(parse_tracks(table(rows))[0], WindowConfig(), dataset_id="u")
    directory = tmp_path_factory.mktemp("archive")
    save_samples(directory / "s.bin", samples)
    assert len(samples) == 2 and all(len(s.neighbors) == 1 for s in samples)
    return (directory / "s.bin").read_bytes(), directory / "altered.bin"


class TestCorruptArchives:
    """A cut or a flipped byte either still loads or raises ConfigurationError."""

    def test_every_cut_is_rejected(self, binary_archive):
        blob, path = binary_archive
        for length in range(len(blob)):
            assert not loads_or_rejects(load_samples, blob[:length], path), length

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_single_flipped_byte_loads_or_is_rejected(self, binary_archive, data):
        blob, path = binary_archive
        altered = bytearray(blob)
        at = data.draw(st.integers(0, len(blob) - 1))
        altered[at] ^= data.draw(st.integers(1, 255))
        loads_or_rejects(load_samples, bytes(altered), path)


# the two-sample archive: a 56-byte header (counts at 16: N, 24: K, 32: H,
# 40: F), then the sections, each padded to 8 bytes: dataset id ends (8) and
# name "u" (8), dataset index (8 at 72), vehicle ids (16), anchor frames (16),
# neighbor counts (8), ego (512), future (800), neighbor ids (16), cells (16),
# valid (32) and neighbor tracks (512)
ARCHIVE_BYTES = 56 + 8 + 8 + 8 + 16 + 16 + 8 + 512 + 800 + 16 + 16 + 32 + 512
NAME_AT, INDEX_AT, COUNT_AT = 64, 72, 112
CELL_AT, VALID_AT = ARCHIVE_BYTES - 512 - 32 - 16, ARCHIVE_BYTES - 512 - 32


class TestArchiveFields:
    """The header is checked against the file size before any array is read,
    and a stored value out of its range raises ConfigurationError."""

    @pytest.mark.parametrize("field, count", [("N", 2 ** 40), ("N", 3), ("K", 2 ** 40),
                                              ("K", 3), ("H", 2 ** 40)])
    def test_count_beyond_the_file_is_rejected_before_any_read(self, binary_archive, field,
                                                               count):
        blob, path = binary_archive
        at = {"N": 16, "K": 24, "H": 32}[field]
        assert len(blob) == ARCHIVE_BYTES
        altered = bytearray(blob)
        altered[at:at + 8] = count.to_bytes(8, "little")
        path.write_bytes(bytes(altered))
        tracemalloc.start()
        try:
            with pytest.raises(ConfigurationError, match="corrupt sample archive"):
                load_samples(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 16  # the exception's own objects, no buffer

    def test_dataset_id_ends_out_of_order_are_rejected(self, binary_archive):
        blob, path = binary_archive
        path.write_bytes(blob)
        samples = load_samples(path)
        samples[1].dataset_id = "bc"
        save_samples(path, samples)  # the ids "u" and "bc" end at bytes 1 and 3
        altered = bytearray(path.read_bytes())
        altered[56:64] = (4).to_bytes(8, "little")
        path.write_bytes(bytes(altered))
        with pytest.raises(ConfigurationError, match="corrupt sample archive"):
            load_samples(path)

    def test_trailing_byte_is_rejected(self, binary_archive):
        blob, path = binary_archive
        path.write_bytes(blob + b"\0")
        with pytest.raises(ConfigurationError, match="corrupt sample archive"):
            load_samples(path)

    @pytest.mark.parametrize("h", [2 ** 40, 2 ** 62, 2 ** 64 - 1])
    def test_empty_archive_claiming_any_history_length_loads_or_is_rejected(self, tmp_path,
                                                                            h):
        path = tmp_path / "empty.bin"
        save_samples(path, [])
        altered = bytearray(path.read_bytes())
        altered[32:40] = h.to_bytes(8, "little")
        loads_or_rejects(load_samples, bytes(altered), path)

    @pytest.mark.parametrize("field", ["dataset_index", "neighbor_count", "dataset_name",
                                       "cell_row", "cell_column", "valid"])
    def test_value_out_of_range_is_rejected(self, binary_archive, field):
        at, value = {
            "dataset_index": (INDEX_AT, (1).to_bytes(4, "little")),  # one dataset id
            "neighbor_count": (COUNT_AT, (2).to_bytes(4, "little")),  # 3 where K is 2
            "dataset_name": (NAME_AT, b"\xff"),  # not utf-8
            "cell_row": (CELL_AT, (-2).to_bytes(4, "little", signed=True)),
            "cell_column": (CELL_AT + 4, (-1).to_bytes(4, "little", signed=True)),
            "valid": (VALID_AT, b"\x02"),
        }[field]
        blob, path = binary_archive
        assert len(blob) == ARCHIVE_BYTES and loads_or_rejects(load_samples, blob, path)
        altered = bytearray(blob)
        altered[at:at + len(value)] = value
        path.write_bytes(bytes(altered))
        with pytest.raises(ConfigurationError, match="corrupt sample archive"):
            load_samples(path)
