import gc
import math
import random
import weakref

import numpy as np
import pytest

from courttrack.cli import decode_frames
from courttrack.cost import Features, features
from courttrack.geometry import BBox, FrameDims, Homography
from courttrack.imaging import FrameRaster, write_ppm
from courttrack.metrics import eval_mot_records, write_mot_csv
from courttrack.synth import ScenarioSpec, brute_force_assignment, generate
from courttrack.track import (
    FrameObservations,
    MatchConfig,
    match_frame,
    run_tracker,
    solve_assignment,
)
from tests.detections import box_det, frame_of

DIMS = FrameDims(200, 200)
GRAY = FrameRaster.filled(DIMS, (90, 90, 90))


def solve(entries) -> list[tuple[int, int]]:
    return solve_assignment(np.array(entries, dtype=float))


def frame_features(*boxes) -> Features:
    """Features of one frame's detections, one per (x0, y0, x1, y1) box."""
    return features(frame_of(*(box_det(*b) for b in boxes)), Homography.identity(), GRAY)


def buffer_owner(arr):
    """The object at the root of an array's base chain; for a decoded
    raster, the memoryview of its file's map."""
    while isinstance(arr, np.ndarray):
        arr = arr.base
    return arr


def frames_by_id(rows) -> dict[int, list[int]]:
    """The frames of each id's rows, ids in order."""
    frames: dict[int, list[int]] = {}
    for row in sorted(rows, key=lambda r: (r.id, r.frame)):
        frames.setdefault(row.id, []).append(row.frame)
    return frames


class TestSolveAssignment:
    def test_single_cell(self):
        assert solve([[0.2]]) == [(0, 0)]

    def test_diagonal_dominance(self):
        assert solve([[1.0, 10.0], [10.0, 1.0]]) == [(0, 0), (1, 1)]

    def test_anti_diagonal(self):
        assert solve([[10.0, 1.0], [1.0, 10.0]]) == [(0, 1), (1, 0)]

    def test_matches_brute_force_on_random_matrices(self):
        rng = random.Random(2024)
        for _ in range(80):
            rows = rng.randrange(1, 8)
            cols = rng.randrange(1, 8)
            entries = [[rng.random() for _ in range(cols)] for _ in range(rows)]
            m = np.array(entries)
            pairs = solve_assignment(m)
            total = math.fsum(m[r, c] for r, c in pairs)
            _, oracle_total = brute_force_assignment(m)
            assert total == oracle_total

    def test_row_constant_shift_moves_total_by_constant(self):
        entries = [[3.0, 7.0, 1.0], [4.0, 2.0, 9.0], [8.0, 5.0, 6.0]]
        base = np.array(entries)
        base_total = sum(base[r, c] for r, c in solve(base))
        shifted = [row[:] for row in entries]
        shifted[1] = [v + 11.0 for v in shifted[1]]
        new = np.array(shifted)
        new_total = sum(new[r, c] for r, c in solve(new))
        assert new_total == base_total + 11.0

    def test_column_constant_shift_moves_total_by_constant(self):
        entries = [[3.0, 7.0, 1.0], [4.0, 2.0, 9.0], [8.0, 5.0, 6.0]]
        base = np.array(entries)
        base_total = sum(base[r, c] for r, c in solve(base))
        shifted = [[v + (5.0 if c == 2 else 0.0) for c, v in enumerate(row)] for row in entries]
        new = np.array(shifted)
        new_total = sum(new[r, c] for r, c in solve(new))
        assert new_total == base_total + 5.0

    def test_ties_resolve_lexicographically(self):
        # scipy's tie rules give the identity on a constant matrix
        assert solve([[1.0, 1.0], [1.0, 1.0]]) == [(0, 0), (1, 1)]
        assert solve([[0.0] * 3] * 3) == [(0, 0), (1, 1), (2, 2)]

    def test_wide_matrix_excludes_dummy_rows(self):
        pairs = solve([[1.0, 5.0, 0.1], [5.0, 0.2, 9.0]])
        assert pairs == [(0, 2), (1, 1)]

    def test_tall_matrix_excludes_dummy_columns(self):
        pairs = solve([[9.0, 9.0], [0.1, 9.0], [9.0, 0.2]])
        assert pairs == [(1, 0), (2, 1)]

    def test_empty_matrix(self):
        assert solve(np.zeros((0, 3))) == []

    def test_nonfinite_entries_rejected(self):
        with pytest.raises(ValueError):
            solve([[1.0, float("nan")]])
        assert solve([[float("inf"), 1.0], [0.5, 2.0]]) == [(0, 1), (1, 0)]


A = (50, 50, 70, 90)


class TestMatchFrame:
    def test_identical_detection_reassociated(self):
        window = [(frame_features(A), [0])]
        assert match_frame(window, frame_features(A), MatchConfig(), DIMS) == {0: 0}

    def test_memory_recovers_track_missed_one_frame(self):
        window = [(frame_features(A), [0]), (frame_features(), [])]
        matched = match_frame(window, frame_features(A), MatchConfig(memory_depth=2), DIMS)
        assert matched == {0: 0}

    def test_t_minus_2_representative_wins_the_min(self):
        # the t-1 representative is gated out, so only the t-2 one can match
        window = [(frame_features(A), [0]), (frame_features((150, 150, 170, 190)), [0])]
        matched = match_frame(window, frame_features(A), MatchConfig(gate=0.05), DIMS)
        assert matched == {0: 0}

    def test_without_memory_track_is_retired(self):
        # memory depth 1 after a missed frame: the window holds only that empty frame
        assert match_frame([(frame_features(), [])], frame_features(A), MatchConfig(), DIMS) == {}

    def test_crossing_costs_keep_identities(self):
        left, right = (20, 20, 40, 60), (160, 20, 180, 60)
        window = [(frame_features(left, right), [0, 1])]
        # detections arrive in swapped order
        matched = match_frame(window, frame_features(right, left), MatchConfig(), DIMS)
        assert matched == {0: 1, 1: 0}

    def test_ties_go_to_tracks_in_id_order(self):
        # eligible ids are taken in increasing order, not in their order in the window
        window = [(frame_features(*[A] * 8), list(range(8))[::-1])]
        matched = match_frame(window, frame_features(A, A, A), MatchConfig(), DIMS)
        assert matched == {0: 0, 1: 1, 2: 2}

    def test_gated_detection_spawns_new_track(self):
        near, far = (10, 10, 20, 30), (180, 180, 190, 199)
        window = [(frame_features(near), [0])]
        assert match_frame(window, frame_features(far), MatchConfig(gate=0.05), DIMS) == {}
        frames = [
            FrameObservations(frame_of(box_det(*near)), Homography.identity(), GRAY),
            FrameObservations(frame_of(box_det(*far)), Homography.identity(), GRAY),
        ]
        rows = run_tracker(frames, MatchConfig(gate=0.05))
        assert [(r.frame, r.id) for r in rows] == [(0, 0), (1, 1)]

    def test_empty_frame_still_retires(self):
        # two frames without detections push the id out of a depth-2 window
        rows = run_tracker(single_target_sequence(10, skip={5, 6}), MatchConfig(memory_depth=2))
        assert frames_by_id(rows) == {0: [0, 1, 2, 3, 4], 1: [7, 8, 9]}

    def test_empty_window_or_frame_matches_nothing(self):
        assert match_frame([], frame_features(A), MatchConfig(), DIMS) == {}
        assert match_frame([(frame_features(A), [0])], frame_features(), MatchConfig(), DIMS) == {}


def single_target_sequence(n_frames, skip=frozenset(), dims=DIMS):
    frames = []
    for t in range(n_frames):
        dets = frame_of() if t in skip else frame_of(box_det(50.0, 50.0, 70.0, 90.0))
        frames.append(FrameObservations(dets, Homography.identity(), GRAY))
    return frames


class TestRunTracker:
    def test_single_stationary_target(self):
        rows = run_tracker(single_target_sequence(10))
        assert frames_by_id(rows) == {0: list(range(10))}

    def test_two_separated_targets_no_switches(self):
        spec = ScenarioSpec(
            n_targets=2,
            n_frames=20,
            dims=FrameDims(640, 360),
            motion=((2.0, 0.0), (-2.0, 0.0)),
            seed=5,
        )
        seq = generate(spec)
        rows = run_tracker(seq.frame_observations())
        assert len(frames_by_id(rows)) == 2
        report = eval_mot_records(seq.gt, rows)
        assert report.mota == 1.0
        assert report.id_switches == 0

    def test_single_frame_dropout_bridged_by_memory(self):
        rows = run_tracker(single_target_sequence(10, skip={5}), MatchConfig(memory_depth=2))
        assert frames_by_id(rows) == {0: [0, 1, 2, 3, 4, 6, 7, 8, 9]}

    def test_single_frame_dropout_splits_without_memory(self):
        rows = run_tracker(single_target_sequence(10, skip={5}), MatchConfig(memory_depth=1))
        assert frames_by_id(rows) == {0: [0, 1, 2, 3, 4], 1: [6, 7, 8, 9]}

    def test_infinite_gate_single_detection_single_track(self):
        frames = []
        rng = random.Random(3)
        for _ in range(12):
            x, y = rng.uniform(5, 150), rng.uniform(5, 150)
            frames.append(
                FrameObservations(frame_of(box_det(x, y, x + 20.0, y + 40.0)), Homography.identity(), GRAY)
            )
        rows = run_tracker(frames, MatchConfig(gate=math.inf))
        assert frames_by_id(rows) == {0: list(range(12))}

    def test_nan_gate_rejected(self):
        with pytest.raises(ValueError):
            MatchConfig(gate=math.nan)

    def test_every_detection_in_exactly_one_track(self):
        spec = ScenarioSpec(n_targets=4, n_frames=15, dims=FrameDims(640, 360), seed=2, dropout_rate=0.15)
        seq = generate(spec)
        rows = run_tracker(seq.frame_observations())
        assert [(r.frame, r.bbox) for r in rows] == [
            (t, BBox(*box)) for t in range(spec.n_frames) for box in seq.detections[t].boxes.tolist()
        ]
        for frames in frames_by_id(rows).values():
            assert all(b - a <= 2 for a, b in zip(frames, frames[1:]))  # gaps <= depth-1 missed

    def test_no_duplicate_track_per_frame(self):
        spec = ScenarioSpec(n_targets=5, n_frames=12, dims=FrameDims(640, 360), seed=9)
        seq = generate(spec)
        rows = run_tracker(seq.frame_observations())
        for t in range(spec.n_frames):
            ids = [r.id for r in rows if r.frame == t]
            assert len(ids) == len(set(ids))

    def test_new_ids_follow_detection_order(self):
        frames = [
            FrameObservations(
                frame_of(box_det(10, 10, 30, 50), box_det(100, 100, 120, 140)),
                Homography.identity(),
                GRAY,
            )
        ]
        rows = run_tracker(frames)
        assert [(r.frame, r.id, r.bbox.x_min) for r in rows] == [(0, 0, 10), (0, 1, 100)]

    def test_streamed_frames_release_their_rasters(self):
        # one target stays for all 30 frames, one leaves after frame 9 and
        # is retired; each frame decodes into its own raster, and when frame
        # t is yielded at most the raster of frame t-1 may still be alive
        rasters = []
        alive_before = []

        def frames():
            for t in range(30):
                gc.collect()
                alive_before.append(sum(ref() is not None for ref in rasters))
                raster = FrameRaster.filled(DIMS, (90, 90, 90))
                rasters.append(weakref.ref(raster.data))
                dets = [box_det(50.0, 50.0, 70.0, 90.0)]
                if t < 10:
                    dets.append(box_det(120.0, 120.0, 140.0, 160.0))
                yield FrameObservations(frame_of(*dets), Homography.identity(), raster)

        rows = run_tracker(frames(), MatchConfig())
        assert frames_by_id(rows) == {0: list(range(30)), 1: list(range(10))}
        assert len(alive_before) == 30
        assert max(alive_before) <= 1

    def test_decoded_frames_release_their_mappings(self, tmp_path):
        # each decoded raster views its own mapped frame file; the same bound
        # holds for the rasters and for the memoryviews that hold the maps
        paths = []
        for t in range(20):
            paths.append(tmp_path / f"frame_{t:06d}.ppm")
            write_ppm(FrameRaster.filled(DIMS, (90, 90, 90)), paths[-1])
        detections = {t: frame_of(box_det(50.0, 50.0, 70.0, 90.0)) for t in range(20)}
        homographies = {t: Homography.identity() for t in range(20)}
        rasters, maps = [], []
        alive_before = []

        def frames():
            for obs in decode_frames(paths, detections, homographies):
                gc.collect()
                alive_before.append(
                    (sum(ref() is not None for ref in rasters), sum(ref() is not None for ref in maps))
                )
                rasters.append(weakref.ref(obs.raster.data))
                maps.append(weakref.ref(buffer_owner(obs.raster.data)))
                yield obs

        rows = run_tracker(frames(), MatchConfig())
        assert frames_by_id(rows) == {0: list(range(20))}
        assert len(alive_before) == 20
        assert max(max(counts) for counts in alive_before) <= 1
        gc.collect()
        assert all(ref() is None for ref in rasters + maps)

    def test_id_stability_when_cross_costs_exceed_gate(self):
        # single-frame dropouts only, and a gate below every inter-target
        # cost: two-frame memory must produce zero switches
        spec = ScenarioSpec(
            n_targets=4, n_frames=30, dims=FrameDims(640, 360), extra_dropout=0.15, seed=13
        )
        seq = generate(spec)
        cfg = MatchConfig(gate=0.1, memory_depth=2)
        rows = run_tracker(seq.frame_observations(), cfg)
        report = eval_mot_records(seq.gt, rows)
        assert report.id_switches == 0


class TestTracksCsv:
    def test_csv_layout(self, tmp_path):
        path = tmp_path / "tracks.csv"
        write_mot_csv(run_tracker(single_target_sequence(2)), path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "frame,id,x_min,y_min,width,height"
        assert lines[1] == "0,0,50.0,50.0,20.0,40.0"
        assert lines[2] == "1,0,50.0,50.0,20.0,40.0"
