import math
import random

import numpy as np
import pytest

from courttrack.cost import ObservedBox
from courttrack.detect import Detection, Keypoint, SourceStage
from courttrack.errors import InconsistentFrameIndexing
from courttrack.geometry import FrameDims, Homography, Point2
from courttrack.imaging import FrameRaster
from courttrack.metrics import eval_mot
from courttrack.synth import ScenarioSpec, brute_force_assignment, generate
from courttrack.track import (
    CostMatrix,
    FrameObservations,
    MatchConfig,
    Track,
    match_frame,
    run_tracker,
    solve_assignment,
    write_tracks_csv,
)

DIMS = FrameDims(200, 200)
GRAY = FrameRaster.filled(DIMS, (90, 90, 90))


def mat(entries, pad=100.0) -> CostMatrix:
    return CostMatrix(np.array(entries, dtype=float), pad)


def det_box(x0, y0, x1, y1) -> Detection:
    kps = [Keypoint(0, Point2(x0, y0), 0.9), Keypoint(1, Point2(x1, y1), 0.9)]
    return Detection.from_keypoints(kps, SourceStage.EXTERNAL)


def obs_box(x0, y0, x1, y1, t, frame=GRAY) -> ObservedBox:
    return ObservedBox(det_box(x0, y0, x1, y1), Homography.identity(), frame, t)


class TestSolveAssignment:
    def test_single_cell(self):
        assert solve_assignment(mat([[0.2]])) == [(0, 0)]

    def test_diagonal_dominance(self):
        assert solve_assignment(mat([[1.0, 10.0], [10.0, 1.0]])) == [(0, 0), (1, 1)]

    def test_anti_diagonal(self):
        assert solve_assignment(mat([[10.0, 1.0], [1.0, 10.0]])) == [(0, 1), (1, 0)]

    def test_matches_brute_force_on_random_matrices(self):
        rng = random.Random(2024)
        for _ in range(80):
            rows = rng.randrange(1, 8)
            cols = rng.randrange(1, 8)
            entries = [[rng.random() for _ in range(cols)] for _ in range(rows)]
            m = mat(entries)
            pairs = solve_assignment(m)
            total = math.fsum(m.entries[r, c] for r, c in pairs)
            _, oracle_total = brute_force_assignment(m)
            assert total == oracle_total

    def test_row_constant_shift_moves_total_by_constant(self):
        entries = [[3.0, 7.0, 1.0], [4.0, 2.0, 9.0], [8.0, 5.0, 6.0]]
        base = mat(entries)
        base_total = sum(base.entries[r, c] for r, c in solve_assignment(base))
        shifted = [row[:] for row in entries]
        shifted[1] = [v + 11.0 for v in shifted[1]]
        new = mat(shifted)
        new_total = sum(new.entries[r, c] for r, c in solve_assignment(new))
        assert new_total == base_total + 11.0

    def test_column_constant_shift_moves_total_by_constant(self):
        entries = [[3.0, 7.0, 1.0], [4.0, 2.0, 9.0], [8.0, 5.0, 6.0]]
        base = mat(entries)
        base_total = sum(base.entries[r, c] for r, c in solve_assignment(base))
        shifted = [[v + (5.0 if c == 2 else 0.0) for c, v in enumerate(row)] for row in entries]
        new = mat(shifted)
        new_total = sum(new.entries[r, c] for r, c in solve_assignment(new))
        assert new_total == base_total + 5.0

    def test_ties_resolve_lexicographically(self):
        assert solve_assignment(mat([[1.0, 1.0], [1.0, 1.0]])) == [(0, 0), (1, 1)]
        assert solve_assignment(mat([[0.0] * 3] * 3)) == [(0, 0), (1, 1), (2, 2)]

    def test_wide_matrix_excludes_dummy_rows(self):
        pairs = solve_assignment(mat([[1.0, 5.0, 0.1], [5.0, 0.2, 9.0]]))
        assert pairs == [(0, 2), (1, 1)]

    def test_tall_matrix_excludes_dummy_columns(self):
        pairs = solve_assignment(mat([[9.0, 9.0], [0.1, 9.0], [9.0, 0.2]]))
        assert pairs == [(1, 0), (2, 1)]

    def test_empty_matrix(self):
        assert solve_assignment(mat(np.zeros((0, 3)))) == []

    def test_nonfinite_entries_rejected(self):
        with pytest.raises(ValueError):
            mat([[1.0, float("inf")]])


class TestMatchFrame:
    def test_identical_detection_reassociated(self):
        track = Track(0, 0, obs_box(50, 50, 70, 90, 0))
        dets = [obs_box(50, 50, 70, 90, 1)]
        result = match_frame([track], dets, MatchConfig(), DIMS)
        assert result.assignments == {0: track}
        assert result.new_tracks == []
        assert track.last_seen == 1

    def test_memory_recovers_track_missed_one_frame(self):
        track = Track(0, 0, obs_box(50, 50, 70, 90, 0))
        dets = [obs_box(50, 50, 70, 90, 2)]
        result = match_frame([track], dets, MatchConfig(memory_depth=2), DIMS)
        assert result.assignments == {0: track}
        assert sorted(track.history) == [0, 2]

    def test_t_minus_2_representative_wins_the_min(self):
        # the t-1 representative is gated out, so only the t-2 one can match
        track = Track(0, 0, obs_box(50, 50, 70, 90, 0))
        track.observe(1, obs_box(150, 150, 170, 190, 1))
        dets = [obs_box(50, 50, 70, 90, 2)]
        result = match_frame([track], dets, MatchConfig(gate=0.05), DIMS)
        assert result.assignments == {0: track}
        assert track.last_seen == 2

    def test_out_of_order_observation_rejected(self):
        track = Track(0, 3, obs_box(50, 50, 70, 90, 3))
        for t in (2, 3):
            with pytest.raises(ValueError, match="already observed"):
                track.observe(t, obs_box(50, 50, 70, 90, t))
        assert track.last_seen == 3
        assert sorted(track.history) == [3]

    def test_without_memory_track_is_retired(self):
        track = Track(0, 0, obs_box(50, 50, 70, 90, 0))
        dets = [obs_box(50, 50, 70, 90, 2)]
        result = match_frame([track], dets, MatchConfig(memory_depth=1), DIMS)
        assert result.assignments == {}
        assert result.retired == [track]
        assert len(result.new_tracks) == 1

    def test_crossing_costs_keep_identities(self):
        a = Track(0, 0, obs_box(20, 20, 40, 60, 0))
        b = Track(1, 0, obs_box(160, 20, 180, 60, 0))
        # detections arrive in swapped order
        dets = [obs_box(160, 20, 180, 60, 1), obs_box(20, 20, 40, 60, 1)]
        result = match_frame([a, b], dets, MatchConfig(), DIMS)
        assert result.assignments[0] is b
        assert result.assignments[1] is a

    def test_gated_detection_spawns_new_track(self):
        track = Track(0, 0, obs_box(10, 10, 20, 30, 0))
        dets = [obs_box(180, 180, 190, 199, 1)]
        result = match_frame([track], dets, MatchConfig(gate=0.05), DIMS)
        assert result.assignments == {}
        assert len(result.new_tracks) == 1
        assert result.new_tracks[0].id == 1

    def test_empty_frame_still_retires(self):
        track = Track(0, 0, obs_box(10, 10, 20, 30, 0))
        result = match_frame([track], [], MatchConfig(memory_depth=1), DIMS, t=3)
        assert result.retired == [track]


def single_target_sequence(n_frames, skip=frozenset(), dims=DIMS):
    frames = []
    for t in range(n_frames):
        dets = [] if t in skip else [det_box(50.0, 50.0, 70.0, 90.0)]
        frames.append(FrameObservations(t, dets, Homography.identity(), GRAY))
    return frames


class TestRunTracker:
    def test_single_stationary_target(self):
        tracks = run_tracker(single_target_sequence(10))
        assert len(tracks) == 1
        assert sorted(tracks[0].history) == list(range(10))

    def test_two_separated_targets_no_switches(self):
        spec = ScenarioSpec(
            n_targets=2,
            n_frames=20,
            dims=FrameDims(640, 360),
            motion=((2.0, 0.0), (-2.0, 0.0)),
            seed=5,
        )
        seq = generate(spec)
        tracks = run_tracker(seq.frame_observations())
        assert len(tracks) == 2
        report = eval_mot(seq.gt, tracks)
        assert report.mota == 1.0
        assert report.id_switches == 0

    def test_single_frame_dropout_bridged_by_memory(self):
        tracks = run_tracker(single_target_sequence(10, skip={5}), MatchConfig(memory_depth=2))
        assert len(tracks) == 1
        assert 5 not in tracks[0].history

    def test_single_frame_dropout_splits_without_memory(self):
        tracks = run_tracker(single_target_sequence(10, skip={5}), MatchConfig(memory_depth=1))
        assert len(tracks) == 2

    def test_infinite_gate_single_detection_single_track(self):
        frames = []
        rng = random.Random(3)
        for t in range(12):
            x, y = rng.uniform(5, 150), rng.uniform(5, 150)
            frames.append(
                FrameObservations(
                    t, [det_box(x, y, x + 20.0, y + 40.0)], Homography.identity(), GRAY
                )
            )
        tracks = run_tracker(frames, MatchConfig(gate=math.inf))
        assert len(tracks) == 1

    def test_every_detection_in_exactly_one_track(self):
        spec = ScenarioSpec(n_targets=4, n_frames=15, dims=FrameDims(640, 360), seed=2, dropout_rate=0.15)
        seq = generate(spec)
        tracks = run_tracker(seq.frame_observations())
        total_dets = sum(len(d) for d in seq.detections.values())
        assert sum(len(tr.history) for tr in tracks) == total_dets
        for tr in tracks:
            frames = sorted(tr.history)
            assert all(b - a <= 2 for a, b in zip(frames, frames[1:]))  # gaps <= depth-1 missed

    def test_no_duplicate_track_per_frame(self):
        spec = ScenarioSpec(n_targets=5, n_frames=12, dims=FrameDims(640, 360), seed=9)
        seq = generate(spec)
        tracks = run_tracker(seq.frame_observations())
        for t in range(spec.n_frames):
            ids = [tr.id for tr in tracks if t in tr.history]
            assert len(ids) == len(set(ids))

    def test_new_ids_follow_detection_order(self):
        frames = [
            FrameObservations(
                0,
                [det_box(10, 10, 30, 50), det_box(100, 100, 120, 140)],
                Homography.identity(),
                GRAY,
            )
        ]
        tracks = run_tracker(frames)
        by_id = {tr.id: tr for tr in tracks}
        assert by_id[0].history[0].detection.bbox.x_min == 10
        assert by_id[1].history[0].detection.bbox.x_min == 100

    def test_inconsistent_indexing_rejected(self):
        frames = [
            FrameObservations(0, [], Homography.identity(), GRAY),
            FrameObservations(2, [], Homography.identity(), GRAY),
        ]
        with pytest.raises(InconsistentFrameIndexing):
            run_tracker(frames)

    def test_id_stability_when_cross_costs_exceed_gate(self):
        # single-frame dropouts only, and a gate below every inter-target
        # cost: two-frame memory must produce zero switches
        from courttrack.metrics import eval_mot
        from courttrack.synth import degrade

        spec = ScenarioSpec(n_targets=4, n_frames=30, dims=FrameDims(640, 360), seed=13)
        seq = degrade(generate(spec), extra_dropout=0.15, seed=13)
        cfg = MatchConfig(gate=0.1, memory_depth=2)
        tracks = run_tracker(seq.frame_observations(), cfg)
        report = eval_mot(seq.gt, tracks)
        assert report.id_switches == 0


class TestTracksCsv:
    def test_csv_layout(self, tmp_path):
        tracks = run_tracker(single_target_sequence(2))
        path = tmp_path / "tracks.csv"
        write_tracks_csv(tracks, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "frame,id,x_min,y_min,width,height"
        assert lines[1] == "0,0,50.0,50.0,20.0,40.0"
        assert lines[2] == "1,0,50.0,50.0,20.0,40.0"
