import dataclasses
import gc
import math
import random
import weakref

import numpy as np
import pytest

from courttrack import track
from courttrack.cli import decode_frames
from courttrack.cost import Features, features
from courttrack.geometry import FrameDims, Homography
from courttrack.imaging import PatchWindow, write_ppm
from courttrack.metrics import NO_BOXES, eval_mot_records, write_mot_csv
from courttrack.synth import ScenarioSpec, generate
from courttrack.track import FrameObservations, MatchConfig, match_frame, run_tracker
from tests.detections import box_det, frame_of
from tests.oracles import BBox, filled, observations, records_of

DIMS = FrameDims(200, 200)
GRAY = filled(DIMS, (90, 90, 90))


def frame_features(*boxes) -> Features:
    """Features of one frame's detections, one per (x0, y0, x1, y1) box."""
    return features(frame_of(*(box_det(*b) for b in boxes)), Homography.identity(), GRAY)


def buffer_owner(arr):
    """The object at the root of an array's base chain; for a decoded
    raster, the memoryview of its file's map."""
    while isinstance(arr, np.ndarray):
        arr = arr.base
    return arr


def frames_by_id(tracks) -> dict[int, list[int]]:
    """The frames of each id's rows, ids in order."""
    frames: dict[int, list[int]] = {}
    for t in sorted(tracks):
        for track_id in tracks[t].ids.tolist():
            frames.setdefault(track_id, []).append(t)
    return dict(sorted(frames.items()))


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
        tracks = run_tracker(frames, MatchConfig(gate=0.05))
        assert [(t, f.ids.tolist()) for t, f in tracks.items()] == [(0, [0]), (1, [1])]

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
        rows = run_tracker(observations(seq))
        assert len(frames_by_id(rows)) == 2
        report = eval_mot_records(seq.gt, rows)
        assert report.mota == 1.0
        assert report.id_switches == 0

    def test_single_frame_dropout_bridged_by_memory(self):
        rows = run_tracker(single_target_sequence(10, skip={5}), MatchConfig(memory_depth=2))
        assert frames_by_id(rows) == {0: [0, 1, 2, 3, 4, 6, 7, 8, 9]}

    def test_frames_without_detections_have_no_entry(self):
        frames = single_target_sequence(6, skip={0, 3})
        tracks = run_tracker(frames)
        assert list(tracks) == [1, 2, 4, 5]
        for t, f in tracks.items():
            assert f.ids.dtype == np.int64 and f.ids.shape == (1,)
            assert f.boxes is frames[t].detections.boxes

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

    def test_patch_beyond_the_first_frame_rejected_before_any_patch(self, monkeypatch):
        raster = filled(FrameDims(7, 5), (9, 9, 9))
        small = FrameObservations(frame_of(box_det(5.0, 5.0, 9.0, 9.0)), Homography.identity(), raster)
        called = []
        monkeypatch.setattr(track, "features", lambda *args: called.append(args))
        with pytest.raises(ValueError, match="patch half-extent 8 exceeds frame 0's larger side, 7 px"):
            run_tracker([small], MatchConfig(patch=PatchWindow(8)))
        assert not called

    def test_frame_of_another_size_rejected_before_its_patches(self, monkeypatch):
        seq = generate(ScenarioSpec(n_targets=3, n_frames=3, dims=FrameDims(160, 90), seed=1))
        frames = observations(seq)
        frames[1] = dataclasses.replace(frames[1], raster=filled(FrameDims(500, 300), (9, 9, 9)))
        cut, extract = [], track.features

        def recording(dets, homography, raster, patch):
            cut.append(raster.dims)
            return extract(dets, homography, raster, patch)

        monkeypatch.setattr(track, "features", recording)
        with pytest.raises(ValueError, match=r"^frame 1 is 500x300, frame 0 is 160x90$"):
            run_tracker(frames)
        assert cut == [FrameDims(160, 90)]

    def test_patch_equal_to_the_larger_side_tracks(self):
        raster = filled(FrameDims(7, 5), (9, 9, 9))
        frames = [FrameObservations(frame_of(box_det(1.0, 1.0, 5.0, 4.0)), Homography.identity(), raster)] * 3
        assert frames_by_id(run_tracker(frames, MatchConfig(patch=PatchWindow(7)))) == {0: [0, 1, 2]}

    def test_nan_gate_rejected(self):
        with pytest.raises(ValueError):
            MatchConfig(gate=math.nan)

    def test_every_detection_in_exactly_one_track(self):
        spec = ScenarioSpec(n_targets=4, n_frames=15, dims=FrameDims(640, 360), seed=2, dropout_rate=0.15)
        seq = generate(spec)
        rows = run_tracker(observations(seq))
        assert [(r.frame, r.bbox) for r in records_of(rows)] == [
            (t, BBox(*box)) for t in range(spec.n_frames) for box in seq.detections[t].boxes.tolist()
        ]
        for frames in frames_by_id(rows).values():
            assert all(b - a <= 2 for a, b in zip(frames, frames[1:]))  # gaps <= depth-1 missed

    def test_no_duplicate_track_per_frame(self):
        spec = ScenarioSpec(n_targets=5, n_frames=12, dims=FrameDims(640, 360), seed=9)
        seq = generate(spec)
        tracks = run_tracker(observations(seq))
        for t in range(spec.n_frames):
            ids = tracks.get(t, NO_BOXES).ids.tolist()
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
        assert [(r.frame, r.id, r.bbox.x_min) for r in records_of(rows)] == [(0, 0, 10), (0, 1, 100)]

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
                raster = filled(DIMS, (90, 90, 90))
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
            write_ppm(filled(DIMS, (90, 90, 90)), paths[-1])
        detections = {t: frame_of(box_det(50.0, 50.0, 70.0, 90.0)) for t in range(20)}
        homographies = {t: Homography.identity() for t in range(20)}
        rasters, maps = [], []
        alive_before = []

        def frames():
            for obs in decode_frames(paths, detections.items(), homographies, PatchWindow()):
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
        rows = run_tracker(observations(seq), cfg)
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
