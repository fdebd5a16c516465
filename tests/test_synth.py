from dataclasses import replace

import numpy as np
import pytest

from courttrack.errors import TargetOutOfFrame, TooLarge
from courttrack.geometry import BBox, FrameDims, apply_homography
from courttrack.synth import (
    BACKGROUND_COLOR,
    MIN_COLOR_DISTANCE,
    _target_colors,
    ScenarioSpec,
    brute_force_assignment,
    generate,
)
from courttrack.rng import SplitMix64
from tests.detections import same_detections

SMALL = ScenarioSpec(n_targets=4, n_frames=10, dims=FrameDims(640, 360), seed=1)


def detections_by_target(seq):
    """Map (frame, target) -> detection bbox.

    Jitter draws are keyed by frame and target, so the same spec without
    dropout lists target i's detection at index i of every frame.
    """
    full = generate(replace(seq.spec, dropout_rate=0.0, extra_dropout=0.0)).detections
    out = {
        (t, full[t].boxes.tolist().index(box)): BBox(*box)
        for t, dets in seq.detections.items()
        for box in dets.boxes.tolist()
    }
    assert len(out) == sum(len(dets) for dets in seq.detections.values())
    return out


def same_frames(a: dict, b: dict) -> bool:
    """Whether two sequences' detections are equal, frame by frame and bit for bit."""
    return list(a) == list(b) and all(same_detections(a[t], b[t]) for t in a)


class TestGenerate:
    def test_clean_detections_equal_ground_truth(self):
        seq = generate(SMALL)
        gt_boxes = {(g.frame, g.id): g.bbox for g in seq.gt}
        det_boxes = detections_by_target(seq)
        assert set(det_boxes) == set(gt_boxes)
        for key, box in det_boxes.items():
            assert box == gt_boxes[key]

    def test_same_seed_bitwise_identical(self):
        a = generate(SMALL)
        b = generate(SMALL)
        assert a.gt == b.gt
        assert same_frames(a.detections, b.detections)
        for fa, fb in zip(a.frames, b.frames):
            assert np.array_equal(fa.data, fb.data)
        for ha, hb in zip(a.homographies, b.homographies):
            assert np.array_equal(ha.m, hb.m)

    def test_different_seed_differs(self):
        other = ScenarioSpec(n_targets=4, n_frames=10, dims=FrameDims(640, 360), seed=2)
        assert generate(SMALL).gt != generate(other).gt

    def test_pan_drifts_raw_but_not_stabilized(self):
        spec = ScenarioSpec(
            n_targets=1, n_frames=8, dims=FrameDims(640, 360), pan=(3.0, 0.0), seed=3
        )
        seq = generate(spec)
        raw = [g.bbox.centroid for g in sorted(seq.gt, key=lambda g: g.frame)]
        for t in range(1, 8):
            assert raw[t].x - raw[t - 1].x == pytest.approx(-3.0, abs=1e-9)
        stabilized = [
            apply_homography(seq.homographies[t], raw[t]) for t in range(8)
        ]
        for p in stabilized[1:]:
            assert p.x == pytest.approx(stabilized[0].x, abs=1e-9)
            assert p.y == pytest.approx(stabilized[0].y, abs=1e-9)

    def test_ground_truth_complete_despite_dropout(self):
        spec = ScenarioSpec(
            n_targets=3, n_frames=10, dims=FrameDims(640, 360), dropout_rate=0.4, seed=6
        )
        seq = generate(spec)
        assert len(seq.gt) == 30
        assert sum(len(d) for d in seq.detections.values()) < 30

    def test_many_targets_get_distinct_separated_colors(self):
        colors = _target_colors(40, seed=7)
        assert len(set(colors)) == 40
        for i, a in enumerate(colors):
            for b in colors[i + 1 :] + [BACKGROUND_COLOR]:
                assert max(abs(x - y) for x, y in zip(a, b)) >= MIN_COLOR_DISTANCE

    def test_targets_beyond_color_capacity_rejected(self):
        with pytest.raises(TooLarge):
            _target_colors(57, seed=7)

    def test_target_colors_well_separated(self):
        seq = generate(SMALL)
        colors = set()
        for t, dets in seq.detections.items():
            for box in dets.boxes.tolist():
                c = BBox(*box).centroid
                colors.add(tuple(int(v) for v in seq.frames[t].data[int(c.y), int(c.x)]))
        colors = sorted(colors)
        assert len(colors) == SMALL.n_targets
        for i in range(len(colors)):
            for j in range(i + 1, len(colors)):
                assert max(abs(a - b) for a, b in zip(colors[i], colors[j])) >= 60

    def test_infeasible_motion_rejected(self):
        spec = ScenarioSpec(
            n_targets=1,
            n_frames=50,
            dims=FrameDims(640, 360),
            motion=((40.0, 0.0),),
            seed=0,
        )
        with pytest.raises(TargetOutOfFrame):
            generate(spec)

    def test_jitter_perturbs_detection_boxes(self):
        spec = ScenarioSpec(
            n_targets=2, n_frames=5, dims=FrameDims(640, 360), jitter_sigma=1.5, seed=4
        )
        seq = generate(spec)
        gt_boxes = {(g.frame, g.id): g.bbox for g in seq.gt}
        det_boxes = detections_by_target(seq)
        assert any(det_boxes[k] != gt_boxes[k] for k in det_boxes)


class TestDegrade:
    SPEC = ScenarioSpec(n_targets=10, n_frames=40, dims=FrameDims(640, 360), seed=11)
    BASE = generate(SPEC)

    def test_zero_extra_dropout_is_identity(self):
        for rate in (0.0, 1e-9):  # no draw here falls below 1e-9
            out = generate(replace(self.SPEC, extra_dropout=rate))
            assert same_frames(out.detections, self.BASE.detections)

    def test_same_seed_same_output(self):
        a = generate(replace(self.SPEC, extra_dropout=0.1))
        b = generate(replace(self.SPEC, extra_dropout=0.1))
        assert same_frames(a.detections, b.detections)

    def test_removal_count_near_rate(self):
        out = generate(replace(self.SPEC, extra_dropout=0.1))
        removed = sum(len(d) for d in self.BASE.detections.values()) - sum(
            len(d) for d in out.detections.values()
        )
        assert 20 <= removed <= 60  # ~10% of 400, protection skews low

    def test_never_two_consecutive_gaps(self):
        out = generate(replace(self.SPEC, extra_dropout=0.25))
        present = detections_by_target(out)
        for i in range(out.spec.n_targets):
            for t in range(out.spec.n_frames - 1):
                assert (t, i) in present or (t + 1, i) in present

    def test_gt_untouched(self):
        out = generate(replace(self.SPEC, extra_dropout=0.2))
        assert out.gt == self.BASE.gt

    @pytest.mark.parametrize("seed", [3, 4, 5])
    def test_close_targets_lose_only_drawn_detections(self, seed):
        # jitter 20 on 12 boxes at 240x135 puts detections nearer to other
        # targets than to their own: matching by position would mix them up
        spec = ScenarioSpec(
            n_targets=12,
            n_frames=16,
            dims=FrameDims(240, 135),
            pan=(3.0, 1.0),
            dropout_rate=0.3,
            jitter_sigma=20.0,
            extra_dropout=0.2,
            seed=seed,
        )
        base = detections_by_target(generate(replace(spec, extra_dropout=0.0)))
        kept = detections_by_target(generate(spec))
        assert all(base.get(key) == box for key, box in kept.items())

        dropped = set(base) - set(kept)
        drawn = {
            (t, i)
            for t, i in base
            if SplitMix64(seed, 0xDE64ADE, t, i).uniform() < spec.extra_dropout
        }
        assert dropped and dropped <= drawn
        for t, i in base:
            if (t + 1, i) in base:
                assert (t, i) in kept or (t + 1, i) in kept, f"target {i} misses frames {t}, {t + 1}"


class TestBruteForceAssignment:
    def test_single_cell(self):
        pairs, total = brute_force_assignment(np.array([[0.2]]))
        assert pairs == [(0, 0)]
        assert total == 0.2

    def test_diagonal(self):
        pairs, total = brute_force_assignment(np.array([[1.0, 10.0], [10.0, 1.0]]))
        assert pairs == [(0, 0), (1, 1)]
        assert total == 2.0

    def test_rejects_large_matrices(self):
        with pytest.raises(TooLarge):
            brute_force_assignment(np.zeros((10, 3)))

    def test_rectangular_injection(self):
        pairs, total = brute_force_assignment(np.array([[5.0, 1.0, 9.0], [2.0, 8.0, 3.0]]))
        assert pairs == [(0, 1), (1, 0)]
        assert total == 3.0
