import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from courttrack.cost import (
    CostWeights,
    ObservedBox,
    cost_content,
    cost_distance,
    cost_iou,
    cost_matrix,
    default_weights,
    similarity_cost,
)
from courttrack.detect import Detection, Keypoint, SourceStage
from courttrack.geometry import FrameDims, Homography, Point2
from courttrack.imaging import FrameRaster, PatchWindow

DIMS = FrameDims(1920, 1080)


def det_with_parts(parts: list[tuple[int, float, float]]) -> Detection:
    kps = [Keypoint(pid, Point2(x, y), 0.9) for pid, x, y in parts]
    return Detection.from_keypoints(kps, SourceStage.EXTERNAL)


def gray(dims=DIMS, value=(90, 90, 90)) -> FrameRaster:
    return FrameRaster.filled(dims, value)


def obs(detection, homography=None, frame=None, t=0) -> ObservedBox:
    return ObservedBox(
        detection,
        homography or Homography.identity(),
        frame if frame is not None else gray(),
        t,
    )


class TestCostWeights:
    def test_paper_defaults(self):
        w = default_weights()
        assert (w.alpha, w.beta, w.gamma) == (0.65, 0.05, pytest.approx(0.3))

    def test_combination_arithmetic(self):
        w = default_weights()
        assert w.alpha * 0.1 + w.beta * 1.0 + w.gamma * 0.5 == pytest.approx(0.265)

    def test_gamma_derived_and_validated(self):
        assert CostWeights(0.2, 0.3).gamma == pytest.approx(0.5)
        with pytest.raises(ValueError):
            CostWeights(0.9, 0.3)
        with pytest.raises(ValueError):
            CostWeights(1.2, 0.0)


class TestCostDistance:
    def test_same_box_identity_is_zero(self):
        a = obs(det_with_parts([(0, 100.0, 100.0), (1, 140.0, 180.0)]))
        assert cost_distance(a, a, DIMS) == 0.0

    def test_opposite_corners_is_one(self):
        a = obs(det_with_parts([(0, 0.0, 0.0)]))
        b = obs(det_with_parts([(0, 1920.0, 1080.0)]), t=1)
        assert cost_distance(a, b, DIMS) == pytest.approx(1.0, rel=1e-15)

    def test_pan_cancelling_homographies(self):
        # stationary target, camera pans (7, 3) px/frame; H_t undoes the pan
        world = [(0, 100.0, 100.0), (1, 140.0, 180.0)]
        observations = []
        for t in range(6):
            shifted = [(pid, x - 7.0 * t, y - 3.0 * t) for pid, x, y in world]
            observations.append(
                obs(det_with_parts(shifted), Homography.translation(7.0 * t, 3.0 * t), t=t)
            )
        for i in range(6):
            for j in range(6):
                assert cost_distance(observations[i], observations[j], DIMS) <= 1e-9

    def test_rigid_motion_on_both_sides_preserves_distance(self):
        rng = random.Random(21)
        g = Homography.rotation(0.3).compose(Homography.translation(12.0, -5.0))
        for _ in range(30):
            a = obs(
                det_with_parts([(0, rng.uniform(0, 800), rng.uniform(0, 800))]),
                Homography.translation(rng.uniform(-5, 5), rng.uniform(-5, 5)),
            )
            b = obs(
                det_with_parts([(0, rng.uniform(0, 800), rng.uniform(0, 800))]),
                Homography.translation(rng.uniform(-5, 5), rng.uniform(-5, 5)),
                t=1,
            )
            base = cost_distance(a, b, DIMS)
            moved_a = ObservedBox(a.detection, g.compose(a.homography), a.frame, a.t)
            moved_b = ObservedBox(b.detection, g.compose(b.homography), b.frame, b.t)
            assert cost_distance(moved_a, moved_b, DIMS) == pytest.approx(base, abs=1e-12)


class TestCostIou:
    def test_identical_boxes_zero(self):
        a = obs(det_with_parts([(0, 10.0, 10.0), (1, 60.0, 120.0)]))
        assert cost_iou(a, a) == 0.0

    def test_disjoint_boxes_one(self):
        a = obs(det_with_parts([(0, 0.0, 0.0), (1, 10.0, 10.0)]))
        b = obs(det_with_parts([(0, 500.0, 500.0), (1, 510.0, 510.0)]), t=1)
        assert cost_iou(a, b) == 1.0

    def test_third_overlap_gives_two_thirds(self):
        a = obs(det_with_parts([(0, 0.0, 0.0), (1, 10.0, 10.0)]))
        b = obs(det_with_parts([(0, 5.0, 0.0), (1, 15.0, 10.0)]), t=1)
        assert cost_iou(a, b) == pytest.approx(2.0 / 3.0, rel=1e-15)


class TestCostContent:
    def test_same_observation_is_zero(self):
        frame = gray()
        a = obs(det_with_parts([(0, 100.0, 100.0), (5, 300.0, 300.0)]), frame=frame)
        assert cost_content(a, a) == 0.0

    def test_no_shared_parts_is_one(self):
        a = obs(det_with_parts([(0, 100.0, 100.0), (1, 150.0, 150.0)]))
        b = obs(det_with_parts([(5, 100.0, 100.0), (6, 150.0, 150.0)]), t=1)
        assert cost_content(a, b) == 1.0

    def test_two_parts_with_planted_diffs_average(self):
        # part 0 patches differ by 51 (0.2), part 5 patches by 102 (0.4)
        dims = FrameDims(600, 200)
        f1 = gray(dims, (0, 0, 0))
        arr = np.zeros((200, 600, 3), dtype=np.uint8)
        arr[:, :300] = 51
        arr[:, 300:] = 102
        f2 = FrameRaster(arr)
        a = obs(det_with_parts([(0, 100.0, 100.0), (5, 450.0, 100.0)]), frame=f1)
        b = obs(det_with_parts([(0, 100.0, 100.0), (5, 450.0, 100.0)]), frame=f2, t=1)
        assert cost_content(a, b) == pytest.approx(0.3, rel=1e-12)

    def test_part_without_comparable_pixels_counts_as_one(self):
        a = obs(det_with_parts([(0, -500.0, 50.0)]))
        b = obs(det_with_parts([(0, 50.0, 50.0)]), t=1)
        assert cost_content(a, b) == 1.0

    def test_symmetry(self):
        rng = np.random.default_rng(2)
        f1 = FrameRaster(rng.integers(0, 256, (100, 100, 3), dtype=np.uint8))
        f2 = FrameRaster(rng.integers(0, 256, (100, 100, 3), dtype=np.uint8))
        a = obs(det_with_parts([(0, 20.0, 20.0), (3, 70.0, 60.0)]), frame=f1)
        b = obs(det_with_parts([(0, 40.0, 30.0), (3, 60.0, 80.0)]), frame=f2, t=1)
        assert cost_content(a, b) == cost_content(b, a)


def random_observation(rng: random.Random, frame: FrameRaster, t: int) -> ObservedBox:
    n_parts = rng.randrange(1, 6)
    parts = []
    ids = rng.sample(range(17), n_parts)
    for pid in ids:
        parts.append((pid, rng.uniform(5, 1915), rng.uniform(5, 1075)))
    return ObservedBox(det_with_parts(parts), Homography.identity(), frame, t)


class TestSimilarityCost:
    def test_identical_observation_is_zero(self):
        a = obs(det_with_parts([(0, 100.0, 100.0), (1, 160.0, 230.0)]))
        assert similarity_cost(a, a, default_weights(), DIMS) <= 1e-12

    def test_termwise_recomposition(self):
        rng = random.Random(77)
        rng_px = np.random.default_rng(7)
        f1 = FrameRaster(rng_px.integers(0, 256, (1080, 1920, 3), dtype=np.uint8))
        f2 = FrameRaster(rng_px.integers(0, 256, (1080, 1920, 3), dtype=np.uint8))
        w = default_weights()
        win = PatchWindow()
        for _ in range(40):
            a = random_observation(rng, f1, 0)
            b = random_observation(rng, f2, 1)
            combined = similarity_cost(a, b, w, DIMS, win)
            expected = (
                w.alpha * cost_distance(a, b, DIMS)
                + w.beta * cost_iou(a, b)
                + w.gamma * cost_content(a, b, win)
            )
            assert combined == pytest.approx(expected, abs=1e-12)

    def test_symmetric(self):
        rng = random.Random(99)
        f = gray()
        w = default_weights()
        for _ in range(20):
            a = random_observation(rng, f, 0)
            b = random_observation(rng, f, 1)
            assert similarity_cost(a, b, w, DIMS) == similarity_cost(b, a, w, DIMS)

    def test_in_frame_pairs_bounded_by_unit_interval(self):
        rng = random.Random(123)
        f = gray()
        w = default_weights()
        for _ in range(100):
            a = random_observation(rng, f, 0)
            b = random_observation(rng, f, 1)
            c = similarity_cost(a, b, w, DIMS)
            assert 0.0 <= c <= 1.0

    def test_strictly_increasing_in_distance_term(self):
        # overlap stays 1 (disjoint), content stays 0 (uniform frames)
        f = gray()
        w = default_weights()
        a = obs(det_with_parts([(0, 100.0, 100.0), (1, 120.0, 140.0)]), frame=f)
        costs = []
        for shift in (300.0, 500.0, 700.0):
            b = obs(
                det_with_parts([(0, 100.0 + shift, 100.0), (1, 120.0 + shift, 140.0)]),
                frame=f,
                t=1,
            )
            costs.append(similarity_cost(a, b, w, DIMS))
        assert costs[0] < costs[1] < costs[2]


@st.composite
def frames(draw) -> FrameRaster:
    w, h = draw(st.integers(1, 48)), draw(st.integers(1, 48))
    pixels = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return FrameRaster(pixels.integers(0, 256, (h, w, 3), dtype=np.uint8))


homographies = st.one_of(
    st.just(Homography.identity()),
    st.tuples(
        *[st.floats(0.8, 1.2)] * 2,
        *[st.floats(-0.2, 0.2)] * 2,
        *[st.floats(-15.0, 15.0)] * 2,
        *[st.floats(-1e-3, 1e-3)] * 2,
    ).map(
        lambda v: Homography([[v[0], v[2], v[4]], [v[3], v[1], v[5]], [v[6], v[7], 1.0]])
    ),
)


@st.composite
def observations(draw, frame: FrameRaster, homography: Homography, reach: int) -> ObservedBox:
    """Keypoints of a random part subset, up to `reach` pixels beyond the frame.

    A third of the coordinates are whole and a third end in .5, where
    keypoint rounding breaks ties.
    """
    parts = sorted(draw(st.sets(st.integers(0, 16), min_size=1, max_size=17)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    d = frame.dims
    xy = rng.uniform(-reach, [d.w + reach, d.h + reach], size=(len(parts), 2))
    snap = rng.integers(0, 3, size=xy.shape)  # 0: as drawn, 1: whole, 2: halves
    scale = np.maximum(snap, 1)
    xy = np.where(snap == 0, xy, np.round(xy * scale) / scale)
    kps = [Keypoint(p, Point2(float(x), float(y)), 0.9) for p, (x, y) in zip(parts, xy)]
    return ObservedBox(Detection.from_keypoints(kps, SourceStage.EXTERNAL), homography, frame)


@st.composite
def scored_frames(draw):
    """Detections of one frame against representatives from up to two others."""
    win = draw(st.sampled_from([PatchWindow(1), PatchWindow()]))
    reach = win.half_extent + 1
    det_frame, det_h = draw(frames()), draw(homographies)
    dets = draw(st.lists(observations(det_frame, det_h, reach), min_size=1, max_size=4))
    sources = draw(st.lists(st.tuples(frames(), homographies), min_size=1, max_size=2))
    reps = [
        draw(observations(*draw(st.sampled_from(sources)), reach))
        for _ in range(draw(st.integers(1, 5)))
    ]
    alpha = draw(st.floats(0.0, 1.0))
    weights = CostWeights(alpha, draw(st.floats(0.0, 1.0 - alpha)))
    dims = FrameDims(draw(st.integers(1, 60)), draw(st.integers(1, 60)))
    return dets, reps, weights, dims, win


class TestCostMatrix:
    @given(scored_frames())
    @settings(max_examples=200)
    def test_equals_similarity_cost_bit_for_bit(self, scene):
        dets, reps, weights, dims, win = scene
        expected = [[similarity_cost(d, r, weights, dims, win) for r in reps] for d in dets]
        assert cost_matrix(dets, reps, weights, dims, win).tolist() == expected

    def test_distance_rounds_like_math_hypot(self):
        # np.hypot(dx, dy) is one ulp above math.hypot here
        a = obs(det_with_parts([(0, 7.416754906970224, 24.12183124566043)]))
        b = obs(det_with_parts([(0, 0.0, 0.0)]), t=1)
        distance_only = CostWeights(1.0, 0.0)
        assert cost_matrix([a], [b], distance_only, DIMS)[0, 0] == cost_distance(a, b, DIMS)

    def test_shape_of_an_empty_side(self):
        a = obs(det_with_parts([(0, 100.0, 100.0)]))
        assert cost_matrix([a], [], default_weights(), DIMS).shape == (1, 0)
        assert cost_matrix([], [a], default_weights(), DIMS).shape == (0, 1)
