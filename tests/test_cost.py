import random
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from courttrack import cost
from courttrack.cost import (
    CostWeights,
    Features,
    ObservedBox,
    cost_content,
    cost_distance,
    cost_iou,
    cost_matrix,
    default_weights,
    features,
    patch_sum_dtype,
    similarity_cost,
)
from courttrack.geometry import FrameDims, Homography, apply_homography, transform_bbox
from courttrack.imaging import FrameRaster, PatchWindow
from tests.detections import frame_of, observed
from tests.test_geometry import compose, rotation

DIMS = FrameDims(1920, 1080)


def gray(dims=DIMS, value=(90, 90, 90)) -> FrameRaster:
    return FrameRaster.filled(dims, value)


def obs(parts: list[tuple[int, float, float]], homography=None, frame=None) -> ObservedBox:
    """The observation of a detection of (part id, x, y) keypoints."""
    return observed(
        frame_of(parts),
        0,
        homography or Homography.identity(),
        frame if frame is not None else gray(),
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
        a = obs([(0, 100.0, 100.0), (1, 140.0, 180.0)])
        assert cost_distance(a, a, DIMS) == 0.0

    def test_opposite_corners_is_one(self):
        a = obs([(0, 0.0, 0.0)])
        b = obs([(0, 1920.0, 1080.0)])
        assert cost_distance(a, b, DIMS) == pytest.approx(1.0, rel=1e-15)

    def test_pan_cancelling_homographies(self):
        # stationary target, camera pans (7, 3) px/frame; H_t undoes the pan
        world = [(0, 100.0, 100.0), (1, 140.0, 180.0)]
        observations = []
        for t in range(6):
            shifted = [(pid, x - 7.0 * t, y - 3.0 * t) for pid, x, y in world]
            observations.append(
                obs(shifted, Homography.translation(7.0 * t, 3.0 * t))
            )
        for i in range(6):
            for j in range(6):
                assert cost_distance(observations[i], observations[j], DIMS) <= 1e-9

    def test_rigid_motion_on_both_sides_preserves_distance(self):
        rng = random.Random(21)
        g = compose(rotation(0.3), Homography.translation(12.0, -5.0))
        for _ in range(30):
            a = obs(
                [(0, rng.uniform(0, 800), rng.uniform(0, 800))],
                Homography.translation(rng.uniform(-5, 5), rng.uniform(-5, 5)),
            )
            b = obs(
                [(0, rng.uniform(0, 800), rng.uniform(0, 800))],
                Homography.translation(rng.uniform(-5, 5), rng.uniform(-5, 5)),
            )
            base = cost_distance(a, b, DIMS)
            moved_a = replace(a, homography=compose(g, a.homography))
            moved_b = replace(b, homography=compose(g, b.homography))
            assert cost_distance(moved_a, moved_b, DIMS) == pytest.approx(base, abs=1e-12)


class TestCostIou:
    def test_identical_boxes_zero(self):
        a = obs([(0, 10.0, 10.0), (1, 60.0, 120.0)])
        assert cost_iou(a, a) == 0.0

    def test_disjoint_boxes_one(self):
        a = obs([(0, 0.0, 0.0), (1, 10.0, 10.0)])
        b = obs([(0, 500.0, 500.0), (1, 510.0, 510.0)])
        assert cost_iou(a, b) == 1.0

    def test_third_overlap_gives_two_thirds(self):
        a = obs([(0, 0.0, 0.0), (1, 10.0, 10.0)])
        b = obs([(0, 5.0, 0.0), (1, 15.0, 10.0)])
        assert cost_iou(a, b) == pytest.approx(2.0 / 3.0, rel=1e-15)


class TestCostContent:
    def test_same_observation_is_zero(self):
        frame = gray()
        a = obs([(0, 100.0, 100.0), (5, 300.0, 300.0)], frame=frame)
        assert cost_content(a, a) == 0.0

    def test_no_shared_parts_is_one(self):
        a = obs([(0, 100.0, 100.0), (1, 150.0, 150.0)])
        b = obs([(5, 100.0, 100.0), (6, 150.0, 150.0)])
        assert cost_content(a, b) == 1.0

    def test_two_parts_with_planted_diffs_average(self):
        # part 0 patches differ by 51 (0.2), part 5 patches by 102 (0.4)
        dims = FrameDims(600, 200)
        f1 = gray(dims, (0, 0, 0))
        arr = np.zeros((200, 600, 3), dtype=np.uint8)
        arr[:, :300] = 51
        arr[:, 300:] = 102
        f2 = FrameRaster(arr)
        a = obs([(0, 100.0, 100.0), (5, 450.0, 100.0)], frame=f1)
        b = obs([(0, 100.0, 100.0), (5, 450.0, 100.0)], frame=f2)
        assert cost_content(a, b) == pytest.approx(0.3, rel=1e-12)

    def test_part_without_comparable_pixels_counts_as_one(self):
        a = obs([(0, -500.0, 50.0)])
        b = obs([(0, 50.0, 50.0)])
        assert cost_content(a, b) == 1.0

    def test_symmetry(self):
        rng = np.random.default_rng(2)
        f1 = FrameRaster(rng.integers(0, 256, (100, 100, 3), dtype=np.uint8))
        f2 = FrameRaster(rng.integers(0, 256, (100, 100, 3), dtype=np.uint8))
        a = obs([(0, 20.0, 20.0), (3, 70.0, 60.0)], frame=f1)
        b = obs([(0, 40.0, 30.0), (3, 60.0, 80.0)], frame=f2)
        assert cost_content(a, b) == cost_content(b, a)


def random_observation(rng: random.Random, frame: FrameRaster) -> ObservedBox:
    n_parts = rng.randrange(1, 6)
    parts = []
    ids = rng.sample(range(17), n_parts)
    for pid in ids:
        parts.append((pid, rng.uniform(5, 1915), rng.uniform(5, 1075)))
    return obs(parts, Homography.identity(), frame)


class TestSimilarityCost:
    def test_identical_observation_is_zero(self):
        a = obs([(0, 100.0, 100.0), (1, 160.0, 230.0)])
        assert similarity_cost(a, a, default_weights(), DIMS) <= 1e-12

    def test_termwise_recomposition(self):
        rng = random.Random(77)
        rng_px = np.random.default_rng(7)
        f1 = FrameRaster(rng_px.integers(0, 256, (1080, 1920, 3), dtype=np.uint8))
        f2 = FrameRaster(rng_px.integers(0, 256, (1080, 1920, 3), dtype=np.uint8))
        w = default_weights()
        win = PatchWindow()
        for _ in range(40):
            a = random_observation(rng, f1)
            b = random_observation(rng, f2)
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
            a = random_observation(rng, f)
            b = random_observation(rng, f)
            assert similarity_cost(a, b, w, DIMS) == similarity_cost(b, a, w, DIMS)

    def test_in_frame_pairs_bounded_by_unit_interval(self):
        rng = random.Random(123)
        f = gray()
        w = default_weights()
        for _ in range(100):
            a = random_observation(rng, f)
            b = random_observation(rng, f)
            c = similarity_cost(a, b, w, DIMS)
            assert 0.0 <= c <= 1.0

    def test_strictly_increasing_in_distance_term(self):
        # overlap stays 1 (disjoint), content stays 0 (uniform frames)
        f = gray()
        w = default_weights()
        a = obs([(0, 100.0, 100.0), (1, 120.0, 140.0)], frame=f)
        costs = []
        for shift in (300.0, 500.0, 700.0):
            b = obs(
                [(0, 100.0 + shift, 100.0), (1, 120.0 + shift, 140.0)],
                frame=f,
            )
            costs.append(similarity_cost(a, b, w, DIMS))
        assert costs[0] < costs[1] < costs[2]


@st.composite
def frames(draw) -> FrameRaster:
    """Random pixels, or in a quarter of the draws all 255, where every
    patch sum is as large as the window allows."""
    w, h = draw(st.integers(1, 48)), draw(st.integers(1, 48))
    if draw(st.integers(0, 3)) == 0:
        return FrameRaster.filled(FrameDims(w, h), (255, 255, 255))
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
    return obs([(p, x, y) for p, (x, y) in zip(parts, xy.tolist())], homography, frame)


@st.composite
def scored_frames(draw):
    """Detections of one frame against representatives from up to two
    others, each frame as (homography, frame, observations)."""
    win = draw(st.sampled_from([PatchWindow(1), PatchWindow(), PatchWindow(40)]))
    reach = win.half_extent + 1
    det_frame, det_h = draw(frames()), draw(homographies)
    dets = draw(st.lists(observations(det_frame, det_h, reach), min_size=1, max_size=4))
    sources = draw(st.lists(st.tuples(homographies, frames()), min_size=1, max_size=2))
    picks = draw(st.lists(st.integers(0, len(sources) - 1), min_size=1, max_size=5))
    reps = [
        (h, frame, [draw(observations(frame, h, reach)) for _ in range(picks.count(s))])
        for s, (h, frame) in enumerate(sources)
    ]
    alpha = draw(st.floats(0.0, 1.0))
    weights = CostWeights(alpha, draw(st.floats(0.0, 1.0 - alpha)))
    dims = FrameDims(draw(st.integers(1, 60)), draw(st.integers(1, 60)))
    return (det_h, det_frame, dets), reps, weights, dims, win


def features_of(homography, frame, boxes, win=PatchWindow()) -> Features:
    """features of observations that all lie in `frame` under `homography`."""
    dets = frame_of(*([(p, q.x, q.y) for p, q in o.parts.items()] for o in boxes))
    return features(dets, homography, frame, win)


def assert_equals_similarity_cost(scene):
    dets, sources, weights, dims, win = scene
    reps = [r for _, _, observed in sources for r in observed]
    expected = [[similarity_cost(d, r, weights, dims, win) for r in reps] for d in dets[2]]
    # one features call per source frame, concatenated as match_frame scores its window
    rows = features_of(*dets, win)
    columns = [cost_matrix(rows, features_of(*source, win), weights, dims) for source in sources]
    assert np.concatenate(columns, axis=1).tolist() == expected


class TestFeatures:
    @given(st.data(), homographies, frames())
    def test_stabilized_centroids_and_boxes_equal_the_scalar_path(self, data, h, frame):
        drawn = data.draw(st.lists(observations(frame, h, 13), max_size=5))
        got = features_of(h, frame, drawn)
        boxes = [transform_bbox(h, o.box) for o in drawn]
        centroids = [apply_homography(h, o.box.centroid) for o in drawn]
        assert got.boxes.tolist() == [[b.x_min, b.y_min, b.x_max, b.y_max] for b in boxes]
        assert got.centroids.tolist() == [[c.x, c.y] for c in centroids]

    @pytest.mark.parametrize(
        "half_extent, dtype", [(1, np.uint32), (12, np.uint32), (1184, np.uint32), (1185, np.int64)]
    )
    def test_patch_sums_are_uint32_while_a_whole_patch_fits(self, half_extent, dtype):
        # a patch of side 2 * half_extent sums to at most side**2 * 3 * 255
        win = PatchWindow(half_extent)
        assert (win.cell_count * 3 * 255 < 2**32) == (dtype is np.uint32)
        assert patch_sum_dtype(win) is dtype


class TestCostMatrix:
    @given(scored_frames())
    @settings(max_examples=max(200, settings.default.max_examples))
    def test_equals_similarity_cost_bit_for_bit(self, scene):
        assert_equals_similarity_cost(scene)

    @given(scored_frames())
    def test_int64_patch_sums_equal_similarity_cost_bit_for_bit(self, scene):
        # the branch that only windows beyond half_extent 1184 take
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(cost, "patch_sum_dtype", lambda win: np.int64)
            assert_equals_similarity_cost(scene)

    def test_distance_rounds_like_math_hypot(self):
        # np.hypot(dx, dy) is one ulp above math.hypot here
        a = obs([(0, 7.416754906970224, 24.12183124566043)])
        b = obs([(0, 0.0, 0.0)])
        distance_only = CostWeights(1.0, 0.0)
        rows, cols = features_of(a.homography, a.frame, [a]), features_of(b.homography, b.frame, [b])
        scored = cost_matrix(rows, cols, distance_only, DIMS)
        assert scored[0, 0] == cost_distance(a, b, DIMS)

    def test_shape_of_an_empty_side(self):
        a = obs([(0, 100.0, 100.0)])
        a, none = features_of(a.homography, a.frame, [a]), features_of(a.homography, a.frame, [])
        assert cost_matrix(a, none, default_weights(), DIMS).shape == (1, 0)
        assert cost_matrix(none, a, default_weights(), DIMS).shape == (0, 1)
