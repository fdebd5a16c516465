import math
import random
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from courttrack import cost
from courttrack.cost import CostWeights, Features, cost_matrix, default_weights, features, patch_sum_dtype
from courttrack.geometry import FrameDims, Homography
from courttrack.imaging import FrameRaster, PatchWindow
from tests.detections import frame_of, observed
from tests.oracles import (
    ObservedBox,
    apply_homography,
    centroid,
    cost_content,
    cost_distance,
    cost_iou,
    filled,
    similarity_cost,
    transform_bbox,
)
from tests.test_geometry import compose, rotation

DIMS = FrameDims(1920, 1080)


def gray(dims=DIMS, value=(90, 90, 90)) -> FrameRaster:
    return filled(dims, value)


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
        return filled(FrameDims(w, h), (255, 255, 255))
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
        centroids = [apply_homography(h, centroid(o.box)) for o in drawn]
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

    @given(st.lists(st.one_of(st.sampled_from([0.0, 1.0]), st.floats(2.0**-44, 1.0)), min_size=1, max_size=17))
    def test_two_term_part_sums_equal_fsum_bit_for_bit(self, values):
        # the part values of a pair: 0, 1 or at least 2**-44, at most 17 of them
        s, e = np.zeros(1), np.zeros(1)
        for v in values:
            cost._add_exact(s, e, np.array([0]), np.array([v]))
        assert (s + e)[0] == math.fsum(values)

    def test_shape_of_an_empty_side(self):
        a = obs([(0, 100.0, 100.0)])
        a, none = features_of(a.homography, a.frame, [a]), features_of(a.homography, a.frame, [])
        assert cost_matrix(a, none, default_weights(), DIMS).shape == (1, 0)
        assert cost_matrix(none, a, default_weights(), DIMS).shape == (0, 1)


def noise(dims: FrameDims, seed: int) -> FrameRaster:
    return FrameRaster(np.random.default_rng(seed).integers(0, 256, (dims.h, dims.w, 3), dtype=np.uint8))


def scattered(n: int, parts, dims: FrameDims, seed: int, margin: float = 0.0) -> list[list[tuple]]:
    """n detections with one keypoint per part, `margin` pixels or more inside the frame."""
    rng = np.random.default_rng(seed)
    lo, hi = [margin, margin], [dims.w - 1 - margin, dims.h - 1 - margin]
    return [[(p, *rng.uniform(lo, hi).tolist()) for p in parts] for _ in range(n)]


def scene_of(rows, cols, win, dims, seeds=(1, 2)):
    """A scene of assert_equals_similarity_cost: (part, x, y) detections in
    two noise frames of dims, under identity homographies."""
    h = Homography.identity()
    frame_a, frame_b = noise(dims, seeds[0]), noise(dims, seeds[1])
    dets = [obs(d, h, frame_a) for d in rows]
    reps = [obs(d, h, frame_b) for d in cols]
    return (h, frame_a, dets), [(h, frame_b, reps)], default_weights(), dims, win


class TestContentKernel:
    """Explicit scenes for the branches that random draws reach only by luck."""

    def test_part_block_larger_than_the_buffer_goes_through_it_in_row_chunks(self):
        win, dims = PatchWindow(), FrameDims(200, 120)
        row_bytes = 21 * win.cell_count * 3
        assert 22 * row_bytes > cost.MINIMUMS_BYTES >= 2 * row_bytes
        rows = scattered(22, [0], dims, 3, margin=12)
        cols = scattered(21, [0], dims, 4, margin=12)
        assert_equals_similarity_cost(scene_of(rows, cols, win, dims))

    def test_row_larger_than_the_buffer_goes_through_it_in_column_runs(self):
        win, dims = PatchWindow(40), FrameDims(200, 120)
        pair_bytes = win.cell_count * 3
        assert 21 * pair_bytes > cost.MINIMUMS_BYTES >= 2 * pair_bytes
        rows = scattered(3, [0, 4], dims, 5)
        cols = scattered(21, [0, 4], dims, 6)
        assert_equals_similarity_cost(scene_of(rows, cols, win, dims))

    def test_pair_larger_than_the_buffer_goes_through_it_alone(self):
        win, dims = PatchWindow(160), FrameDims(400, 330)
        assert win.cell_count * 3 > cost.MINIMUMS_BYTES
        rows = [[(1, 200.0, 165.0)], [(1, 30.0, 300.0)]]
        cols = [[(1, 205.5, 160.0)], [(1, 390.0, 10.0)], [(1, 180.0, 170.0)]]
        assert_equals_similarity_cost(scene_of(rows, cols, win, dims))

    def test_patches_cut_at_each_edge_and_corner(self):
        win, dims = PatchWindow(), FrameDims(61, 49)
        xs, ys = (0.0, 30.0, 60.0), (0.0, 24.0, 48.0)
        # every corner, every edge midpoint and the centre, then one patch
        # wholly outside the frame; the columns sit a few pixels off
        spots = [(x, y) for y in ys for x in xs] + [(-40.0, 24.0)]
        rows = [[(0, x, y), (6, 60.0 - x, y)] for x, y in spots]
        cols = [[(0, x + 4.0, y - 3.0), (6, x - 5.5, 48.0 - y)] for x, y in spots]
        scene = scene_of(rows, cols, win, dims)
        h, frame, dets = scene[0]
        keypoints = features_of(h, frame, dets, win).keypoints
        assert 0 < len(keypoints.cut) < len(keypoints.patches)
        assert_equals_similarity_cost(scene)

    def test_pairs_sharing_all_17_parts_mix_empty_overlaps_and_a_large_window(self):
        # each pair sums 17 part values: 1.0 for an empty overlap, or a mean
        # over up to 80 * 80 cells, some of them cut by the frame edge
        win, dims = PatchWindow(40), FrameDims(200, 120)
        parts = range(17)
        rows = [[(p, x, y) for p, (x, y) in zip(parts, spots)] for spots in (
            [(100.0, 60.0)] * 17,
            [(-90.0, 60.0)] * 6 + [(5.0, 5.0)] * 6 + [(150.0, 100.0)] * 5,
        )]
        cols = [[(p, x, y) for p, (x, y) in zip(parts, spots)] for spots in (
            [(100.5, 60.0)] * 17,
            [(300.0, -100.0)] * 9 + [(195.0, 118.0)] * 8,
            [(100.0 + p, 60.0 - p) for p in parts],
        )]
        assert_equals_similarity_cost(scene_of(rows, cols, win, dims))

    def test_features_hold_about_their_patch_bytes(self):
        # a crowd-sized frame: 24 detections of 5 keypoints in a 960x540 frame
        dims = FrameDims(960, 540)
        raster = noise(dims, 7)
        dets = frame_of(*scattered(24, [0, 3, 5, 9, 16], dims, 8, margin=12))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            held = features(dets, Homography.identity(), raster)
            size = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert size <= 1.25 * held.keypoints.patches.nbytes

    def test_cost_matrix_peak_is_bounded(self):
        # the whole part block of pixel minimums would be 22 * 21 * 1728
        # bytes (798 KB); through the 256 KiB buffer, with the blocks of
        # one part at a time beside it, a call peaks at about 339 KB (440 KB
        # while the values of every pair were flattened into one array)
        dims = FrameDims(960, 540)
        parts = [0, 3, 5, 9, 16]
        rows = features(frame_of(*scattered(22, parts, dims, 9)), Homography.identity(), noise(dims, 1))
        cols = features(frame_of(*scattered(21, parts, dims, 10)), Homography.identity(), noise(dims, 2))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            cost_matrix(rows, cols, default_weights(), dims)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak <= 370 * 1024
