import math
import random

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from courttrack.errors import DegenerateProjection
from courttrack.geometry import (
    FrameDims,
    Homography,
    Line2,
    Point2,
    iou_matrix,
    project_points,
)
from tests.oracles import (
    BBox,
    apply_homography,
    box_array,
    centroid,
    iou,
    line_from_points,
    normalized_centroid_distance,
    transform_bbox,
)


def rotation(angle_rad: float) -> Homography:
    c, s = math.cos(angle_rad), math.sin(angle_rad)
    return Homography([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def compose(outer: Homography, inner: Homography) -> Homography:
    """The transform applying `inner` first, then `outer`."""
    return Homography(outer.m @ inner.m)


def project_oracle(matrix, x, y):
    """Independent 3-vector multiply-and-divide."""
    hx = matrix[0][0] * x + matrix[0][1] * y + matrix[0][2]
    hy = matrix[1][0] * x + matrix[1][1] * y + matrix[1][2]
    hw = matrix[2][0] * x + matrix[2][1] * y + matrix[2][2]
    return hx / hw, hy / hw


def pixel_iou_oracle(b1: BBox, b2: BBox) -> float:
    """Brute-force membership count over the bounding region.

    Integer-coordinate boxes only; a pixel (i, j) belongs to a box when
    min <= coord < max per axis, so the count equals the area.
    """
    x_lo = int(min(b1.x_min, b2.x_min))
    x_hi = int(max(b1.x_max, b2.x_max))
    y_lo = int(min(b1.y_min, b2.y_min))
    y_hi = int(max(b1.y_max, b2.y_max))
    inter = n1 = n2 = 0
    for i in range(x_lo, x_hi):
        for j in range(y_lo, y_hi):
            in1 = b1.x_min <= i < b1.x_max and b1.y_min <= j < b1.y_max
            in2 = b2.x_min <= i < b2.x_max and b2.y_min <= j < b2.y_max
            n1 += in1
            n2 += in2
            inter += in1 and in2
    union = n1 + n2 - inter
    return inter / union if union else 0.0


class TestApplyHomography:
    def test_identity_fixes_points(self):
        assert apply_homography(Homography.identity(), Point2(3.0, 4.0)) == Point2(3.0, 4.0)

    def test_translation_reads_off_last_column(self):
        h = Homography.translation(10.0, -5.0)
        assert apply_homography(h, Point2(0.0, 0.0)) == Point2(10.0, -5.0)

    def test_projective_bottom_row_matches_oracle(self):
        m = [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.001, 0.0, 1.0]]
        ox, oy = project_oracle(m, 100.0, 50.0)
        p = apply_homography(Homography(m), Point2(100.0, 50.0))
        assert p.x == pytest.approx(ox, abs=1e-9)
        assert p.y == pytest.approx(oy, abs=1e-9)

    def test_identity_fixes_random_points(self):
        rng = random.Random(7)
        h = Homography.identity()
        for _ in range(50):
            p = Point2(rng.uniform(-1e4, 1e4), rng.uniform(-1e4, 1e4))
            assert apply_homography(h, p) == p

    def test_vanishing_third_coordinate_raises(self):
        h = Homography([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [1.0, 0.0, -5.0]])
        with pytest.raises(DegenerateProjection):
            apply_homography(h, Point2(5.0, 3.0))

    def test_random_projective_matches_oracle(self):
        rng = random.Random(13)
        for _ in range(100):
            m = [
                [rng.uniform(0.5, 2.0), rng.uniform(-0.3, 0.3), rng.uniform(-50, 50)],
                [rng.uniform(-0.3, 0.3), rng.uniform(0.5, 2.0), rng.uniform(-50, 50)],
                [rng.uniform(-1e-4, 1e-4), rng.uniform(-1e-4, 1e-4), 1.0],
            ]
            x, y = rng.uniform(0, 1920), rng.uniform(0, 1080)
            ox, oy = project_oracle(m, x, y)
            got = apply_homography(Homography(m), Point2(x, y))
            assert got.x == pytest.approx(ox, abs=1e-9)
            assert got.y == pytest.approx(oy, abs=1e-9)


coordinates = st.one_of(st.integers(-2, 2).map(float), st.floats(-1e4, 1e4))


@st.composite
def homographies_and_points(draw) -> tuple[Homography, list[tuple[float, float]]]:
    """A homography and points; in many draws one point is put on the
    homography's line at infinity, exactly so when the entries are whole."""
    entry = st.one_of(st.integers(-2, 2).map(float), st.floats(-5.0, 5.0))
    try:
        h = Homography(draw(st.lists(entry, min_size=9, max_size=9)))
    except ValueError:  # singular
        h = Homography.identity()
    points = draw(st.lists(st.tuples(coordinates, coordinates), max_size=12))
    (_, _, _), (_, _, _), (a, b, c) = h.m.tolist()
    if abs(b) >= 1e-3 and draw(st.booleans()):
        x = draw(coordinates)
        points.insert(draw(st.integers(0, len(points))), (x, -(a * x + c) / b))
    return h, points


class TestProjectPoints:
    @given(homographies_and_points())
    def test_equals_apply_homography_bit_for_bit(self, scene):
        h, points = scene
        xy = np.array(points, dtype=float).reshape(-1, 2)
        try:
            expected = [apply_homography(h, Point2(x, y)) for x, y in points]
        except DegenerateProjection as exc:
            with pytest.raises(DegenerateProjection) as raised:
                project_points(h, xy)
            assert str(raised.value) == str(exc)
            return
        got = project_points(h, xy)
        assert got.tobytes() == np.array([(p.x, p.y) for p in expected]).reshape(-1, 2).tobytes()

    def test_names_the_first_point_sent_to_infinity(self):
        h = Homography([1.0, 0.0, 0.0, 0.0, 1.0, 0.0, -0.01, 0.0, 1.0])
        xy = np.array([[50.0, 10.0], [100.0, 50.0], [100.0, 60.0]])
        with pytest.raises(DegenerateProjection, match=r"point \(100\.0, 50\.0\)"):
            project_points(h, xy)

    def test_names_the_first_point_sent_past_the_float_range(self):
        h = Homography([1e307, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0])
        xy = np.array([[1.5, 2.0], [20.0, 25.0], [30.0, 5.0]])
        message = r"point \(20\.0, 25\.0\) maps to the non-finite point \(inf, 25\.0\)"
        with pytest.raises(DegenerateProjection, match=message):
            project_points(h, xy)


class TestHomographyType:
    def test_singular_matrix_rejected(self):
        with pytest.raises(ValueError):
            Homography([[1, 0, 0], [2, 0, 0], [0, 0, 1]])

    def test_subnormal_pivot_is_singular_without_a_warning(self):
        # np.linalg.det warns "divide by zero" on this pivot, an error under this suite's settings
        with pytest.raises(ValueError, match="singular"):
            Homography([[0.0, 2.22507386e-313, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])

    def test_matrix_is_read_only(self):
        h = Homography.identity()
        with pytest.raises(ValueError):
            h.m[0, 0] = 2.0

    def test_compose_applies_right_operand_first(self):
        g = Homography.translation(5.0, 0.0)
        h = rotation(math.pi / 2)
        p = apply_homography(compose(h, g), Point2(1.0, 0.0))
        # g first: (6, 0); then quarter turn: (0, 6)
        assert p.x == pytest.approx(0.0, abs=1e-12)
        assert p.y == pytest.approx(6.0, abs=1e-12)


class TestTransformBBox:
    def test_identity_keeps_box(self):
        b = BBox(1.0, 2.0, 7.0, 11.0)
        assert transform_bbox(Homography.identity(), b) == b

    def test_translation_shifts_box(self):
        b = BBox(0.0, 0.0, 4.0, 2.0)
        out = transform_bbox(Homography.translation(3.0, -1.0), b)
        assert out == BBox(3.0, -1.0, 7.0, 1.0)

    def test_rotation_45_hull_from_corner_oracle(self):
        h = rotation(math.pi / 4)
        out = transform_bbox(h, BBox(0.0, 0.0, 1.0, 1.0))
        corners = [(0, 0), (1, 0), (1, 1), (0, 1)]
        oracle = [project_oracle(h.m.tolist(), x, y) for x, y in corners]
        assert out.x_min == pytest.approx(min(p[0] for p in oracle), abs=1e-12)
        assert out.x_max == pytest.approx(max(p[0] for p in oracle), abs=1e-12)
        assert out.y_min == pytest.approx(min(p[1] for p in oracle), abs=1e-12)
        assert out.y_max == pytest.approx(max(p[1] for p in oracle), abs=1e-12)
        assert out.width == pytest.approx(math.sqrt(2.0))
        assert out.height == pytest.approx(math.sqrt(2.0))

    def test_affine_maps_centroid_inside_result(self):
        rng = random.Random(3)
        for _ in range(100):
            h = Homography(
                [
                    [rng.uniform(0.5, 1.5), rng.uniform(-0.4, 0.4), rng.uniform(-20, 20)],
                    [rng.uniform(-0.4, 0.4), rng.uniform(0.5, 1.5), rng.uniform(-20, 20)],
                    [0.0, 0.0, 1.0],
                ]
            )
            x0, y0 = rng.uniform(0, 100), rng.uniform(0, 100)
            b = BBox(x0, y0, x0 + rng.uniform(1, 40), y0 + rng.uniform(1, 40))
            mapped = apply_homography(h, centroid(b))
            out = transform_bbox(h, b)
            assert out.x_min - 1e-9 <= mapped.x <= out.x_max + 1e-9
            assert out.y_min - 1e-9 <= mapped.y <= out.y_max + 1e-9


class TestIoU:
    def test_identical_boxes(self):
        b = BBox(2.0, 3.0, 9.0, 8.0)
        assert iou(b, b) == 1.0

    def test_disjoint_boxes(self):
        assert iou(BBox(0, 0, 1, 1), BBox(5, 5, 6, 6)) == 0.0

    def test_half_shifted_boxes_third(self):
        assert iou(BBox(0, 0, 10, 10), BBox(5, 0, 15, 10)) == pytest.approx(1 / 3, rel=1e-15)

    def test_degenerate_union_is_zero(self):
        b = BBox(4.0, 4.0, 4.0, 4.0)
        assert iou(b, b) == 0.0

    def test_symmetry(self):
        rng = random.Random(11)
        for _ in range(100):
            b1 = _random_box(rng)
            b2 = _random_box(rng)
            assert iou(b1, b2) == iou(b2, b1)
            assert 0.0 <= iou(b1, b2) <= 1.0

    def test_integer_boxes_match_pixel_count_oracle_exactly(self):
        rng = random.Random(20260810)
        for _ in range(120):
            b1 = _random_int_box(rng)
            b2 = _random_int_box(rng)
            assert iou(b1, b2) == pixel_iou_oracle(b1, b2)


# whole coordinates make touching, zero-area and equal boxes common; the
# huge ones overflow the areas to inf, and their union to nan
box_coordinates = st.one_of(
    st.integers(-3, 3).map(float), st.sampled_from([-0.0, 1e300, -1e300]), st.floats(-1e3, 1e3)
)


@st.composite
def boxes(draw, coordinates=box_coordinates) -> BBox:
    (x0, x1), (y0, y1) = (sorted(draw(st.tuples(coordinates, coordinates))) for _ in "xy")
    return BBox(x0, y0, x1, y1)


class TestIouMatrix:
    @given(st.lists(boxes(), max_size=5), st.lists(boxes(), max_size=5))
    @example([BBox(0, 0, 2, 2)], [BBox(2, 0, 3, 2), BBox(1, 1, 1, 1), BBox(5, 5, 6, 6), BBox(-0.0, 0, 2, 2)])
    def test_equals_iou_bit_for_bit(self, a, b):
        # touching, zero-area, disjoint and signed-zero boxes in the example
        got = iou_matrix(box_array(a), box_array(b))
        assert got.shape == (len(a), len(b))
        assert [[v.hex() for v in row] for row in got.tolist()] == [[iou(p, q).hex() for q in b] for p in a]


def _random_box(rng) -> BBox:
    x0, y0 = rng.uniform(0, 100), rng.uniform(0, 100)
    return BBox(x0, y0, x0 + rng.uniform(0.1, 50), y0 + rng.uniform(0.1, 50))


def _random_int_box(rng) -> BBox:
    x0, y0 = rng.randrange(0, 40), rng.randrange(0, 40)
    return BBox(
        float(x0), float(y0), float(x0 + rng.randrange(1, 30)), float(y0 + rng.randrange(1, 30))
    )


class TestNormalizedCentroidDistance:
    DIMS = FrameDims(1920, 1080)

    def test_same_box_is_zero(self):
        b = BBox(10, 10, 30, 50)
        i = Homography.identity()
        assert normalized_centroid_distance(i, i, b, b, self.DIMS) == 0.0

    def test_full_diagonal_is_one(self):
        i = Homography.identity()
        b1 = BBox(0, 0, 0, 0)
        b2 = BBox(1920, 1080, 1920, 1080)
        d = normalized_centroid_distance(i, i, b1, b2, self.DIMS)
        assert d == pytest.approx(1.0, rel=1e-15)

    def test_pythagorean_oracle(self):
        i = Homography.identity()
        b1 = BBox(90, 90, 110, 110)  # centroid (100, 100)
        b2 = BBox(120, 130, 140, 150)  # centroid (130, 140)
        expected = 50.0 / math.sqrt(1920**2 + 1080**2)
        d = normalized_centroid_distance(i, i, b1, b2, self.DIMS)
        assert d == pytest.approx(expected, rel=1e-15)

    def test_symmetry_and_zero_iff_coincident(self):
        rng = random.Random(5)
        for _ in range(50):
            b1, b2 = _random_box(rng), _random_box(rng)
            h1 = Homography.translation(rng.uniform(-5, 5), rng.uniform(-5, 5))
            h2 = Homography.translation(rng.uniform(-5, 5), rng.uniform(-5, 5))
            d12 = normalized_centroid_distance(h1, h2, b1, b2, self.DIMS)
            d21 = normalized_centroid_distance(h2, h1, b2, b1, self.DIMS)
            assert d12 == d21
            assert d12 >= 0.0
        b = BBox(5, 5, 15, 25)
        i = Homography.identity()
        assert normalized_centroid_distance(i, i, b, b, self.DIMS) == 0.0


class TestLine2:
    def test_normalization_invariant(self):
        line = Line2(3.0, 4.0, 10.0)
        assert math.hypot(line.a, line.b) == pytest.approx(1.0, abs=1e-9)
        assert line.a == pytest.approx(0.6)
        assert line.c == pytest.approx(2.0)

    def test_from_points_contains_both(self):
        p0, p1 = Point2(1.0, 2.0), Point2(5.0, -3.0)
        line = line_from_points(p0, p1)
        assert line.signed(p0) == pytest.approx(0.0, abs=1e-12)
        assert line.signed(p1) == pytest.approx(0.0, abs=1e-12)

    def test_zero_direction_rejected(self):
        with pytest.raises(ValueError):
            Line2(0.0, 0.0, 1.0)


class TestValidation:
    def test_inverted_box_rejected(self):
        with pytest.raises(ValueError):
            BBox(5, 0, 1, 1)

    def test_nonpositive_dims_rejected(self):
        with pytest.raises(ValueError):
            FrameDims(0, 10)

    def test_nonfinite_point_rejected(self):
        with pytest.raises(ValueError):
            Point2(float("nan"), 0.0)
