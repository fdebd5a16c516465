import math
import random
import re
import tracemalloc
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from courttrack.errors import DegenerateCourt, InputFormatError
from courttrack.court import (
    _EDGE_TOL,
    MAX_COORD,
    CourtRegion,
    HsvFilter,
    LineVote,
    RHO_BIN_PX,
    THETA_BIN_DEG,
    Orientation,
    _RUN_BLOCK,
    _row_runs,
    _rows_between,
    classify_orientation,
    converge_boundaries_nba,
    european_region,
    frame_to_hsv,
    lines_by_axis,
    nba_region,
    read_segments_csv,
    row_prefix_sums,
    select_boundary_european,
    vote_dominant_lines,
)
from courttrack.geometry import SINGULAR_TOL, FrameDims, Line2, Point2
from courttrack.imaging import BinaryMask, FrameRaster
from tests.oracles import filled, line_from_points, vertical_at

DIMS = FrameDims(1920, 1080)


@dataclass(frozen=True)
class LineSegment:
    """A segment on the object path of the voting oracle."""

    p0: Point2
    p1: Point2

    @property
    def length(self) -> float:
        return math.hypot(self.p1.x - self.p0.x, self.p1.y - self.p0.y)

    @property
    def midpoint(self) -> Point2:
        return Point2((self.p0.x + self.p1.x) / 2.0, (self.p0.y + self.p1.y) / 2.0)


def seg(x0, y0, x1, y1):
    return LineSegment(Point2(float(x0), float(y0)), Point2(float(x1), float(y1)))


def as_rows(segments: list[LineSegment]) -> np.ndarray:
    """The (n, 4) array that read_segments_csv returns for these segments."""
    return np.array([[s.p0.x, s.p0.y, s.p1.x, s.p1.y] for s in segments]).reshape(-1, 4)


def normal_angle_deg(line: Line2) -> float:
    return math.degrees(math.atan2(line.b, line.a)) % 180.0


def angle_diff_deg(a: float, b: float) -> float:
    d = abs(a - b) % 180.0
    return min(d, 180.0 - d)


def _canonical_cell(line: Line2) -> tuple[int, int]:
    """Accumulator cell of a line: 1-degree angle bins, 3-px offset bins,
    the normal angle folded into [-0.5, 179.5) degrees."""
    a, b, c = line.a, line.b, line.c
    theta = math.degrees(math.atan2(b, a))
    if theta < 0.0:
        theta += 180.0
        a, b, c = -a, -b, -c
    if theta >= 180.0 - THETA_BIN_DEG / 2.0:
        theta -= 180.0
        a, b, c = -a, -b, -c
    t_idx = int(math.floor((theta + THETA_BIN_DEG / 2.0) / THETA_BIN_DEG))
    r_idx = int(math.floor(-c / RHO_BIN_PX + 0.5))
    return t_idx, r_idx


def fit_cell_line_oracle(segments: list[LineSegment]) -> Line2:
    """The weighted least-squares fit of a cell, on LineSegment objects."""
    weights = [s.length for s in segments]
    total = math.fsum(weights)
    mx = math.fsum(w * s.midpoint.x for w, s in zip(weights, segments)) / total
    my = math.fsum(w * s.midpoint.y for w, s in zip(weights, segments)) / total
    sxx = sxy = syy = 0.0
    for w, s in zip(weights, segments):
        ux = (s.p1.x - s.p0.x) / s.length
        uy = (s.p1.y - s.p0.y) / s.length
        dx = s.midpoint.x - mx
        dy = s.midpoint.y - my
        along = w * w * w / 12.0
        sxx += w * dx * dx + along * ux * ux
        sxy += w * dx * dy + along * ux * uy
        syy += w * dy * dy + along * uy * uy
    phi = 0.5 * math.atan2(2.0 * sxy, sxx - syy)
    a, b = -math.sin(phi), math.cos(phi)
    return Line2(a, b, -(a * mx + b * my))


def vote_all_cells_oracle(segments: list[LineSegment]) -> list[LineVote]:
    """Every cell fitted, then ranked by (-weight, cell)."""
    cells: dict[tuple[int, int], list[LineSegment]] = {}
    for s in segments:
        cells.setdefault(_canonical_cell(line_from_points(s.p0, s.p1)), []).append(s)
    votes = []
    for cell, segs in cells.items():
        segs = sorted(segs, key=lambda s: (s.p0.x, s.p0.y, s.p1.x, s.p1.y))
        weight = math.fsum(s.length for s in segs)
        votes.append((cell, LineVote(fit_cell_line_oracle(segs), weight)))
    votes.sort(key=lambda cv: (-cv[1].weight, cv[0]))
    return [v for _, v in votes]


def vote_hex(votes):
    return [(v.weight.hex(), *(x.hex() for x in v.line.coeffs())) for v in votes]


def assert_votes_equal_oracle(segments, limit):
    got = vote_dominant_lines(as_rows(segments), limit)
    assert vote_hex(got) == vote_hex(vote_all_cells_oracle(segments)[:limit])


# integer endpoints on a small grid: many cells share a total length
grid_segments = st.lists(
    st.tuples(*[st.integers(0, 40)] * 4).filter(lambda t: t[:2] != t[2:]).map(lambda t: seg(*t)),
    min_size=1,
    max_size=40,
)


@st.composite
def exact_segments(draw):
    """One segment with real endpoints in the frame, or up to four pieces
    of a drawn line whose normal is within 1e-9 degrees of the 179.5
    degree seam, whose offset is on a rho-bin edge, or whose offset is
    1e20."""
    kind = draw(st.sampled_from(["frame", "seam", "edge", "far"]))
    if kind == "frame":
        coords = st.tuples(st.floats(0.0, DIMS.w), st.floats(0.0, DIMS.h))
        (x0, y0), (x1, y1) = draw(coords), draw(coords)
        assume(math.hypot(x1 - x0, y1 - y0) >= 1e-9)
        return [seg(x0, y0, x1, y1)]
    degrees = st.floats(0.0, 180.0)
    if kind == "seam":
        degrees = st.floats(-1e-9, 1e-9).map(lambda d: 180.0 - THETA_BIN_DEG / 2.0 + d)
    theta = math.radians(draw(degrees))
    a, b = math.cos(theta), math.sin(theta)
    if kind == "far":
        rho, extent = draw(st.sampled_from([1e20, -1e20])), 1e20
    elif kind == "edge":
        rho, extent = RHO_BIN_PX * (draw(st.integers(-700, 700)) - 0.5), 1000.0
    else:
        rho, extent = draw(st.floats(-2000.0, 2000.0)), 1000.0
    spans = st.lists(st.tuples(*[st.floats(-extent, extent)] * 2), min_size=1, max_size=4)
    pieces = []
    for t0, t1 in draw(spans):
        x0, y0, x1, y1 = rho * a - t0 * b, rho * b + t0 * a, rho * a - t1 * b, rho * b + t1 * a
        if math.hypot(x1 - x0, y1 - y0) >= 1e-9:
            pieces.append(seg(x0, y0, x1, y1))
    assume(pieces)
    return pieces


class TestVoteDominantLines:
    @settings(max_examples=max(200, settings.default.max_examples))
    @given(segments=grid_segments)
    def test_top_cells_equal_full_fit_oracle(self, segments):
        for limit in (1, 10, len(segments) + 1):
            assert_votes_equal_oracle(segments, limit)

    @settings(max_examples=max(300, settings.default.max_examples))
    @given(groups=st.lists(exact_segments(), min_size=1, max_size=12))
    def test_real_valued_cells_equal_object_oracle_bit_for_bit(self, groups):
        segments = [s for pieces in groups for s in pieces]
        for limit in (1, 10, len(segments) + 1):
            assert_votes_equal_oracle(segments, limit)

    def test_equal_weight_cells_rank_by_cell(self):
        # twelve length-10 horizontal segments in twelve offset cells
        segments = [seg(0, 10 * k, 10, 10 * k) for k in range(12)][::-1]
        for limit in (1, 10, 13):
            assert_votes_equal_oracle(segments, limit)
        votes = vote_dominant_lines(as_rows(segments), 3)
        assert [round(-v.line.c / v.line.b) for v in votes] == [0, 10, 20]

    @pytest.mark.parametrize("limit", [0, -1])
    def test_limit_below_one_rejected(self, limit):
        with pytest.raises(ValueError, match="limit"):
            vote_dominant_lines(as_rows([seg(0, 0, 10, 0)]), limit)

    def test_collinear_segments_share_one_cell(self):
        segments = [seg(0, 100, 10, 100), seg(50, 100, 70, 100), seg(200, 100, 230, 100)]
        votes = vote_dominant_lines(as_rows(segments), len(segments))
        assert len(votes) == 1
        top = votes[0]
        assert top.weight == pytest.approx(60.0, abs=1e-9)
        # recovered line is y = 100
        assert abs(top.line.a) < 1e-9
        assert abs(abs(top.line.b) - 1.0) < 1e-9
        assert abs(top.line.signed(Point2(500.0, 100.0))) < 1e-9

    def test_rank_order_follows_support(self):
        segments = [
            seg(0, 200, 25, 200),
            seg(0, 50, 100, 50),
            seg(400, 200, 415, 200),
        ]
        votes = vote_dominant_lines(as_rows(segments), len(segments))
        assert votes[0].weight == pytest.approx(100.0)
        assert votes[1].weight == pytest.approx(40.0)
        assert abs(votes[0].line.signed(Point2(10.0, 50.0))) < 1e-9

    def test_planted_line_recovered_among_scatter(self):
        rng = random.Random(99)
        phi = math.radians(25.0)
        cx, cy = 900.0, 600.0

        def on_line(s):
            return (cx + s * math.cos(phi), cy + s * math.sin(phi))

        spans = [(-220, -120), (-100, -40), (-20, 60), (80, 160), (180, 260)]
        segments = [seg(*on_line(s0), *on_line(s1)) for s0, s1 in spans]
        assert sum(s.length for s in segments) == pytest.approx(400.0)
        for _ in range(50):
            x, y = rng.uniform(50, 1870), rng.uniform(50, 1030)
            ang = rng.uniform(0, math.pi)
            ln = rng.uniform(5, 20)
            segments.append(
                seg(x, y, x + ln * math.cos(ang), y + ln * math.sin(ang))
            )
        rng.shuffle(segments)

        votes = vote_dominant_lines(as_rows(segments), len(segments))
        top = votes[0]
        assert top.weight == pytest.approx(400.0, abs=1e-6)
        true_line = line_from_points(Point2(*on_line(-220)), Point2(*on_line(260)))
        assert angle_diff_deg(normal_angle_deg(top.line), normal_angle_deg(true_line)) <= 0.5
        for s in (-220, 260):
            assert abs(top.line.signed(Point2(*on_line(s)))) <= 2.0

    def test_total_weight_equals_sum_of_lengths(self):
        rng = random.Random(4)
        segments = []
        for _ in range(60):
            x, y = rng.uniform(0, 1800), rng.uniform(0, 1000)
            segments.append(seg(x, y, x + rng.uniform(1, 60), y + rng.uniform(1, 60)))
        votes = vote_dominant_lines(as_rows(segments), len(segments))
        assert sum(v.weight for v in votes) == pytest.approx(
            math.fsum(s.length for s in segments), rel=1e-12
        )

    def test_rank_invariant_to_input_order(self):
        rng = random.Random(17)
        segments = [seg(0, 100, 50, 100), seg(60, 100, 90, 100), seg(0, 0, 40, 30)]
        for _ in range(30):
            x, y = rng.uniform(0, 1800), rng.uniform(0, 1000)
            segments.append(seg(x, y, x + rng.uniform(3, 40), y + rng.uniform(3, 40)))
        votes_a = vote_dominant_lines(as_rows(segments), len(segments))
        shuffled = segments[:]
        rng.shuffle(shuffled)
        votes_b = vote_dominant_lines(as_rows(shuffled), len(shuffled))
        assert [v.weight for v in votes_a] == [v.weight for v in votes_b]
        assert [v.line.coeffs() for v in votes_a] == [v.line.coeffs() for v in votes_b]

    def test_empty_input_raises(self):
        with pytest.raises(ValueError, match="at least one segment"):
            vote_dominant_lines(as_rows([]), 1)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "rows, reason",
        [
            ([[0, 0, 0, 0], [0, 0, 10, 0]], "segment row 0: endpoints coincide"),
            ([[0, 0, 10, 0], [5, 5, 5, 5 + 1e-13]], "segment row 1: endpoints coincide"),
            ([[0, 0, math.nan, 0]], "segment row 0: endpoint nan not finite or beyond 1e+75 in absolute value"),
            ([[0, 0, 10, 0], [0, -math.inf, 1, 1]], "segment row 1: endpoint -inf not finite"),
            ([[0, 0, 1e300, 0]], "segment row 0: endpoint 1e+300 not finite"),
            ([[1, 1, 1, 1], [0, 0, 1e300, 0]], "segment row 0: endpoints coincide"),
        ],
    )
    def test_row_that_cannot_vote_is_named(self, rows, reason):
        # read_segments_csv's bounds, checked before any arithmetic that could warn
        with pytest.raises(ValueError, match=re.escape(reason)):
            vote_dominant_lines(np.array(rows, dtype=np.float64), 1)

    def test_rows_on_the_bounds_vote(self):
        rows = np.array([[-MAX_COORD, 0.0, MAX_COORD, 0.0], [0.0, 0.0, SINGULAR_TOL, 0.0]])
        assert all(map(math.isfinite, vote_dominant_lines(rows, 2)[0].line.coeffs()))

    def test_vertical_segments_share_one_cell(self):
        segments = [seg(300, 0, 300, 40), seg(300, 100, 300, 160)]
        votes = vote_dominant_lines(as_rows(segments), len(segments))
        assert len(votes) == 1
        assert votes[0].weight == pytest.approx(100.0)


class TestClassifyOrientation:
    def test_mid_horizontal(self):
        assert classify_orientation(Line2.horizontal_at(540.0), DIMS) == Orientation.HORIZONTAL

    def test_left_top_crossing_is_vertical(self):
        line = line_from_points(Point2(0.0, 270.0), Point2(640.0, 0.0))
        assert classify_orientation(line, DIMS) == Orientation.VERTICAL

    def test_exactly_vertical_is_vertical(self):
        assert classify_orientation(vertical_at(960.0), DIMS) == Orientation.VERTICAL

    def test_line_outside_frame_is_neither(self):
        line = line_from_points(Point2(-50.0, -10.0), Point2(-10.0, -50.0))
        assert classify_orientation(line, DIMS) == Orientation.NEITHER

    def test_negating_coefficients_does_not_change_class(self):
        rng = random.Random(8)
        for _ in range(100):
            p0 = Point2(rng.uniform(-500, 2500), rng.uniform(-500, 1500))
            p1 = Point2(rng.uniform(-500, 2500), rng.uniform(-500, 1500))
            if math.hypot(p1.x - p0.x, p1.y - p0.y) < 1.0:
                continue
            line = line_from_points(p0, p1)
            assert classify_orientation(line, DIMS) == classify_orientation(line.negated(), DIMS)

    def test_lines_by_axis_keeps_order_and_drops_neither(self):
        h0, h1 = Line2.horizontal_at(540.0), Line2.horizontal_at(100.0)
        v0 = vertical_at(960.0)
        v1 = line_from_points(Point2(0.0, 270.0), Point2(640.0, 0.0))
        outside = line_from_points(Point2(-50.0, -10.0), Point2(-10.0, -50.0))
        horizontal, vertical = lines_by_axis([v0, h0, outside, v1, h1], DIMS)
        assert horizontal == [h0, h1]
        assert vertical == [v0, v1]


GREEN = (40, 180, 60)
GRAY = (120, 120, 130)
GREEN_FILTER = HsvFilter(90.0, 150.0, 0.4, 1.0, 0.2, 1.0)


def two_band_frame(dims: FrameDims, transition_row: int) -> FrameRaster:
    arr = np.empty((dims.h, dims.w, 3), dtype=np.uint8)
    arr[:transition_row] = GREEN
    arr[transition_row:] = GRAY
    return FrameRaster(arr)


class TestSelectBoundaryEuropean:
    def test_planted_transition_wins(self):
        dims = FrameDims(100, 100)
        frame = two_band_frame(dims, 30)
        candidates = [Line2.horizontal_at(10.0), Line2.horizontal_at(30.0), Line2.horizontal_at(60.0)]
        prefix = row_prefix_sums(GREEN_FILTER.match_array(frame))
        best = select_boundary_european(candidates, prefix)
        assert best is candidates[1]

    def test_equal_contrast_ties_to_first(self):
        # green above row 20 and below row 40: both lines part 1.0 from 0.5
        arr = np.full((60, 60, 3), GRAY, dtype=np.uint8)
        arr[:20] = GREEN
        arr[40:] = GREEN
        candidates = [Line2.horizontal_at(39.5), Line2.horizontal_at(19.5)]
        prefix = row_prefix_sums(GREEN_FILTER.match_array(FrameRaster(arr)))
        best = select_boundary_european(candidates, prefix)
        assert best is candidates[0]

    def test_winner_in_the_last_block(self):
        # candidates are scored _RUN_BLOCK at a time: the planted transition
        # at row 30 comes last, after two full blocks of decoys
        frame = two_band_frame(FrameDims(100, 100), 30)
        decoys = [Line2.horizontal_at(50.0 + (k % 40)) for k in range(2 * _RUN_BLOCK)]
        candidates = decoys + [Line2.horizontal_at(30.0)]
        prefix = row_prefix_sums(GREEN_FILTER.match_array(frame))
        assert select_boundary_european(candidates, prefix) is candidates[-1]

    def test_tie_across_blocks_goes_to_the_first(self):
        # the frame of test_equal_contrast_ties_to_first: rows 19.5 and 39.5
        # tie, one in the second block and one in the third; every decoy
        # at row 30 has contrast 0
        arr = np.full((60, 60, 3), GRAY, dtype=np.uint8)
        arr[:20] = GREEN
        arr[40:] = GREEN
        candidates = [Line2.horizontal_at(30.0) for _ in range(2 * _RUN_BLOCK + 1)]
        candidates[_RUN_BLOCK + 3] = Line2.horizontal_at(19.5)
        candidates[-1] = Line2.horizontal_at(39.5)
        prefix = row_prefix_sums(GREEN_FILTER.match_array(FrameRaster(arr)))
        assert select_boundary_european(candidates, prefix) is candidates[_RUN_BLOCK + 3]

    @pytest.mark.parametrize("colour", [GREEN, GRAY])
    def test_uniform_frame_is_degenerate(self, colour):
        # the filter matches every pixel or none: no candidate has contrast
        frame = filled(FrameDims(60, 60), colour)
        candidates = [Line2.horizontal_at(20.0), Line2.horizontal_at(40.0)]
        prefix = row_prefix_sums(GREEN_FILTER.match_array(frame))
        with pytest.raises(DegenerateCourt):
            select_boundary_european(candidates, prefix)

    def test_single_candidate_returned(self):
        dims = FrameDims(60, 60)
        frame = two_band_frame(dims, 25)
        only = Line2.horizontal_at(13.0)
        match = GREEN_FILTER.match_array(frame)
        prefix = row_prefix_sums(match)
        assert select_boundary_european([only], prefix) is only

    def test_no_candidate_of_axis_raises(self):
        frame = two_band_frame(FrameDims(60, 60), 25)
        _, vertical = lines_by_axis([Line2.horizontal_at(10.0)], frame.dims)
        with pytest.raises(ValueError, match="at least one candidate"):
            select_boundary_european(vertical, row_prefix_sums(GREEN_FILTER.match_array(frame)))

    def test_seeded_two_region_frames(self):
        # planted transition among decoys, response difference >= 0.2
        for seed in (1, 2, 3):
            rng = random.Random(seed)
            dims = FrameDims(80, 120)
            row = rng.randrange(30, 90)
            frame = two_band_frame(dims, row)
            decoys = [r for r in (15, 25, 95, 105) if abs(r - row) > 5]
            candidates = [Line2.horizontal_at(float(r)) for r in decoys]
            candidates.insert(rng.randrange(len(candidates)), Line2.horizontal_at(float(row)))
            best = select_boundary_european(candidates, row_prefix_sums(GREEN_FILTER.match_array(frame)))
            assert abs(-best.c / best.b - row) < 1e-9

    def test_wrapping_hue_interval(self):
        red_filter = HsvFilter(350.0, 10.0, 0.5, 1.0, 0.2, 1.0)
        dims = FrameDims(20, 20)
        arr = np.empty((20, 20, 3), dtype=np.uint8)
        arr[:10] = (255, 0, 8)  # hue ~358, inside the wrapped interval
        arr[10:] = (0, 255, 0)
        match = red_filter.match_array(FrameRaster(arr))
        assert match[:10].all()
        assert not match[10:].any()

    def test_vertical_axis_side_split(self):
        dims = FrameDims(100, 60)
        arr = np.empty((dims.h, dims.w, 3), dtype=np.uint8)
        arr[:, :40] = GREEN
        arr[:, 40:] = GRAY
        frame = FrameRaster(arr)
        candidates = [vertical_at(20.0), vertical_at(40.0), vertical_at(70.0)]
        prefix = row_prefix_sums(GREEN_FILTER.match_array(frame))
        best = select_boundary_european(candidates, prefix)
        assert best is candidates[1]


# --- exactness of the per-colour mask and the per-row half-plane counts ----------

def full_frame_match(hsv_filter: HsvFilter, frame: FrameRaster) -> np.ndarray:
    """The filter's thresholds applied to frame_to_hsv on every pixel."""
    h, s, v = frame_to_hsv(frame.data)
    if hsv_filter.h_lo <= hsv_filter.h_hi:
        hue_ok = (h >= hsv_filter.h_lo) & (h <= hsv_filter.h_hi)
    else:
        hue_ok = (h >= hsv_filter.h_lo) | (h <= hsv_filter.h_hi)
    return (
        hue_ok
        & (s >= hsv_filter.s_lo)
        & (s <= hsv_filter.s_hi)
        & (v >= hsv_filter.v_lo)
        & (v <= hsv_filter.v_hi)
    )


def full_frame_side(line: Line2, h: int, w: int) -> np.ndarray:
    xs = np.arange(w, dtype=np.float64)
    ys = np.arange(h, dtype=np.float64)
    return line.a * xs[None, :] + line.b * ys[:, None] + line.c >= 0.0


def assert_runs_equal_full_frame(lines: list[Line2], h: int, w: int) -> None:
    """_row_runs of all the lines in one call gives each line's full-frame half-plane."""
    start, stop = _row_runs(lines, h, w)
    assert start.shape == stop.shape == (len(lines), h)
    xs = np.arange(w)[None, :]
    for line, line_start, line_stop in zip(lines, start, stop):
        runs = (xs >= line_start[:, None]) & (xs < line_stop[:, None])
        assert np.array_equal(runs, full_frame_side(line, h, w))


def full_frame_select(candidates, match, axis):
    """select_boundary_european with one full-frame half-plane per candidate."""
    dims = FrameDims(match.shape[1], match.shape[0])
    best, best_contrast = None, -1.0
    for cand in candidates:
        if classify_orientation(cand, dims) != axis:
            continue
        side = full_frame_side(cand, dims.h, dims.w)
        n_side = int(side.sum())
        n_other = side.size - n_side
        frac_side = float(match[side].sum()) / n_side if n_side else 0.0
        frac_other = float(match[~side].sum()) / n_other if n_other else 0.0
        contrast = abs(frac_side - frac_other)
        if contrast > best_contrast:
            best, best_contrast = cand, contrast
    return best


channel = st.integers(0, 255)
pixels = st.one_of(
    st.tuples(channel, channel, channel),
    channel.map(lambda g: (g, g, g)),
    st.tuples(channel, st.integers(-1, 1), st.integers(-1, 1)).map(
        lambda p: (p[0], min(255, max(0, p[0] + p[1])), min(255, max(0, p[0] + p[2])))
    ),
)


@st.composite
def frames_and_filters(draw):
    h, w = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    arr = np.array(draw(st.lists(pixels, min_size=h * w, max_size=h * w)), dtype=np.uint8)
    frame = FrameRaster(arr.reshape(h, w, 3))
    hue, sat, val = (c.ravel().tolist() for c in frame_to_hsv(frame.data))

    def bound(seen, lo, hi):
        # a bound equal to some pixel's own value tests the closed ends
        return draw(st.one_of(st.sampled_from(seen), st.floats(lo, hi), st.just(lo)))

    h_lo, h_hi = bound(hue, 0.0, 360.0), bound(hue, 0.0, 360.0)
    s_lo, s_hi = sorted((bound(sat, 0.0, 1.0), bound(sat, 0.0, 1.0)))
    v_lo, v_hi = sorted((bound(val, 0.0, 1.0), bound(val, 0.0, 1.0)))
    return frame, HsvFilter(h_lo, h_hi, s_lo, s_hi, v_lo, v_hi)


SPECIAL_NORMALS = [
    (0.0, 1.0),
    (-0.0, 1.0),
    (-0.0, -1.0),
    (1.0, 0.0),
    (-1.0, -0.0),
    (1.0, 6.123233995736766e-17),
    (-1.0, 6.123233995736766e-17),
]


@st.composite
def lines(draw, h: int, w: int):
    a, b = draw(
        st.one_of(
            st.sampled_from(SPECIAL_NORMALS),
            st.floats(-math.pi, math.pi).map(lambda t: (math.cos(t), math.sin(t))),
        )
    )
    # mostly through a pixel centre (where the rounding of a*x + b*y + c
    # decides the side), else anywhere, or far outside the frame
    x0, y0 = draw(st.integers(-1, w)), draw(st.integers(-1, h))
    c = draw(
        st.one_of(
            st.just(-(a * x0 + b * y0)),
            st.just(-(a * x0 + b * y0)),
            st.floats(-2.0 * (w + h), 2.0 * (w + h)),
            st.sampled_from([-1e6, 1e6]),
        )
    )
    return Line2(a, b, c)


@st.composite
def masks_and_lines(draw):
    h, w = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    bits = draw(st.lists(st.booleans(), min_size=h * w, max_size=h * w))
    match = np.array(bits, dtype=bool).reshape(h, w)
    candidates = draw(st.lists(lines(h, w), min_size=1, max_size=6))
    return match, candidates


class TestEuropeanExactness:
    @settings(max_examples=300)
    @given(frames_and_filters())
    def test_match_array_equals_full_frame_thresholds(self, case):
        frame, hsv_filter = case
        match = hsv_filter.match_array(frame)
        assert match.dtype == bool and match.shape == frame.data.shape[:2]
        assert np.array_equal(match, full_frame_match(hsv_filter, frame))

    def test_match_array_on_every_grey(self):
        arr = np.repeat(np.arange(256, dtype=np.uint8), 3).reshape(16, 16, 3)
        frame = FrameRaster(arr)
        for hsv_filter in (HsvFilter(0.0, 0.0), HsvFilter(350.0, 0.0, 0.0, 0.0, 0.5, 1.0)):
            assert np.array_equal(hsv_filter.match_array(frame), full_frame_match(hsv_filter, frame))

    @settings(max_examples=300)
    @given(masks_and_lines())
    def test_row_runs_equal_full_frame_half_plane(self, case):
        match, candidates = case
        h, w = match.shape
        assert_runs_equal_full_frame(candidates, h, w)

    def test_row_runs_of_mixed_signs_in_one_call(self):
        # a > 0, a < 0, a = +0.0, a = -0.0 (whole rows or none), and lines
        # that miss the frame on either side, through pixel centres where
        # rounding decides the side
        h, w = 7, 11
        candidates = [
            line_from_points(Point2(3.0, 0.0), Point2(8.0, 6.0)),  # a < 0
            line_from_points(Point2(8.0, 6.0), Point2(3.0, 0.0)),  # the same line, a > 0
            line_from_points(Point2(2.0, 6.0), Point2(8.0, 0.0)),  # a > 0, b > 0
            Line2(0.0, 1.0, -3.0),
            Line2(-0.0, -1.0, 3.0),
            Line2(0.0, -1.0, 3.0),
            Line2(-0.0, 1.0, -3.0),
            Line2(0.6, 0.8, 1e6),
            Line2(-0.6, 0.8, 1e6),
            Line2(0.6, -0.8, -1e6),
        ]
        assert_runs_equal_full_frame(candidates, h, w)

    @settings(max_examples=300)
    @given(masks_and_lines(), st.sampled_from([Orientation.HORIZONTAL, Orientation.VERTICAL]))
    def test_selection_equals_full_frame_oracle(self, case, axis):
        match, candidates = case
        prefix = row_prefix_sums(match)
        expected = full_frame_select(candidates, match, axis)
        horizontal, vertical = lines_by_axis(candidates, FrameDims(match.shape[1], match.shape[0]))
        axis_cands = horizontal if axis == Orientation.HORIZONTAL else vertical
        if expected is None:
            with pytest.raises(ValueError, match="at least one candidate"):
                select_boundary_european(axis_cands, prefix)
        elif not match.any() or match.all():
            with pytest.raises(DegenerateCourt):
                select_boundary_european(axis_cands, prefix)
        else:
            assert select_boundary_european(axis_cands, prefix) is expected

    def test_match_array_peak_on_1080p_below_32_mb(self):
        # keys (8.3 MB), the colour table (16.8 MB) and the response
        # (2.1 MB); a frame of few colours, so the palette stays small
        frame = two_band_frame(DIMS, 540)
        tracemalloc.start()
        try:
            GREEN_FILTER.match_array(frame)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32e6

    @pytest.mark.parametrize("bound", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", range(6))
    def test_non_finite_bound_rejected(self, bound, field):
        bounds = [90.0, 150.0, 0.4, 1.0, 0.2, 1.0]
        bounds[field] = bound
        with pytest.raises(ValueError, match="finite"):
            HsvFilter(*bounds)


def banded_mask(w: int, h: int, top_rows: int, bottom_start: int, sparse: float, seed: int):
    rng = np.random.default_rng(seed)
    bits = rng.random((h, w)) < sparse
    bits[:top_rows] = True
    bits[bottom_start:] = True
    return BinaryMask(bits)


def converge_sorted_oracle(mask, orientation_line, step, drop_tol):
    """converge_boundaries_nba with one argsort of every pixel's projection
    and people prefix sums in that order."""
    if not 1.0 <= step < math.inf:
        raise ValueError(f"step must be a finite number of pixels >= 1, got {step}")
    a, b = orientation_line.a, orientation_line.b
    if b < -_EDGE_TOL or (abs(b) <= _EDGE_TOL and a < 0.0):
        a, b = -a, -b
    bits = mask.bits
    h, w = bits.shape
    proj = (a * np.arange(w, dtype=np.float64))[None, :] + (
        b * np.arange(h, dtype=np.float64)
    )[:, None]
    order = np.argsort(proj.reshape(-1), kind="stable")
    proj_sorted = proj.reshape(-1)[order]
    people_prefix = np.concatenate(([0], np.cumsum(bits.reshape(-1)[order])))
    n_pixels = proj_sorted.size
    total_people = int(people_prefix[-1])

    def frac_above(rho):
        k = int(np.searchsorted(proj_sorted, rho, side="left"))
        return float(people_prefix[k]) / k if k > 0 else 0.0

    def frac_below(rho):
        k = int(np.searchsorted(proj_sorted, rho, side="right"))
        count = n_pixels - k
        return float(total_people - people_prefix[k]) / count if count > 0 else 0.0

    rho_top = float(proj_sorted[0])
    rho_bottom = float(proj_sorted[-1])
    prev_top = frac_above(rho_top)
    prev_bottom = frac_below(rho_bottom)
    seen_top = prev_top > 0.0
    seen_bottom = prev_bottom > 0.0
    fixed_top = fixed_bottom = False
    while not (fixed_top and fixed_bottom):
        if not fixed_top:
            rho_top += step
        if not fixed_bottom:
            rho_bottom -= step
        if rho_top > rho_bottom:
            if not fixed_top and not fixed_bottom:
                raise DegenerateCourt("boundary candidates met before any fraction drop")
            if fixed_top:
                rho_bottom = rho_top
                fixed_bottom = True
            else:
                rho_top = rho_bottom
                fixed_top = True
            break
        pct_top = frac_above(rho_top)
        pct_bottom = frac_below(rho_bottom)
        if not fixed_top:
            if seen_top and pct_top < prev_top - drop_tol:
                rho_top -= step
                fixed_top = True
            else:
                prev_top = pct_top
                seen_top = seen_top or pct_top > 0.0
        if not fixed_bottom:
            if seen_bottom and pct_bottom < prev_bottom - drop_tol:
                rho_bottom += step
                fixed_bottom = True
            else:
                prev_bottom = pct_bottom
                seen_bottom = seen_bottom or pct_bottom > 0.0
    return Line2(a, b, -rho_top), Line2(a, b, -rho_bottom)


@st.composite
def convergence_masks(draw):
    kind = draw(st.sampled_from(["rows", "cols", "random", "false", "true"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    h, w = rng.integers(1, 61, size=2)
    bits = rng.random((h, w)) < draw(st.sampled_from([0.05, 0.5, 0.0]))
    if kind in ("false", "true"):
        bits[:] = kind == "true"
    elif kind in ("rows", "cols"):
        n = h if kind == "rows" else w
        lo, hi = sorted(rng.integers(0, n + 1, size=2))
        outside = np.ones(n, dtype=bool)
        outside[lo:hi] = False
        if kind == "rows":
            bits[outside] = True
        else:
            bits[:, outside] = True
    return BinaryMask(bits)


orientation_lines = st.one_of(
    st.sampled_from(
        [(0.0, 1.0), (-0.0, 1.0), (0.0, -1.0), (-0.0, -1.0), (1.0, 0.0), (-1.0, 0.0),
         (1.0, -0.0), (-1.0, -0.0), (1.0, 1.0), (-1.0, -1.0), (1.0, -1.0), (-1.0, 1.0),
         (1.0, 1e-10), (-1.0, -1e-10), (1.0, -1e-10), (-1.0, 1e-10), (-3.0, -2.0)]
    ),
    st.tuples(*[st.floats(-1.0, 1.0)] * 2).filter(lambda ab: math.hypot(*ab) > 1e-6),
).map(lambda ab: Line2(ab[0], ab[1], 0.0))


def converge_outcome(fn, mask, line, step, drop_tol):
    try:
        return [[x.hex() for x in l.coeffs()] for l in fn(mask, line, step, drop_tol)]
    except (DegenerateCourt, ValueError) as exc:
        return type(exc), str(exc)


class TestConvergeBoundariesNba:
    @settings(max_examples=max(300, settings.default.max_examples))
    @given(
        mask=convergence_masks(),
        line=orientation_lines,
        step=st.sampled_from([1.0, 1.5, 2.0, 3.7]),
        drop_tol=st.sampled_from([0.0, 0.005, 0.1]),
    )
    def test_equals_sorted_oracle_bit_for_bit(self, mask, line, step, drop_tol):
        assert converge_outcome(converge_boundaries_nba, mask, line, step, drop_tol) == (
            converge_outcome(converge_sorted_oracle, mask, line, step, drop_tol)
        )

    def test_planted_bands_recovered(self):
        mask = banded_mask(192, 1080, top_rows=200, bottom_start=900, sparse=0.05, seed=0)
        top, bottom = converge_boundaries_nba(mask, Line2.horizontal_at(0.0), step=2.0)
        assert abs(-top.c / top.b - 200.0) <= 4.0
        assert abs(-bottom.c / bottom.b - 900.0) <= 4.0

    def test_all_false_mask_is_degenerate(self):
        mask = BinaryMask(np.zeros((200, 64), dtype=bool))
        with pytest.raises(DegenerateCourt):
            converge_boundaries_nba(mask, Line2.horizontal_at(0.0), step=2.0)

    def test_single_band_bottom_runs_to_meeting(self):
        bits = np.zeros((400, 192), dtype=bool)
        bits[:100] = True
        mask = BinaryMask(bits)
        top, bottom = converge_boundaries_nba(mask, Line2.horizontal_at(0.0), step=2.0)
        rho_top = -top.c / top.b
        rho_bottom = -bottom.c / bottom.b
        assert abs(rho_top - 100.0) <= 4.0
        assert rho_bottom == pytest.approx(rho_top)

    def test_seeded_band_recovery(self):
        for seed in (11, 22, 33):
            rng = random.Random(seed)
            h = 600
            top_rows = rng.randrange(60, 150)
            bottom_start = rng.randrange(380, 520)
            mask = banded_mask(128, h, top_rows, bottom_start, sparse=0.04, seed=seed)
            top, bottom = converge_boundaries_nba(mask, Line2.horizontal_at(0.0), step=2.0)
            assert abs(-top.c / top.b - top_rows) <= 4.0
            assert abs(-bottom.c / bottom.b - bottom_start) <= 4.0

    def test_vertical_orientation_scans_columns(self):
        rng = np.random.default_rng(5)
        bits = rng.random((120, 400)) < 0.04
        bits[:, :50] = True
        bits[:, 340:] = True
        mask = BinaryMask(bits)
        left, right = converge_boundaries_nba(mask, vertical_at(0.0), step=2.0)
        assert abs(-left.c / left.a - 50.0) <= 4.0
        assert abs(-right.c / right.a - 340.0) <= 4.0

    def test_step_must_be_at_least_one(self):
        mask = BinaryMask(np.ones((10, 10), dtype=bool))
        with pytest.raises(ValueError):
            converge_boundaries_nba(mask, Line2.horizontal_at(0.0), step=0.5)

    @pytest.mark.parametrize("step", [math.nan, math.inf])
    def test_non_finite_step_rejected(self, step):
        # a NaN step never reaches the other line, so the loop would not end
        mask = BinaryMask(np.ones((10, 10), dtype=bool))
        with pytest.raises(ValueError, match="finite"):
            converge_boundaries_nba(mask, Line2.horizontal_at(0.0), step=step)

    @pytest.mark.parametrize("drop_tol", [-0.5, math.nan, 1.5])
    def test_drop_tol_outside_unit_interval_rejected(self, drop_tol):
        # -0.5 would fix each line at its first step, 1.5 never, and NaN never
        bits = np.zeros((400, 192), dtype=bool)
        bits[:100] = True
        bits[300:] = True
        mask = BinaryMask(bits)
        top, bottom = converge_boundaries_nba(mask, Line2.horizontal_at(0.0), step=1.0)
        assert (-top.c / top.b, -bottom.c / bottom.b) == (100.0, 299.0)
        with pytest.raises(ValueError, match=r"drop_tol must lie in \[0, 1\)"):
            converge_boundaries_nba(mask, Line2.horizontal_at(0.0), step=1.0, drop_tol=drop_tol)


def on_court(region: CourtRegion, p: Point2) -> bool:
    """The orientation `court` writes: every boundary's signed distance
    is >= 0 on court, and some boundary's is < 0 off it."""
    return all(line.signed(p) >= 0.0 for line in region.boundaries())


class TestCourtRegion:
    def test_membership_full_frame_band(self):
        region = CourtRegion.from_boundaries(
            Line2.horizontal_at(100.0), Line2.horizontal_at(900.0), None, None, DIMS
        )
        assert on_court(region, Point2(960.0, 540.0))
        assert not on_court(region, Point2(960.0, 50.0))
        assert on_court(region, Point2(960.0, 100.0))  # boundary is closed

    def test_membership_with_lateral_boundaries(self):
        region = CourtRegion.from_boundaries(
            Line2.horizontal_at(100.0),
            Line2.horizontal_at(900.0),
            vertical_at(200.0),
            vertical_at(1700.0),
            DIMS,
        )
        assert on_court(region, Point2(960.0, 500.0))
        assert not on_court(region, Point2(100.0, 500.0))
        assert not on_court(region, Point2(1800.0, 500.0))

    def test_empty_region_rejected(self):
        with pytest.raises(DegenerateCourt):
            CourtRegion.from_boundaries(
                Line2.horizontal_at(500.0), Line2.horizontal_at(500.0), None, None, DIMS
            )

    def test_boundaries_enclosing_no_area_rejected(self):
        # both lateral lines cut the bottom left corner and face each other
        # below row 700, so nothing of the band between rows 100 and 300 is left
        left = line_from_points(Point2(0.0, 900.0), Point2(300.0, 1080.0))
        right = line_from_points(Point2(0.0, 700.0), Point2(900.0, 1080.0))
        with pytest.raises(DegenerateCourt, match="court boundaries enclose an empty region"):
            CourtRegion.from_boundaries(
                Line2.horizontal_at(100.0), Line2.horizontal_at(300.0), left, right, DIMS
            )

    def test_horizontal_lateral_boundary_rejected(self):
        with pytest.raises(DegenerateCourt, match="lateral boundary must classify as vertical"):
            CourtRegion.from_boundaries(
                Line2.horizontal_at(100.0), Line2.horizontal_at(900.0), Line2.horizontal_at(500.0), None, DIMS
            )

    def test_misclassified_boundary_rejected(self):
        with pytest.raises(DegenerateCourt, match="top boundary must classify as horizontal"):
            CourtRegion(
                vertical_at(10.0),
                Line2.horizontal_at(900.0),
                None,
                None,
                DIMS,
            )


def planted_court(seed: int):
    """Segments, frame, people mask and the planted {side: row or column
    where it crosses the frame's middle column or row} of a court like the
    benchmark's clips: a green floor inside the four boundaries, crowd
    around it, dashed segments along each boundary among short noise
    segments, and sparse people on the floor. Both lateral sides lean by
    the same 15-30 px over the court's height, so that the lateral lines
    of the NBA variant, found in a band of rows, must be shifted back."""
    rng = np.random.default_rng(seed)
    w, h = 480, 270
    top, bottom = int(rng.integers(40, 70)), int(rng.integers(215, 240))
    left, right = int(rng.integers(40, 70)), w - int(rng.integers(40, 70))
    shear = rng.choice([-1.0, 1.0]) * rng.uniform(15.0, 30.0) / (bottom - top)
    ys, xs = np.mgrid[0:h, 0:w]
    lean = shear * (ys - top)
    floor = (ys >= top) & (ys < bottom) & (xs >= left + lean) & (xs < right + lean)
    rgb = np.full((h, w, 3), 100, dtype=np.uint8)
    rgb[bottom:] = (120, 80, 50)
    rgb[floor] = (40, 140, 60)
    people = ~floor | (rng.random((h, w)) < 0.02)
    segments = []
    dx = shear * (bottom - top)
    for x0, y0, x1, y1 in ((0, top, w, top), (0, bottom, w, bottom), (left, top, left + dx, bottom),
                           (right, top, right + dx, bottom)):
        for f in np.arange(0.0, 1.0, 0.1):  # dashes over 70% of the line
            segments.append((x0 + f * (x1 - x0), y0 + f * (y1 - y0),
                             x0 + (f + 0.07) * (x1 - x0), y0 + (f + 0.07) * (y1 - y0)))
    for _ in range(300):
        x, y = rng.uniform(10.0, w - 10.0), rng.uniform(10.0, h - 10.0)
        angle, length = rng.uniform(0.0, math.pi), rng.uniform(5.0, 15.0)
        segments.append((x, y, x + length * math.cos(angle), y + length * math.sin(angle)))
    mid = shear * (h / 2.0 - top)
    planted = {"top": top, "bottom": bottom, "left": left + mid, "right": right + mid}
    return np.array(segments), FrameRaster(rgb), BinaryMask(people), planted


def side_offset(region: CourtRegion, side: str) -> float:
    """Where a side crosses the frame's middle column (top, bottom) or row (left, right)."""
    a, b, c = region.to_json_dict()[side]
    if side in ("top", "bottom"):
        return -(a * region.dims.w / 2.0 + c) / b
    return -(b * region.dims.h / 2.0 + c) / a


class TestCourtEstimate:
    STEP = 2.0

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_nba_recovers_every_planted_side(self, seed):
        segments, _, mask, planted = planted_court(seed)
        region = nba_region(segments, mask, step=self.STEP)
        for side, at in planted.items():
            assert abs(side_offset(region, side) - at) <= 2 * self.STEP, side

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_european_recovers_top_and_one_lateral_side(self, seed):
        segments, frame, _, planted = planted_court(seed)
        region = european_region(segments, frame, (90.0, 150.0, 0.4, 1.0, 0.2, 1.0))
        assert abs(side_offset(region, "top") - planted["top"]) <= 2 * self.STEP
        # the bottom is the frame's edge, and only the lateral side of larger contrast is found
        assert side_offset(region, "bottom") == frame.dims.h
        found = [side for side in ("left", "right") if region.to_json_dict()[side] is not None]
        assert len(found) == 1
        assert abs(side_offset(region, found[0]) - planted[found[0]]) <= 2 * self.STEP

    def test_degenerate_vertical_convergence_leaves_no_lateral_side(self):
        # no person between the crowd bands, so the vertical lines meet before any fraction drops
        bits = np.zeros((400, 192), dtype=bool)
        bits[:80] = True
        bits[320:] = True
        segments = np.array([[0.0, 200.0, 191.0, 200.0], [96.0, 0.0, 96.0, 399.0]])
        region = nba_region(segments, BinaryMask(bits))
        assert region.left is None and region.right is None
        assert -region.top.c / region.top.b == 80.0
        r0, r1 = _rows_between(region.top, region.bottom, region.dims)
        assert r1 - r0 >= 2
        with pytest.raises(DegenerateCourt, match="met before any fraction drop"):
            converge_boundaries_nba(BinaryMask(bits[r0:r1]), vertical_at(96.0))

    def test_band_edge_just_above_row_zero_keeps_row_zero(self):
        dims = FrameDims(100, 50)
        top, bottom = Line2.horizontal_at(-0.5), Line2.horizontal_at(20.5)
        assert _rows_between(top, bottom, dims) == (0, 21)
        assert _rows_between(Line2.horizontal_at(3.0), bottom, dims) == (4, 21)

    def test_no_horizontal_candidate_is_degenerate(self):
        segments = np.array([[96.0, 0.0, 96.0, 399.0]])
        with pytest.raises(DegenerateCourt, match="no candidate line of axis horizontal"):
            nba_region(segments, BinaryMask(np.ones((400, 192), dtype=bool)))


class TestSegmentsCsv:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "segments.csv"
        path.write_text("0,100,10,100\n5.5,2.25,9,9\n")
        segments = read_segments_csv(path)
        assert segments.shape == (2, 4)
        assert Point2(*segments[1, :2].tolist()) == Point2(5.5, 2.25)

    def test_bad_field_reports_location(self, tmp_path):
        path = tmp_path / "segments.csv"
        path.write_text("0,100,10,100\n1,2,zzz,4\n")
        with pytest.raises(InputFormatError) as err:
            read_segments_csv(path)
        assert "2" in str(err.value)
        assert "x1" in str(err.value)

    def test_error_names_the_file_line_after_a_multi_line_field(self, tmp_path):
        # the quoted "30\n" spans lines 1 and 2, so the bad y0 is on line 3
        path = tmp_path / "seg.csv"
        path.write_text('0,"30\n",99,30\n10,x,40,10\n')
        with pytest.raises(InputFormatError) as err:
            read_segments_csv(path)
        assert err.value.line == 3 and err.value.field == "y0" and "seg.csv:3" in str(err.value)

    @pytest.mark.parametrize(
        "text, line, words",
        [
            ("0,0,inf,0\n", 1, "not finite"),
            # a row that cannot vote is named before a later unparsable one
            ("1,1,1,1\n1,2,zzz,4\n", 1, "coincide"),
            # a finite length whose line offset overflows
            ("0,200,191,200\n1e200,1e200,2e200,1e200\n", 2, "beyond 1e\\+75"),
            # a finite length, but its cube (the fit's second moment) overflows
            ("0,200,191,200\n0,0,1e103,0\n", 2, "beyond 1e\\+75"),
        ],
    )
    def test_first_row_that_cannot_vote_names_its_line(self, tmp_path, text, line, words):
        path = tmp_path / "segments.csv"
        path.write_text(text)
        with pytest.raises(InputFormatError, match=words) as err:
            read_segments_csv(path)
        assert err.value.line == line

    def test_bound_is_inclusive(self, tmp_path):
        path = tmp_path / "segments.csv"
        path.write_text(f"{-MAX_COORD!r},0,{MAX_COORD!r},0\n")
        assert read_segments_csv(path).tolist() == [[-MAX_COORD, 0.0, MAX_COORD, 0.0]]
        beyond = math.nextafter(MAX_COORD, math.inf)
        path.write_text(f"0,200,191,200\n0,{-beyond!r},1,0\n")
        with pytest.raises(InputFormatError, match="beyond") as err:
            read_segments_csv(path)
        assert err.value.line == 2 and err.value.field == "y0"

    @settings(max_examples=max(300, settings.default.max_examples))
    @given(
        rows=st.lists(
            st.tuples(*[st.sampled_from([-MAX_COORD, -MAX_COORD / 3, 0.0, 1.0, MAX_COORD / 7, MAX_COORD])] * 4),
            min_size=1,
            max_size=24,
        )
    )
    def test_every_row_within_the_bound_fits_a_finite_line(self, rows):
        # far-apart segments of one cell are what overflowed the fit's moments
        segments = np.array(rows, dtype=np.float64)
        assume((segments[:, :2] != segments[:, 2:]).any(axis=1).all())
        for vote in vote_dominant_lines(segments, len(rows)):
            assert all(map(math.isfinite, vote.line.coeffs())) and math.isfinite(vote.weight)

    def test_field_beyond_the_csv_limit_names_file_and_line(self, tmp_path):
        path = tmp_path / "segments.csv"
        path.write_text("0,100,10,100\n" + "1" * 200_000 + ",2,3,4\n")
        with pytest.raises(InputFormatError, match="field larger than field limit") as err:
            read_segments_csv(path)
        assert err.value.path == str(path) and err.value.line == 2 and err.value.field == "x0"

    def test_file_without_rows_names_it(self, tmp_path):
        path = tmp_path / "segments.csv"
        path.write_text("\n \n")
        with pytest.raises(InputFormatError, match="no segments") as err:
            read_segments_csv(path)
        assert err.value.path == str(path) and err.value.line is None

    def test_wrong_arity_rejected(self, tmp_path):
        path = tmp_path / "segments.csv"
        path.write_text("1,2,3\n")
        with pytest.raises(InputFormatError):
            read_segments_csv(path)

    def test_non_utf8_byte_reports_line(self, tmp_path):
        path = tmp_path / "segments.csv"
        path.write_bytes(b"0,100,10,100\n1,2,\xff\xfe,4\n")
        with pytest.raises(InputFormatError, match="UTF-8") as err:
            read_segments_csv(path)
        assert err.value.line == 2 and str(path) in str(err.value)
