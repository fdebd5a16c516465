"""Court-region estimation from line segments, color filters and people-masks.

The segment detector and the people segmentation are upstream inputs:
segments arrive as CSV rows "x0,y0,x1,y1" and masks as PGM files.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
import numpy as np

from .defaults import DEFAULT_DROP_TOL, DEFAULT_STEP_PX
from .errors import DegenerateCourt, InputFormatError, check_hsv_bounds, csv_number_rows
from .geometry import SINGULAR_TOL, FrameDims, Line2, Point2
from .imaging import BinaryMask, FrameRaster

THETA_BIN_DEG = 1.0
RHO_BIN_PX = 3.0

_EDGE_TOL = 1e-9
# candidates per bisection in select_boundary_european: at 1080p each
# (k, h) run array then holds about 0.5 MB, whatever their number
_RUN_BLOCK = 64


class Orientation(Enum):
    HORIZONTAL = "horizontal"
    VERTICAL = "vertical"
    NEITHER = "neither"


@dataclass(frozen=True)
class LineVote:
    line: Line2
    weight: float


@dataclass(frozen=True)
class HsvFilter:
    """HSV acceptance box; h_lo > h_hi means the hue interval wraps."""

    h_lo: float
    h_hi: float
    s_lo: float = 0.0
    s_hi: float = 1.0
    v_lo: float = 0.0
    v_hi: float = 1.0

    def __post_init__(self):
        check_hsv_bounds((self.h_lo, self.h_hi, self.s_lo, self.s_hi, self.v_lo, self.v_hi))

    def match_array(self, frame: FrameRaster) -> np.ndarray:
        """Per-pixel filter response as an (h, w) bool array.

        A pixel's response depends only on its (r, g, b), so the HSV test
        runs once per distinct colour of the frame and is looked up by
        each pixel's 24-bit colour key. The keys are one uint32 array,
        shifted and or-ed in place.
        """
        rgb = frame.data
        keys = rgb[..., 0].astype(np.uint32)
        keys <<= 8
        keys |= rgb[..., 1]
        keys <<= 8
        keys |= rgb[..., 2]
        table = np.zeros(1 << 24, dtype=bool)
        table[keys] = True
        colours = np.flatnonzero(table)
        palette = np.stack([colours >> 16, (colours >> 8) & 0xFF, colours & 0xFF], axis=-1)
        h, s, v = frame_to_hsv(palette)
        if self.h_lo <= self.h_hi:
            hue_ok = (h >= self.h_lo) & (h <= self.h_hi)
        else:
            hue_ok = (h >= self.h_lo) | (h <= self.h_hi)
        ok = hue_ok & (s >= self.s_lo) & (s <= self.s_hi) & (v >= self.v_lo) & (v <= self.v_hi)
        table[colours] = ok
        return table[keys]


def frame_to_hsv(rgb: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized hexcone conversion of an (..., 3) array of 0..255
    colours; returns (h, s, v) float arrays of its leading shape."""
    rgb = rgb.astype(np.float64) / 255.0
    r, g, b = np.moveaxis(rgb, -1, 0)
    maxc = rgb.max(axis=-1)
    delta = maxc - rgb.min(axis=-1)
    chrom = delta > 0.0
    safe = np.where(chrom, delta, 1.0)
    rc, gc, bc = ((maxc - c) / safe for c in (r, g, b))
    h = np.select([~chrom, maxc == r, maxc == g], [0.0, bc - gc, 2.0 + rc - bc], 4.0 + gc - rc)
    h = (h / 6.0) % 1.0 * 360.0
    s = delta / np.where(maxc > 0.0, maxc, 1.0)  # maxc == 0 leaves delta == 0
    return h, s, maxc


# --- dominant-line voting --------------------------------------------------

def _segment_lines(segments: np.ndarray) -> tuple[np.ndarray, ...]:
    """Each row's length and the normalised line (a, b, c) through its
    endpoints: (a, b) = (-dy, dx), c = -(a*x0 + b*y0), then
    Line2.__post_init__'s IEEE operations in their order."""
    x0, y0, x1, y1 = segments.T
    dx, dy = x1 - x0, y1 - y0
    a, b = -dy, dx
    c = -(a * x0 + b * y0)
    length = np.array(list(map(math.hypot, dx.tolist(), dy.tolist())))
    norm = np.array(list(map(math.hypot, a.tolist(), b.tolist())))
    return length, a / norm, b / norm, c / norm


def _fit_cell_line(rows: list[list[float]]) -> Line2:
    """Length-weighted orthogonal least-squares line through segments
    (x0, y0, x1, y1).

    Each segment contributes its midpoint plus the second moment of a
    uniform mass along its own extent, so collinear segments recover
    their common line exactly.
    """
    weights = [math.hypot(x1 - x0, y1 - y0) for x0, y0, x1, y1 in rows]
    mids = [((x0 + x1) / 2.0, (y0 + y1) / 2.0) for x0, y0, x1, y1 in rows]
    total = math.fsum(weights)
    mx = math.fsum(w * x for w, (x, _) in zip(weights, mids)) / total
    my = math.fsum(w * y for w, (_, y) in zip(weights, mids)) / total

    sxx = sxy = syy = 0.0
    for w, (x0, y0, x1, y1), (x, y) in zip(weights, rows, mids):
        ux, uy = (x1 - x0) / w, (y1 - y0) / w
        dx, dy = x - mx, y - my
        along = w * w * w / 12.0  # integral of t^2 over the segment, times weight density
        sxx += w * dx * dx + along * ux * ux
        sxy += w * dx * dy + along * ux * uy
        syy += w * dy * dy + along * uy * uy

    phi = 0.5 * math.atan2(2.0 * sxy, sxx - syy)
    a, b = -math.sin(phi), math.cos(phi)
    return Line2(a, b, -(a * mx + b * my))


def vote_dominant_lines(segments: np.ndarray, limit: int) -> list[LineVote]:
    """The `limit` best candidate lines of an (n, 4) segment array,
    ranked by the total length of their supporting segments.

    Each segment votes once, into the cell of its own line: 1-degree
    bins of the normal angle folded into [-0.5, 179.5), so that nearly
    identical lines never split across the seam, and 3-px offset bins.
    The cells are floored floats, so an offset past int64 still bins.
    Cells rank by total length, then by cell. Only the first `limit`
    cells are fitted: a cell's line is the weighted fit of its rows.
    """
    if len(segments) == 0:
        raise ValueError("dominant-line voting needs at least one segment")
    if limit < 1:
        raise ValueError(f"limit must be at least 1, got {limit}")
    length, a, b, c = _segment_lines(segments)
    theta = np.array(list(map(math.degrees, map(math.atan2, b.tolist(), a.tolist()))))
    below = theta < 0.0
    theta, c = np.where(below, theta + 180.0, theta), np.where(below, -c, c)
    seam = theta >= 180.0 - THETA_BIN_DEG / 2.0
    theta, c = np.where(seam, theta - 180.0, theta), np.where(seam, -c, c)
    t_idx = np.floor((theta + THETA_BIN_DEG / 2.0) / THETA_BIN_DEG)
    r_idx = np.floor(-c / RHO_BIN_PX + 0.5)

    # rows grouped by cell, cells in ascending (t_idx, r_idx), rows in input order
    order = np.lexsort((r_idx, t_idx))
    t_idx, r_idx = t_idx[order], r_idx[order]
    starts = np.flatnonzero(np.r_[True, (t_idx[1:] != t_idx[:-1]) | (r_idx[1:] != r_idx[:-1])])
    stops = np.r_[starts[1:], len(order)]
    weight = length[order[starts]]
    for k in np.flatnonzero(stops - starts > 1).tolist():
        weight[k] = math.fsum(length[order[starts[k] : stops[k]]].tolist())
    votes = []
    for k in np.lexsort((r_idx[starts], t_idx[starts], -weight))[:limit].tolist():
        rows = sorted(segments[order[starts[k] : stops[k]]].tolist())
        votes.append(LineVote(_fit_cell_line(rows), float(weight[k])))
    return votes


# --- orientation classification --------------------------------------------

def _side_crossings(line: Line2, dims: FrameDims) -> tuple[bool, bool, bool, bool]:
    """Whether the line crosses the (left, right, top, bottom) frame sides."""
    a, b, c = line.a, line.b, line.c
    w, h = float(dims.w), float(dims.h)
    if abs(b) > _EDGE_TOL:
        y_left = -c / b
        y_right = -(a * w + c) / b
        left = -_EDGE_TOL <= y_left <= h + _EDGE_TOL
        right = -_EDGE_TOL <= y_right <= h + _EDGE_TOL
    else:
        x = -c / a
        left = abs(x) <= _EDGE_TOL
        right = abs(x - w) <= _EDGE_TOL
    if abs(a) > _EDGE_TOL:
        x_top = -c / a
        x_bottom = -(b * h + c) / a
        top = -_EDGE_TOL <= x_top <= w + _EDGE_TOL
        bottom = -_EDGE_TOL <= x_bottom <= w + _EDGE_TOL
    else:
        y = -c / b
        top = abs(y) <= _EDGE_TOL
        bottom = abs(y - h) <= _EDGE_TOL
    return left, right, top, bottom


def classify_orientation(line: Line2, dims: FrameDims) -> Orientation:
    """Horizontal lines leave through both lateral frame sides; vertical
    ones pair one of top/bottom with one of left/right (an exactly
    vertical line, crossing top and bottom, counts as vertical)."""
    left, right, top, bottom = _side_crossings(line, dims)
    if left and right:
        return Orientation.HORIZONTAL
    if top and bottom:
        return Orientation.VERTICAL
    if (top != bottom) and (left != right):
        return Orientation.VERTICAL
    return Orientation.NEITHER


def lines_by_axis(lines: list[Line2], dims: FrameDims) -> tuple[list[Line2], list[Line2]]:
    """The horizontal and the vertical lines among `lines`, each list in
    input order; every line is classified once."""
    by_axis: dict[Orientation, list[Line2]] = {axis: [] for axis in Orientation}
    for line in lines:
        by_axis[classify_orientation(line, dims)].append(line)
    return by_axis[Orientation.HORIZONTAL], by_axis[Orientation.VERTICAL]


# --- boundary selection: European HSV variant -------------------------------

def _row_runs(lines: list[Line2], h: int, w: int) -> tuple[np.ndarray, np.ndarray]:
    """Per line k and row y, the run [start[k, y], stop[k, y]) of x with
    `signed >= 0`, as two (k, h) arrays.

    In a row, `(a*x + b*y) + c` is monotone in x under IEEE rounding, so
    those pixels form one run at one end of the row: [end, w) when
    a >= 0 (a == 0, -0.0 included, gives the whole row or none of it)
    and [0, end) when a < 0. One bisection over integer x finds every
    line's and row's end; it evaluates the same float expression in the
    same order as a full-frame `a*xs + b*ys + c`, so every run is exact.
    """
    a, b, c = np.array([line.coeffs() for line in lines]).T[..., None]  # each (k, 1)
    by = b * np.arange(h, dtype=np.float64)
    want = a >= 0.0  # the test's value on [end, w)
    lo = np.zeros(by.shape, dtype=np.int64)
    hi = np.full(by.shape, w, dtype=np.int64)
    while (open_ := lo < hi).any():
        mid = (lo + hi) // 2
        at_or_past = ((a * mid.astype(np.float64) + by) + c >= 0.0) == want
        hi = np.where(open_ & at_or_past, mid, hi)
        lo = np.where(open_ & ~at_or_past, mid + 1, lo)
    return np.where(want, lo, 0), np.where(want, w, lo)


def row_prefix_sums(match: np.ndarray) -> np.ndarray:
    """(h, w + 1) int32 table of an (h, w) bool response: [y, x] is the
    number of matching pixels among the first x of row y. The sums run
    in place: a bool input would be cast through a full-size copy."""
    h, w = match.shape
    prefix = np.zeros((h, w + 1), dtype=np.int32)
    prefix[:, 1:] = match
    np.cumsum(prefix[:, 1:], axis=1, out=prefix[:, 1:])
    return prefix


def select_boundary_european(candidates: list[Line2], prefix: np.ndarray) -> Line2:
    """Pick the candidate with the largest filter-response contrast.

    `prefix` is row_prefix_sums of the frame's HSV filter response
    (HsvFilter.match_array), built once for both axes. For each
    candidate, the fraction of filter-matching pixels is computed on
    each side half-plane; the candidate maximizing the absolute
    difference wins, first in input order on ties. A side is counted
    from per-row runs (`_row_runs`) against `prefix`, so the counts are
    those of the full-frame `a*x + b*y + c >= 0` test; the runs of
    _RUN_BLOCK candidates at a time come from one bisection. No
    candidate is a ValueError; a filter that matches no pixel or every
    pixel is a DegenerateCourt.
    """
    if not candidates:
        raise ValueError("boundary selection needs at least one candidate line")
    h, w = prefix.shape[0], prefix.shape[1] - 1
    rows = np.arange(h)
    n_match = int(prefix[:, -1].sum())
    if n_match in (0, w * h):
        # every candidate then has contrast 0: the filter tells no side from the other
        raise DegenerateCourt(f"the HSV filter matches {'no' if n_match == 0 else 'every'} pixel")

    contrasts = []
    for i in range(0, len(candidates), _RUN_BLOCK):
        start, stop = _row_runs(candidates[i : i + _RUN_BLOCK], h, w)
        n_side = (stop - start).sum(axis=1)
        m_side = (prefix[rows, stop] - prefix[rows, start]).sum(axis=1)
        # an empty side holds no match, so its fraction is 0 / 1
        frac_side = m_side / np.maximum(n_side, 1)
        frac_other = (n_match - m_side) / np.maximum(w * h - n_side, 1)
        contrasts.append(np.abs(frac_side - frac_other))
    return candidates[int(np.argmax(np.concatenate(contrasts)))]  # argmax keeps the first of ties


# --- boundary convergence: NBA people-mask variant ---------------------------

def converge_boundaries_nba(
    mask: BinaryMask,
    orientation_line: Line2,
    step: float = DEFAULT_STEP_PX,
    drop_tol: float = DEFAULT_DROP_TOL,
) -> tuple[Line2, Line2]:
    """Move two parallel boundary candidates inward until each percentage drops.

    Both lines share the orientation of `orientation_line` and start at
    the extreme ends of the mask. Each iteration moves the unfixed lines
    one step inward and evaluates the people fraction beyond the top line
    and the people fraction beyond the bottom line. A line whose own
    fraction drops by more than `drop_tol` against the previous iteration
    is fixed at its previous position. A fraction that starts at zero
    cannot fix its line until it first becomes positive; if the lines
    meet while neither is fixed the court is degenerate.

    A fraction needs two counts on one side of the line: the pixels and
    the people pixels there. Both come from binary searches in two
    sorted arrays, the projections of all pixels and those of the people
    pixels, so they do not depend on how equal projections are ordered.
    """
    if not 1.0 <= step < math.inf:
        raise ValueError(f"step must be a finite number of pixels >= 1, got {step}")
    if not 0.0 <= drop_tol < 1.0:
        raise ValueError(f"drop_tol must lie in [0, 1), got {drop_tol}")
    a, b = orientation_line.a, orientation_line.b
    if b < -_EDGE_TOL or (abs(b) <= _EDGE_TOL and a < 0.0):
        a, b = -a, -b

    # Lay the projections out in runs that already ascend (rows along the
    # dominant axis, each walked in the direction its projection grows),
    # so that the stable sort (timsort) only merges runs. Each entry is
    # a*x + b*y bit for bit in either layout: float addition commutes.
    bits = mask.bits
    h, w = bits.shape
    xs = np.arange(w, dtype=np.float64)
    ys = np.arange(h, dtype=np.float64)
    if a < 0.0:
        xs, bits = xs[::-1], bits[:, ::-1]
    if b < 0.0:
        ys, bits = ys[::-1], bits[::-1]
    if abs(a) <= abs(b):
        proj = np.add.outer(b * ys, a * xs).reshape(-1)
        bits = bits.reshape(-1)
    else:
        proj = np.add.outer(a * xs, b * ys).reshape(-1)
        bits = bits.T.reshape(-1)
    proj_people = proj[bits]
    proj.sort(kind="stable")
    proj_people.sort(kind="stable")
    n_pixels = proj.size
    n_people = proj_people.size

    def frac_above(rho: float) -> float:
        k = int(np.searchsorted(proj, rho, side="left"))
        people = int(np.searchsorted(proj_people, rho, side="left"))
        return float(people) / k if k > 0 else 0.0

    def frac_below(rho: float) -> float:
        k = int(np.searchsorted(proj, rho, side="right"))
        count = n_pixels - k
        people = n_people - int(np.searchsorted(proj_people, rho, side="right"))
        return float(people) / count if count > 0 else 0.0

    rho_top = float(proj[0])
    rho_bottom = float(proj[-1])
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
            # the still-moving line stops where it meets the fixed one
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


# --- court region ------------------------------------------------------------

def _closest_point_on_line(line: Line2, p: Point2) -> Point2:
    d = line.signed(p)
    return Point2(p.x - d * line.a, p.y - d * line.b)


def _orient_towards(line: Line2, witness: Point2) -> Line2:
    return line if line.signed(witness) >= 0.0 else line.negated()


def _orient_facing(line: Line2, other: Line2, center: Point2) -> Line2:
    """Orient `line` toward its paired boundary; coincident pairs have no
    interior between them and are rejected."""
    witness = _closest_point_on_line(other, center)
    d = line.signed(witness)
    if abs(d) <= _EDGE_TOL:
        raise DegenerateCourt("paired court boundaries coincide")
    return line if d > 0.0 else line.negated()


def _clip_halfplane(poly: list[Point2], line: Line2) -> list[Point2]:
    out: list[Point2] = []
    n = len(poly)
    for i in range(n):
        cur, nxt = poly[i], poly[(i + 1) % n]
        d_cur, d_nxt = line.signed(cur), line.signed(nxt)
        if d_cur >= 0.0:
            out.append(cur)
        if (d_cur >= 0.0) != (d_nxt >= 0.0):
            t = d_cur / (d_cur - d_nxt)
            out.append(Point2(cur.x + t * (nxt.x - cur.x), cur.y + t * (nxt.y - cur.y)))
    return out


def _polygon_area(poly: list[Point2]) -> float:
    if len(poly) < 3:
        return 0.0
    s = 0.0
    for i in range(len(poly)):
        p, q = poly[i], poly[(i + 1) % len(poly)]
        s += p.x * q.y - q.x * p.y
    return abs(s) / 2.0


@dataclass(frozen=True)
class CourtRegion:
    """Court half-plane intersection; stored lines point inward, so a
    point is on court iff every signed distance is >= 0."""

    top: Line2
    bottom: Line2
    left: Line2 | None
    right: Line2 | None
    dims: FrameDims

    def __post_init__(self):
        if classify_orientation(self.top, self.dims) != Orientation.HORIZONTAL:
            raise DegenerateCourt("top boundary must classify as horizontal")
        if classify_orientation(self.bottom, self.dims) != Orientation.HORIZONTAL:
            raise DegenerateCourt("bottom boundary must classify as horizontal")
        for side in (self.left, self.right):
            if side is not None and classify_orientation(side, self.dims) != Orientation.VERTICAL:
                raise DegenerateCourt("lateral boundary must classify as vertical")
        if _polygon_area(self._clip_frame()) <= 1e-9:
            raise DegenerateCourt("court boundaries enclose an empty region")

    def boundaries(self) -> list[Line2]:
        return [l for l in (self.top, self.bottom, self.left, self.right) if l is not None]

    def _clip_frame(self) -> list[Point2]:
        w, h = float(self.dims.w), float(self.dims.h)
        poly = [Point2(0.0, 0.0), Point2(w, 0.0), Point2(w, h), Point2(0.0, h)]
        for line in self.boundaries():
            poly = _clip_halfplane(poly, line)
            if not poly:
                return []
        return poly

    @classmethod
    def from_boundaries(
        cls,
        top: Line2,
        bottom: Line2,
        left: Line2 | None,
        right: Line2 | None,
        dims: FrameDims,
    ) -> "CourtRegion":
        """Build a region, orienting each boundary toward the court side."""
        center = Point2(dims.w / 2.0, dims.h / 2.0)
        top_o = _orient_facing(top, bottom, center)
        bottom_o = _orient_facing(bottom, top, center)
        left_o = right_o = None
        if left is not None:
            left_o = (
                _orient_facing(left, right, center)
                if right is not None
                else _orient_towards(left, center)
            )
        if right is not None:
            right_o = (
                _orient_facing(right, left, center)
                if left is not None
                else _orient_towards(right, center)
            )
        return cls(top_o, bottom_o, left_o, right_o, dims)


# --- segment ingestion --------------------------------------------------------

# Bound on a segment endpoint coordinate, chosen so that no weight, moment
# or product in the line fit can overflow. With every |coordinate| <= B,
# a segment's dx and dy lie within 2B and its length w within 2*sqrt(2)*B
# < 3B; its line offset c = -(a*x0 + b*y0) lies within 4B^2, and a
# weight times a midpoint coordinate within 3B^2. In _fit_cell_line the
# weighted mean lies within B, so a row's distance to it lies within 2B,
# and each row adds at most w*(2B)^2 + w^3/12 < 12B^3 + 3B^3 = 15B^3 to a
# second moment. At B = 1e75 that is 1.5e226: even 1e80 rows sum to
# 1.5e306, below the float maximum of about 1.8e308.
MAX_COORD = 1e75
_SEGMENT_FIELDS = ("x0", "y0", "x1", "y1")


def read_segments_csv(path) -> np.ndarray:
    """Read segments from CSV rows "x0,y0,x1,y1" (no header) as an
    (n, 4) float64 array. Each row is checked as it is read: one with an
    endpoint coordinate that is not finite or lies beyond MAX_COORD, or
    with endpoints closer than SINGULAR_TOL (Line2's bound), cannot vote.
    An error names the first bad row's line, or only the file when it
    has no row."""
    rows: list[list[float]] = []
    for lineno, _, values in csv_number_rows(path, _SEGMENT_FIELDS):
        for name, value in zip(_SEGMENT_FIELDS, values):
            if not abs(value) <= MAX_COORD:  # NaN compares False
                reason = f"segment endpoint {value!r} not finite or beyond {MAX_COORD:g} in absolute value"
                raise InputFormatError(path, reason, line=lineno, field=name)
        x0, y0, x1, y1 = values
        if math.hypot(x1 - x0, y1 - y0) < SINGULAR_TOL:
            raise InputFormatError(path, "segment endpoints coincide", line=lineno)
        rows.append(values)
    if not rows:
        raise InputFormatError(path, "no segments: dominant-line voting needs at least one")
    return np.array(rows, dtype=np.float64)
