"""Scalar references that the package's array code is checked against, and test fixtures.

None of this runs in production. Each oracle computes one value at a
time in Python floats, with the IEEE operations in the order that the
array code must repeat.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from itertools import permutations
from pathlib import Path

import numpy as np

from courttrack.cost import CostWeights
from courttrack.errors import CourtTrackError, DegenerateProjection
from courttrack.geometry import SINGULAR_TOL, FrameDims, Homography, Line2, Point2, iou_matrix
from courttrack.imaging import BinaryMask, FrameRaster, PatchWindow
from courttrack.metrics import MOT_IOU_THRESHOLD, TRACK_CSV_HEADER, FrameBoxes, MotReport, solve_assignment
from courttrack.track import FrameObservations

# --- geometry ------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class BBox:
    """Axis-aligned box in pixel coordinates, corners inclusive."""

    x_min: float
    y_min: float
    x_max: float
    y_max: float

    def __post_init__(self):
        vals = (self.x_min, self.y_min, self.x_max, self.y_max)
        if not all(math.isfinite(v) for v in vals):
            raise ValueError(f"non-finite box {vals}")
        if self.x_min > self.x_max or self.y_min > self.y_max:
            raise ValueError(f"inverted box {vals}")

    @property
    def width(self) -> float:
        return self.x_max - self.x_min

    @property
    def height(self) -> float:
        return self.y_max - self.y_min


def box_array(boxes) -> np.ndarray:
    """The boxes of an iterable of BBox as an (n, 4) float64 array of
    rows (x_min, y_min, x_max, y_max)."""
    rows = [(b.x_min, b.y_min, b.x_max, b.y_max) for b in boxes]
    return np.array(rows, dtype=float).reshape(-1, 4)


def area(b: BBox) -> float:
    return b.width * b.height


def centroid(b: BBox) -> Point2:
    return Point2((b.x_min + b.x_max) / 2.0, (b.y_min + b.y_max) / 2.0)


def line_from_points(p0: Point2, p1: Point2) -> Line2:
    dx, dy = p1.x - p0.x, p1.y - p0.y
    if math.hypot(dx, dy) < SINGULAR_TOL:
        raise ValueError("cannot build a line from coincident points")
    a, b = -dy, dx
    return Line2(a, b, -(a * p0.x + b * p0.y))


def vertical_at(x: float) -> Line2:
    return Line2(1.0, 0.0, -x)


def apply_homography(h: Homography, p: Point2) -> Point2:
    """Project p through h: homogeneous multiply, then divide by w."""
    m = h.m
    x = m[0, 0] * p.x + m[0, 1] * p.y + m[0, 2]
    y = m[1, 0] * p.x + m[1, 1] * p.y + m[1, 2]
    w = m[2, 0] * p.x + m[2, 1] * p.y + m[2, 2]
    if abs(w) <= SINGULAR_TOL:
        raise DegenerateProjection(f"point ({p.x}, {p.y}) maps to the line at infinity")
    return Point2(float(x / w), float(y / w))


def transform_bbox(h: Homography, b: BBox) -> BBox:
    """Axis-aligned hull of the four projected corners of b."""
    corners = (
        Point2(b.x_min, b.y_min),
        Point2(b.x_max, b.y_min),
        Point2(b.x_max, b.y_max),
        Point2(b.x_min, b.y_max),
    )
    pts = [apply_homography(h, p) for p in corners]
    xs = [p.x for p in pts]
    ys = [p.y for p in pts]
    return BBox(min(xs), min(ys), max(xs), max(ys))


def iou(b1: BBox, b2: BBox) -> float:
    """Intersection over union; 0.0 when the union has zero area."""
    iw = min(b1.x_max, b2.x_max) - max(b1.x_min, b2.x_min)
    ih = min(b1.y_max, b2.y_max) - max(b1.y_min, b2.y_min)
    inter = max(0.0, iw) * max(0.0, ih)
    union = area(b1) + area(b2) - inter
    if union <= 0.0:
        return 0.0
    return inter / union


def normalized_centroid_distance(
    h1: Homography, h2: Homography, b1: BBox, b2: BBox, dims: FrameDims
) -> float:
    """Distance of the stabilized box centroids over the frame diagonal."""
    q1 = apply_homography(h1, centroid(b1))
    q2 = apply_homography(h2, centroid(b2))
    return math.hypot(q1.x - q2.x, q1.y - q2.y) / dims.diagonal


def greedy_detection_counts(gt: list[BBox], dets: list[BBox]) -> tuple[int, int, int]:
    """(tp, fp, fn) of one frame: pairs of positive iou, best first and
    then by gt and detection index, each box matched at most once."""
    overlaps = [(iou(g, d), i, j) for i, g in enumerate(gt) for j, d in enumerate(dets)]
    pairs = sorted((-overlap, i, j) for overlap, i, j in overlaps if overlap > 0.0)
    used_gt: set[int] = set()
    used_det: set[int] = set()
    for _, i, j in pairs:
        if i not in used_gt and j not in used_det:
            used_gt.add(i)
            used_det.add(j)
    return len(used_gt), len(dets) - len(used_det), len(gt) - len(used_gt)


# --- imaging -------------------------------------------------------------------------


class EmptyOverlap(CourtTrackError):
    """Patch comparison with no offset valid in both frames."""


def filled(dims: FrameDims, color: tuple[int, int, int]) -> FrameRaster:
    """A frame of one colour: one np.full row, repeated down the frame.

    Broadcasting the colour over the whole frame is about 25 times as
    slow: 12 ms against 0.45 ms for a 1920x1080 frame on a 2-CPU Linux
    machine.
    """
    arr = np.repeat(np.full((1, dims.w, 3), color, dtype=np.uint8), dims.h, axis=0)
    arr.flags.writeable = False
    return FrameRaster(arr)


def observations(seq) -> list[FrameObservations]:
    """A synthetic sequence's frames as run_tracker takes them."""
    frames = zip(seq.homographies, seq.frames)
    return [FrameObservations(seq.detections[t], h, raster) for t, (h, raster) in enumerate(frames)]


def _round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


def patch_mean_abs_diff(
    f1: FrameRaster, p1: Point2, f2: FrameRaster, p2: Point2, win: PatchWindow = PatchWindow()
) -> float:
    """Mean per-pixel color difference of two keypoint-anchored patches.

    Keypoints are rounded to the nearest pixel; an offset contributes
    only when it lands inside both frames, and the mean runs over the
    valid offsets. Per pixel the three channel differences are averaged,
    then scaled by 1/255 so the result lies in [0, 1].
    """
    x1, y1 = _round_half_up(p1.x), _round_half_up(p1.y)
    x2, y2 = _round_half_up(p2.x), _round_half_up(p2.y)
    he = win.half_extent
    h1, w1 = f1.data.shape[:2]
    h2, w2 = f2.data.shape[:2]

    dx_lo = max(-he, -x1, -x2)
    dx_hi = min(he - 1, w1 - 1 - x1, w2 - 1 - x2)
    dy_lo = max(-he, -y1, -y2)
    dy_hi = min(he - 1, h1 - 1 - y1, h2 - 1 - y2)
    if dx_lo > dx_hi or dy_lo > dy_hi:
        raise EmptyOverlap(
            f"no patch offset valid in both frames at ({x1},{y1}) and ({x2},{y2})"
        )

    patch1 = f1.data[y1 + dy_lo : y1 + dy_hi + 1, x1 + dx_lo : x1 + dx_hi + 1]
    patch2 = f2.data[y2 + dy_lo : y2 + dy_hi + 1, x2 + dx_lo : x2 + dx_hi + 1]
    diff = np.abs(patch1.astype(np.int16) - patch2.astype(np.int16))
    return float(diff.mean() / 255.0)


def write_pgm(mask: BinaryMask, path) -> None:
    d = mask.dims
    header = f"P5\n{d.w} {d.h}\n255\n".encode("ascii")
    body = np.where(mask.bits, 255, 0).astype(np.uint8)
    Path(path).write_bytes(header + body.tobytes())


# --- cost ----------------------------------------------------------------------------


@dataclass(frozen=True)
class ObservedBox:
    """What similarity_cost reads of one detection, its skeleton box and
    the position of each of its parts, with its frame's stabilization
    and pixels."""

    box: BBox
    parts: dict[int, Point2]  # part id -> keypoint position
    homography: Homography
    frame: FrameRaster = field(repr=False)


def cost_distance(a: ObservedBox, b: ObservedBox, dims: FrameDims) -> float:
    """Stabilized centroid distance, normalized by the frame diagonal."""
    return normalized_centroid_distance(a.homography, b.homography, a.box, b.box, dims)


def cost_iou(a: ObservedBox, b: ObservedBox) -> float:
    """One minus the overlap of the stabilized boxes, so 0 is a perfect match."""
    box_a = transform_bbox(a.homography, a.box)
    box_b = transform_bbox(b.homography, b.box)
    return 1.0 - iou(box_a, box_b)


def cost_content(a: ObservedBox, b: ObservedBox, win: PatchWindow = PatchWindow()) -> float:
    """Mean patch difference over the keypoint parts detected in both boxes.

    A pair with no shared part, or a shared part whose patches have no
    comparable pixels, contributes the maximal difference 1.
    """
    shared = sorted(a.parts.keys() & b.parts.keys())
    if not shared:
        return 1.0
    per_part = []
    for part_id in shared:
        try:
            per_part.append(patch_mean_abs_diff(a.frame, a.parts[part_id], b.frame, b.parts[part_id], win))
        except EmptyOverlap:
            per_part.append(1.0)
    return math.fsum(per_part) / len(per_part)


def similarity_cost(
    a: ObservedBox,
    b: ObservedBox,
    weights: CostWeights,
    dims: FrameDims,
    win: PatchWindow = PatchWindow(),
) -> float:
    return (
        weights.alpha * cost_distance(a, b, dims)
        + weights.beta * cost_iou(a, b)
        + weights.gamma * cost_content(a, b, win)
    )


# --- assignment ----------------------------------------------------------------------


def brute_force_assignment(entries: np.ndarray) -> tuple[list[tuple[int, int]], float]:
    """Exhaustive minimum over all injections of the smaller side.

    Oracle counterpart of solve_assignment; totals use compensated
    summation so ties are mathematical ties.
    """
    n_rows, n_cols = entries.shape
    if max(n_rows, n_cols) > 9:
        raise ValueError("brute force limited to 9 rows/columns")
    if n_rows == 0 or n_cols == 0:
        return [], 0.0
    best_pairs: list[tuple[int, int]] | None = None
    best_total = math.inf
    if n_rows <= n_cols:
        for perm in permutations(range(n_cols), n_rows):
            total = math.fsum(entries[i, perm[i]] for i in range(n_rows))
            if total < best_total:
                best_total = total
                best_pairs = [(i, perm[i]) for i in range(n_rows)]
    else:
        for perm in permutations(range(n_rows), n_cols):
            pairs = sorted((perm[j], j) for j in range(n_cols))
            total = math.fsum(entries[i, j] for i, j in pairs)
            if total < best_total:
                best_total = total
                best_pairs = pairs
    assert best_pairs is not None
    return best_pairs, best_total


# --- tracks and ground truth -----------------------------------------------------------


@dataclass(frozen=True, slots=True)
class GroundTruthBox:
    """One annotated (or hypothesized) box of one identity in one frame."""

    frame: int
    id: int
    bbox: BBox


def frame_boxes(records: list[GroundTruthBox]) -> dict[int, FrameBoxes]:
    """The records as the package holds them: one FrameBoxes per frame
    that has a record, rows in record order."""
    by_frame: dict[int, list[GroundTruthBox]] = {}
    for r in records:
        by_frame.setdefault(r.frame, []).append(r)
    return {
        t: FrameBoxes(np.array([r.id for r in rows], dtype=np.int64), box_array(r.bbox for r in rows))
        for t, rows in by_frame.items()
    }


def records_of(per_frame: dict[int, FrameBoxes]) -> list[GroundTruthBox]:
    """The rows of per-frame ids and boxes as records, frames in order."""
    return [
        GroundTruthBox(t, track_id, BBox(*box))
        for t in sorted(per_frame)
        for track_id, box in zip(per_frame[t].ids.tolist(), per_frame[t].boxes.tolist())
    ]


def write_mot_objects(records: list[GroundTruthBox], path) -> None:
    """The MOT CSV writer over records: rows sorted by (frame, id), ties in record order."""
    rows = sorted(records, key=lambda r: (r.frame, r.id))
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(TRACK_CSV_HEADER)
        for r in rows:
            writer.writerow(
                [r.frame, r.id]
                + [repr(float(v)) for v in (r.bbox.x_min, r.bbox.y_min, r.bbox.width, r.bbox.height)]
            )


def eval_mot_objects(
    gt: list[GroundTruthBox],
    hyp: list[GroundTruthBox],
    iou_threshold: float = MOT_IOU_THRESHOLD,
) -> MotReport:
    """CLEAR-MOT over box records.

    Correspondences surviving from the previous frame (still above the
    IoU threshold) are kept; the remainder is matched by an optimal
    assignment maximizing IoU. A ground-truth identity whose hypothesis
    differs from its last known one counts as an id switch. The IoU
    threshold must lie in [0, 1). Each frame's overlaps are one
    iou_matrix of its ground truth against its hypotheses. A (frame, id)
    pair that repeats keeps its last box.
    """
    if not 0.0 <= iou_threshold < 1.0:
        raise ValueError(f"IoU threshold must lie in [0, 1), got {iou_threshold}")
    if not gt:
        raise ValueError("tracking evaluation needs ground-truth boxes")

    gt_by_frame: dict[int, list[GroundTruthBox]] = {}
    for g in gt:
        gt_by_frame.setdefault(g.frame, []).append(g)
    hyp_by_frame: dict[int, list[GroundTruthBox]] = {}
    for h in hyp:
        hyp_by_frame.setdefault(h.frame, []).append(h)

    misses = false_positives = id_switches = 0
    matched_iou_sum = 0.0
    matched_count = 0
    current: dict[int, int] = {}  # gt id -> hyp id matched in the previous frame
    last_known: dict[int, int] = {}  # gt id -> hyp id of the latest match ever

    for frame in sorted(set(gt_by_frame) | set(hyp_by_frame)):
        gt_left = {g.id: g.bbox for g in gt_by_frame.get(frame, [])}
        hyp_left = {h.id: h.bbox for h in hyp_by_frame.get(frame, [])}
        # row and column of each id in the frame's overlaps
        gt_row = {gt_id: i for i, gt_id in enumerate(gt_left)}
        hyp_col = {hyp_id: j for j, hyp_id in enumerate(hyp_left)}
        overlaps = iou_matrix(box_array(gt_left.values()), box_array(hyp_left.values()))

        frame_matches: dict[int, int] = {}
        # 1. carry forward still-valid correspondences
        for gt_id, hyp_id in current.items():
            if gt_id in gt_left and hyp_id in hyp_left:
                overlap = overlaps[gt_row[gt_id], hyp_col[hyp_id]]
                if overlap > iou_threshold:
                    frame_matches[gt_id] = hyp_id
                    matched_iou_sum += overlap
                    matched_count += 1
        for gt_id, hyp_id in frame_matches.items():
            del gt_left[gt_id]
            del hyp_left[hyp_id]

        # 2. optimal assignment on the remainder, maximizing IoU above threshold
        free_gt = sorted(gt_left)
        free_hyp = sorted(hyp_left)
        if free_gt and free_hyp:
            free = overlaps[np.ix_([gt_row[g] for g in free_gt], [hyp_col[h] for h in free_hyp])]
            gains = np.where(free > iou_threshold, free, 0.0)
            for i, j in solve_assignment(-gains):
                if gains[i, j] > 0.0:
                    gid, hid = free_gt[i], free_hyp[j]
                    frame_matches[gid] = hid
                    matched_iou_sum += gains[i, j]
                    matched_count += 1
                    if gid in last_known and last_known[gid] != hid:
                        id_switches += 1
                    del gt_left[gid]
                    del hyp_left[hid]

        misses += len(gt_left)
        false_positives += len(hyp_left)
        current = frame_matches
        for gid, hid in frame_matches.items():
            last_known[gid] = hid

    motp = matched_iou_sum / matched_count if matched_count else 0.0
    return MotReport.from_counts(misses, false_positives, id_switches, len(gt), motp)
