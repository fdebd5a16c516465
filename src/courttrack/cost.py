"""Three-term similarity cost between observed boxes.

The combined cost is alpha * distance + beta * overlap + gamma * content,
computed between two observations of (detection, stabilizing homography,
frame raster). All three terms are dissimilarities in [0, 1] for
in-frame stabilized centroids.

The tracker extracts each frame's stabilized centroids, stabilized
boxes and keypoint patches once with features, and cost_matrix fills
the matrix of two such feature sets with array operations.
similarity_cost and its three terms are the scalar reference: every
entry of cost_matrix equals it bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .detect import Detection
from .errors import EmptyOverlap
from .geometry import (
    FrameDims,
    Homography,
    apply_homography,
    iou,
    normalized_centroid_distance,
    transform_bbox,
)
from .imaging import FrameRaster, PatchWindow, keypoint_patches, patch_mean_abs_diff

DEFAULT_ALPHA = 0.65
DEFAULT_BETA = 0.05


@dataclass(frozen=True)
class CostWeights:
    """Term weights alpha and beta; gamma is what is left of 1."""

    alpha: float
    beta: float

    def __post_init__(self):
        if not (0.0 <= self.alpha <= 1.0 and 0.0 <= self.beta <= 1.0):
            raise ValueError("alpha and beta must lie in [0, 1]")
        if self.gamma < -1e-12:
            raise ValueError("gamma = 1 - (alpha + beta) must be >= 0")

    @property
    def gamma(self) -> float:
        return 1.0 - (self.alpha + self.beta)


def default_weights() -> CostWeights:
    return CostWeights(DEFAULT_ALPHA, DEFAULT_BETA)


@dataclass(frozen=True)
class ObservedBox:
    """One detection together with its frame's stabilization and pixels."""

    detection: Detection
    homography: Homography
    frame: FrameRaster = field(repr=False)


def cost_distance(a: ObservedBox, b: ObservedBox, dims: FrameDims) -> float:
    """Stabilized centroid distance, normalized by the frame diagonal."""
    return normalized_centroid_distance(
        a.homography, b.homography, a.detection.bbox, b.detection.bbox, dims
    )


def cost_iou(a: ObservedBox, b: ObservedBox) -> float:
    """One minus the overlap of the stabilized boxes, so 0 is a perfect match."""
    box_a = transform_bbox(a.homography, a.detection.bbox)
    box_b = transform_bbox(b.homography, b.detection.bbox)
    return 1.0 - iou(box_a, box_b)


def cost_content(a: ObservedBox, b: ObservedBox, win: PatchWindow = PatchWindow()) -> float:
    """Mean patch difference over the keypoint parts detected in both boxes.

    A pair with no shared part, or a shared part whose patches have no
    comparable pixels, contributes the maximal difference 1.
    """
    parts_a = a.detection.parts()
    parts_b = b.detection.parts()
    shared = sorted(parts_a.keys() & parts_b.keys())
    if not shared:
        return 1.0
    per_part = []
    for part_id in shared:
        try:
            per_part.append(
                patch_mean_abs_diff(
                    a.frame, parts_a[part_id].position, b.frame, parts_b[part_id].position, win
                )
            )
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


# --- batched scoring -------------------------------------------------------------


@dataclass(frozen=True)
class _PartPatches:
    """The patches of one keypoint part across a list of observations."""

    owners: np.ndarray  # (k,) index of the observation each patch belongs to
    patches: np.ndarray  # (k, side * side * 3) uint8, zero outside the frame
    rects: np.ndarray  # (k, 4) in-frame cell rectangle (y0, y1, x0, x1)
    integral: np.ndarray  # summed-area tables of channel sums, shared by all parts
    index: np.ndarray  # (k,) index of each patch's table in `integral`


@dataclass(frozen=True)
class Features:
    """What one side of cost_matrix needs of each observation; holds no raster."""

    centroids: np.ndarray  # (n, 2) stabilized box centroids
    boxes: np.ndarray  # (n, 4) stabilized boxes (x_min, y_min, x_max, y_max)
    parts: dict[int, _PartPatches]


def features(
    detections: Sequence[Detection],
    homography: Homography,
    raster: FrameRaster,
    win: PatchWindow = PatchWindow(),
) -> Features:
    """Extract the stabilized centroid, box and keypoint patches of one frame's detections."""
    centroids, boxes = [], []
    owners, part_ids, points = [], [], []
    for n, det in enumerate(detections):
        q = apply_homography(homography, det.bbox.centroid)
        centroids.append((q.x, q.y))
        b = transform_bbox(homography, det.bbox)
        boxes.append((b.x_min, b.y_min, b.x_max, b.y_max))
        for k in det.keypoints:
            owners.append(n)
            part_ids.append(k.part_id)
            points.append(k.position)

    patches, rects = keypoint_patches(raster, points, win)
    integral = np.zeros((len(owners), win.side + 1, win.side + 1), dtype=np.int64)
    cells = integral[:, 1:, 1:]
    np.add(patches[..., 0], patches[..., 1], out=cells, dtype=np.int64)
    cells += patches[..., 2]
    np.cumsum(integral, axis=1, out=integral)
    np.cumsum(integral, axis=2, out=integral)

    owners, part_ids = np.array(owners, dtype=np.int64), np.array(part_ids, dtype=np.int64)
    patches = patches.reshape(len(owners), win.cell_count * 3)
    parts = {}
    for part_id in np.unique(part_ids).tolist():
        sel = np.flatnonzero(part_ids == part_id)
        parts[part_id] = _PartPatches(owners[sel], patches[sel], rects[sel], integral, sel)
    return Features(
        np.array(centroids, dtype=float).reshape(-1, 2),
        np.array(boxes, dtype=float).reshape(-1, 4),
        parts,
    )


def _part_content(a: _PartPatches, b: _PartPatches) -> np.ndarray:
    """patch_mean_abs_diff of every pair of two patch stacks; 1.0 where it is empty."""
    y0 = np.maximum(a.rects[:, None, 0], b.rects[None, :, 0])
    y1 = np.minimum(a.rects[:, None, 1], b.rects[None, :, 1])
    x0 = np.maximum(a.rects[:, None, 2], b.rects[None, :, 2])
    x1 = np.minimum(a.rects[:, None, 3], b.rects[None, :, 3])

    def overlap_sum(side: _PartPatches, i: np.ndarray) -> np.ndarray:
        t = side.integral
        return t[i, y1, x1] - t[i, y0, x1] - t[i, y1, x0] + t[i, y0, x0]

    # |p - q| = p + q - 2 min(p, q) on the overlap; every other cell is zero
    # in at least one patch, so there min(p, q) = 0 and the sum of mins may
    # run over the whole window
    mins = np.minimum(a.patches[:, None], b.patches[None]).sum(axis=2, dtype=np.int64)
    total = overlap_sum(a, a.index[:, None]) + overlap_sum(b, b.index[None, :]) - 2 * mins
    cells = np.maximum(y1 - y0, 0) * np.maximum(x1 - x0, 0)
    empty = cells == 0
    # diff.mean() divides the integer sum by the channel count, then by 255
    return np.where(empty, 1.0, total / (3 * np.where(empty, 1, cells)) / 255.0)


def cost_matrix(rows: Features, cols: Features, weights: CostWeights, dims: FrameDims) -> np.ndarray:
    """similarity_cost of every (row, column) observation pair in one batch.

    With rows = features(a, ha, fa, win) and cols = features(b, hb, fb,
    win), entry [i, j] equals similarity_cost(ObservedBox(a[i], ha, fa),
    ObservedBox(b[j], hb, fb), weights, dims, win) bit for bit: each
    float operation of the scalar path happens once per pair in the same
    order, and patch sums are exact integers.
    """
    n, m = len(rows.centroids), len(cols.centroids)

    dx = rows.centroids[:, None, 0] - cols.centroids[None, :, 0]
    dy = rows.centroids[:, None, 1] - cols.centroids[None, :, 1]
    # math.hypot, not np.hypot: the two differ in the last bit on some inputs
    hyp = list(map(math.hypot, dx.ravel().tolist(), dy.ravel().tolist()))
    distance = np.array(hyp, dtype=float).reshape(n, m) / dims.diagonal

    a, b = rows.boxes[:, None], cols.boxes[None]
    iw = np.minimum(a[..., 2], b[..., 2]) - np.maximum(a[..., 0], b[..., 0])
    ih = np.minimum(a[..., 3], b[..., 3]) - np.maximum(a[..., 1], b[..., 1])
    inter = np.maximum(0.0, iw) * np.maximum(0.0, ih)
    union = (a[..., 2] - a[..., 0]) * (a[..., 3] - a[..., 1])
    union = union + (b[..., 2] - b[..., 0]) * (b[..., 3] - b[..., 1]) - inter
    overlap = np.divide(inter, union, out=np.zeros((n, m)), where=union > 0.0)

    shared = sorted(rows.parts.keys() & cols.parts.keys())
    per_part = np.zeros((n, m, len(shared)))
    n_shared = np.zeros((n, m), dtype=np.int64)
    for k, part_id in enumerate(shared):
        ra, cb = rows.parts[part_id], cols.parts[part_id]
        pairs = np.ix_(ra.owners, cb.owners)
        per_part[pairs + (k,)] = _part_content(ra, cb)
        n_shared[pairs] += 1
    # a part the pair does not share is a 0.0 here, which leaves fsum unchanged
    sums = [math.fsum(v) for v in per_part.reshape(n * m, len(shared)).tolist()]
    sums = np.array(sums, dtype=float).reshape(n, m)
    content = np.where(n_shared > 0, sums / np.maximum(n_shared, 1), 1.0)

    return weights.alpha * distance + weights.beta * (1.0 - overlap) + weights.gamma * content
