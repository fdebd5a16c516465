"""Three-term similarity cost between observed boxes.

The combined cost is alpha * distance + beta * overlap + gamma * content,
computed between two observations of (detection, stabilizing homography,
frame raster). All three terms are dissimilarities in [0, 1] for
in-frame stabilized centroids.

The tracker extracts each frame's stabilized centroids, stabilized
boxes and keypoint patches once with features, from the frame's
detection arrays, and cost_matrix fills the matrix of two such feature
sets with array operations. Every entry of cost_matrix equals, bit for
bit, the scalar reference that scores one pair of observations at a
time: similarity_cost in tests/oracles.py, which ships with the tests,
not the package. The float terms perform its IEEE operations in its
order, one elementwise numpy operation each; the overlap term is
geometry.iou_matrix. The content term's patch sums (summed-area
tables and sums of pixel minimums) are integers of patch_sum_dtype:
uint32 while a whole patch's side * side * 3 channel values of at most
255 cannot exceed 2**32 - 1, int64 beyond. They are exact, and they are
widened to int64 before they are added to one another.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .detect import FrameDetections
from .geometry import FrameDims, Homography, iou_matrix, project_points
from .imaging import FrameRaster, PatchWindow, keypoint_patches

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


# --- batched scoring -------------------------------------------------------------


@dataclass(frozen=True)
class _KeypointPatches:
    """The keypoint patches of a list of observations, sorted by part id."""

    owners: np.ndarray  # (k,) index of the observation each patch belongs to
    patches: np.ndarray  # (k, side * side * 3) uint8, zero outside the frame
    rects: np.ndarray  # (k, 4) in-frame cell rectangle (y0, y1, x0, x1)
    integral: np.ndarray  # (k, side + 1, side + 1) summed-area tables of channel sums
    parts: dict[int, tuple[int, int]]  # part id -> [start, stop) of its patches


@dataclass(frozen=True)
class Features:
    """What one side of cost_matrix needs of each observation; holds no raster."""

    centroids: np.ndarray  # (n, 2) stabilized box centroids
    boxes: np.ndarray  # (n, 4) stabilized boxes (x_min, y_min, x_max, y_max)
    keypoints: _KeypointPatches


def patch_sum_dtype(win: PatchWindow) -> type:
    """The integer type of sums over one patch's channel values: uint32 where it holds them all.

    A patch holds side * side * 3 values of at most 255 each, so uint32
    is exact while that bound stays below 2**32 (half_extent <= 1184);
    wider windows sum in int64.
    """
    return np.uint32 if win.cell_count * 3 * 255 <= np.iinfo(np.uint32).max else np.int64


def features(
    detections: FrameDetections,
    homography: Homography,
    raster: FrameRaster,
    win: PatchWindow = PatchWindow(),
) -> Features:
    """Extract the stabilized centroid, box and keypoint patches of one frame's detections."""
    box = detections.boxes
    n = len(box)
    # per box its centroid, then its four corners, whose stabilized hull is the stabilized box
    points = np.empty((n, 5, 2))
    points[:, 0, 0] = (box[:, 0] + box[:, 2]) / 2.0
    points[:, 0, 1] = (box[:, 1] + box[:, 3]) / 2.0
    points[:, 1:] = box[:, [0, 1, 2, 1, 2, 3, 0, 3]].reshape(n, 4, 2)
    stabilized = project_points(homography, points.reshape(-1, 2)).reshape(n, 5, 2)
    corners = stabilized[:, 1:]
    boxes = np.concatenate([corners.min(axis=1), corners.max(axis=1)], axis=1)

    order = np.argsort(detections.parts, kind="stable")
    part_ids = detections.parts[order]
    owners = detections.owners[order]
    patches, rects = keypoint_patches(raster, detections.xy[order], win)

    acc = patch_sum_dtype(win)
    integral = np.zeros((len(owners), win.side + 1, win.side + 1), dtype=acc)
    cells = integral[:, 1:, 1:]
    np.add(patches[..., 0], patches[..., 1], out=cells, dtype=acc)
    cells += patches[..., 2]
    np.cumsum(integral, axis=1, out=integral)
    np.cumsum(integral, axis=2, out=integral)

    ids, starts = np.unique(part_ids, return_index=True)
    stops = [*starts[1:].tolist(), len(part_ids)]
    parts = dict(zip(ids.tolist(), zip(starts.tolist(), stops)))
    patches = patches.reshape(len(owners), win.cell_count * 3)
    return Features(stabilized[:, 0], boxes, _KeypointPatches(owners, patches, rects, integral, parts))


def _part_content(
    a: _KeypointPatches, b: _KeypointPatches, shared: list[int]
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The mean absolute difference of every pair of patches of one shared part, over
    the offsets valid in both; 1.0 where there is none.

    Returns, for every pair, part by part and row-major within a part,
    its patch in a, its patch in b, the index of its part in shared and
    its value.
    """
    ra = np.array([a.parts[p] for p in shared], dtype=np.int64).reshape(-1, 2)
    rb = np.array([b.parts[p] for p in shared], dtype=np.int64).reshape(-1, 2)
    nb = rb[:, 1] - rb[:, 0]
    size = (ra[:, 1] - ra[:, 0]) * nb
    ends = np.cumsum(size)
    # the pairs of a part are a row-major block; q is a pair's place in it
    part = np.repeat(np.arange(len(shared)), size)
    q = np.arange(size.sum()) - np.repeat(ends - size, size)
    i = ra[part, 0] + q // nb[part]
    j = rb[part, 0] + q % nb[part]

    # |p - q| = p + q - 2 min(p, q) on the overlap; every other cell is zero
    # in at least one patch, so there min(p, q) = 0 and the sum of mins may
    # run over the whole window. That sum is at most side * side * 3 * 255,
    # so it is exact in the tables' patch_sum_dtype, and uint32 adds up
    # uint8 values about twice as fast as int64.
    acc = a.integral.dtype
    mins = np.empty(len(q), dtype=acc)
    for (a0, a1), (b0, b1), end, n in zip(ra.tolist(), rb.tolist(), ends.tolist(), size.tolist()):
        np.minimum(a.patches[a0:a1, None], b.patches[None, b0:b1]).sum(
            axis=2, dtype=acc, out=mins[end - n : end].reshape(a1 - a0, b1 - b0)
        )

    pa, pb = a.rects[i], b.rects[j]
    y0 = np.maximum(pa[:, 0], pb[:, 0])
    y1 = np.minimum(pa[:, 1], pb[:, 1])
    x0 = np.maximum(pa[:, 2], pb[:, 2])
    x1 = np.minimum(pa[:, 3], pb[:, 3])

    def overlap_sum(side: _KeypointPatches, k: np.ndarray) -> np.ndarray:
        stride = side.integral.shape[2]
        t = side.integral.reshape(-1)
        top, bottom = (k * stride + y0) * stride, (k * stride + y1) * stride
        # rows y0..y1 left of x1, less the same rows left of x0: on a
        # non-empty overlap every step lies in [0, patch bound], so an
        # unsigned table never wraps
        return ((t[bottom + x1] - t[top + x1]) - (t[bottom + x0] - t[top + x0])).astype(np.int64)

    total = overlap_sum(a, i) + overlap_sum(b, j) - 2 * mins.astype(np.int64)
    cells = np.maximum(y1 - y0, 0) * np.maximum(x1 - x0, 0)
    empty = cells == 0
    # diff.mean() divides the integer sum by the channel count, then by 255
    value = np.where(empty, 1.0, total / (3 * np.where(empty, 1, cells)) / 255.0)
    return i, j, part, value


def cost_matrix(rows: Features, cols: Features, weights: CostWeights, dims: FrameDims) -> np.ndarray:
    """The combined cost of every (row, column) observation pair in one batch.

    With rows = features(a, ha, fa, win) and cols = features(b, hb, fb,
    win), entry [i, j] is the cost of a's detection i under ha and fa
    against b's detection j under hb and fb. It equals the scalar
    reference bit for bit: each float operation of the scalar path
    happens once per pair in the same order, and patch sums are exact
    integers.
    """
    n, m = len(rows.centroids), len(cols.centroids)

    dx = rows.centroids[:, None, 0] - cols.centroids[None, :, 0]
    dy = rows.centroids[:, None, 1] - cols.centroids[None, :, 1]
    # math.hypot, not np.hypot: the two differ in the last bit on some inputs
    hyp = list(map(math.hypot, dx.ravel().tolist(), dy.ravel().tolist()))
    distance = np.array(hyp, dtype=float).reshape(n, m) / dims.diagonal

    overlap = iou_matrix(rows.boxes, cols.boxes)

    ka, kb = rows.keypoints, cols.keypoints
    shared = sorted(ka.parts.keys() & kb.parts.keys())
    i, j, part, value = _part_content(ka, kb, shared)
    pair = ka.owners[i] * m + kb.owners[j]  # an observation has at most one patch per part
    per_part = np.zeros((n * m, len(shared)))
    per_part[pair, part] = value
    n_shared = np.bincount(pair, minlength=n * m).reshape(n, m)
    # a part the pair does not share is a 0.0 here, which leaves fsum unchanged
    sums = np.array([math.fsum(v) for v in per_part.tolist()], dtype=float).reshape(n, m)
    content = np.where(n_shared > 0, sums / np.maximum(n_shared, 1), 1.0)

    return weights.alpha * distance + weights.beta * (1.0 - overlap) + weights.gamma * content
