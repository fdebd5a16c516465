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
geometry.iou_matrix.

The content term of a pair of patches is the sum of |p - q| over the
offsets valid in both, their overlap rectangle, and it is computed as
sum(p) + sum(q) - 2 * sum(min(p, q)). A patch is zero outside the frame,
so the sum of minimums may run over the whole window. features keeps
one channel sum per patch; where the frame edge cuts neither patch, the
overlap is the whole window and these are the pair's two sums. Only the
pairs with a cut patch sum slices of the other patch. The pixel
minimums of a part's pairs pass through one uint8 buffer of at most
MINIMUMS_BYTES per cost_matrix call (or of one pair of patches, where
that is larger), in chunks of rows. All these sums are integers of
patch_sum_dtype: uint32 while a whole patch's side * side * 3 channel
values of at most 255 cannot exceed 2**32 - 1, int64 beyond. They are
exact, and they are widened to int64 before they are added to one
another, so each value is an exact integer before its one float
division.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .defaults import DEFAULT_ALPHA, DEFAULT_BETA
from .detect import FrameDetections
from .geometry import FrameDims, Homography, iou_matrix, project_points
from .imaging import FrameRaster, PatchWindow, keypoint_patches

# bytes of pixel minimums that one cost_matrix call holds at once (more only
# where a single pair of patches is larger)
MINIMUMS_BYTES = 1 << 18


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
    patches: np.ndarray  # (k, side, side, 3) uint8, zero outside the frame
    rects: np.ndarray  # (k, 4) in-frame cell rectangle (y0, y1, x0, x1)
    sums: np.ndarray  # (k,) sum of each patch's channel values, of patch_sum_dtype
    whole: np.ndarray  # (k,) bool: the rectangle is the whole window, no frame edge cuts it
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
    sums = patches.sum(axis=(1, 2, 3), dtype=patch_sum_dtype(win))
    whole = (rects == [0, win.side, 0, win.side]).all(axis=1)

    ids, starts = np.unique(part_ids, return_index=True)
    stops = [*starts[1:].tolist(), len(part_ids)]
    parts = dict(zip(ids.tolist(), zip(starts.tolist(), stops)))
    return Features(stabilized[:, 0], boxes, _KeypointPatches(owners, patches, rects, sums, whole, parts))


def _rect_sums(kp: _KeypointPatches, start: int, stop: int, rect: np.ndarray) -> np.ndarray:
    """The channel sums of patches [start, stop) over one cell rectangle."""
    y0, y1, x0, x1 = rect.tolist()
    return kp.patches[start:stop, y0:y1, x0:x1].sum(axis=(1, 2, 3), dtype=kp.sums.dtype)


def _min_sums(pa: np.ndarray, pb: np.ndarray, out: np.ndarray, buf: np.ndarray) -> None:
    """out[r, c] = the sum of min(pa[r], pb[c]) over their flat channel
    values, with the minimums in buf: whole rows of out while one fits,
    else runs of columns of one row."""
    length = pa.shape[1]
    fits = len(buf) // length
    rows, cols = max(1, fits // len(pb)), min(len(pb), fits)
    for r in range(0, len(pa), rows):
        for c in range(0, len(pb), cols):
            chunk = out[r : r + rows, c : c + cols]
            tmp = buf[: chunk.size * length].reshape(*chunk.shape, length)
            np.minimum(pa[r : r + rows, None], pb[None, c : c + cols], out=tmp)
            tmp.sum(axis=2, dtype=out.dtype, out=chunk)


def _part_content(
    a: _KeypointPatches, b: _KeypointPatches, shared: list[int]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The mean absolute difference of every pair of patches of one shared part, over
    the offsets valid in both; 1.0 where there is none.

    Returns, for every pair, part by part and row-major within a part,
    its patch in a, its patch in b and its value.
    """
    ra = np.array([a.parts[p] for p in shared], dtype=np.int64).reshape(-1, 2)
    rb = np.array([b.parts[p] for p in shared], dtype=np.int64).reshape(-1, 2)
    nb = rb[:, 1] - rb[:, 0]
    size = (ra[:, 1] - ra[:, 0]) * nb
    sizes = size.tolist()
    starts = list(accumulate(sizes, initial=0))
    # the pairs of a part are a row-major block; q is a pair's place in it
    part = np.repeat(np.arange(len(shared)), size)
    q = np.arange(starts[-1]) - np.repeat(np.array(starts[:-1], dtype=np.int64), size)
    i = ra[part, 0] + q // nb[part]
    j = rb[part, 0] + q % nb[part]

    # |p - q| = p + q - 2 min(p, q) on the overlap; every other cell is zero
    # in at least one patch, so there min(p, q) = 0 and the sum of mins may
    # run over the whole window. That sum is at most side * side * 3 * 255,
    # so it is exact in the patches' patch_sum_dtype, and uint32 adds up
    # uint8 values about twice as fast as int64.
    mins = np.empty(len(q), dtype=a.sums.dtype)
    # a patch is zero outside its rectangle, so its sum over the overlap is
    # its sum over the other patch's rectangle: its whole sum unless the
    # frame edge cuts the other patch
    over_a, over_b = a.sums[i].astype(np.int64), b.sums[j].astype(np.int64)
    cut_a, cut_b = np.flatnonzero(~a.whole).tolist(), np.flatnonzero(~b.whole).tolist()
    side = a.patches.shape[1]
    length = side * side * 3
    flat_a, flat_b = a.patches.reshape(-1, length), b.patches.reshape(-1, length)
    # the pixel minimums pass through one buffer of at most MINIMUMS_BYTES (or one pair)
    fits = max(1, min(max(sizes, default=0), MINIMUMS_BYTES // length))
    buf = np.empty(fits * length, dtype=np.uint8)
    for (a0, a1), (b0, b1), start, stop in zip(ra.tolist(), rb.tolist(), starts, starts[1:]):
        shape = (a1 - a0, b1 - b0)
        _min_sums(flat_a[a0:a1], flat_b[b0:b1], mins[start:stop].reshape(shape), buf)
        for c in (c for c in cut_b if b0 <= c < b1):
            over_a[start:stop].reshape(shape)[:, c - b0] = _rect_sums(a, a0, a1, b.rects[c])
        for r in (r for r in cut_a if a0 <= r < a1):
            over_b[start:stop].reshape(shape)[r - a0] = _rect_sums(b, b0, b1, a.rects[r])
    del buf  # the largest array here; the pair arrays below need not sit beside it

    # two whole patches overlap on the whole window; only the other pairs
    # intersect their rectangles
    cells = np.full(len(q), side * side)
    odd = np.flatnonzero(~(a.whole[i] & b.whole[j]))
    rect_a, rect_b = a.rects[i[odd]], b.rects[j[odd]]
    height = np.minimum(rect_a[:, 1], rect_b[:, 1]) - np.maximum(rect_a[:, 0], rect_b[:, 0])
    width = np.minimum(rect_a[:, 3], rect_b[:, 3]) - np.maximum(rect_a[:, 2], rect_b[:, 2])
    cells[odd] = np.maximum(height, 0) * np.maximum(width, 0)

    total = over_a + over_b - 2 * mins.astype(np.int64)
    empty = cells == 0
    # diff.mean() divides the integer sum by the channel count, then by 255
    value = np.where(empty, 1.0, total / (3 * np.where(empty, 1, cells)) / 255.0)
    return i, j, value


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
    i, j, value = _part_content(ka, kb, shared)
    pair = ka.owners[i] * m + kb.owners[j]  # an observation has at most one patch per part
    # the values of a pair that shares a part are a run of these, in part
    # order; fsum rounds their exact sum once, in any order
    values = value[np.argsort(pair, kind="stable")].tolist()
    n_shared = np.bincount(pair, minlength=n * m)
    shares = n_shared > 0
    stops = list(accumulate(n_shared[shares].tolist()))
    sums = [math.fsum(values[start:stop]) for start, stop in zip([0, *stops], stops)]
    content = np.ones(n * m)
    content[shares] = np.array(sums) / n_shared[shares]

    return weights.alpha * distance + weights.beta * (1.0 - overlap) + weights.gamma * content.reshape(n, m)
