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

The content term of a pair is the mean of its shared parts' values, or
1.0 where it shares none. A part's value is the mean of |p - q| over the
offsets valid in both patches, their overlap (1.0 where it is empty),
and its sum is sum(p) + sum(q) - 2 * sum(min(p, q)): a patch is zero
outside the frame, so the minimums may run over the whole window.
_part_content scores one shared part at a time, as a block of its row
patches against its column patches. Where no frame edge cuts either
patch, the overlap is the whole window and the first two sums are the
patches' own, kept by features; only the rows and columns of a cut
patch sum slices of the other patch. The pixel minimums pass through
one uint8 buffer of at most MINIMUMS_BYTES per cost_matrix call (or of
one pair of patches, where that is larger). All these sums are exact
integers of patch_sum_dtype, widened to int64 before they are added
together. cost_matrix adds the blocks into two-term sums that round
each pair's total once, as math.fsum does (_add_exact).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
    cut: list[int]  # ascending, the patches whose rectangle the frame edge cuts
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
    cut = np.flatnonzero((rects != [0, win.side, 0, win.side]).any(axis=1)).tolist()

    ids, starts = np.unique(part_ids, return_index=True)
    stops = [*starts[1:].tolist(), len(part_ids)]
    parts = dict(zip(ids.tolist(), zip(starts.tolist(), stops)))
    return Features(stabilized[:, 0], boxes, _KeypointPatches(owners, patches, rects, sums, cut, parts))


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
    a: _KeypointPatches, b: _KeypointPatches, ra: tuple[int, int], rb: tuple[int, int], buf: np.ndarray
) -> np.ndarray:
    """The block of one shared part: [r, c] is the mean absolute difference of
    patches ra[0] + r of a and rb[0] + c of b over the offsets valid in
    both, or 1.0 where there is none. The pixel minimums pass through buf."""
    (a0, a1), (b0, b1) = ra, rb
    # a sum of minimums is at most side * side * 3 * 255, so it is exact in
    # patch_sum_dtype; uint32 adds up uint8 values about twice as fast as int64
    mins = np.empty((a1 - a0, b1 - b0), dtype=a.sums.dtype)
    _min_sums(a.patches[a0:a1].reshape(a1 - a0, -1), b.patches[b0:b1].reshape(b1 - b0, -1), mins, buf)
    total = a.sums[a0:a1, None].astype(np.int64) + b.sums[b0:b1] - 2 * mins.astype(np.int64)
    # a patch is zero outside its rectangle, so its sum over the overlap is
    # its sum over the other patch's rectangle: less than its whole sum only
    # where the frame edge cuts the other patch
    cut_a, cut_b = [r - a0 for r in a.cut if a0 <= r < a1], [c - b0 for c in b.cut if b0 <= c < b1]
    for c in cut_b:
        total[:, c] -= a.sums[a0:a1] - _rect_sums(a, a0, a1, b.rects[b0 + c])
    for r in cut_a:
        total[r] -= b.sums[b0:b1] - _rect_sums(b, b0, b1, a.rects[a0 + r])

    # diff.mean() divides the integer sum by the channel count, then by 255
    if not (cut_a or cut_b):  # two whole patches overlap on the whole window
        return total / (3 * a.patches.shape[1] ** 2) / 255.0
    rect_a, rect_b = a.rects[a0:a1, None], b.rects[None, b0:b1]
    height = np.minimum(rect_a[..., 1], rect_b[..., 1]) - np.maximum(rect_a[..., 0], rect_b[..., 0])
    width = np.minimum(rect_a[..., 3], rect_b[..., 3]) - np.maximum(rect_a[..., 2], rect_b[..., 2])
    cells = np.maximum(height, 0) * np.maximum(width, 0)
    empty = cells == 0
    return np.where(empty, 1.0, total / (3 * np.where(empty, 1, cells)) / 255.0)


def _add_exact(s: np.ndarray, e: np.ndarray, at, v: np.ndarray) -> None:
    """Add v to the two-term sums s[at] + e[at] with TwoSum (Shewchuk,
    "Adaptive Precision Floating-Point Arithmetic", 1997): s takes the
    rounded sum and e the exact rounding error.

    e never rounds, so fl(s + e) is the correctly rounded sum, as
    math.fsum gives. A part value is 0, 1 or at least 2**-44 (for any
    window side below about 150,000 px), so values, sums and errors are
    multiples of 2**-96. A pair shares at most 17 parts (ids 0 to 16),
    so s < 32 and each error is at most 2**-49; at most 16 errors add
    into e, and any sum of them is a multiple of 2**-96 of at most
    2**-45, which fits in 53 bits.
    """
    s_at = s[at]
    t = s_at + v
    bp = t - s_at
    e[at] += (s_at - (t - bp)) + (v - bp)
    s[at] = t


def cost_matrix(rows: Features, cols: Features, weights: CostWeights, dims: FrameDims) -> np.ndarray:
    """The combined cost of every (row, column) observation pair in one batch.

    With rows = features(a, ha, fa, win) and cols = features(b, hb, fb,
    win), entry [i, j] is the cost of a's detection i under ha and fa
    against b's detection j under hb and fb. It equals the scalar
    reference bit for bit: each float operation of the scalar path
    happens once per pair in the same order, patch sums are exact
    integers, and part values are summed exactly.
    """
    n, m = len(rows.centroids), len(cols.centroids)

    dx = rows.centroids[:, None, 0] - cols.centroids[None, :, 0]
    dy = rows.centroids[:, None, 1] - cols.centroids[None, :, 1]
    # math.hypot, not np.hypot: the two differ in the last bit on some inputs
    hyp = list(map(math.hypot, dx.ravel().tolist(), dy.ravel().tolist()))
    distance = np.array(hyp, dtype=float).reshape(n, m) / dims.diagonal

    overlap = iou_matrix(rows.boxes, cols.boxes)

    ka, kb = rows.keypoints, cols.keypoints
    blocks = [(ka.parts[p], kb.parts[p]) for p in sorted(ka.parts.keys() & kb.parts.keys())]
    # the pixel minimums pass through one buffer of at most MINIMUMS_BYTES (or one pair)
    length = math.prod(ka.patches.shape[1:])
    pairs = max(((a1 - a0) * (b1 - b0) for (a0, a1), (b0, b1) in blocks), default=0)
    buf = np.empty(max(1, min(pairs, MINIMUMS_BYTES // length)) * length, dtype=np.uint8)
    s, e, count = np.zeros(n * m), np.zeros(n * m), np.zeros(n * m, dtype=np.int64)
    for ra, rb in blocks:
        # the flat pair index of each block entry; an observation has at most
        # one patch per part, so no pair repeats in a block
        at = ka.owners[ra[0] : ra[1], None] * m + kb.owners[rb[0] : rb[1]]
        _add_exact(s, e, at, _part_content(ka, kb, ra, rb, buf))
        count[at] += 1
    content = np.divide(s + e, count, out=np.ones(n * m), where=count > 0).reshape(n, m)

    return weights.alpha * distance + weights.beta * (1.0 - overlap) + weights.gamma * content
