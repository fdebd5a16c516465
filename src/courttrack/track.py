"""Identity assignment across frames.

Per frame, the detections are matched against the ids seen in the last
memory_depth frames through one optimal assignment, where the candidate
cost of an id is the best similarity against its detections at t-1 and
t-2 (the two-frame memory criterion). Gated-out detections get fresh
ids. Frames stream through: the tracker keeps only the features of the
last memory_depth frames' detections and the id of each, so an id that
leaves that window is never matched again. A frame's detections arrive
as one FrameDetections of arrays: the skeleton boxes, which the output
and the distance and overlap terms use, and the keypoint positions
behind the content term. Its output is one (frame, id, box) row per
detection.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .cost import CostWeights, Features, cost_matrix, default_weights, features
from .detect import FrameDetections
from .errors import DegenerateProjection
from .geometry import BBox, FrameDims, Homography
from .imaging import FrameRaster, PatchWindow

DEFAULT_GATE = 0.5


@dataclass(frozen=True)
class MatchConfig:
    """Gate, memory depth and cost parameters of the matcher."""

    gate: float = DEFAULT_GATE
    memory_depth: int = 2
    weights: CostWeights = field(default_factory=default_weights)
    patch: PatchWindow = field(default_factory=PatchWindow)

    def __post_init__(self):
        if not self.gate > 0.0:
            raise ValueError("gate must be positive")
        if self.memory_depth not in (1, 2):
            raise ValueError("memory_depth must be 1 or 2")


@dataclass(frozen=True, slots=True)
class GroundTruthBox:
    """One annotated (or hypothesized) box of one identity in one frame."""

    frame: int
    id: int
    bbox: BBox


def solve_assignment(cost) -> list[tuple[int, int]]:
    """Minimum-cost rectangular assignment: its (row, column) pairs, sorted by row.

    scipy's rectangular LSAP solver written out on Python lists:
    Crouse's shortest augmenting path ("On implementing 2D rectangular
    assignment algorithms", IEEE TAES 2016; Jonker & Volgenant 1987).
    It keeps scipy's tie rules, so it picks the same pairs, ties
    included: the remaining columns are scanned in swap-remove order, an
    unassigned column wins an equal path length, and a tall matrix is
    solved transposed. Every row of a wide matrix, and every column of a
    tall one, is matched. +inf is a forbidden cell; a matrix that is not
    2-d, holds nan or -inf, or has no complete finite matching is a
    ValueError.
    """
    c = np.asarray(cost, dtype=float)
    if c.ndim != 2:
        raise ValueError("cost matrix must be 2-dimensional")
    if np.isnan(c).any() or (c == -np.inf).any():
        raise ValueError("cost matrix contains nan or -inf entries")
    transpose = c.shape[1] < c.shape[0]
    rows = (c.T if transpose else c).tolist()
    nr, nc = sorted(c.shape)  # solved with no more rows than columns
    u = [0.0] * nr
    v = [0.0] * nc
    col4row = [-1] * nr
    row4col = [-1] * nc
    path = [-1] * nc
    for cur_row in range(nr):
        # Dijkstra over reduced costs from cur_row to the nearest unassigned column
        dist = [math.inf] * nc
        remaining = list(range(nc - 1, -1, -1))  # reversed: a constant matrix gives the identity
        scanned = []
        min_val = 0.0
        i = cur_row
        while True:
            row, ui = rows[i], u[i]
            lowest, index = math.inf, -1
            for k, j in enumerate(remaining):
                d = min_val + row[j] - ui - v[j]
                if d < dist[j]:
                    path[j] = i
                    dist[j] = d
                else:
                    d = dist[j]
                if d < lowest or (d == lowest and row4col[j] == -1):
                    lowest, index = d, k
            min_val = lowest
            if min_val == math.inf:
                raise ValueError("cost matrix is infeasible")
            remaining[index], remaining[-1] = remaining[-1], remaining[index]
            j = remaining.pop()
            if row4col[j] == -1:
                break
            scanned.append(j)
            i = row4col[j]
        u[cur_row] += min_val
        for k in scanned:  # the columns passed on the way and the rows that held them
            u[row4col[k]] += min_val - dist[k]
            v[k] -= min_val - dist[k]
        while True:  # augment along the path back to cur_row
            i = path[j]
            row4col[j] = i
            col4row[i], j = j, col4row[i]
            if i == cur_row:
                break
    if transpose:
        return sorted((r, k) for k, r in enumerate(col4row))
    return list(enumerate(col4row))


def match_frame(
    window: Sequence[tuple[Features, list[int]]],
    dets: Features,
    cfg: MatchConfig,
    dims: FrameDims,
) -> dict[int, int]:
    """Match the frame's detections to ids: detection index -> id.

    The window holds, for each of the last memory_depth frames, its
    detections' features and the id of each, so the eligible ids are
    exactly the ones found there. The cost of a (detection, id) pair is
    the minimum similarity against that id's detections in the window;
    costs above the gate are treated as impossible. One solve_assignment
    per frame, so among equal-cost optima scipy's tie rules pick the
    pairs, as in eval's CLEAR-MOT matching. The detections left
    unmatched are for the caller to give new ids.
    """
    eligible = sorted({track_id for _, owners in window for track_id in owners})
    n = len(dets.centroids)
    if not eligible or not n:
        return {}
    column = {track_id: j for j, track_id in enumerate(eligible)}
    raw = np.full((n, len(eligible)), np.inf)
    for reps, owners in window:
        cols = [column[track_id] for track_id in owners]  # at most one detection per id and frame
        raw[:, cols] = np.minimum(raw[:, cols], cost_matrix(dets, reps, cfg.weights, dims))
    pairs = solve_assignment(np.where(raw <= cfg.gate, raw, 10.0 * cfg.gate))
    return {i: eligible[j] for i, j in pairs if raw[i, j] <= cfg.gate}


@dataclass(frozen=True)
class FrameObservations:
    """Input of one frame: its detections' arrays plus stabilization and pixels."""

    detections: FrameDetections
    homography: Homography
    raster: FrameRaster


def run_tracker(
    frames: Iterable[FrameObservations], cfg: MatchConfig = MatchConfig()
) -> list[GroundTruthBox]:
    """Stream the matcher over frames 0, 1, ... in order; returns one row per detection.

    The rows come frame by frame in detection order. A detection left
    unmatched gets the next unused id. Distances are normalized by the
    first frame's diagonal. Each frame's detection features are
    extracted once and kept while the frame is in the window. A point
    that a frame's homography sends to infinity is a
    DegenerateProjection that names the frame.
    """
    rows: list[GroundTruthBox] = []
    next_id = 0
    window: deque[tuple[Features, list[int]]] = deque(maxlen=cfg.memory_depth)
    for t, frame in enumerate(frames):
        if t == 0:
            dims = frame.raster.dims
        try:
            dets = features(frame.detections, frame.homography, frame.raster, cfg.patch)
        except DegenerateProjection as exc:
            raise DegenerateProjection(f"frame {t}: {exc}") from None
        matched = match_frame(window, dets, cfg, dims)
        owners = []
        for i, box in enumerate(frame.detections.boxes.tolist()):
            track_id = matched.get(i)
            if track_id is None:
                track_id, next_id = next_id, next_id + 1
            owners.append(track_id)
            rows.append(GroundTruthBox(t, track_id, BBox(*box)))
        window.append((dets, owners))
    return rows
