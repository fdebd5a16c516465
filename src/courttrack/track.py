"""Identity assignment across frames.

Per frame, the detections are matched against the ids seen in the last
memory_depth frames through one optimal assignment, where the candidate
cost of an id is the best similarity against its detections at t-1 and
t-2 (the two-frame memory criterion). Gated-out detections get fresh
ids. Frames stream through: the tracker keeps only the features of the
last memory_depth frames' detections and the id of each, so an id that
leaves that window is never matched again. Its output is one
(frame, id, box) row per detection.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .cost import CostWeights, Features, cost_matrix, default_weights, features
from .detect import Detection
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


def linear_sum_assignment(cost) -> tuple[np.ndarray, np.ndarray]:
    """Minimum-cost rectangular assignment: (rows, cols).

    A numpy port of scipy.optimize.linear_sum_assignment: Crouse's
    shortest augmenting path ("On implementing 2D rectangular assignment
    algorithms", IEEE TAES 2016; Jonker & Volgenant 1987). It keeps
    scipy's tie rules, so it picks the same pairs, ties included: the
    remaining columns are scanned in swap-remove order, an unassigned
    column wins an equal path length, and a tall matrix is solved
    transposed, then its pairs are sorted by row.
    """
    c = np.asarray(cost, dtype=float)
    if c.ndim != 2:
        raise ValueError("cost matrix must be 2-dimensional")
    if np.isnan(c).any() or (c == -np.inf).any():
        raise ValueError("cost matrix contains nan or -inf entries")
    transpose = c.shape[1] < c.shape[0]
    if transpose:
        c = c.T
    nr, nc = c.shape
    u = np.zeros(nr)
    v = np.zeros(nc)
    col4row = np.full(nr, -1, dtype=np.intp)
    row4col = np.full(nc, -1, dtype=np.intp)
    path = np.full(nc, -1, dtype=np.intp)
    for cur_row in range(nr):
        # Dijkstra over reduced costs from cur_row to the nearest unassigned column
        dist = np.full(nc, np.inf)
        in_rows = np.zeros(nr, dtype=bool)
        in_cols = np.zeros(nc, dtype=bool)
        remaining = np.arange(nc - 1, -1, -1)  # reversed: a constant matrix gives the identity
        n_remaining = nc
        min_val = 0.0
        i = cur_row
        while True:
            in_rows[i] = True
            rem = remaining[:n_remaining]
            reduced = min_val + c[i, rem] - u[i] - v[rem]
            shorter = reduced < dist[rem]
            path[rem[shorter]] = i
            dist[rem[shorter]] = reduced[shorter]
            scanned = dist[rem]
            min_val = scanned.min()
            if min_val == np.inf:
                raise ValueError("cost matrix is infeasible")
            ties = np.flatnonzero(scanned == min_val)
            free = ties[row4col[rem[ties]] == -1]
            index = free[-1] if free.size else ties[0]
            j = rem[index]
            in_cols[j] = True
            n_remaining -= 1
            remaining[index] = remaining[n_remaining]
            if row4col[j] == -1:
                break
            i = row4col[j]
        u[cur_row] += min_val
        in_rows[cur_row] = False
        u[in_rows] += min_val - dist[col4row[in_rows]]
        v[in_cols] -= min_val - dist[in_cols]
        while True:  # augment along the path back to cur_row
            i = path[j]
            row4col[j] = i
            col4row[i], j = j, col4row[i]
            if i == cur_row:
                break
    if transpose:
        order = np.argsort(col4row)
        return col4row[order], order
    return np.arange(nr), col4row


def solve_assignment(entries: np.ndarray, pad: float) -> list[tuple[int, int]]:
    """Minimum-cost matching of the 2-d `entries`, squared up with `pad` cells.

    One linear_sum_assignment solve per matrix, so among equal-cost
    optima the pairs are those scipy's tie rules pick, the same rule
    that eval's CLEAR-MOT matching uses. Pairs touching dummy rows or
    columns are dropped from the result. A non-finite entry or pad is a
    ValueError: the solver would take +inf as a forbidden cell.
    """
    n_rows, n_cols = entries.shape
    if not (math.isfinite(pad) and np.isfinite(entries).all()):
        raise ValueError("cost entries and pad must be finite")
    if n_rows == 0 or n_cols == 0:
        return []
    size = max(n_rows, n_cols)
    padded = np.full((size, size), pad, dtype=float)
    padded[:n_rows, :n_cols] = entries
    rows, cols = linear_sum_assignment(padded)
    return [(r, c) for r, c in zip(rows.tolist(), cols.tolist()) if r < n_rows and c < n_cols]


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
    costs above the gate are treated as impossible. The detections left
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
    pad = 10.0 * cfg.gate if math.isfinite(cfg.gate) else 10.0 * (1.0 + float(raw.max()))
    clamped = np.where(raw <= cfg.gate, raw, pad)
    pairs = solve_assignment(clamped, pad)
    return {i: eligible[j] for i, j in pairs if raw[i, j] <= cfg.gate}


@dataclass(frozen=True)
class FrameObservations:
    """Input of one frame: detections plus stabilization and pixels."""

    detections: list[Detection]
    homography: Homography
    raster: FrameRaster


def run_tracker(
    frames: Iterable[FrameObservations], cfg: MatchConfig = MatchConfig()
) -> list[GroundTruthBox]:
    """Stream the matcher over frames 0, 1, ... in order; returns one row per detection.

    The rows come frame by frame in detection order. A detection left
    unmatched gets the next unused id. Distances are normalized by the
    first frame's diagonal. Each frame's detection features are
    extracted once and kept while the frame is in the window.
    """
    rows: list[GroundTruthBox] = []
    next_id = 0
    window: deque[tuple[Features, list[int]]] = deque(maxlen=cfg.memory_depth)
    for t, frame in enumerate(frames):
        if t == 0:
            dims = frame.raster.dims
        dets = features(frame.detections, frame.homography, frame.raster, cfg.patch)
        matched = match_frame(window, dets, cfg, dims)
        owners = []
        for i, det in enumerate(frame.detections):
            track_id = matched.get(i)
            if track_id is None:
                track_id, next_id = next_id, next_id + 1
            owners.append(track_id)
            rows.append(GroundTruthBox(t, track_id, det.bbox))
        window.append((dets, owners))
    return rows
