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
behind the content term. Its output is one metrics.FrameBoxes per frame
with detections: each detection's id and box, in detection order.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .cost import CostWeights, Features, cost_matrix, default_weights, features
from .defaults import DEFAULT_GATE, DEFAULT_MEMORY_DEPTH
from .detect import FrameDetections
from .errors import DegenerateProjection
from .geometry import FrameDims, Homography
from .imaging import FrameRaster, PatchWindow
from .metrics import FrameBoxes, solve_assignment


@dataclass(frozen=True)
class MatchConfig:
    """Gate, memory depth and cost parameters of the matcher."""

    gate: float = DEFAULT_GATE
    memory_depth: int = DEFAULT_MEMORY_DEPTH
    weights: CostWeights = field(default_factory=default_weights)
    patch: PatchWindow = field(default_factory=PatchWindow)

    def __post_init__(self):
        if not self.gate > 0.0:
            raise ValueError("gate must be positive")
        if self.memory_depth not in (1, 2):
            raise ValueError("memory_depth must be 1 or 2")


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
) -> dict[int, FrameBoxes]:
    """Stream the matcher over frames 0, 1, ... in order; returns each
    frame's detection ids and boxes.

    A frame's entry holds its detections' ids and boxes in detection
    order; a frame without detections has no entry, as a track file
    cannot hold one. A detection left unmatched gets the next unused
    id. Distances are normalized by the first frame's diagonal. Each
    frame's detection features are extracted once and kept while the
    frame is in the window. A point that a frame's homography sends to
    infinity is a DegenerateProjection that names the frame. A patch
    half-extent beyond the larger side of the first frame is a
    ValueError, raised before any patch is cut, and so is a frame whose
    size is not the first frame's, raised before its patches are cut.
    """
    tracks: dict[int, FrameBoxes] = {}
    next_id = 0
    window: deque[tuple[Features, list[int]]] = deque(maxlen=cfg.memory_depth)
    for t, frame in enumerate(frames):
        if t == 0:
            dims = frame.raster.dims
            if not cfg.patch.fits(dims):
                raise ValueError(
                    f"patch half-extent {cfg.patch.half_extent} exceeds frame 0's larger side, "
                    f"{max(dims.w, dims.h)} px"
                )
        elif frame.raster.dims != dims:
            size = frame.raster.dims
            raise ValueError(f"frame {t} is {size.w}x{size.h}, frame 0 is {dims.w}x{dims.h}")
        try:
            dets = features(frame.detections, frame.homography, frame.raster, cfg.patch)
        except DegenerateProjection as exc:
            raise DegenerateProjection(f"frame {t}: {exc}") from None
        matched = match_frame(window, dets, cfg, dims)
        owners = []
        for i in range(len(frame.detections)):
            track_id = matched.get(i)
            if track_id is None:
                track_id, next_id = next_id, next_id + 1
            owners.append(track_id)
        window.append((dets, owners))
        if owners:
            tracks[t] = FrameBoxes(np.array(owners, dtype=np.int64), frame.detections.boxes)
    return tracks
