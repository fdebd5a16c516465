"""Identity assignment across frames.

Per frame, current detections are matched against active tracks through
one optimal assignment where the candidate cost of a track is the best
similarity against its representatives at t-1 and t-2 (the two-frame
memory criterion). Gated-out detections spawn fresh ids; tracks unseen
for longer than the memory depth are retired.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from itertools import count
from typing import Iterator, Sequence

import numpy as np
from scipy.optimize import linear_sum_assignment

from .cost import CostWeights, ObservedBox, cost_matrix, default_weights
from .detect import Detection
from .errors import InconsistentFrameIndexing
from .geometry import FrameDims, Homography
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
        if self.gate <= 0.0:
            raise ValueError("gate must be positive")
        if self.memory_depth not in (1, 2):
            raise ValueError("memory_depth must be 1 or 2")


class Track:
    """A persistent identity with its per-frame observation history."""

    __slots__ = ("id", "history", "last_seen")

    def __init__(self, track_id: int, t: int, obs: ObservedBox) -> None:
        self.id = track_id
        self.history: dict[int, ObservedBox] = {t: obs}
        self.last_seen = t

    def observe(self, t: int, obs: ObservedBox) -> None:
        if t <= self.last_seen:
            raise ValueError(f"track {self.id} already observed at or after frame {t}")
        self.history[t] = obs
        self.last_seen = t

    def __repr__(self) -> str:
        return f"Track(id={self.id}, frames={sorted(self.history)})"


@dataclass
class CostMatrix:
    """Detections-by-tracks cost table plus the dummy-cell sentinel."""

    entries: np.ndarray
    pad_value: float

    def __post_init__(self):
        self.entries = np.asarray(self.entries, dtype=float)
        if self.entries.ndim != 2:
            raise ValueError("cost matrix must be 2-dimensional")
        if self.entries.size and not np.all(np.isfinite(self.entries)):
            raise ValueError("cost matrix entries must be finite")
        if not math.isfinite(self.pad_value):
            raise ValueError("pad_value must be finite")

    @property
    def n_rows(self) -> int:
        return self.entries.shape[0]

    @property
    def n_cols(self) -> int:
        return self.entries.shape[1]


def _optimal_entries(matrix: np.ndarray) -> list[float]:
    rows, cols = linear_sum_assignment(matrix)
    return [float(matrix[r, c]) for r, c in zip(rows, cols)]


def solve_assignment(m: CostMatrix) -> list[tuple[int, int]]:
    """Minimum-cost matching on the pad-squared matrix.

    Pairs touching dummy rows or columns are dropped from the result.
    Among equal-cost optima the lexicographically smallest (row, col)
    pair list is returned; totals are compared with exact compensated
    summation, so the tie set is the mathematical one.
    """
    n_rows, n_cols = m.n_rows, m.n_cols
    if n_rows == 0 or n_cols == 0:
        return []
    size = max(n_rows, n_cols)
    padded = np.full((size, size), m.pad_value, dtype=float)
    padded[:n_rows, :n_cols] = m.entries

    best_total = math.fsum(_optimal_entries(padded))

    pairs: list[tuple[int, int]] = []
    fixed_cost: list[float] = []
    free_cols = list(range(size))
    for row in range(n_rows):
        remaining_rows = list(range(row + 1, size))
        # real columns in ascending order first, then dummy columns
        candidates = [c for c in free_cols if c < n_cols] + [c for c in free_cols if c >= n_cols]
        chosen = None
        for col in candidates:
            rest_cols = [c for c in free_cols if c != col]
            if remaining_rows:
                rest = _optimal_entries(padded[np.ix_(remaining_rows, rest_cols)])
            else:
                rest = []
            total = math.fsum(fixed_cost + [float(padded[row, col])] + rest)
            if total == best_total:
                chosen = col
                break
        assert chosen is not None, "refinement lost the optimal total"
        fixed_cost.append(float(padded[row, chosen]))
        free_cols.remove(chosen)
        if chosen < n_cols:
            pairs.append((row, chosen))
    return pairs


@dataclass
class MatchResult:
    assignments: dict[int, Track]  # detection index -> matched track
    new_tracks: list[Track]
    retired: list[Track]


def _representative_frames(track: Track, t: int, depth: int) -> list[int]:
    return [f for f in (t - 1, t - 2) if f >= t - depth and f in track.history]


def match_frame(
    active: list[Track],
    dets: list[ObservedBox],
    cfg: MatchConfig,
    dims: FrameDims,
    id_source: Iterator[int] | None = None,
    t: int | None = None,
) -> MatchResult:
    """Assign the frame's detections to tracks; spawn and retire as needed.

    All detections must carry the same frame index t (pass `t` explicitly
    for a frame with no detections, so retirement still advances). The
    cost of a (detection, track) pair is the minimum similarity against
    the track's representatives at t-1 and t-2; costs above the gate are
    treated as impossible.
    """
    if id_source is None:
        start = max((tr.id for tr in active), default=-1) + 1
        id_source = count(start)
    if t is None:
        if not dets:
            raise ValueError("frame index required when there are no detections")
        t = dets[0].t
    if any(d.t != t for d in dets):
        raise ValueError("detections of one frame must share the frame index")
    if any(tr.last_seen >= t for tr in active):
        raise ValueError("active tracks must predate the current frame")

    eligible = [tr for tr in active if tr.last_seen >= t - cfg.memory_depth]
    retired = [tr for tr in active if tr.last_seen < t - cfg.memory_depth]
    eligible.sort(key=lambda tr: tr.id)

    assignments: dict[int, Track] = {}
    if eligible and dets:
        reps: list[ObservedBox] = []
        first_col = []
        for track in eligible:
            first_col.append(len(reps))
            reps += [track.history[f] for f in _representative_frames(track, t, cfg.memory_depth)]
        costs = cost_matrix(dets, reps, cfg.weights, dims, cfg.patch)
        # each eligible track has a representative at its last_seen, so no run is empty
        raw = np.minimum.reduceat(costs, first_col, axis=1)
        pad = 10.0 * cfg.gate if math.isfinite(cfg.gate) else 10.0 * (1.0 + float(raw.max()))
        clamped = np.where(raw <= cfg.gate, raw, pad)
        for i, j in solve_assignment(CostMatrix(clamped, pad)):
            if raw[i, j] <= cfg.gate:
                assignments[i] = eligible[j]

    new_tracks: list[Track] = []
    for i, det in enumerate(dets):
        if i in assignments:
            assignments[i].observe(t, det)
        else:
            track = Track(next(id_source), t, det)
            new_tracks.append(track)
    return MatchResult(assignments, new_tracks, retired)


@dataclass(frozen=True)
class FrameObservations:
    """Input of one frame: detections plus stabilization and pixels."""

    index: int
    detections: list[Detection]
    homography: Homography
    raster: FrameRaster


def run_tracker(
    sequence: Sequence[FrameObservations],
    cfg: MatchConfig = MatchConfig(),
    dims: FrameDims | None = None,
) -> list[Track]:
    """Stream the matcher over a frame sequence; returns all tracks ever created."""
    for pos, frame in enumerate(sequence):
        if frame.index != pos:
            raise InconsistentFrameIndexing(
                f"expected frame index {pos}, got {frame.index}"
            )
    if not sequence:
        return []
    if dims is None:
        dims = sequence[0].raster.dims

    ids = count(0)
    active: list[Track] = []
    finished: list[Track] = []
    for frame in sequence:
        obs = [
            ObservedBox(det, frame.homography, frame.raster, frame.index)
            for det in frame.detections
        ]
        result = match_frame(active, obs, cfg, dims, ids, t=frame.index)
        retired_ids = {tr.id for tr in result.retired}
        active = [tr for tr in active if tr.id not in retired_ids] + result.new_tracks
        finished.extend(result.retired)
    return sorted(finished + active, key=lambda tr: tr.id)


# --- MOT-style CSV output ------------------------------------------------------

TRACK_CSV_HEADER = ["frame", "id", "x_min", "y_min", "width", "height"]


def write_tracks_csv(tracks: list[Track], path) -> None:
    """MOT-style rows "frame,id,x_min,y_min,width,height", frames 0-based."""
    rows = []
    for track in tracks:
        for t, obs in sorted(track.history.items()):
            b = obs.detection.bbox
            rows.append((t, track.id, b.x_min, b.y_min, b.width, b.height))
    rows.sort(key=lambda r: (r[0], r[1]))
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(TRACK_CSV_HEADER)
        for row in rows:
            writer.writerow([row[0], row[1]] + [repr(float(v)) for v in row[2:]])
