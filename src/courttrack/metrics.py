"""Detection and tracking evaluation.

Detection quality follows the from-scratch per-frame protocol: greedy
matching by descending IoU with any positive overlap. Tracking quality
is CLEAR-MOT with correspondence carry-over; MOTP is reported as the
mean IoU of matched pairs (higher is better).

A track or ground-truth file is one FrameBoxes per frame that has a
row: the rows' ids and boxes, in file order. read_mot_csv, run_tracker
and synth.generate give that form, write_mot_csv writes it, and both
evaluations read it. The tracker also solves with solve_assignment.
"""

from __future__ import annotations

import csv
import math
from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from .defaults import MOT_IOU_THRESHOLD
from .errors import InputFormatError, csv_number_rows
from .geometry import iou_matrix

TRACK_CSV_HEADER = ["frame", "id", "x_min", "y_min", "width", "height"]


@dataclass(frozen=True, eq=False)
class FrameBoxes:
    """One frame's rows of a track or ground-truth file, in row order."""

    ids: np.ndarray  # (n,) int64 identities
    boxes: np.ndarray  # (n, 4) float64 boxes (x_min, y_min, x_max, y_max)


NO_BOXES = FrameBoxes(np.empty(0, dtype=np.int64), np.empty((0, 4)))


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


@dataclass(frozen=True)
class DetectionReport:
    tp: int
    fp: int
    fn: int
    precision: float
    recall: float
    f1: float

    @classmethod
    def from_counts(cls, tp: int, fp: int, fn: int) -> "DetectionReport":
        precision = tp / (tp + fp) if tp + fp > 0 else 0.0
        recall = tp / (tp + fn) if tp + fn > 0 else 0.0
        f1 = 2 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0
        return cls(tp, fp, fn, precision, recall, f1)

    def to_json_dict(self) -> dict:
        return {
            "tp": self.tp,
            "fp": self.fp,
            "fn": self.fn,
            "precision": self.precision,
            "recall": self.recall,
            "f1": self.f1,
        }


@dataclass(frozen=True)
class MotReport:
    mota: float
    motp: float
    misses: int
    false_positives: int
    id_switches: int
    gt_count: int

    @classmethod
    def from_counts(
        cls, misses: int, false_positives: int, id_switches: int, gt_count: int, motp: float
    ) -> "MotReport":
        mota = 1.0 - (misses + false_positives + id_switches) / gt_count
        return cls(mota, motp, misses, false_positives, id_switches, gt_count)

    def to_json_dict(self) -> dict:
        return {
            "mota": self.mota,
            "motp": self.motp,
            "misses": self.misses,
            "fp": self.false_positives,
            "id_switches": self.id_switches,
            "gt": self.gt_count,
        }


def eval_detections(gt: dict[int, FrameBoxes], dets: dict[int, np.ndarray]) -> DetectionReport:
    """Per-frame greedy max-IoU matching (any IoU > 0), pooled over frames.

    dets holds each frame's detection boxes as an (n, 4) array of rows
    (x_min, y_min, x_max, y_max); a frame it leaves out has none.
    """
    tp = fp = fn = 0
    for frame in sorted(set(gt) | set(dets)):
        overlap = iou_matrix(gt.get(frame, NO_BOXES).boxes, dets.get(frame, NO_BOXES.boxes))
        gi, di = np.nonzero(overlap > 0.0)
        used_gt: set[int] = set()
        used_det: set[int] = set()
        for _, g, d in sorted(zip((-overlap[gi, di]).tolist(), gi.tolist(), di.tolist())):
            if g in used_gt or d in used_det:
                continue
            used_gt.add(g)
            used_det.add(d)
        n_gt, n_det = overlap.shape
        tp += len(used_gt)
        fn += n_gt - len(used_gt)
        fp += n_det - len(used_det)
    return DetectionReport.from_counts(tp, fp, fn)


def eval_mot_records(
    gt: dict[int, FrameBoxes],
    hyp: dict[int, FrameBoxes],
    iou_threshold: float = MOT_IOU_THRESHOLD,
) -> MotReport:
    """CLEAR-MOT over per-frame ids and boxes.

    Correspondences surviving from the previous frame (still above the
    IoU threshold) are kept; the remainder is matched by an optimal
    assignment maximizing IoU. A ground-truth identity whose hypothesis
    differs from its last known one counts as an id switch. The IoU
    threshold must lie in [0, 1), the ground truth must hold a box, and
    an id may occur once per frame on each side; each is a ValueError.
    Each frame's overlaps are one iou_matrix of its ground truth against
    its hypotheses.
    """
    if not 0.0 <= iou_threshold < 1.0:
        raise ValueError(f"IoU threshold must lie in [0, 1), got {iou_threshold}")
    gt_count = sum(len(f.ids) for f in gt.values())
    if not gt_count:
        raise ValueError("tracking evaluation needs ground-truth boxes")

    misses = false_positives = id_switches = 0
    matched_iou_sum = 0.0
    matched_count = 0
    current: dict[int, int] = {}  # gt id -> hyp id matched in the previous frame
    last_known: dict[int, int] = {}  # gt id -> hyp id of the latest match ever

    for frame in sorted(set(gt) | set(hyp)):
        truth, guess = gt.get(frame, NO_BOXES), hyp.get(frame, NO_BOXES)
        # row and column of each id in the frame's overlaps
        gt_row = _index_of_ids(truth.ids, frame, "ground-truth")
        hyp_col = _index_of_ids(guess.ids, frame, "hypothesis")
        overlaps = iou_matrix(truth.boxes, guess.boxes)
        gt_left, hyp_left = set(gt_row), set(hyp_col)

        frame_matches: dict[int, int] = {}
        # 1. carry forward still-valid correspondences
        for gt_id, hyp_id in current.items():
            if gt_id in gt_left and hyp_id in hyp_left:
                overlap = overlaps[gt_row[gt_id], hyp_col[hyp_id]].item()
                if overlap > iou_threshold:
                    frame_matches[gt_id] = hyp_id
                    matched_iou_sum += overlap
                    matched_count += 1
        gt_left.difference_update(frame_matches)
        hyp_left.difference_update(frame_matches.values())

        # 2. optimal assignment on the remainder, maximizing IoU above threshold
        free_gt = sorted(gt_left)
        free_hyp = sorted(hyp_left)
        if free_gt and free_hyp:
            free = overlaps[np.ix_([gt_row[g] for g in free_gt], [hyp_col[h] for h in free_hyp])]
            gains = np.where(free > iou_threshold, free, 0.0)
            gain = gains.tolist()
            for i, j in solve_assignment(-gains):
                if gain[i][j] > 0.0:
                    gid, hid = free_gt[i], free_hyp[j]
                    frame_matches[gid] = hid
                    matched_iou_sum += gain[i][j]
                    matched_count += 1
                    if gid in last_known and last_known[gid] != hid:
                        id_switches += 1
                    gt_left.remove(gid)
                    hyp_left.remove(hid)

        misses += len(gt_left)
        false_positives += len(hyp_left)
        current = frame_matches
        last_known.update(frame_matches)

    motp = matched_iou_sum / matched_count if matched_count else 0.0
    return MotReport.from_counts(misses, false_positives, id_switches, gt_count, motp)


def _index_of_ids(ids: np.ndarray, frame: int, side: str) -> dict[int, int]:
    """Position of each id in a frame's rows; a repeated id is a ValueError."""
    index = {}
    for i, track_id in enumerate(ids.tolist()):
        if track_id in index:
            raise ValueError(f"frame {frame}: {side} id {track_id} repeats")
        index[track_id] = i
    return index


# --- MOT-style CSV ingestion ----------------------------------------------------

def read_mot_csv(path, unique_ids: bool = False) -> dict[int, FrameBoxes]:
    """Read "frame,id,x_min,y_min,width,height" rows; header optional.

    Returns each frame's ids and boxes, rows in file order; only frames
    with a row are keys. An id must fit in 64 bits. With unique_ids a
    (frame, id) pair may occur on one row only, as CLEAR-MOT needs;
    detection files may repeat ids (MOT uses -1 for all).
    """
    ids: defaultdict[int, list[int]] = defaultdict(list)
    boxes: defaultdict[int, list[tuple[float, ...]]] = defaultdict(list)
    first_row: dict[tuple[int, int], int] = {}
    for lineno, row, values in csv_number_rows(path, TRACK_CSV_HEADER, header=True):
        for name, cell, value in zip(TRACK_CSV_HEADER[:2], row, values):
            if not value.is_integer():
                raise InputFormatError(path, f"not an integer: {cell!r}", line=lineno, field=name)
        frame, track_id = int(values[0]), int(values[1])
        if not -(2**63) <= track_id < 2**63:
            raise InputFormatError(path, f"id outside the 64-bit range: {row[1]!r}", line=lineno, field="id")
        x, y, w, h = values[2:]
        if w < 0 or h < 0:
            raise InputFormatError(path, "negative box size", line=lineno, field="width")
        box = (x, y, x + w, y + h)
        if not all(math.isfinite(v) for v in box):
            raise InputFormatError(path, f"non-finite box {box}", line=lineno)
        if unique_ids:
            key = (frame, track_id)
            if key in first_row:
                raise InputFormatError(
                    path, f"frame {frame} id {track_id} repeats line {first_row[key]}", line=lineno, field="id"
                )
            first_row[key] = lineno
        ids[frame].append(track_id)
        boxes[frame].append(box)
    return {
        t: FrameBoxes(np.array(ids[t], dtype=np.int64), np.array(boxes[t], dtype=float)) for t in ids
    }


def write_mot_csv(per_frame: dict[int, FrameBoxes], path) -> None:
    """One row per id and box, frames in order and ids ascending within
    a frame; rows with equal ids keep their order."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(TRACK_CSV_HEADER)
        for t in sorted(per_frame):
            rows = per_frame[t]
            order = np.argsort(rows.ids, kind="stable")
            for track_id, (x0, y0, x1, y1) in zip(rows.ids[order].tolist(), rows.boxes[order].tolist()):
                writer.writerow([t, track_id, repr(x0), repr(y0), repr(x1 - x0), repr(y1 - y0)])
