"""Detection and tracking evaluation.

Detection quality follows the from-scratch per-frame protocol: greedy
matching by descending IoU with any positive overlap. Tracking quality
is CLEAR-MOT with correspondence carry-over; MOTP is reported as the
mean IoU of matched pairs (higher is better).
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .errors import EmptyGroundTruth, InputFormatError, csv_number_rows
from .geometry import BBox, box_array, iou_matrix
from .track import GroundTruthBox, solve_assignment

MOT_IOU_THRESHOLD = 0.5
TRACK_CSV_HEADER = ["frame", "id", "x_min", "y_min", "width", "height"]


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


def eval_detections(gt: list[GroundTruthBox], dets: dict[int, np.ndarray]) -> DetectionReport:
    """Per-frame greedy max-IoU matching (any IoU > 0), pooled over frames.

    dets holds each frame's detection boxes as an (n, 4) array of rows
    (x_min, y_min, x_max, y_max); a frame it leaves out has none.
    """
    gt_by_frame: dict[int, list[BBox]] = {}
    for g in gt:
        gt_by_frame.setdefault(g.frame, []).append(g.bbox)

    tp = fp = fn = 0
    for frame in sorted(set(gt_by_frame) | set(dets)):
        overlap = iou_matrix(box_array(gt_by_frame.get(frame, [])), dets.get(frame, np.empty((0, 4))))
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
    iou_matrix of its ground truth against its hypotheses.
    """
    if not 0.0 <= iou_threshold < 1.0:
        raise ValueError(f"IoU threshold must lie in [0, 1), got {iou_threshold}")
    if not gt:
        raise EmptyGroundTruth("tracking evaluation needs ground-truth boxes")

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


# --- MOT-style CSV ingestion ----------------------------------------------------

def read_mot_csv(path, unique_ids: bool = False) -> list[GroundTruthBox]:
    """Read "frame,id,x_min,y_min,width,height" rows; header optional.

    With unique_ids a (frame, id) pair may occur on one row only, as
    CLEAR-MOT needs; detection files may repeat ids (MOT uses -1 for all).
    """
    records: list[GroundTruthBox] = []
    first_row: dict[tuple[int, int], int] = {}
    for lineno, row, values in csv_number_rows(path, TRACK_CSV_HEADER, header=True):
        for name, cell, value in zip(TRACK_CSV_HEADER[:2], row, values):
            if not value.is_integer():
                raise InputFormatError(path, f"not an integer: {cell!r}", line=lineno, field=name)
        frame, track_id = int(values[0]), int(values[1])
        x, y, w, h = values[2:]
        if w < 0 or h < 0:
            raise InputFormatError(path, "negative box size", line=lineno, field="width")
        try:
            bbox = BBox(x, y, x + w, y + h)
        except ValueError as exc:
            raise InputFormatError(path, str(exc), line=lineno) from None
        if unique_ids:
            key = (frame, track_id)
            if key in first_row:
                raise InputFormatError(
                    path, f"frame {frame} id {track_id} repeats line {first_row[key]}", line=lineno, field="id"
                )
            first_row[key] = lineno
        records.append(GroundTruthBox(frame, track_id, bbox))
    return records


def write_mot_csv(records: list[GroundTruthBox], path) -> None:
    rows = sorted(records, key=lambda r: (r.frame, r.id))
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(TRACK_CSV_HEADER)
        for r in rows:
            writer.writerow(
                [r.frame, r.id]
                + [repr(float(v)) for v in (r.bbox.x_min, r.bbox.y_min, r.bbox.width, r.bbox.height)]
            )
