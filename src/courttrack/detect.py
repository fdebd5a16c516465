"""Pose detections as per-frame arrays, and their JSON Lines file format.

The pose network is an upstream concern: detections arrive as files,
one JSON object per detection. The tracker reads a detection's skeleton
box, the tight axis-aligned box over its keypoint positions with no
padding, and its part positions; the confidence and stage that a file
gives are checked and not kept.
"""

from __future__ import annotations

import json
import math
from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from .errors import InputFormatError, json_int, json_number, open_text, text_lines

# the detector stages a detection file may name; a missing stage is "external"
STAGES = ("coarse", "refined", "sliding", "external")


@dataclass(frozen=True, eq=False)
class FrameDetections:
    """One frame's detections; keypoints in input order, detection by detection."""

    boxes: np.ndarray  # (n, 4) float64 skeleton boxes (x_min, y_min, x_max, y_max)
    parts: np.ndarray  # (k,) int64 part ids
    xy: np.ndarray  # (k, 2) float64 keypoint positions
    owners: np.ndarray  # (k,) int64 the detection each keypoint belongs to

    def __len__(self) -> int:
        return len(self.boxes)


NO_DETECTIONS = FrameDetections(
    np.empty((0, 4)), np.empty(0, dtype=np.int64), np.empty((0, 2)), np.empty(0, dtype=np.int64)
)


class DetectionsBuilder:
    """Collects one frame's detections, one add per detection, into a FrameDetections."""

    def __init__(self) -> None:
        self.boxes, self.parts, self.xy, self.counts = [], [], [], []  # counts: keypoints per detection

    def add(self, parts: list[int], xy: list[tuple[float, float]]) -> None:
        """Append a detection; its box is min() and max() of the finite
        positions. No part, a repeated part or a box whose width or height
        is not finite is a ValueError."""
        if not parts:
            raise ValueError("detection needs at least one keypoint")
        if len(set(parts)) != len(parts):
            raise ValueError(f"duplicate part ids in detection: {sorted(parts)}")
        xs, ys = zip(*xy)
        box = (min(xs), min(ys), max(xs), max(ys))
        if not (math.isfinite(box[2] - box[0]) and math.isfinite(box[3] - box[1])):
            raise ValueError(f"keypoint span from ({box[0]}, {box[1]}) to ({box[2]}, {box[3]}) is not finite")
        self.boxes.append(box)
        self.parts += parts
        self.xy += xy
        self.counts.append(len(parts))

    def build(self) -> FrameDetections:
        if not self.counts:
            return NO_DETECTIONS
        return FrameDetections(
            np.array(self.boxes, dtype=float),
            np.array(self.parts, dtype=np.int64),
            np.array(self.xy, dtype=float),
            np.repeat(np.arange(len(self.counts), dtype=np.int64), self.counts),
        )


# --- JSON Lines detection fixtures -------------------------------------------

def write_detections_jsonl(per_frame: dict[int, FrameDetections], path) -> None:
    """One JSON object per detection: frame, keypoints, and confidence
    0.9 and stage "external", as neither is kept."""
    with open(path, "w") as fh:
        for frame_idx in sorted(per_frame):
            dets = per_frame[frame_idx]
            keypoints: list[list[dict]] = [[] for _ in range(len(dets))]
            for owner, part, (x, y) in zip(dets.owners.tolist(), dets.parts.tolist(), dets.xy.tolist()):
                keypoints[owner].append({"part": part, "x": x, "y": y, "c": 0.9})
            for kps in keypoints:
                obj = {"frame": frame_idx, "keypoints": kps, "stage": "external"}
                fh.write(json.dumps(obj, sort_keys=True) + "\n")


def read_detections_jsonl(path) -> dict[int, FrameDetections]:
    """The detections of each frame that the file names, in file order.

    The first bad line is an InputFormatError naming it: a keypoint
    needs an integer part in [0, 16] and finite x, y and c with c in
    [0, 1], and a detection distinct parts and a box of finite size.
    """
    per_frame: defaultdict[int, DetectionsBuilder] = defaultdict(DetectionsBuilder)
    with open_text(path) as fh:
        for lineno, raw in text_lines(fh, path):
            raw = raw.strip()
            if not raw:
                continue
            try:
                obj = json.loads(raw)
            except (ValueError, RecursionError) as exc:  # over-long integer, deep nesting
                raise InputFormatError(path, f"invalid JSON: {exc}", line=lineno) from None
            try:
                raw_frame = obj["frame"]
            except (KeyError, TypeError):
                raise InputFormatError(path, "missing field", line=lineno, field="frame") from None
            frame_idx = json_int(raw_frame, path, "frame", line=lineno)
            if obj.get("stage", "external") not in STAGES:
                raise InputFormatError(path, f"unknown stage {obj.get('stage')!r}", line=lineno, field="stage")
            raw_kps = obj.get("keypoints", [])
            if not isinstance(raw_kps, list):
                raise InputFormatError(path, "keypoints must be a list", line=lineno, field="keypoints")
            parts, xy = [], []
            for k in raw_kps:
                try:
                    part = json_int(k["part"], path, "part", line=lineno)
                    x, y, c = (json_number(k[name], path, name, line=lineno) for name in "xyc")
                    if not 0 <= part <= 16:
                        raise ValueError(f"part_id {part} outside [0, 16]")
                    if not 0.0 <= c <= 1.0:
                        raise ValueError(f"confidence {c} outside [0, 1]")
                except (KeyError, TypeError, ValueError) as exc:
                    raise InputFormatError(
                        path, f"bad keypoint: {exc}", line=lineno, field="keypoints"
                    ) from None
                parts.append(part)
                xy.append((x, y))
            if not parts:
                raise InputFormatError(path, "detection without keypoints", line=lineno, field="keypoints")
            try:
                per_frame[frame_idx].add(parts, xy)
            except ValueError as exc:
                raise InputFormatError(path, str(exc), line=lineno, field="keypoints") from None
    return {t: frame.build() for t, frame in per_frame.items()}
