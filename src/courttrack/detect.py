"""Pose detections: keypoints, the skeleton box derived from them, and
their JSON Lines file format.

The pose network is an upstream concern: detections arrive as files,
one JSON object per detection, and each names the detector stage that
produced it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from enum import Enum

from .errors import (
    InputFormatError,
    json_int,
    json_number,
    open_text,
    text_lines,
)
from .geometry import BBox, Point2


class SourceStage(Enum):
    """The detector stage a detection file names; "external" if none."""

    COARSE = "coarse"
    REFINED = "refined"
    SLIDING = "sliding"
    EXTERNAL = "external"


@dataclass(frozen=True, slots=True)
class Keypoint:
    """One anatomical part: id in [0, 16], frame coordinates, confidence."""

    part_id: int
    position: Point2
    confidence: float

    def __post_init__(self):
        if not 0 <= self.part_id <= 16:
            raise ValueError(f"part_id {self.part_id} outside [0, 16]")
        if not 0.0 <= self.confidence <= 1.0:
            raise ValueError(f"confidence {self.confidence} outside [0, 1]")


@dataclass(frozen=True, slots=True)
class Detection:
    """A person hypothesis: keypoints, and their skeleton box, the tight
    axis-aligned box over the keypoint positions with no padding."""

    keypoints: tuple[Keypoint, ...]
    source_stage: SourceStage
    bbox: BBox = field(init=False)

    def __post_init__(self):
        if not self.keypoints:
            raise ValueError("detection needs at least one keypoint")
        ids = [k.part_id for k in self.keypoints]
        if len(set(ids)) != len(ids):
            raise ValueError(f"duplicate part ids in detection: {sorted(ids)}")
        xs = [k.position.x for k in self.keypoints]
        ys = [k.position.y for k in self.keypoints]
        object.__setattr__(self, "bbox", BBox(min(xs), min(ys), max(xs), max(ys)))

    def parts(self) -> dict[int, Keypoint]:
        return {k.part_id: k for k in self.keypoints}


# --- JSON Lines detection fixtures -------------------------------------------

def write_detections_jsonl(per_frame: dict[int, list[Detection]], path) -> None:
    """One JSON object per detection: frame, keypoints, stage."""
    with open(path, "w") as fh:
        for frame_idx in sorted(per_frame):
            for det in per_frame[frame_idx]:
                obj = {
                    "frame": frame_idx,
                    "keypoints": [
                        {"part": k.part_id, "x": k.position.x, "y": k.position.y, "c": k.confidence}
                        for k in det.keypoints
                    ],
                    "stage": det.source_stage.value,
                }
                fh.write(json.dumps(obj, sort_keys=True) + "\n")


def read_detections_jsonl(path) -> dict[int, list[Detection]]:
    per_frame: dict[int, list[Detection]] = {}
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
            try:
                stage = SourceStage(obj.get("stage", "external"))
            except ValueError:
                raise InputFormatError(
                    path, f"unknown stage {obj.get('stage')!r}", line=lineno, field="stage"
                )
            raw_kps = obj.get("keypoints", [])
            if not isinstance(raw_kps, list):
                raise InputFormatError(
                    path, "keypoints must be a list", line=lineno, field="keypoints"
                )
            kps = []
            for k in raw_kps:
                try:
                    part = json_int(k["part"], path, "part", line=lineno)
                    x, y, c = (json_number(k[name], path, name, line=lineno) for name in "xyc")
                    kps.append(Keypoint(part, Point2(x, y), c))
                except (KeyError, TypeError, ValueError) as exc:
                    raise InputFormatError(
                        path, f"bad keypoint: {exc}", line=lineno, field="keypoints"
                    ) from None
            if not kps:
                raise InputFormatError(path, "detection without keypoints", line=lineno, field="keypoints")
            try:
                det = Detection(tuple(kps), stage)
            except ValueError as exc:
                raise InputFormatError(path, str(exc), line=lineno, field="keypoints") from None
            per_frame.setdefault(frame_idx, []).append(det)
    return per_frame
