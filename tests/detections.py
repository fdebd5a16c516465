"""Detections for tests: builders of the array values, and the object
reader that the array reader is checked against.

The oracle is the reader as it was when a detection was an object: a
Detection of Keypoint objects, each a part id, a Point2 and a
confidence, whose box is derived from its keypoints. It keeps every
check and message of read_detections_jsonl except the finite-span one.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from enum import Enum

from courttrack.cost import ObservedBox
from courttrack.detect import DetectionsBuilder, FrameDetections
from courttrack.errors import InputFormatError, json_int, json_number, open_text, text_lines
from courttrack.geometry import BBox, Homography, Point2
from courttrack.imaging import FrameRaster


def frame_of(*detections) -> FrameDetections:
    """The FrameDetections of detections given as lists of (part id, x, y)."""
    builder = DetectionsBuilder()
    for det in detections:
        builder.add([p for p, _, _ in det], [(float(x), float(y)) for _, x, y in det])
    return builder.build()


def box_det(x0, y0, x1, y1, n_extra=0) -> list[tuple[int, float, float]]:
    """A detection whose skeleton box is (x0, y0, x1, y1): parts 0 and 1
    at two corners, and n_extra parts inside."""
    points = [(x0, y0), (x1, y1)]
    points += [((x0 + x1) / 2, (y0 + y1) / 2 + k * 1e-3) for k in range(n_extra)]
    return [(i, x, y) for i, (x, y) in enumerate(points)]


def observed(dets: FrameDetections, i: int, homography: Homography, frame: FrameRaster) -> ObservedBox:
    """The ObservedBox of detection i of a frame."""
    mine = dets.owners == i
    positions = dets.xy[mine].tolist()
    parts = {p: Point2(x, y) for p, (x, y) in zip(dets.parts[mine].tolist(), positions)}
    return ObservedBox(BBox(*dets.boxes[i].tolist()), parts, homography, frame)


def same_detections(a: FrameDetections, b: FrameDetections) -> bool:
    """Whether two values hold the same arrays, bit for bit."""
    return all(
        x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()
        for x, y in zip((a.boxes, a.parts, a.xy, a.owners), (b.boxes, b.parts, b.xy, b.owners))
    )


# --- the object reader ---------------------------------------------------------


class SourceStage(Enum):
    COARSE = "coarse"
    REFINED = "refined"
    SLIDING = "sliding"
    EXTERNAL = "external"


@dataclass(frozen=True, slots=True)
class Keypoint:
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


def read_detections_objects(path) -> dict[int, list[Detection]]:
    per_frame: dict[int, list[Detection]] = {}
    with open_text(path) as fh:
        for lineno, raw in text_lines(fh, path):
            raw = raw.strip()
            if not raw:
                continue
            try:
                obj = json.loads(raw)
            except (ValueError, RecursionError) as exc:
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
