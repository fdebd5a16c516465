"""Multi-scale detection orchestration around a pluggable pose detector.

The detector itself (a pose CNN in production, scripted callables in
tests) is abstracted behind DetectorContract; this module schedules the
coarse, refinement and sliding-window passes, merges their outputs and
derives skeleton boxes.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Protocol, Sequence

from .court import CourtRegion, point_in_court
from .errors import (
    EmptyKeypoints,
    InputFormatError,
    json_int,
    json_number,
    open_text,
    text_lines,
)
from .geometry import BBox, FrameDims, Point2, iou
from .imaging import FrameRaster, crop, resize_nearest

DUPLICATE_IOU = 0.5


class SourceStage(Enum):
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


def skeleton_bbox(keypoints: Sequence[Keypoint]) -> BBox:
    """Tight axis-aligned box over the keypoint positions, no padding."""
    if not keypoints:
        raise EmptyKeypoints("cannot build a box from zero keypoints")
    xs = [k.position.x for k in keypoints]
    ys = [k.position.y for k in keypoints]
    return BBox(min(xs), min(ys), max(xs), max(ys))


@dataclass(frozen=True, slots=True)
class Detection:
    """A person hypothesis: keypoints, and the skeleton box derived from them."""

    keypoints: tuple[Keypoint, ...]
    source_stage: SourceStage
    bbox: BBox = field(init=False)

    def __post_init__(self):
        if not self.keypoints:
            raise ValueError("detection needs at least one keypoint")
        ids = [k.part_id for k in self.keypoints]
        if len(set(ids)) != len(ids):
            raise ValueError(f"duplicate part ids in detection: {sorted(ids)}")
        object.__setattr__(self, "bbox", skeleton_bbox(self.keypoints))

    @property
    def mean_confidence(self) -> float:
        return sum(k.confidence for k in self.keypoints) / len(self.keypoints)

    def parts(self) -> dict[int, Keypoint]:
        return {k.part_id: k for k in self.keypoints}


class DetectorContract(Protocol):
    """Pose detector adapter.

    Called with the raster content of one query window, the window
    origin in frame coordinates and the window scale (frame pixels per
    window pixel is 1/scale). Returns detections already mapped to frame
    coordinates; returned keypoints must lie within the window's
    frame-coordinate footprint. The engine treats the detector as
    deterministic and never retries.
    """

    def __call__(
        self, window: FrameRaster, origin: Point2, scale: float
    ) -> list[Detection]: ...


@dataclass(frozen=True)
class ScalePlan:
    """Window geometry of the multi-scale strategy.

    model_w/model_h are the detector's native resolution; coarse_scale
    is the downscale ratio of the first pass (0.45 maps full HD onto
    twice the model width); overlap is the sliding-window overlap ratio.
    """

    model_w: int = 432
    model_h: int = 368
    coarse_scale: float = 0.45
    overlap: float = 0.5

    def __post_init__(self):
        if self.model_w <= 0 or self.model_h <= 0:
            raise ValueError("model dims must be positive")
        if not 0.0 < self.overlap < 1.0:
            raise ValueError("overlap must be in (0, 1)")
        if self.coarse_scale <= 0.0:
            raise ValueError("coarse_scale must be positive")

    @property
    def stride_x(self) -> int:
        return max(1, round(self.model_w * (1.0 - self.overlap)))

    @property
    def stride_y(self) -> int:
        return max(1, round(self.model_h * (1.0 - self.overlap)))


def _require_frame_fits(dims: FrameDims, plan: ScalePlan) -> None:
    if dims.w < plan.model_w or dims.h < plan.model_h:
        raise ValueError(
            f"frame {dims.w}x{dims.h} smaller than model window "
            f"{plan.model_w}x{plan.model_h}"
        )


def coarse_scale_dims(dims: FrameDims, plan: ScalePlan) -> FrameDims:
    return FrameDims(round(dims.w * plan.coarse_scale), round(dims.h * plan.coarse_scale))


def coarse_pass(
    frame: FrameRaster, detector: DetectorContract, plan: ScalePlan
) -> list[Detection]:
    """Single detector query on the frame downscaled by coarse_scale."""
    _require_frame_fits(frame.dims, plan)
    small = resize_nearest(frame, coarse_scale_dims(frame.dims, plan))
    return list(detector(small, Point2(0.0, 0.0), plan.coarse_scale))


def refine_window_origin(center: Point2, dims: FrameDims, plan: ScalePlan) -> tuple[int, int]:
    """Model-sized window origin centered on `center`, clamped into the frame."""
    ox = int(math.floor(center.x - plan.model_w / 2.0 + 0.5))
    oy = int(math.floor(center.y - plan.model_h / 2.0 + 0.5))
    ox = min(max(ox, 0), dims.w - plan.model_w)
    oy = min(max(oy, 0), dims.h - plan.model_h)
    return ox, oy


def refine_pass(
    frame: FrameRaster,
    coarse: list[Detection],
    detector: DetectorContract,
    plan: ScalePlan,
) -> list[Detection]:
    """Requery a full-resolution model window around each coarse detection."""
    dims = frame.dims
    if coarse:
        _require_frame_fits(dims, plan)
    found: list[Detection] = []
    for det in coarse:
        ox, oy = refine_window_origin(det.bbox.centroid, dims, plan)
        window = crop(frame, ox, oy, plan.model_w, plan.model_h)
        found.extend(detector(window, Point2(float(ox), float(oy)), 1.0))
    return dedup_detections(found)


def sliding_origins(dims: FrameDims, plan: ScalePlan) -> list[tuple[int, int]]:
    """Stride-and-flush grid of window origins covering the whole frame."""

    def axis(frame_len: int, model_len: int, stride: int) -> list[int]:
        out = [0]
        while out[-1] + stride + model_len <= frame_len:
            out.append(out[-1] + stride)
        if out[-1] + model_len < frame_len:
            out.append(frame_len - model_len)
        return out

    xs = axis(dims.w, plan.model_w, plan.stride_x)
    ys = axis(dims.h, plan.model_h, plan.stride_y)
    return [(x, y) for y in ys for x in xs]


def sliding_pass(
    frame: FrameRaster,
    detector: DetectorContract,
    plan: ScalePlan,
) -> list[Detection]:
    """Query every window of the overlapping full-resolution grid."""
    _require_frame_fits(frame.dims, plan)
    found: list[Detection] = []
    for ox, oy in sliding_origins(frame.dims, plan):
        window = crop(frame, ox, oy, plan.model_w, plan.model_h)
        found.extend(detector(window, Point2(float(ox), float(oy)), 1.0))
    return dedup_detections(found)


def dedup_detections(dets: list[Detection]) -> list[Detection]:
    """Drop near-duplicates within one pass.

    Among detections whose boxes overlap at IoU >= DUPLICATE_IOU the one with
    more keypoints survives, ties broken by higher mean confidence, then
    by input order. Output keeps input order.
    """
    order = sorted(
        range(len(dets)),
        key=lambda i: (-len(dets[i].keypoints), -dets[i].mean_confidence, i),
    )
    kept: list[int] = []
    for i in order:
        if all(iou(dets[i].bbox, dets[j].bbox) < DUPLICATE_IOU for j in kept):
            kept.append(i)
    return [dets[i] for i in sorted(kept)]


def merge_detections(primary: list[Detection], extra: list[Detection]) -> list[Detection]:
    """Keep all of `primary`; add the extras not already found there.

    An extra duplicates a primary detection when their box IoU reaches
    DUPLICATE_IOU (threshold inclusive).
    """
    out = list(primary)
    for det in extra:
        if all(iou(det.bbox, p.bbox) < DUPLICATE_IOU for p in primary):
            out.append(det)
    return out


def detect_frame(
    frame: FrameRaster,
    detector: DetectorContract,
    plan: ScalePlan,
) -> list[Detection]:
    """Full pipeline: coarse pass, refinement, then sliding-window fill-in."""
    coarse = coarse_pass(frame, detector, plan)
    refined = refine_pass(frame, coarse, detector, plan)
    stage1 = merge_detections(refined, coarse)
    sliding = sliding_pass(frame, detector, plan)
    return merge_detections(stage1, sliding)


def filter_by_court(dets: list[Detection], region: CourtRegion) -> list[Detection]:
    """Keep detections whose box bottom-center lies on the court."""
    out = []
    for det in dets:
        anchor = Point2((det.bbox.x_min + det.bbox.x_max) / 2.0, det.bbox.y_max)
        if point_in_court(region, anchor):
            out.append(det)
    return out


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
