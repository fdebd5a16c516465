"""Pose detections as per-frame arrays, and their JSON Lines file format.

The pose network is an upstream concern: detections arrive as files,
one JSON object per detection. The tracker reads a detection's skeleton
box, the tight axis-aligned box over its keypoint positions with no
padding, and its part positions; the confidence and stage that a file
gives are checked and not kept.

Frame numbers in a detections file do not decrease, so each frame's
lines are consecutive: iter_detections_jsonl parses one frame's lines
when its caller reaches that frame and holds no other frame, and
read_detections_jsonl collects every frame at once.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from math import isfinite
from typing import Iterator

import numpy as np

from .errors import InputFormatError, json_int, json_number, open_text, text_lines

# the stage a detection file may name (an upstream detector's); a missing stage is "external"
STAGES = ("external",)
# the keys a detection line may hold, and those each of its keypoints holds
LINE_KEYS = frozenset({"frame", "keypoints", "stage"})
KEYPOINT_KEYS = frozenset({"part", "x", "y", "c"})


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
            raise ValueError("detection without keypoints")
        if len(set(parts)) != len(parts):
            raise ValueError(f"duplicate part ids in detection: {sorted(parts)}")
        xs, ys = zip(*xy)
        box = (min(xs), min(ys), max(xs), max(ys))
        if not (isfinite(box[2] - box[0]) and isfinite(box[3] - box[1])):
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


def iter_detections_jsonl(path, n_frames: int | None = None) -> Iterator[tuple[int, FrameDetections]]:
    """Each frame that the file names and its detections, in file order,
    one frame at a time: a frame's lines are parsed when the caller asks
    for it, and each line once.

    Frame numbers must not decrease from line to line, so a frame's
    lines are consecutive. The first bad line is an InputFormatError
    naming it: a key other than those of LINE_KEYS and KEYPOINT_KEYS; a
    frame outside 0..n_frames-1, where n_frames is given, or below the
    one before it; a keypoint without an integer part in [0, 16] and
    finite x, y and c with c in (0, 1]; or a detection without distinct
    parts and a box of finite size.
    """
    frame = builder = None
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
            if not obj.keys() <= LINE_KEYS:
                key = next(k for k in obj if k not in LINE_KEYS)
                raise InputFormatError(path, f"unknown key {key!r}", line=lineno, field=key)
            if n_frames is not None and not 0 <= frame_idx < n_frames:
                raise InputFormatError(
                    path, f"frame {frame_idx} outside 0..{n_frames - 1}", line=lineno, field="frame"
                )
            if frame is not None and frame_idx < frame:
                raise InputFormatError(
                    path, f"frame {frame_idx} after frame {frame}; frames must not decrease",
                    line=lineno, field="frame",
                )
            if obj.get("stage", "external") not in STAGES:
                raise InputFormatError(path, f"unknown stage {obj.get('stage')!r}", line=lineno, field="stage")
            raw_kps = obj.get("keypoints", [])
            if not isinstance(raw_kps, list):
                raise InputFormatError(path, "keypoints must be a list", line=lineno, field="keypoints")
            parts, xy = [], []
            for k in raw_kps:
                # json.loads gives an int or a float for a number; any other
                # value goes to the helper, which converts it or raises
                try:
                    part = k["part"]
                    if type(part) is not int:
                        part = json_int(part, path, "part", line=lineno)
                    x = k["x"]
                    if type(x) is not float or not isfinite(x):
                        x = json_number(x, path, "x", line=lineno)
                    y = k["y"]
                    if type(y) is not float or not isfinite(y):
                        y = json_number(y, path, "y", line=lineno)
                    c = k["c"]
                    if type(c) is not float or not isfinite(c):
                        c = json_number(c, path, "c", line=lineno)
                    if len(k) != len(KEYPOINT_KEYS):  # it has all four
                        raise ValueError(f"unknown key {next(n for n in k if n not in KEYPOINT_KEYS)!r}")
                    if not 0 <= part <= 16:
                        raise ValueError(f"part_id {part} outside [0, 16]")
                    if not 0.0 <= c <= 1.0:
                        raise ValueError(f"confidence {c} outside [0, 1]")
                    if c == 0.0:  # as OpenPose writes a part it did not find, at x = y = 0
                        raise ValueError(f"confidence {c} marks an undetected part; leave the part out")
                except (KeyError, TypeError, ValueError) as exc:
                    raise InputFormatError(
                        path, f"bad keypoint: {exc}", line=lineno, field="keypoints"
                    ) from None
                parts.append(part)
                xy.append((x, y))
            if frame_idx != frame:
                if frame is not None:
                    yield frame, builder.build()
                frame, builder = frame_idx, DetectionsBuilder()
            try:
                builder.add(parts, xy)
            except ValueError as exc:
                raise InputFormatError(path, str(exc), line=lineno, field="keypoints") from None
    if frame is not None:
        yield frame, builder.build()


def read_detections_jsonl(path) -> dict[int, FrameDetections]:
    """Every frame's detections at once, as iter_detections_jsonl reads them."""
    return dict(iter_detections_jsonl(path))
