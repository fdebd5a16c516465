"""Synthetic tracking scenarios.

Generated sequences stand in for real annotated footage: targets are
solid-color rectangles on a flat background, the camera pans at a
constant rate, and the per-frame homographies cancel that pan exactly.
Ground truth covers every target in every frame; dropout, extra dropout
and jitter only degrade the detections. Extra dropout removes single
detections that a two-frame memory can bridge: it drops a target's
detection only when that target is detected in the frame before and the
base dropout keeps it in the frame after.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import product

import numpy as np

from .defaults import (
    SCENE_DROPOUT,
    SCENE_EXTRA_DROPOUT,
    SCENE_FRAMES,
    SCENE_HEIGHT,
    SCENE_JITTER,
    SCENE_PAN,
    SCENE_SEED,
    SCENE_TARGETS,
    SCENE_WIDTH,
)
from .detect import DetectionsBuilder, FrameDetections
from .errors import InfeasibleScenario
from .geometry import FrameDims, Homography
from .imaging import FrameRaster
from .metrics import FrameBoxes
from .rng import SplitMix64

# Keypoint stencil: (part_id, relative x, relative y) inside the box. The
# hull of the stencil spans the whole box, so a detection's skeleton box
# equals the box it was planted in.
KEYPOINT_STENCIL = (
    (0, 0.5, 0.0),
    (5, 0.0, 0.25),
    (6, 1.0, 0.25),
    (11, 0.0, 1.0),
    (12, 1.0, 1.0),
)

BACKGROUND_COLOR = (96, 96, 96)
MIN_COLOR_DISTANCE = 60  # max channel difference required between target colors
# Random color draws before falling back to the lattice; far above the most
# that 24 targets take (2859 over seeds 0-1999), so up to 24 keep their colors.
COLOR_DRAWS = 20_000
COLOR_LATTICE = (20, 80, 140, 200)  # 56 of its 64 points clear the background


@dataclass(frozen=True)
class ScenarioSpec:
    """Parameters of one synthetic sequence.

    motion is one (vx, vy) velocity per target in world pixels/frame
    (None places stationary targets); pan is the constant camera
    translation per frame. Dropout removes whole detections, extra
    dropout removes single-frame ones (see the module docstring), jitter
    perturbs detection box corners; none touches the ground truth.
    """

    n_targets: int = SCENE_TARGETS
    n_frames: int = SCENE_FRAMES
    dims: FrameDims = field(default_factory=lambda: FrameDims(SCENE_WIDTH, SCENE_HEIGHT))
    motion: tuple[tuple[float, float], ...] | None = None
    pan: tuple[float, float] = SCENE_PAN
    dropout_rate: float = SCENE_DROPOUT
    jitter_sigma: float = SCENE_JITTER
    extra_dropout: float = SCENE_EXTRA_DROPOUT
    seed: int = SCENE_SEED

    def __post_init__(self):
        if self.n_targets < 1:
            raise ValueError("need at least one target")
        if self.n_frames < 2:
            raise ValueError("need at least two frames")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ValueError("dropout_rate must lie in [0, 1)")
        if not 0.0 <= self.jitter_sigma < math.inf:
            raise ValueError("jitter_sigma must be finite and >= 0")
        if not all(math.isfinite(p) for p in self.pan):
            raise ValueError("pan components must be finite")
        if not 0.0 <= self.extra_dropout < 1.0:
            raise ValueError("extra_dropout must lie in [0, 1)")
        if self.motion is not None and len(self.motion) != self.n_targets:
            raise ValueError("motion needs one velocity per target")
        if self.motion is not None and not all(math.isfinite(v) for vel in self.motion for v in vel):
            raise ValueError("motion components must be finite")


@dataclass
class SyntheticSequence:
    spec: ScenarioSpec
    gt: dict[int, FrameBoxes]  # every frame: target i's box in row i
    detections: dict[int, FrameDetections]
    homographies: list[Homography]
    frames: list[FrameRaster]


def _target_colors(n: int, seed: int) -> list[tuple[int, int, int]]:
    """Distinct flat colors, pairwise (and vs background) separated by at
    least MIN_COLOR_DISTANCE in some channel.

    The colors are random draws. Should COLOR_DRAWS draws fall short
    (they jam from about 30 colors), they are dropped, since they would
    block most of the lattice, and the colors are the first n points of
    the lattice COLOR_LATTICE^3 that clear the background instead.
    """

    def separated(cand, chosen):
        return all(max(abs(a - b) for a, b in zip(cand, c)) >= MIN_COLOR_DISTANCE for c in chosen)

    rng = SplitMix64(seed, 0xC0108)
    colors: list[tuple[int, int, int]] = [BACKGROUND_COLOR]
    draws = 0
    while len(colors) <= n and draws < COLOR_DRAWS:
        draws += 1
        cand = (rng.randint(20, 235), rng.randint(20, 235), rng.randint(20, 235))
        if separated(cand, colors):
            colors.append(cand)
    if len(colors) <= n:
        lattice = product(COLOR_LATTICE, repeat=3)  # its points are MIN_COLOR_DISTANCE apart
        colors = [BACKGROUND_COLOR] + [c for c in lattice if separated(c, [BACKGROUND_COLOR])]
        if len(colors) <= n:
            raise InfeasibleScenario(f"the color lattice holds {len(colors) - 1} colors, got {n}", "n_targets")
    return colors[1 : n + 1]


def _box_size(dims: FrameDims) -> tuple[float, float]:
    return (max(8.0, round(dims.w / 24.0)), max(16.0, round(dims.h / 6.0)))


def _start_positions(spec: ScenarioSpec, motion, box_w: float, box_h: float):
    """Grid placement of box origins, feasible for the whole sequence.

    The image-space drift of target i over the sequence is
    (v_i - pan) * t; the start position must keep the box inside the
    frame for every t.
    """
    rng = SplitMix64(spec.seed, 0x9051)
    t_last = spec.n_frames - 1
    n_cols = math.ceil(math.sqrt(spec.n_targets))
    n_rows = math.ceil(spec.n_targets / n_cols)
    starts = []
    at_fault = "pan/n_frames/dims" if spec.motion is None else "motion/pan/n_frames/dims"
    for i in range(spec.n_targets):
        dvx = motion[i][0] - spec.pan[0]
        dvy = motion[i][1] - spec.pan[1]
        x_lo = max(0.0, -dvx * t_last)
        x_hi = spec.dims.w - box_w - max(0.0, dvx * t_last)
        y_lo = max(0.0, -dvy * t_last)
        y_hi = spec.dims.h - box_h - max(0.0, dvy * t_last)
        if x_lo > x_hi or y_lo > y_hi:
            raise InfeasibleScenario(f"target {i} cannot stay in frame with drift ({dvx}, {dvy})/frame", at_fault)
        col = i % n_cols
        row = i // n_cols
        fx = (col + 0.5) / n_cols + rng.uniform(-0.08, 0.08)
        fy = (row + 0.5) / n_rows + rng.uniform(-0.08, 0.08)
        fx = min(max(fx, 0.0), 1.0)
        fy = min(max(fy, 0.0), 1.0)
        starts.append((x_lo + fx * (x_hi - x_lo), y_lo + fy * (y_hi - y_lo)))
    return starts


def _kept_by_dropout(spec: ScenarioSpec, t: int, i: int) -> bool:
    """Whether the base dropout keeps target i's detection in frame t."""
    return SplitMix64(spec.seed, 0xD809, t, i).uniform() >= spec.dropout_rate


def generate(spec: ScenarioSpec) -> SyntheticSequence:
    """Deterministic scenario synthesis; same spec, same bytes."""
    motion = spec.motion if spec.motion is not None else ((0.0, 0.0),) * spec.n_targets
    box_w, box_h = _box_size(spec.dims)
    starts = _start_positions(spec, motion, box_w, box_h)
    colors = _target_colors(spec.n_targets, spec.seed)

    gt: dict[int, FrameBoxes] = {}
    target_ids = np.arange(spec.n_targets, dtype=np.int64)
    detections: dict[int, FrameDetections] = {}
    homographies: list[Homography] = []
    frames: list[FrameRaster] = []
    detected = [True] * spec.n_targets  # each target in the previous frame; frame -1 counts
    try:
        background = np.empty((spec.dims.h, spec.dims.w, 3), dtype=np.uint8)
    except (ValueError, MemoryError):  # more bytes than an array can index, or than memory holds
        raise InfeasibleScenario(f"a {spec.dims.w}x{spec.dims.h} frame does not fit in memory", "dims") from None
    background[:, :] = BACKGROUND_COLOR
    stencil_parts = [part_id for part_id, _, _ in KEYPOINT_STENCIL]

    for t in range(spec.n_frames):
        pan_x, pan_y = spec.pan[0] * t, spec.pan[1] * t
        homographies.append(Homography.translation(pan_x, pan_y))
        raster = background.copy()  # copying is far faster than broadcasting the color again
        frame_dets = DetectionsBuilder()
        gt_boxes = []
        for i in range(spec.n_targets):
            x = starts[i][0] + motion[i][0] * t - pan_x
            y = starts[i][1] + motion[i][1] * t - pan_y
            box = (x, y, x + box_w, y + box_h)
            if box[0] < 0 or box[1] < 0 or box[2] > spec.dims.w or box[3] > spec.dims.h:
                raise InfeasibleScenario(f"target {i} leaves the frame at t={t}")
            gt_boxes.append(box)

            x0, y0, x1, y1 = (round(v) for v in box)
            raster[max(0, y0) : y1, max(0, x0) : x1] = colors[i]

            kept = _kept_by_dropout(spec, t, i) and not (
                detected[i]
                and SplitMix64(spec.seed, 0xDE64ADE, t, i).uniform() < spec.extra_dropout
                and (t == spec.n_frames - 1 or _kept_by_dropout(spec, t + 1, i))
            )
            detected[i] = kept
            if not kept:
                continue
            left, top, right, bottom = box
            if spec.jitter_sigma > 0.0:
                jit = SplitMix64(spec.seed, 0x7177E8, t, i)
                xs = sorted(
                    (left + jit.gauss(0.0, spec.jitter_sigma), right + jit.gauss(0.0, spec.jitter_sigma))
                )
                ys = sorted(
                    (top + jit.gauss(0.0, spec.jitter_sigma), bottom + jit.gauss(0.0, spec.jitter_sigma))
                )
                # an infinite corner makes its span non-finite too, and finite
                # corners can still be too far apart for the span to be finite
                if not (math.isfinite(xs[1] - xs[0]) and math.isfinite(ys[1] - ys[0])):
                    raise InfeasibleScenario(f"{spec.jitter_sigma} overflows a box at t={t}", "jitter_sigma")
                (left, right), (top, bottom) = xs, ys
            width, height = right - left, bottom - top
            stencil = [(left + rx * width, top + ry * height) for _, rx, ry in KEYPOINT_STENCIL]
            frame_dets.add(stencil_parts, stencil)
        gt[t] = FrameBoxes(target_ids, np.array(gt_boxes, dtype=float))
        detections[t] = frame_dets.build()
        raster.flags.writeable = False
        frames.append(FrameRaster(raster))

    return SyntheticSequence(spec, gt, detections, homographies, frames)
