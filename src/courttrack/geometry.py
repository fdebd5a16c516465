"""Planar homogeneous geometry: points, lines, homographies, projection, IoU.

All types are immutable values and all operations are pure functions,
working in double precision with continuous pixel coordinates. A box is
a row (x_min, y_min, x_max, y_max) of an (n, 4) float64 array, the form
that detections, tracks and ground truth all take. The homographies
file format, read and written next to Homography, is the one part that
touches files.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DegenerateProjection, InputFormatError, json_int, json_number

SINGULAR_TOL = 1e-12


@dataclass(frozen=True, slots=True)
class Point2:
    """A point in pixel coordinates (origin top-left, y down)."""

    x: float
    y: float

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValueError(f"non-finite point ({self.x}, {self.y})")


@dataclass(frozen=True)
class FrameDims:
    """Integer frame width and height in pixels."""

    w: int
    h: int

    def __post_init__(self):
        if self.w <= 0 or self.h <= 0:
            raise ValueError(f"frame dims must be positive, got {self.w}x{self.h}")

    @property
    def diagonal(self) -> float:
        return math.hypot(self.w, self.h)


class Homography:
    """Nonsingular 3x3 projective transform, row-major.

    The matrix is stored as a read-only float64 array; instances are
    immutable values.
    """

    __slots__ = ("m",)

    def __init__(self, m) -> None:
        arr = np.array(m, dtype=float)
        if arr.size != 9:
            raise ValueError(f"homography needs 9 entries, got shape {arr.shape}")
        arr = arr.reshape(3, 3)
        if not np.all(np.isfinite(arr)):
            raise ValueError("homography entries must be finite")
        # numpy warns on a subnormal pivot, and gives det 0.0; and on a det
        # beyond the float range, which is inf: large, so not singular
        with np.errstate(divide="ignore", over="ignore"):
            det = np.linalg.det(arr)
        if abs(det) <= SINGULAR_TOL:
            raise ValueError("homography matrix is singular")
        arr.flags.writeable = False
        object.__setattr__(self, "m", arr)

    @classmethod
    def identity(cls) -> "Homography":
        return cls(np.eye(3))

    @classmethod
    def translation(cls, tx: float, ty: float) -> "Homography":
        return cls([[1.0, 0.0, tx], [0.0, 1.0, ty], [0.0, 0.0, 1.0]])

    def flat(self) -> list[float]:
        """Row-major entries, e.g. for JSON serialization."""
        return [float(v) for v in self.m.reshape(-1)]

    def __repr__(self) -> str:
        return f"Homography({self.m.tolist()})"


def write_homographies_json(homographies: list[Homography], path) -> None:
    """Array of {"frame": int, "h": [9 numbers row-major]}."""
    payload = [{"frame": t, "h": h.flat()} for t, h in enumerate(homographies)]
    Path(path).write_text(json.dumps(payload, sort_keys=True, indent=1) + "\n")


def read_homographies_json(path, n_frames: int) -> dict[int, Homography]:
    """{frame: Homography}; a frame outside 0..n_frames-1, or a key other
    than "frame" and "h", is an error naming its entry."""
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except (ValueError, RecursionError) as exc:  # non-UTF-8, over-long integer, deep nesting
        raise InputFormatError(path, f"invalid JSON: {exc}") from None
    if not isinstance(payload, list):
        raise InputFormatError(path, "expected a JSON array")
    out: dict[int, Homography] = {}
    for idx, entry in enumerate(payload):
        try:
            raw_frame, matrix = entry["frame"], entry["h"]
        except (KeyError, TypeError):
            raise InputFormatError(path, f"entry {idx} needs 'frame' and 'h'", field="frame") from None
        unknown = next((key for key in entry if key not in ("frame", "h")), None)
        if unknown is not None:
            raise InputFormatError(path, f"entry {idx}: unknown key {unknown!r}", field=unknown)
        frame = json_int(raw_frame, path, "frame", entry=idx)
        if frame in out:
            raise InputFormatError(path, f"entry {idx}: frame {frame} repeats", field="frame")
        if not 0 <= frame < n_frames:
            raise InputFormatError(path, f"entry {idx}: frame {frame} outside 0..{n_frames - 1}", field="frame")
        if not isinstance(matrix, list) or len(matrix) != 9:
            raise InputFormatError(path, f"entry {idx}: expected a flat array of 9 numbers", field="h")
        try:
            out[frame] = Homography([json_number(v, path, "h", entry=idx) for v in matrix])
        except ValueError as exc:
            raise InputFormatError(path, f"entry {idx}: {exc}", field="h") from None
    return out


@dataclass(frozen=True)
class Line2:
    """Homogeneous line a*x + b*y + c = 0, normalized so a^2 + b^2 = 1.

    The constructor renormalizes, so a*x + b*y + c is the signed
    distance from (x, y) to the line. A coefficient that is not finite,
    given or once normalized, is a ValueError.
    """

    a: float
    b: float
    c: float

    def __post_init__(self):
        given = (self.a, self.b, self.c)
        n = math.hypot(self.a, self.b)
        if n < SINGULAR_TOL:
            raise ValueError("line direction (a, b) must be nonzero")
        if abs(n - 1.0) > 0.0:
            object.__setattr__(self, "a", self.a / n)
            object.__setattr__(self, "b", self.b / n)
            object.__setattr__(self, "c", self.c / n)
        if not all(map(math.isfinite, self.coeffs())):
            raise ValueError(f"line coefficients must be finite, got {given}")

    @classmethod
    def horizontal_at(cls, y: float) -> "Line2":
        return cls(0.0, 1.0, -y)

    def signed(self, p: Point2) -> float:
        return self.a * p.x + self.b * p.y + self.c

    def negated(self) -> "Line2":
        return Line2(-self.a, -self.b, -self.c)

    def coeffs(self) -> tuple[float, float, float]:
        return (self.a, self.b, self.c)


def project_points(h: Homography, xy: np.ndarray) -> np.ndarray:
    """Every row (x, y) of an (n, 2) array projected through h, as an (n, 2) array.

    A point is the homogeneous product (x', y', w) = h (x, y, 1) divided
    by w, one elementwise operation at a time. The first point whose w
    lies within SINGULAR_TOL of zero, or whose result is not finite, is
    a DegenerateProjection; overflow on the way warns of nothing.
    """
    m = h.m
    x, y = xy[:, 0], xy[:, 1]
    out = np.empty_like(xy, dtype=float)
    with np.errstate(all="ignore"):
        w = m[2, 0] * x + m[2, 1] * y + m[2, 2]
        np.divide(m[0, 0] * x + m[0, 1] * y + m[0, 2], w, out=out[:, 0])
        np.divide(m[1, 0] * x + m[1, 1] * y + m[1, 2], w, out=out[:, 1])
    at_infinity = np.abs(w) <= SINGULAR_TOL
    bad = at_infinity | ~np.isfinite(out).all(axis=1)
    if bad.any():
        i = int(np.argmax(bad))
        px, py = xy[i].tolist()
        if at_infinity[i]:
            raise DegenerateProjection(f"point ({px}, {py}) maps to the line at infinity")
        qx, qy = out[i].tolist()
        raise DegenerateProjection(f"point ({px}, {py}) maps to the non-finite point ({qx}, {qy})")
    return out


def iou_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Intersection over union of every box of a (n, 4) with every box of
    b (m, 4), rows (x_min, y_min, x_max, y_max), as an (n, m) array; 0.0
    where the union has zero area.

    Per pair: iw = min(x_max) - max(x_min), likewise ih, inter =
    max(0, iw) * max(0, ih), union = area(a) + area(b) - inter, each one
    elementwise operation in that order. min and max keep the first of
    equal values, as Python's do, so even the sign of a zero is fixed.
    A product past the float range is inf, as in Python, with no warning.
    """
    p, q = a[:, None], b[None]

    def low(u, v):
        return np.where(v < u, v, u)

    def high(u, v):
        return np.where(v > u, v, u)

    with np.errstate(over="ignore", invalid="ignore"):
        iw = low(p[..., 2], q[..., 2]) - high(p[..., 0], q[..., 0])
        ih = low(p[..., 3], q[..., 3]) - high(p[..., 1], q[..., 1])
        inter = high(0.0, iw) * high(0.0, ih)
        union = (p[..., 2] - p[..., 0]) * (p[..., 3] - p[..., 1])
        union = union + (q[..., 2] - q[..., 0]) * (q[..., 3] - q[..., 1]) - inter
        return np.divide(inter, union, out=np.zeros(union.shape), where=~(union <= 0.0))
