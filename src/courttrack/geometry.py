"""Planar homogeneous geometry: points, lines, boxes, homographies, IoU.

All types are immutable values and all operations are pure functions,
working in double precision with continuous pixel coordinates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateProjection

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
        if abs(np.linalg.det(arr)) <= SINGULAR_TOL:
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


@dataclass(frozen=True, slots=True)
class BBox:
    """Axis-aligned box in pixel coordinates, corners inclusive."""

    x_min: float
    y_min: float
    x_max: float
    y_max: float

    def __post_init__(self):
        vals = (self.x_min, self.y_min, self.x_max, self.y_max)
        if not all(math.isfinite(v) for v in vals):
            raise ValueError(f"non-finite box {vals}")
        if self.x_min > self.x_max or self.y_min > self.y_max:
            raise ValueError(f"inverted box {vals}")

    @property
    def width(self) -> float:
        return self.x_max - self.x_min

    @property
    def height(self) -> float:
        return self.y_max - self.y_min

    @property
    def area(self) -> float:
        return self.width * self.height

    @property
    def centroid(self) -> Point2:
        return Point2((self.x_min + self.x_max) / 2.0, (self.y_min + self.y_max) / 2.0)


@dataclass(frozen=True)
class Line2:
    """Homogeneous line a*x + b*y + c = 0, normalized so a^2 + b^2 = 1.

    The constructor renormalizes, so a*x + b*y + c is the signed
    distance from (x, y) to the line.
    """

    a: float
    b: float
    c: float

    def __post_init__(self):
        n = math.hypot(self.a, self.b)
        if n < SINGULAR_TOL:
            raise ValueError("line direction (a, b) must be nonzero")
        if abs(n - 1.0) > 0.0:
            object.__setattr__(self, "a", self.a / n)
            object.__setattr__(self, "b", self.b / n)
            object.__setattr__(self, "c", self.c / n)

    @classmethod
    def from_points(cls, p0: Point2, p1: Point2) -> "Line2":
        dx, dy = p1.x - p0.x, p1.y - p0.y
        if math.hypot(dx, dy) < SINGULAR_TOL:
            raise ValueError("cannot build a line from coincident points")
        a, b = -dy, dx
        return cls(a, b, -(a * p0.x + b * p0.y))

    @classmethod
    def horizontal_at(cls, y: float) -> "Line2":
        return cls(0.0, 1.0, -y)

    @classmethod
    def vertical_at(cls, x: float) -> "Line2":
        return cls(1.0, 0.0, -x)

    def signed(self, p: Point2) -> float:
        return self.a * p.x + self.b * p.y + self.c

    def negated(self) -> "Line2":
        return Line2(-self.a, -self.b, -self.c)

    def coeffs(self) -> tuple[float, float, float]:
        return (self.a, self.b, self.c)


def apply_homography(h: Homography, p: Point2) -> Point2:
    """Project p through h: homogeneous multiply, then divide by w."""
    m = h.m
    x = m[0, 0] * p.x + m[0, 1] * p.y + m[0, 2]
    y = m[1, 0] * p.x + m[1, 1] * p.y + m[1, 2]
    w = m[2, 0] * p.x + m[2, 1] * p.y + m[2, 2]
    if abs(w) <= SINGULAR_TOL:
        raise DegenerateProjection(f"point ({p.x}, {p.y}) maps to the line at infinity")
    return Point2(float(x / w), float(y / w))


def project_points(h: Homography, xy: np.ndarray) -> np.ndarray:
    """apply_homography of every row of an (n, 2) array, as an (n, 2) array.

    Each elementwise numpy operation is one IEEE operation of the scalar
    path, in the same order, so every coordinate equals apply_homography
    bit for bit. Where the scalar path raises for some point, the first
    such point is handed to it, so the same error is raised.
    """
    m = h.m
    x, y = xy[:, 0], xy[:, 1]
    w = m[2, 0] * x + m[2, 1] * y + m[2, 2]
    if (np.abs(w) > SINGULAR_TOL).all():
        out = np.empty_like(xy, dtype=float)
        np.divide(m[0, 0] * x + m[0, 1] * y + m[0, 2], w, out=out[:, 0])
        np.divide(m[1, 0] * x + m[1, 1] * y + m[1, 2], w, out=out[:, 1])
        if np.isfinite(out).all():
            return out
    for px, py in xy.tolist():
        apply_homography(h, Point2(px, py))
    raise AssertionError("project_points rejected points that apply_homography accepts")


def transform_bbox(h: Homography, b: BBox) -> BBox:
    """Axis-aligned hull of the four projected corners of b."""
    corners = (
        Point2(b.x_min, b.y_min),
        Point2(b.x_max, b.y_min),
        Point2(b.x_max, b.y_max),
        Point2(b.x_min, b.y_max),
    )
    pts = [apply_homography(h, p) for p in corners]
    xs = [p.x for p in pts]
    ys = [p.y for p in pts]
    return BBox(min(xs), min(ys), max(xs), max(ys))


def iou(b1: BBox, b2: BBox) -> float:
    """Intersection over union; 0.0 when the union has zero area."""
    iw = min(b1.x_max, b2.x_max) - max(b1.x_min, b2.x_min)
    ih = min(b1.y_max, b2.y_max) - max(b1.y_min, b2.y_min)
    inter = max(0.0, iw) * max(0.0, ih)
    union = b1.area + b2.area - inter
    if union <= 0.0:
        return 0.0
    return inter / union


def normalized_centroid_distance(
    h1: Homography, h2: Homography, b1: BBox, b2: BBox, dims: FrameDims
) -> float:
    """Distance of the stabilized box centroids over the frame diagonal."""
    q1 = apply_homography(h1, b1.centroid)
    q2 = apply_homography(h2, b2.centroid)
    return math.hypot(q1.x - q2.x, q1.y - q2.y) / dims.diagonal
