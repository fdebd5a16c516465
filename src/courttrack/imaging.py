"""Frame rasters, masks, color conversion and patch comparison.

Rasters and masks wrap read-only numpy arrays; every operation here is
pure, so values can be shared freely across threads.

PPM (P6) is the conformance format for frames and PGM (P5) for masks.
"""

from __future__ import annotations

import colorsys
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .errors import EmptyOverlap, EmptyRegion, InputFormatError
from .geometry import FrameDims, Point2


@dataclass(frozen=True)
class HsvPixel:
    """Hue in degrees [0, 360), saturation and value in [0, 1]."""

    h: float
    s: float
    v: float

    def __post_init__(self):
        if not (0.0 <= self.h < 360.0 and 0.0 <= self.s <= 1.0 and 0.0 <= self.v <= 1.0):
            raise ValueError(f"HSV out of range: ({self.h}, {self.s}, {self.v})")


class FrameRaster:
    """RGB frame stored as a read-only (h, w, 3) uint8 array."""

    __slots__ = ("data",)

    def __init__(self, data) -> None:
        arr = np.array(data, dtype=np.uint8)
        if arr.ndim != 3 or arr.shape[2] != 3 or arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ValueError(f"frame raster needs shape (h, w, 3), got {arr.shape}")
        arr.flags.writeable = False
        object.__setattr__(self, "data", arr)

    @classmethod
    def filled(cls, dims: FrameDims, color: tuple[int, int, int]) -> "FrameRaster":
        arr = np.empty((dims.h, dims.w, 3), dtype=np.uint8)
        arr[:, :] = color
        return cls(arr)

    @property
    def dims(self) -> FrameDims:
        return FrameDims(self.data.shape[1], self.data.shape[0])


class BinaryMask:
    """Boolean people-mask stored as a read-only (h, w) array."""

    __slots__ = ("bits",)

    def __init__(self, bits) -> None:
        arr = np.array(bits, dtype=bool)
        if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ValueError(f"mask needs shape (h, w), got {arr.shape}")
        arr.flags.writeable = False
        object.__setattr__(self, "bits", arr)

    @property
    def dims(self) -> FrameDims:
        return FrameDims(self.bits.shape[1], self.bits.shape[0])


@dataclass(frozen=True)
class PatchWindow:
    """Square offset grid around a keypoint.

    half_extent=12 gives offsets in {-12, ..., 11} per axis: a 24x24
    grid of 576 cells. Even extents have no exact center, so this
    convention anchors the grid on the keypoint's pixel.
    """

    half_extent: int = 12

    def __post_init__(self):
        if self.half_extent < 1:
            raise ValueError("half_extent must be >= 1")

    @property
    def side(self) -> int:
        return 2 * self.half_extent

    @property
    def cell_count(self) -> int:
        return self.side * self.side


def rgb_to_hsv(rgb: tuple[int, int, int]) -> HsvPixel:
    """Standard hexcone HSV of an 8-bit RGB triple; achromatic hue is 0."""
    r, g, b = rgb
    for v in (r, g, b):
        if not 0 <= v <= 255:
            raise ValueError(f"channel out of range in {rgb}")
    h, s, v = colorsys.rgb_to_hsv(r / 255.0, g / 255.0, b / 255.0)
    return HsvPixel(h * 360.0 % 360.0, s, v)


def hsv_to_rgb(p: HsvPixel) -> tuple[int, int, int]:
    """Inverse of rgb_to_hsv, rounded back to 8-bit channels."""
    r, g, b = colorsys.hsv_to_rgb(p.h / 360.0, p.s, p.v)
    return (round(r * 255.0), round(g * 255.0), round(b * 255.0))


def frame_to_hsv(frame: FrameRaster) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized hexcone conversion; returns (h, s, v) float arrays."""
    rgb = frame.data.astype(np.float64) / 255.0
    r, g, b = rgb[..., 0], rgb[..., 1], rgb[..., 2]
    maxc = np.max(rgb, axis=-1)
    minc = np.min(rgb, axis=-1)
    delta = maxc - minc
    chrom = delta > 0.0

    h = np.zeros_like(maxc)
    safe = np.where(chrom, delta, 1.0)
    rc = (maxc - r) / safe
    gc = (maxc - g) / safe
    bc = (maxc - b) / safe
    h = np.where((maxc == r) & chrom, bc - gc, h)
    h = np.where((maxc == g) & chrom & (maxc != r), 2.0 + rc - bc, h)
    h = np.where((maxc == b) & chrom & (maxc != r) & (maxc != g), 4.0 + gc - rc, h)
    h = (h / 6.0) % 1.0 * 360.0

    s = np.where(maxc > 0.0, delta / np.where(maxc > 0.0, maxc, 1.0), 0.0)
    return h, s, maxc


def _round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


def patch_mean_abs_diff(
    f1: FrameRaster, p1: Point2, f2: FrameRaster, p2: Point2, win: PatchWindow = PatchWindow()
) -> float:
    """Mean per-pixel color difference of two keypoint-anchored patches.

    Keypoints are rounded to the nearest pixel; an offset contributes
    only when it lands inside both frames, and the mean runs over the
    valid offsets. Per pixel the three channel differences are averaged,
    then scaled by 1/255 so the result lies in [0, 1].
    """
    x1, y1 = _round_half_up(p1.x), _round_half_up(p1.y)
    x2, y2 = _round_half_up(p2.x), _round_half_up(p2.y)
    he = win.half_extent
    h1, w1 = f1.data.shape[:2]
    h2, w2 = f2.data.shape[:2]

    dx_lo = max(-he, -x1, -x2)
    dx_hi = min(he - 1, w1 - 1 - x1, w2 - 1 - x2)
    dy_lo = max(-he, -y1, -y2)
    dy_hi = min(he - 1, h1 - 1 - y1, h2 - 1 - y2)
    if dx_lo > dx_hi or dy_lo > dy_hi:
        raise EmptyOverlap(
            f"no patch offset valid in both frames at ({x1},{y1}) and ({x2},{y2})"
        )

    patch1 = f1.data[y1 + dy_lo : y1 + dy_hi + 1, x1 + dx_lo : x1 + dx_hi + 1]
    patch2 = f2.data[y2 + dy_lo : y2 + dy_hi + 1, x2 + dx_lo : x2 + dx_hi + 1]
    diff = np.abs(patch1.astype(np.int16) - patch2.astype(np.int16))
    return float(diff.mean() / 255.0)


def keypoint_patches(
    frame: FrameRaster, points: Sequence[Point2], win: PatchWindow = PatchWindow()
) -> tuple[np.ndarray, np.ndarray]:
    """One side of patch_mean_abs_diff for many keypoints of one frame.

    Returns (k, side, side, 3) uint8 patches, where cell [i, dy + he,
    dx + he] holds the pixel at offset (dx, dy) from the i-th rounded
    keypoint and is zero where that pixel lies outside the frame, and the
    (k, 4) half-open cell rectangles (y0, y1, x0, x1) that lie inside
    it. A rectangle is empty (y0 >= y1 or x0 >= x1) when no offset lands
    in the frame. The valid offsets of a pair of patches are the
    intersection of their two rectangles.
    """
    h, w = frame.data.shape[:2]
    he, side = win.half_extent, win.side
    xy = np.array([(p.x, p.y) for p in points], dtype=float).reshape(-1, 2)
    # same rounding as _round_half_up; points beyond the window's reach of
    # the frame are clamped there, which keeps their rectangles empty
    xy = np.floor(xy + 0.5).clip(-side, [w + side, h + side]).astype(np.int64)
    offsets = np.arange(-he, he)
    cols, rows = xy[:, 0, None] + offsets, xy[:, 1, None] + offsets
    inside = ((rows >= 0) & (rows < h))[:, :, None] & ((cols >= 0) & (cols < w))[:, None, :]
    pixels = rows.clip(0, h - 1)[:, :, None] * w + cols.clip(0, w - 1)[:, None, :]
    patches = frame.data.reshape(-1, 3).take(pixels, axis=0)
    patches *= inside[..., None]
    rects = np.stack(
        [he - xy[:, 1], he + h - xy[:, 1], he - xy[:, 0], he + w - xy[:, 0]], axis=1
    ).clip(0, side)
    return patches, rects


def mask_fraction(mask: BinaryMask, region: Callable[[Point2], bool]) -> float:
    """Fraction of mask-true pixels among the pixels selected by region.

    The predicate is evaluated at integer pixel coordinates (x, y).
    """
    bits = mask.bits
    h, w = bits.shape
    selected = 0
    people = 0
    for y in range(h):
        row = bits[y]
        for x in range(w):
            if region(Point2(float(x), float(y))):
                selected += 1
                if row[x]:
                    people += 1
    if selected == 0:
        raise EmptyRegion("region predicate selects no pixel inside the frame")
    return people / selected


def resize_nearest(frame: FrameRaster, dims: FrameDims) -> FrameRaster:
    """Nearest-neighbor resample to the requested dims."""
    h, w = frame.data.shape[:2]
    ys = np.minimum((np.arange(dims.h) * h / dims.h).astype(int), h - 1)
    xs = np.minimum((np.arange(dims.w) * w / dims.w).astype(int), w - 1)
    return FrameRaster(frame.data[np.ix_(ys, xs)])


def crop(frame: FrameRaster, x0: int, y0: int, w: int, h: int) -> FrameRaster:
    """Axis-aligned crop; the window must lie fully inside the frame."""
    fh, fw = frame.data.shape[:2]
    if x0 < 0 or y0 < 0 or x0 + w > fw or y0 + h > fh:
        raise ValueError(f"crop ({x0},{y0},{w},{h}) exceeds frame {fw}x{fh}")
    return FrameRaster(frame.data[y0 : y0 + h, x0 : x0 + w])


# --- PPM / PGM input and output ------------------------------------------

def _read_pnm_tokens(data: bytes, path, count: int) -> tuple[list[int], int]:
    """Read `count` ASCII header tokens after the magic, skipping comments.

    Returns the tokens and the offset just past the single whitespace
    byte that terminates the header.
    """
    tokens: list[int] = []
    i = 2  # past the 2-byte magic
    while len(tokens) < count:
        if i >= len(data):
            raise InputFormatError(path, "truncated header")
        ch = data[i : i + 1]
        if ch in b" \t\r\n":
            i += 1
        elif ch == b"#":
            nl = data.find(b"\n", i)
            if nl < 0:
                raise InputFormatError(path, "unterminated comment")
            i = nl + 1
        elif ch.isdigit():
            j = i
            while j < len(data) and data[j : j + 1].isdigit():
                j += 1
            tokens.append(int(data[i:j]))
            i = j
        else:
            raise InputFormatError(path, f"unexpected header byte {ch!r}")
    if i >= len(data) or data[i : i + 1] not in b" \t\r\n":
        raise InputFormatError(path, "missing whitespace after header")
    return tokens, i + 1


def read_ppm(path) -> FrameRaster:
    """Read a binary PPM (P6, maxval 255) frame."""
    data = Path(path).read_bytes()
    if data[:2] != b"P6":
        raise InputFormatError(path, f"expected P6 magic, got {data[:2]!r}")
    (w, h, maxval), offset = _read_pnm_tokens(data, path, 3)
    if maxval != 255:
        raise InputFormatError(path, f"unsupported maxval {maxval}")
    need = w * h * 3
    raw = data[offset : offset + need]
    if len(raw) != need:
        raise InputFormatError(path, f"expected {need} pixel bytes, got {len(raw)}")
    return FrameRaster(np.frombuffer(raw, dtype=np.uint8).reshape(h, w, 3))


def write_ppm(frame: FrameRaster, path) -> None:
    d = frame.dims
    header = f"P6\n{d.w} {d.h}\n255\n".encode("ascii")
    Path(path).write_bytes(header + frame.data.tobytes())


def read_pgm(path) -> BinaryMask:
    """Read a binary PGM (P5) mask; any nonzero byte is a people-pixel."""
    data = Path(path).read_bytes()
    if data[:2] != b"P5":
        raise InputFormatError(path, f"expected P5 magic, got {data[:2]!r}")
    (w, h, maxval), offset = _read_pnm_tokens(data, path, 3)
    if maxval != 255:
        raise InputFormatError(path, f"unsupported maxval {maxval}")
    need = w * h
    raw = data[offset : offset + need]
    if len(raw) != need:
        raise InputFormatError(path, f"expected {need} pixel bytes, got {len(raw)}")
    return BinaryMask(np.frombuffer(raw, dtype=np.uint8).reshape(h, w) != 0)


def write_pgm(mask: BinaryMask, path) -> None:
    d = mask.dims
    header = f"P5\n{d.w} {d.h}\n255\n".encode("ascii")
    body = np.where(mask.bits, 255, 0).astype(np.uint8)
    Path(path).write_bytes(header + body.tobytes())
