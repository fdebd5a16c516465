"""Frame rasters, masks, color conversion and patch comparison.

Rasters and masks wrap read-only numpy arrays; every operation here is
pure, so values can be shared freely across threads.

PPM (P6) is the conformance format for frames and PGM (P5) for masks.
A frame file is mapped read-only and its raster is a view of the map, so
only the pages that a caller touches are ever read.
"""

from __future__ import annotations

import math
import mmap
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import EmptyOverlap, InputFormatError
from .geometry import FrameDims, Point2


def _read_only(data, dtype) -> np.ndarray:
    """`data` itself when it is a read-only C-contiguous ndarray of
    `dtype`, else a read-only copy of it.

    Only a writeable source can change under the wrapper, so only that
    is copied; a read-only view of a mapped file stays a view. A strided
    view is copied too, so that it does not keep its whole parent alive.
    """
    if (
        type(data) is np.ndarray
        and data.dtype == dtype
        and data.flags.c_contiguous
        and not data.flags.writeable
    ):
        return data
    arr = np.array(data, dtype=dtype)
    arr.flags.writeable = False
    return arr


class FrameRaster:
    """RGB frame stored as a read-only (h, w, 3) uint8 array."""

    __slots__ = ("data",)

    def __init__(self, data) -> None:
        arr = _read_only(data, np.uint8)
        if arr.ndim != 3 or arr.shape[2] != 3 or arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ValueError(f"frame raster needs shape (h, w, 3), got {arr.shape}")
        object.__setattr__(self, "data", arr)

    @classmethod
    def filled(cls, dims: FrameDims, color: tuple[int, int, int]) -> "FrameRaster":
        arr = np.empty((dims.h, dims.w, 3), dtype=np.uint8)
        arr[:, :] = color
        arr.flags.writeable = False
        return cls(arr)

    @property
    def dims(self) -> FrameDims:
        return FrameDims(self.data.shape[1], self.data.shape[0])


class BinaryMask:
    """Boolean people-mask stored as a read-only (h, w) array."""

    __slots__ = ("bits",)

    def __init__(self, bits) -> None:
        arr = _read_only(bits, bool)
        if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ValueError(f"mask needs shape (h, w), got {arr.shape}")
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
    frame: FrameRaster, xy: np.ndarray, win: PatchWindow = PatchWindow()
) -> tuple[np.ndarray, np.ndarray]:
    """One side of patch_mean_abs_diff for the (k, 2) keypoint coordinates of one frame.

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
    # same rounding as _round_half_up; points beyond the window's reach of
    # the frame are clamped there, which keeps their rectangles empty
    xy = np.floor(xy + 0.5).clip(-side, [w + side, h + side]).astype(np.int64)
    top, left = xy[:, 1] - he, xy[:, 0] - he
    patches = np.empty((len(xy), side, side, 3), dtype=np.uint8)
    whole = (top >= 0) & (top <= h - side) & (left >= 0) & (left <= w - side)
    if whole.any():  # a window wholly inside the frame is one strided copy
        windows = sliding_window_view(frame.data, (side, side, 3))
        patches[whole] = windows[top[whole], left[whole], 0]
    cut = ~whole
    if cut.any():  # the rest gather pixel by pixel, with zeros outside the frame
        offsets = np.arange(side)
        rows, cols = top[cut, None] + offsets, left[cut, None] + offsets
        inside = ((rows >= 0) & (rows < h))[:, :, None] & ((cols >= 0) & (cols < w))[:, None, :]
        pixels = rows.clip(0, h - 1)[:, :, None] * w + cols.clip(0, w - 1)[:, None, :]
        patches[cut] = frame.data.reshape(-1, 3).take(pixels, axis=0) * inside[..., None]
    rects = np.stack(
        [he - xy[:, 1], he + h - xy[:, 1], he - xy[:, 0], he + w - xy[:, 0]], axis=1
    ).clip(0, side)
    return patches, rects


# --- PPM / PGM input and output ------------------------------------------

MAX_HEADER_DIGITS = 9  # a PNM width, height or maxval of at most 999,999,999


def _read_pnm_header(data: bytes | mmap.mmap, path, magic: bytes) -> tuple[int, int, int]:
    """Width, height and pixel offset of a binary PNM with maxval 255.

    Reads the three ASCII header numbers after the magic, skipping
    comments; the pixels start just past the single whitespace byte
    that ends the header.
    """
    if data[:2] != magic:
        raise InputFormatError(path, f"expected {magic.decode()} magic, got {data[:2]!r}")
    tokens: list[int] = []
    i = 2  # past the 2-byte magic
    while len(tokens) < 3:
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
            while j < len(data) and data[j : j + 1].isdigit() and j - i <= MAX_HEADER_DIGITS:
                j += 1
            if j - i > MAX_HEADER_DIGITS:
                raise InputFormatError(path, f"header number longer than {MAX_HEADER_DIGITS} digits")
            tokens.append(int(data[i:j]))
            i = j
        else:
            raise InputFormatError(path, f"unexpected header byte {ch!r}")
    if i >= len(data) or data[i : i + 1] not in b" \t\r\n":
        raise InputFormatError(path, "missing whitespace after header")
    w, h, maxval = tokens
    if maxval != 255:
        raise InputFormatError(path, f"unsupported maxval {maxval}")
    if w == 0 or h == 0:
        raise InputFormatError(path, f"empty {w}x{h} image")
    return w, h, i + 1


def _read_pnm(path, magic: bytes, channels: int) -> np.ndarray:
    """The (h, w, channels) uint8 pixels of a binary PNM file that holds
    exactly one image: any other byte count after the header is an error.

    The result is a read-only view of the file mapped read-only; the map
    is released with the last array that views it.
    """
    with open(path, "rb") as fh:
        # mmap refuses an empty file; the header check then names the path
        if os.fstat(fh.fileno()).st_size == 0:
            data = b""
        else:
            data = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
    w, h, offset = _read_pnm_header(data, path, magic)
    need, got = w * h * channels, len(data) - offset
    if got != need:
        raise InputFormatError(path, f"expected {need} pixel bytes after the header, got {got}")
    return np.frombuffer(data, dtype=np.uint8, offset=offset).reshape(h, w, channels)


def read_ppm(path) -> FrameRaster:
    """Read a binary PPM (P6, maxval 255) frame."""
    return FrameRaster(_read_pnm(path, b"P6", 3))


def write_ppm(frame: FrameRaster, path) -> None:
    d = frame.dims
    with open(path, "wb") as fh:
        fh.write(f"P6\n{d.w} {d.h}\n255\n".encode("ascii"))
        fh.write(frame.data)  # the array's own buffer: C-contiguous, so no copy


def read_pgm(path) -> BinaryMask:
    """Read a binary PGM (P5) mask; any nonzero byte is a people-pixel."""
    bits = _read_pnm(path, b"P5", 1)[:, :, 0] != 0
    bits.flags.writeable = False
    return BinaryMask(bits)


def write_pgm(mask: BinaryMask, path) -> None:
    d = mask.dims
    header = f"P5\n{d.w} {d.h}\n255\n".encode("ascii")
    body = np.where(mask.bits, 255, 0).astype(np.uint8)
    Path(path).write_bytes(header + body.tobytes())
