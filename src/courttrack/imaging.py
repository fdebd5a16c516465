"""Frame rasters, masks and keypoint patches.

Rasters and masks wrap read-only numpy arrays; no operation here changes
a value (releasing a mapped frame's rows changes only what is resident),
so values can be shared freely across threads. keypoint_patches
cuts the patches that the cost layer compares; the scalar comparison it
is checked against, patch_mean_abs_diff, is in tests/oracles.py.

PPM (P6) is the conformance format for frames and PGM (P5) for masks.
A frame file is mapped read-only and its raster is a view of the map, so
only the pages that a caller touches are ever read. keypoint_patches
cuts a frame's patches in order of their top row and gives the pages of
the rows it has passed back to the kernel (FrameRaster.release_rows), so
a mapped frame stays resident only about one band of rows at a time.
"""

from __future__ import annotations

import mmap
import os
from bisect import bisect_left, bisect_right
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .defaults import DEFAULT_HALF_EXTENT
from .errors import InputFormatError
from .geometry import FrameDims

# the largest page-cache folio, a PMD of 4 KiB pages on x86-64: a mapped
# frame's rows are released in spans of this size
FOLIO_BYTES = 1 << 21


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
    """RGB frame stored as a read-only (h, w, 3) uint8 array.

    A raster read from a file views that file's read-only map, which it
    keeps as file_map, with the pixels at the map's end; an in-memory
    raster has file_map None.
    """

    __slots__ = ("data", "file_map", "released")

    def __init__(self, data, file_map: mmap.mmap | None = None) -> None:
        arr = _read_only(data, np.uint8)
        if arr.ndim != 3 or arr.shape[2] != 3 or arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ValueError(f"frame raster needs shape (h, w, 3), got {arr.shape}")
        object.__setattr__(self, "data", arr)
        object.__setattr__(self, "file_map", file_map)
        object.__setattr__(self, "released", 0)  # bytes of the map given back so far

    @property
    def dims(self) -> FrameDims:
        return FrameDims(self.data.shape[1], self.data.shape[0])

    def release_bounds(self) -> list[int]:
        """The rows at which release_rows gives back one more span of
        FOLIO_BYTES: for each span boundary inside the file, the first
        row that starts at or past it. Empty where release_rows does
        nothing."""
        if self.file_map is None or not hasattr(mmap, "MADV_DONTNEED"):
            return []
        offset, row = len(self.file_map) - self.data.nbytes, self.data.strides[0]
        return [-(-(edge - offset) // row) for edge in range(FOLIO_BYTES, len(self.file_map), FOLIO_BYTES)]

    def release_rows(self, y: int) -> None:
        """Give the resident pages of rows [0, y) back to the kernel, in
        whole spans of FOLIO_BYTES.

        The pixels do not change: this is madvise(MADV_DONTNEED) on a
        read-only file map, so a later read of those rows pages them in
        again from the file. A page fault maps the whole page-cache
        folio it lands in, which is at most FOLIO_BYTES and aligned to
        its size, so a span is released only once every row that
        starts in it is passed: a folio that a later read touches would
        be mapped again whole. It does nothing for an in-memory raster,
        where DONTNEED would zero the data, or on a platform without
        madvise.
        """
        if self.file_map is None or not hasattr(mmap, "MADV_DONTNEED"):
            return
        end = len(self.file_map) - self.data.nbytes + max(0, min(y, len(self.data))) * self.data.strides[0]
        end -= end % FOLIO_BYTES
        if end > self.released:
            self.file_map.madvise(mmap.MADV_DONTNEED, self.released, end - self.released)
            object.__setattr__(self, "released", end)


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

    half_extent: int = DEFAULT_HALF_EXTENT

    def __post_init__(self):
        if isinstance(self.half_extent, bool) or not isinstance(self.half_extent, int):
            raise ValueError(f"half_extent must be an int, got {self.half_extent!r}")
        if self.half_extent < 1:
            raise ValueError("half_extent must be >= 1")

    def fits(self, dims: FrameDims) -> bool:
        """Whether the half-extent is at most the larger side of a frame of dims."""
        return self.half_extent <= max(dims.w, dims.h)

    @property
    def side(self) -> int:
        return 2 * self.half_extent

    @property
    def cell_count(self) -> int:
        return self.side * self.side


def keypoint_patches(
    frame: FrameRaster, xy: np.ndarray, win: PatchWindow = PatchWindow()
) -> tuple[np.ndarray, np.ndarray]:
    """The patches around the (k, 2) keypoint coordinates of one frame,
    each keypoint rounded half up to its pixel.

    Returns (k, side, side, 3) uint8 patches, where cell [i, dy + he,
    dx + he] holds the pixel at offset (dx, dy) from the i-th rounded
    keypoint and is zero where that pixel lies outside the frame, and the
    (k, 4) half-open cell rectangles (y0, y1, x0, x1) that lie inside
    it. A rectangle is empty (y0 >= y1 or x0 >= x1) when no offset lands
    in the frame. The valid offsets of a pair of patches are the
    intersection of their two rectangles.

    The patches are cut by their top row, a band at a time: the rows
    that start in one FOLIO_BYTES span of a mapped frame's file
    (FrameRaster.release_bounds). Before each band the rows above it
    are released (FrameRaster.release_rows), as no later patch reads
    them. An in-memory frame is one band.
    """
    h, w = frame.data.shape[:2]
    he, side = win.half_extent, win.side
    # floor(x + 0.5) rounds halves up; points beyond the window's reach of
    # the frame are clamped there, which keeps their rectangles empty
    xy = np.floor(xy + 0.5).clip(-side, [w + side, h + side]).astype(np.int64)
    top, left = xy[:, 1] - he, xy[:, 0] - he
    rects = np.stack(
        [he - xy[:, 1], he + h - xy[:, 1], he - xy[:, 0], he + w - xy[:, 0]], axis=1
    ).clip(0, side)
    patches = np.empty((len(xy), side, side, 3), dtype=np.uint8)
    whole = (top >= 0) & (top <= h - side) & (left >= 0) & (left <= w - side)
    # the whole windows and the cut ones, each by top row
    order = np.argsort(top, kind="stable")
    inside = order[whole[order]]
    in_top, in_left, in_tops = top[inside], left[inside], top[inside].tolist()
    if len(inside):
        windows = sliding_window_view(frame.data, (side, side, 3))
    cut = order[~whole[order]].tolist()
    cut_tops = top[cut].tolist()
    tops = top[order].tolist()
    bounds = frame.release_bounds() + [h + side]  # the last lies below every top
    i = 0
    while i < len(tops):
        band_top = tops[i]
        if i:  # the rows above the first band were not read here
            frame.release_rows(band_top)
        stop = bounds[bisect_right(bounds, band_top)]
        i = bisect_left(tops, stop, i)
        # a window wholly inside the frame is one strided copy
        a, b = bisect_left(in_tops, band_top), bisect_left(in_tops, stop)
        if a < b:
            patches[inside[a:b]] = windows[in_top[a:b], in_left[a:b], 0]
        # a patch that the frame edge cuts is zero but for its rectangle, copied from the frame
        for k in cut[bisect_left(cut_tops, band_top) : bisect_left(cut_tops, stop)]:
            y0, y1, x0, x1 = rects[k].tolist()
            patches[k] = 0
            if y0 < y1 and x0 < x1:
                patches[k, y0:y1, x0:x1] = frame.data[top[k] + y0 : top[k] + y1, left[k] + x0 : left[k] + x1]
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


def _read_pnm(path, magic: bytes, channels: int) -> tuple[np.ndarray, mmap.mmap]:
    """The (h, w, channels) uint8 pixels of a binary PNM file that holds
    exactly one image, and the file's read-only map: any other byte
    count after the header is an error.

    The pixels are a read-only view of the map's last bytes; the map is
    unmapped with the last object that holds it.
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
    return np.frombuffer(data, dtype=np.uint8, offset=offset).reshape(h, w, channels), data


def read_ppm(path) -> FrameRaster:
    """Read a binary PPM (P6, maxval 255) frame, a view of its file map."""
    return FrameRaster(*_read_pnm(path, b"P6", 3))


def write_ppm(frame: FrameRaster, path) -> None:
    d = frame.dims
    with open(path, "wb") as fh:
        fh.write(f"P6\n{d.w} {d.h}\n255\n".encode("ascii"))
        fh.write(frame.data)  # the array's own buffer: C-contiguous, so no copy


def read_pgm(path) -> BinaryMask:
    """Read a binary PGM (P5) mask; any nonzero byte is a people-pixel."""
    bits = _read_pnm(path, b"P5", 1)[0][:, :, 0] != 0
    bits.flags.writeable = False
    return BinaryMask(bits)
