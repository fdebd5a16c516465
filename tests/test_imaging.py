import colorsys
import math
import mmap
import random
import sys
import tracemalloc

import numpy as np
import pytest

from courttrack import imaging
from courttrack.errors import InputFormatError
from courttrack.geometry import FrameDims, Point2
from courttrack.court import frame_to_hsv
from courttrack.imaging import (
    BinaryMask,
    FrameRaster,
    PatchWindow,
    keypoint_patches,
    read_pgm,
    read_ppm,
    write_ppm,
)
from tests.oracles import EmptyOverlap, filled, patch_mean_abs_diff, write_pgm


def hsv_of(rgb):
    h, s, v = frame_to_hsv(np.array(rgb, dtype=np.uint8))
    return float(h), float(s), float(v)


class TestRgbToHsv:
    def test_pure_red(self):
        assert hsv_of((255, 0, 0)) == (0.0, 1.0, 1.0)

    def test_gray_is_achromatic(self):
        h, s, v = hsv_of((128, 128, 128))
        assert h == 0.0
        assert s == 0.0
        assert v == pytest.approx(128 / 255)

    def test_hexcone_formula_hand_computed(self):
        # (0, 128, 255): v = 1, s = 1, max channel is blue:
        # h = 60 * (4 + (r - g) / delta) = 60 * (4 - 128/255) = 209.88235...
        h, s, v = hsv_of((0, 128, 255))
        assert v == 1.0
        assert s == 1.0
        assert h == pytest.approx(209.88235294117646, abs=1e-9)

    def test_vectorized_matches_scalar(self):
        rng = random.Random(42)
        pixels = [
            (rng.randrange(256), rng.randrange(256), rng.randrange(256)) for _ in range(64)
        ]
        h, s, v = frame_to_hsv(np.array(pixels, dtype=np.uint8).reshape(8, 8, 3))
        for idx, (r, g, b) in enumerate(pixels):
            eh, es, ev = colorsys.rgb_to_hsv(r / 255.0, g / 255.0, b / 255.0)
            y, x = divmod(idx, 8)
            assert h[y, x] == pytest.approx(eh * 360.0 % 360.0, abs=1e-9)
            assert s[y, x] == pytest.approx(es, abs=1e-12)
            assert v[y, x] == pytest.approx(ev, abs=1e-12)


class TestPatchMeanAbsDiff:
    def test_same_frame_same_point_is_zero(self):
        frame = filled(FrameDims(64, 64), (12, 200, 7))
        p = Point2(32.0, 32.0)
        assert patch_mean_abs_diff(frame, p, frame, p) == 0.0

    def test_black_vs_white_is_one(self):
        black = filled(FrameDims(64, 64), (0, 0, 0))
        white = filled(FrameDims(64, 64), (255, 255, 255))
        p = Point2(32.0, 32.0)
        assert patch_mean_abs_diff(black, p, white, p) == 1.0

    def test_planted_channel_diffs_brute_force(self):
        # 2x2 patches with per-pixel diffs {0, 51, 102, 255}: mean 102/255 = 0.4
        f1 = FrameRaster(np.zeros((2, 2, 3), dtype=np.uint8))
        arr = np.zeros((2, 2, 3), dtype=np.uint8)
        arr[0, 1] = 51
        arr[1, 0] = 102
        arr[1, 1] = 255
        f2 = FrameRaster(arr)
        p = Point2(1.0, 1.0)
        win = PatchWindow(half_extent=1)
        assert patch_mean_abs_diff(f1, p, f2, p, win) == pytest.approx(0.4, rel=1e-15)

    def test_symmetry_and_bounds(self):
        rng = np.random.default_rng(9)
        f1 = FrameRaster(rng.integers(0, 256, size=(48, 48, 3), dtype=np.uint8))
        f2 = FrameRaster(rng.integers(0, 256, size=(48, 48, 3), dtype=np.uint8))
        for _ in range(25):
            p1 = Point2(float(rng.integers(0, 48)), float(rng.integers(0, 48)))
            p2 = Point2(float(rng.integers(0, 48)), float(rng.integers(0, 48)))
            d12 = patch_mean_abs_diff(f1, p1, f2, p2)
            d21 = patch_mean_abs_diff(f2, p2, f1, p1)
            assert d12 == d21
            assert 0.0 <= d12 <= 1.0

    def test_border_keypoint_uses_valid_offsets_only(self):
        # corner anchors keep just the in-frame quadrant of the window
        f1 = filled(FrameDims(30, 30), (10, 10, 10))
        f2 = filled(FrameDims(30, 30), (20, 20, 20))
        d = patch_mean_abs_diff(f1, Point2(0.0, 0.0), f2, Point2(0.0, 0.0))
        assert d == pytest.approx(10 / 255, rel=1e-12)

    def test_no_valid_offset_raises(self):
        f = filled(FrameDims(30, 30), (0, 0, 0))
        with pytest.raises(EmptyOverlap):
            patch_mean_abs_diff(f, Point2(-100.0, 0.0), f, Point2(0.0, 0.0))

    def test_default_window_is_24x24(self):
        win = PatchWindow()
        assert win.side == 24
        assert win.cell_count == 576


class TestPatchWindow:
    @pytest.mark.parametrize("half_extent", [2.5, 2.0, True, False, "3", None, np.int64(3)])
    def test_window_half_extent_must_be_an_int(self, half_extent):
        with pytest.raises(ValueError, match="half_extent must be an int"):
            PatchWindow(half_extent)

    @pytest.mark.parametrize("half_extent", [0, -1])
    def test_window_half_extent_must_be_positive(self, half_extent):
        with pytest.raises(ValueError, match="half_extent must be >= 1"):
            PatchWindow(half_extent)

    def test_window_fits_a_frame_up_to_its_larger_side(self):
        dims = FrameDims(7, 5)
        assert PatchWindow(7).fits(dims) and PatchWindow(1).fits(dims)
        assert not PatchWindow(8).fits(dims)


def pixel_patch(frame: FrameRaster, x: float, y: float, win: PatchWindow) -> np.ndarray:
    """The patch around (x, y), cell by cell: the pixel at each offset
    from the keypoint rounded half up, or zero outside the frame."""
    h, w = frame.data.shape[:2]
    kx, ky = math.floor(x + 0.5), math.floor(y + 0.5)
    patch = np.zeros((win.side, win.side, 3), dtype=np.uint8)
    for r in range(win.side):
        for c in range(win.side):
            py, px = ky - win.half_extent + r, kx - win.half_extent + c
            if 0 <= py < h and 0 <= px < w:
                patch[r, c] = frame.data[py, px]
    return patch


class TestKeypointPatches:
    FRAME = FrameRaster(np.random.default_rng(3).integers(0, 256, (180, 320, 3), dtype=np.uint8))
    # inside, on each edge and corner, half a pixel off, beyond the window's reach, and far outside
    SPOTS = [(160.0, 90.0), (0.0, 90.0), (319.0, 90.0), (160.0, 0.0), (160.0, 179.0), (0.0, 0.0),
             (319.4, 179.5), (-0.5, 12.5), (-11.0, 50.0), (-12.0, 50.0), (330.0, 200.0), (-1e6, 1e6)]

    @pytest.mark.parametrize("half_extent", [1, 12, 160])
    def test_each_patch_is_its_pixels(self, half_extent):
        win = PatchWindow(half_extent)
        patches, rects = keypoint_patches(self.FRAME, np.array(self.SPOTS), win)
        for (x, y), patch, (y0, y1, x0, x1) in zip(self.SPOTS, patches, rects.tolist()):
            want = pixel_patch(self.FRAME, x, y, win)
            assert patch.tobytes() == want.tobytes(), (x, y)
            inside = np.zeros((win.side, win.side), dtype=bool)
            inside[y0:y1, x0:x1] = True
            assert not want[~inside].any()

    def test_cut_patches_take_about_their_own_bytes(self):
        # at half-extent 160 every patch of a 320x180 frame is cut; a
        # gather through a (k, side, side) int64 index took 8 times that
        xy = np.array([(x, y) for x in (0.0, 100.0, 319.0) for y in (0.0, 90.0, 179.0)])
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            patches, _ = keypoint_patches(self.FRAME, xy, PatchWindow(160))
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * patches.nbytes


class TestBandWalk:
    """keypoint_patches cuts patches by top row and releases the rows above each band."""

    DIMS = FrameDims(320, 180)

    def spots(self, seed):
        """Keypoints in shuffled order: some sharing a top row, cut at each
        of the four edges, beyond the window's reach and far outside."""
        rng = random.Random(seed)
        spots = [(rng.uniform(-30, 350), rng.uniform(-30, 210)) for _ in range(40)]
        spots += [(x, 77.0) for x in (5.0, 100.0, 160.0, 315.0)]  # one top row, edge cuts included
        spots += [(160.0, -3.0), (160.0, 182.0), (-3.0, 90.0), (322.0, 90.0), (-1e6, 50.0), (50.0, 1e6)]
        rng.shuffle(spots)
        return np.array(spots)

    @pytest.mark.parametrize("step", [1, 7, 50, None], ids=["bands-1", "bands-7", "bands-50", "one-band"])
    @pytest.mark.parametrize("half_extent", [1, 12, 40])
    def test_patches_equal_the_cell_oracle_and_read_no_released_row(self, monkeypatch, step, half_extent):
        # bands of `step` rows; release_rows here overwrites the rows it is
        # given with other values, so a patch that read a released row would
        # differ from the oracle
        pixels = np.random.default_rng(half_extent).integers(0, 256, (self.DIMS.h, self.DIMS.w, 3), dtype=np.uint8)
        clean = FrameRaster(pixels.copy())
        view = pixels.view()
        view.flags.writeable = False
        frame = FrameRaster(view)  # shares pixels' memory
        released = []

        def release_rows(raster, y):
            assert raster is frame
            released.append(y)
            pixels[: max(y, 0)] = ~clean.data[: max(y, 0)]

        bounds = [] if step is None else list(range(step, self.DIMS.h, step))
        monkeypatch.setattr(FrameRaster, "release_bounds", lambda raster: list(bounds))
        monkeypatch.setattr(FrameRaster, "release_rows", release_rows)
        win = PatchWindow(half_extent)
        xy = self.spots(half_extent)
        patches, rects = keypoint_patches(frame, xy, win)
        for (x, y), patch, (y0, y1, x0, x1) in zip(xy.tolist(), patches, rects.tolist()):
            assert patch.tobytes() == pixel_patch(clean, x, y, win).tobytes(), (x, y)
            assert (y0, y1, x0, x1) == tuple(keypoint_patches(clean, np.array([(x, y)]), win)[1][0].tolist())
        assert released == sorted(released)
        assert (len(released) > 1) == (step is not None)

    def test_in_memory_raster_keeps_its_bytes(self):
        # madvise(MADV_DONTNEED) on anonymous memory would zero it
        source = np.random.default_rng(5).integers(0, 256, (2000, 64, 3), dtype=np.uint8)
        source.flags.writeable = False
        frame = FrameRaster(source)
        assert frame.file_map is None and frame.release_bounds() == []
        assert np.shares_memory(frame.data, source)
        before = source.tobytes()
        frame.release_rows(2000)
        xy = np.array([(32.0, float(y)) for y in range(0, 2000, 7)])
        keypoint_patches(frame, xy)
        assert source.tobytes() == before

    def test_mapped_frame_releases_whole_folio_spans_and_reads_them_back(self, tmp_path):
        # 3 MB of pixels after a 17-byte header: one span boundary, at 2 MiB
        pixels = np.random.default_rng(6).integers(0, 256, (1000, 1000, 3), dtype=np.uint8)
        write_ppm(FrameRaster(pixels), tmp_path / "frame.ppm")
        frame = read_ppm(tmp_path / "frame.ppm")
        assert isinstance(frame.file_map, mmap.mmap)
        offset = len(frame.file_map) - frame.data.nbytes
        (bound,) = frame.release_bounds()
        assert offset + (bound - 1) * 3000 < imaging.FOLIO_BYTES <= offset + bound * 3000
        frame.release_rows(bound - 1)  # the span is not passed yet
        assert frame.released == 0
        frame.release_rows(1000)
        assert frame.released == imaging.FOLIO_BYTES
        assert frame.data.tobytes() == pixels.tobytes()

    @pytest.mark.skipif(sys.platform != "linux", reason="reads RssFile from /proc/self/status")
    def test_cutting_every_row_of_a_4k_frame_keeps_a_band_resident(self, tmp_path, monkeypatch):
        # the whole frame is 24.9 MB; the cut keeps the folio spans of about
        # one band of rows resident, two spans of 2 MiB where a band's patches reach the next
        dims = FrameDims(3840, 2160)
        write_ppm(filled(dims, (30, 60, 90)), tmp_path / "frame.ppm")
        frame = read_ppm(tmp_path / "frame.ppm")
        size_kb = frame.data.nbytes // 1024

        def rss_file_kb() -> int:
            with open("/proc/self/status") as fh:
                return next(int(line.split()[1]) for line in fh if line.startswith("RssFile:"))

        samples = []
        release = getattr(FrameRaster, "release_rows", None)

        def sampled(raster, y):
            samples.append(rss_file_kb())
            release(raster, y)

        if release is not None:
            monkeypatch.setattr(FrameRaster, "release_rows", sampled)
        xy = np.array([(float(x), float(y)) for y in range(0, 2160, 8) for x in (100.0, 1900.0, 3700.0)])
        before = rss_file_kb()
        keypoint_patches(frame, xy)
        samples.append(rss_file_kb())
        assert max(samples) - before < size_kb / 4


class TestPnmIO:
    def test_ppm_round_trip_and_header(self, tmp_path):
        rng = np.random.default_rng(1)
        frame = FrameRaster(rng.integers(0, 256, size=(3, 4, 3), dtype=np.uint8))
        path = tmp_path / "frame.ppm"
        write_ppm(frame, path)
        raw = path.read_bytes()
        assert raw.startswith(b"P6\n4 3\n255\n")
        assert len(raw) == len(b"P6\n4 3\n255\n") + 3 * 4 * 3
        back = read_ppm(path)
        assert np.array_equal(back.data, frame.data)

    def test_pgm_round_trip(self, tmp_path):
        rng = np.random.default_rng(2)
        mask = BinaryMask(rng.random((5, 7)) < 0.5)
        path = tmp_path / "mask.pgm"
        write_pgm(mask, path)
        back = read_pgm(path)
        assert np.array_equal(back.bits, mask.bits)

    def test_ppm_with_comment_header(self, tmp_path):
        path = tmp_path / "c.ppm"
        path.write_bytes(b"P6\n# a comment\n2 1\n255\n" + bytes(6))
        frame = read_ppm(path)
        assert frame.dims == FrameDims(2, 1)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.ppm"
        path.write_bytes(b"P3\n1 1\n255\n000")
        with pytest.raises(InputFormatError):
            read_ppm(path)

    @pytest.mark.parametrize("reader, magic, channels", [(read_ppm, b"P6", 3), (read_pgm, b"P5", 1)])
    @pytest.mark.parametrize("tail", ["one_byte_short", "one_byte_extra", "appended_image"])
    def test_truncated_pixels_rejected(self, tmp_path, reader, magic, channels, tail):
        # a frame or mask file holds exactly one image
        header = magic + b"\n2 2\n255\n"
        image = header + bytes(range(1, 4 * channels + 1))
        data = {"one_byte_short": image[:-1], "one_byte_extra": image + b"\0", "appended_image": image + image}[tail]
        path = tmp_path / "frame.pnm"
        path.write_bytes(data)
        with pytest.raises(InputFormatError) as err:
            reader(path)
        message = str(err.value)
        assert str(path) in message
        assert f"expected {4 * channels} pixel bytes" in message and f"got {len(data) - len(header)}" in message

    @pytest.mark.parametrize("reader, magic", [(read_ppm, b"P6"), (read_pgm, b"P5")])
    @pytest.mark.parametrize("size", [b"0 0", b"0 4", b"3 0"])
    def test_zero_width_or_height_rejected(self, tmp_path, reader, magic, size):
        path = tmp_path / "empty.pnm"
        path.write_bytes(magic + b"\n" + size + b"\n255\n")
        with pytest.raises(InputFormatError, match="empty") as err:
            reader(path)
        assert str(path) in str(err.value)

    @pytest.mark.parametrize("reader, magic", [(read_ppm, b"P6"), (read_pgm, b"P5")])
    def test_overlong_header_number_rejected(self, tmp_path, reader, magic):
        path = tmp_path / "wide.pnm"
        path.write_bytes(magic + b"\n" + b"9" * 5000 + b" 1\n255\n" + bytes(3))
        with pytest.raises(InputFormatError, match="longer than") as err:
            reader(path)
        assert str(path) in str(err.value)

    @pytest.mark.parametrize("reader, magic, channels", [(read_ppm, b"P6", 3), (read_pgm, b"P5", 1)])
    @pytest.mark.parametrize("header_only", [False, True], ids=["zero_bytes", "header_only"])
    def test_empty_or_header_only_file_names_it(self, tmp_path, reader, magic, channels, header_only):
        # a zero-byte file cannot be mapped; it must still fail as an input error
        path = tmp_path / "frame.pnm"
        path.write_bytes(magic + b"\n2 2\n255\n" if header_only else b"")
        with pytest.raises(InputFormatError) as err:
            reader(path)
        message = str(err.value)
        assert str(path) in message
        if header_only:
            assert f"expected {4 * channels} pixel bytes after the header, got 0" in message
        else:
            assert f"expected {magic.decode()} magic, got b''" in message

    def test_read_frame_is_a_read_only_view_of_the_file(self, tmp_path):
        path = tmp_path / "frame.ppm"
        write_ppm(filled(FrameDims(4, 3), (1, 2, 3)), path)
        data = read_ppm(path).data
        assert type(data) is np.ndarray
        assert not data.flags.writeable
        base = data
        while isinstance(base, np.ndarray):
            base = base.base
        assert isinstance(base, memoryview) and isinstance(base.obj, mmap.mmap)

    def test_raster_is_read_only(self):
        frame = filled(FrameDims(4, 4), (1, 2, 3))
        with pytest.raises(ValueError):
            frame.data[0, 0, 0] = 9


# each wrapper with a source array holding more than one value, and its field
WRAPPERS = [
    pytest.param(FrameRaster, lambda: np.arange(18, dtype=np.uint8).reshape(2, 3, 3), "data", id="raster"),
    pytest.param(BinaryMask, lambda: np.arange(6).reshape(2, 3) % 2 == 0, "bits", id="mask"),
]


class TestWrapperOwnership:
    @pytest.mark.parametrize("wrapper, make, field", WRAPPERS)
    def test_writeable_source_is_copied(self, wrapper, make, field):
        source = make()
        held = getattr(wrapper(source), field)
        before = held.copy()
        source.fill(0)
        assert np.array_equal(held, before)
        assert not np.shares_memory(held, source)
        assert not held.flags.writeable

    @pytest.mark.parametrize("wrapper, make, field", WRAPPERS)
    def test_read_only_source_is_shared(self, wrapper, make, field):
        source = make()
        source.flags.writeable = False
        assert np.shares_memory(getattr(wrapper(source), field), source)
