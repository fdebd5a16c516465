import colorsys
import random

import numpy as np
import pytest

from courttrack.errors import EmptyOverlap, InputFormatError
from courttrack.geometry import FrameDims, Point2
from courttrack.imaging import (
    BinaryMask,
    FrameRaster,
    PatchWindow,
    frame_to_hsv,
    patch_mean_abs_diff,
    read_pgm,
    read_ppm,
    write_pgm,
    write_ppm,
)


def hsv_of(rgb):
    h, s, v = frame_to_hsv(FrameRaster(np.array(rgb, dtype=np.uint8).reshape(1, 1, 3)))
    return h[0, 0], s[0, 0], v[0, 0]


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
        frame = FrameRaster(np.array(pixels, dtype=np.uint8).reshape(8, 8, 3))
        h, s, v = frame_to_hsv(frame)
        for idx, (r, g, b) in enumerate(pixels):
            eh, es, ev = colorsys.rgb_to_hsv(r / 255.0, g / 255.0, b / 255.0)
            y, x = divmod(idx, 8)
            assert h[y, x] == pytest.approx(eh * 360.0 % 360.0, abs=1e-9)
            assert s[y, x] == pytest.approx(es, abs=1e-12)
            assert v[y, x] == pytest.approx(ev, abs=1e-12)


class TestPatchMeanAbsDiff:
    def test_same_frame_same_point_is_zero(self):
        frame = FrameRaster.filled(FrameDims(64, 64), (12, 200, 7))
        p = Point2(32.0, 32.0)
        assert patch_mean_abs_diff(frame, p, frame, p) == 0.0

    def test_black_vs_white_is_one(self):
        black = FrameRaster.filled(FrameDims(64, 64), (0, 0, 0))
        white = FrameRaster.filled(FrameDims(64, 64), (255, 255, 255))
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
        f1 = FrameRaster.filled(FrameDims(30, 30), (10, 10, 10))
        f2 = FrameRaster.filled(FrameDims(30, 30), (20, 20, 20))
        d = patch_mean_abs_diff(f1, Point2(0.0, 0.0), f2, Point2(0.0, 0.0))
        assert d == pytest.approx(10 / 255, rel=1e-12)

    def test_no_valid_offset_raises(self):
        f = FrameRaster.filled(FrameDims(30, 30), (0, 0, 0))
        with pytest.raises(EmptyOverlap):
            patch_mean_abs_diff(f, Point2(-100.0, 0.0), f, Point2(0.0, 0.0))

    def test_default_window_is_24x24(self):
        win = PatchWindow()
        assert win.side == 24
        assert win.cell_count == 576


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

    def test_raster_is_read_only(self):
        frame = FrameRaster.filled(FrameDims(4, 4), (1, 2, 3))
        with pytest.raises(ValueError):
            frame.data[0, 0, 0] = 9
