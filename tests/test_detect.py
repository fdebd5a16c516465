import json
import random

import numpy as np
import pytest

from courttrack.court import CourtRegion
from courttrack.detect import (
    Detection,
    Keypoint,
    ScalePlan,
    SourceStage,
    coarse_pass,
    coarse_scale_dims,
    dedup_detections,
    detect_frame,
    filter_by_court,
    merge_detections,
    read_detections_jsonl,
    refine_pass,
    skeleton_bbox,
    sliding_origins,
    sliding_pass,
    write_detections_jsonl,
)
from courttrack.errors import EmptyKeypoints
from courttrack.geometry import BBox, FrameDims, Line2, Point2
from courttrack.imaging import FrameRaster

HD = FrameDims(1920, 1080)
PLAN = ScalePlan()


def det_at(points, stage=SourceStage.EXTERNAL, conf=0.9):
    kps = [Keypoint(i, Point2(float(x), float(y)), conf) for i, (x, y) in enumerate(points)]
    return Detection(tuple(kps), stage)


def box_det(x0, y0, x1, y1, n_extra=0, stage=SourceStage.EXTERNAL, conf=0.9):
    """Detection whose bbox is exactly (x0, y0, x1, y1)."""
    points = [(x0, y0), (x1, y1)]
    for k in range(n_extra):
        points.append(((x0 + x1) / 2, (y0 + y1) / 2 + k * 1e-3))
    return det_at(points, stage, conf)


def gray_frame(dims: FrameDims) -> FrameRaster:
    return FrameRaster.filled(dims, (90, 90, 90))


class TestSkeletonBBox:
    def test_single_keypoint_degenerate_box(self):
        kp = Keypoint(3, Point2(5.0, 5.0), 1.0)
        assert skeleton_bbox([kp]) == BBox(5.0, 5.0, 5.0, 5.0)

    def test_two_keypoints(self):
        kps = [Keypoint(0, Point2(0.0, 0.0), 0.5), Keypoint(1, Point2(10.0, 20.0), 0.5)]
        assert skeleton_bbox(kps) == BBox(0.0, 0.0, 10.0, 20.0)

    def test_seventeen_random_keypoints_min_max_oracle(self):
        rng = random.Random(12)
        pts = [(rng.uniform(0, 500), rng.uniform(0, 500)) for _ in range(17)]
        kps = [Keypoint(i, Point2(x, y), 0.7) for i, (x, y) in enumerate(pts)]
        box = skeleton_bbox(kps)
        assert box.x_min == min(p[0] for p in pts)
        assert box.x_max == max(p[0] for p in pts)
        assert box.y_min == min(p[1] for p in pts)
        assert box.y_max == max(p[1] for p in pts)

    def test_empty_raises(self):
        with pytest.raises(EmptyKeypoints):
            skeleton_bbox([])


class TestDetectionType:
    def test_bbox_is_derived_not_passed(self):
        kps = (Keypoint(0, Point2(1.0, 2.0), 0.5), Keypoint(1, Point2(5.0, 9.0), 0.5))
        assert Detection(kps, SourceStage.EXTERNAL).bbox == BBox(1.0, 2.0, 5.0, 9.0)
        with pytest.raises(TypeError):
            Detection(kps, BBox(1.0, 2.0, 5.0, 9.0), SourceStage.EXTERNAL)

    def test_duplicate_part_ids_rejected(self):
        kps = [Keypoint(4, Point2(0.0, 0.0), 0.5), Keypoint(4, Point2(1.0, 1.0), 0.5)]
        with pytest.raises(ValueError):
            Detection(tuple(kps), SourceStage.EXTERNAL)


class TestCoarsePass:
    def test_downscale_target_is_twice_model_width(self):
        plan = ScalePlan()
        assert coarse_scale_dims(HD, plan) == FrameDims(864, 486)
        assert coarse_scale_dims(HD, plan).w == 2 * plan.model_w

    def test_detector_sees_downscaled_window_and_maps_back(self):
        calls = []

        def detector(window, origin, scale):
            calls.append((window.dims, origin, scale))
            # scripted skeleton found at downscaled (100, 80)
            return [det_at([(100.0 / scale, 80.0 / scale)], SourceStage.COARSE)]

        out = coarse_pass(gray_frame(HD), detector, PLAN)
        assert calls == [(FrameDims(864, 486), Point2(0.0, 0.0), 0.45)]
        assert len(out) == 1
        p = out[0].keypoints[0].position
        assert p.x == pytest.approx(100.0 / 0.45)
        assert p.y == pytest.approx(80.0 / 0.45)

    def test_empty_detector_output(self):
        out = coarse_pass(gray_frame(HD), lambda w, o, s: [], PLAN)
        assert out == []

    def test_small_frame_rejected(self):
        with pytest.raises(ValueError):
            coarse_pass(gray_frame(FrameDims(100, 100)), lambda w, o, s: [], PLAN)


class TestRefinePass:
    def test_window_centered_on_detection(self):
        origins = []

        def detector(window, origin, scale):
            origins.append((origin.x, origin.y, window.dims.w, window.dims.h, scale))
            return []

        coarse = [det_at([(960.0, 540.0)], SourceStage.COARSE)]
        refine_pass(gray_frame(HD), coarse, detector, PLAN)
        assert origins == [(744.0, 356.0, 432, 368, 1.0)]

    def test_corner_window_clamped(self):
        origins = []

        def detector(window, origin, scale):
            origins.append((origin.x, origin.y))
            return []

        coarse = [det_at([(10.0, 10.0)], SourceStage.COARSE)]
        refine_pass(gray_frame(HD), coarse, detector, PLAN)
        assert origins == [(0.0, 0.0)]

    def test_empty_coarse_queries_nothing(self):
        calls = []
        out = refine_pass(gray_frame(HD), [], lambda w, o, s: calls.append(1) or [], PLAN)
        assert out == []
        assert calls == []

    def test_windows_always_model_sized(self):
        rng = random.Random(6)
        sizes = []

        def detector(window, origin, scale):
            sizes.append((window.dims.w, window.dims.h))
            return []

        coarse = [
            det_at([(rng.uniform(0, 1920), rng.uniform(0, 1080))], SourceStage.COARSE)
            for _ in range(40)
        ]
        refine_pass(gray_frame(HD), coarse, detector, PLAN)
        assert sizes == [(432, 368)] * 40


def origins_oracle(frame_len: int, model_len: int, stride: int) -> list[int]:
    """Stride-and-flush enumeration, independent of the implementation."""
    xs = [0]
    while xs[-1] + stride + model_len <= frame_len:
        xs.append(xs[-1] + stride)
    if xs[-1] + model_len != frame_len:
        xs.append(frame_len - model_len)
    return xs


class TestSlidingPass:
    @pytest.mark.parametrize("dims", [FrameDims(432, 368), FrameDims(864, 368), HD])
    def test_origin_grid_matches_enumeration_oracle(self, dims):
        xs = origins_oracle(dims.w, 432, 216)
        ys = origins_oracle(dims.h, 368, 184)
        expected = [(x, y) for y in ys for x in xs]
        assert sliding_origins(dims, PLAN) == expected

    def test_full_hd_origin_values(self):
        origins = sliding_origins(HD, PLAN)
        xs = sorted({o[0] for o in origins})
        ys = sorted({o[1] for o in origins})
        assert xs == [0, 216, 432, 648, 864, 1080, 1296, 1488]
        assert ys == [0, 184, 368, 552, 712]

    def test_exact_model_frame_single_window(self):
        assert sliding_origins(FrameDims(432, 368), PLAN) == [(0, 0)]

    def test_864_wide_origins(self):
        origins = sliding_origins(FrameDims(864, 368), PLAN)
        assert origins == [(0, 0), (216, 0), (432, 0)]

    @pytest.mark.parametrize("dims", [FrameDims(432, 368), FrameDims(864, 368), HD])
    def test_every_pixel_covered(self, dims):
        for frame_len, model_len, stride in (
            (dims.w, 432, 216),
            (dims.h, 368, 184),
        ):
            covered = np.zeros(frame_len, dtype=int)
            for o in origins_oracle(frame_len, model_len, stride):
                covered[o : o + model_len] += 1
            assert covered.min() >= 1

    def test_interior_pixels_doubly_covered_at_half_overlap(self):
        covered = np.zeros(HD.w, dtype=int)
        for o in origins_oracle(HD.w, 432, 216):
            covered[o : o + 432] += 1
        # away from the frame borders every column lies in >= 2 windows
        assert covered[216:-432].min() >= 2

    def test_queries_each_window(self):
        seen = []

        def detector(window, origin, scale):
            seen.append((int(origin.x), int(origin.y)))
            return []

        sliding_pass(gray_frame(FrameDims(864, 368)), detector, PLAN)
        assert seen == [(0, 0), (216, 0), (432, 0)]


class TestMergeDetections:
    def test_high_overlap_extra_dropped(self):
        primary = [box_det(0, 0, 100, 100)]
        extra = [box_det(0, 0, 100, 90)]  # IoU 0.9
        assert merge_detections(primary, extra) == primary

    def test_disjoint_extra_kept(self):
        primary = [box_det(0, 0, 100, 100)]
        extra = [box_det(500, 500, 600, 600)]
        merged = merge_detections(primary, extra)
        assert merged == primary + extra

    def test_threshold_is_inclusive(self):
        primary = [box_det(0, 0, 10, 10)]
        extra = [box_det(0, 0, 10, 5)]  # IoU exactly 50/100 = 0.5
        pairwise = 50.0 / 100.0
        assert pairwise == 0.5
        assert merge_detections(primary, extra) == primary

    def test_idempotent(self):
        primary = [box_det(0, 0, 100, 100), box_det(300, 300, 400, 400)]
        extra = [box_det(0, 0, 100, 95), box_det(600, 0, 700, 100)]
        once = merge_detections(primary, extra)
        again = merge_detections(once, extra)
        assert once == again

    def test_no_cross_input_duplicates_in_output(self):
        rng = random.Random(31)
        primary = [
            box_det(x, y, x + 50, y + 80)
            for x, y in ((rng.uniform(0, 800), rng.uniform(0, 800)) for _ in range(8))
        ]
        extra = [
            box_det(x, y, x + 50, y + 80)
            for x, y in ((rng.uniform(0, 800), rng.uniform(0, 800)) for _ in range(8))
        ]
        merged = merge_detections(primary, extra)
        kept_extra = [d for d in merged if d not in primary]
        from courttrack.geometry import iou

        for e in kept_extra:
            for p in primary:
                assert iou(e.bbox, p.bbox) < 0.5


class TestDedupDetections:
    def test_keeps_more_keypoints(self):
        a = box_det(0, 0, 100, 100, n_extra=0)
        b = box_det(0, 0, 100, 98, n_extra=3)
        out = dedup_detections([a, b])
        assert out == [b]

    def test_confidence_breaks_ties(self):
        a = box_det(0, 0, 100, 100, conf=0.5)
        b = box_det(0, 0, 100, 98, conf=0.9)
        assert dedup_detections([a, b]) == [b]

    def test_input_order_breaks_remaining_ties(self):
        a = box_det(0, 0, 100, 100)
        b = box_det(0, 0, 100, 98)
        assert dedup_detections([a, b]) == [a]


class TestFullPipeline:
    def test_three_players_found_once_each(self):
        players = [
            BBox(100.0, 100.0, 160.0, 220.0),
            BBox(900.0, 500.0, 960.0, 620.0),
            BBox(1700.0, 800.0, 1760.0, 920.0),
        ]

        def detector(window, origin, scale):
            win_dims = window.dims
            x0, y0 = origin.x, origin.y
            x1 = x0 + win_dims.w / scale
            y1 = y0 + win_dims.h / scale
            found = []
            for box in players:
                if box.x_min >= x0 and box.y_min >= y0 and box.x_max <= x1 and box.y_max <= y1:
                    found.append(box_det(box.x_min, box.y_min, box.x_max, box.y_max, n_extra=1))
            return found

        out = detect_frame(gray_frame(HD), detector, PLAN)
        assert len(out) == 3
        centers = sorted((d.bbox.centroid.x, d.bbox.centroid.y) for d in out)
        expected = sorted((b.centroid.x, b.centroid.y) for b in players)
        assert centers == expected


class TestFilterByCourt:
    REGION = CourtRegion.from_boundaries(
        Line2.horizontal_at(100.0), Line2.horizontal_at(900.0), None, None, HD
    )

    def test_mid_court_kept(self):
        det = box_det(900, 400, 1000, 600)
        assert filter_by_court([det], self.REGION) == [det]

    def test_above_top_dropped(self):
        det = box_det(900, 10, 1000, 80)
        assert filter_by_court([det], self.REGION) == []

    def test_straddling_kept_when_anchor_inside(self):
        det = box_det(900, 50, 1000, 200)  # bottom-center (950, 200) on court
        assert filter_by_court([det], self.REGION) == [det]


class TestDetectionsJsonl:
    def test_round_trip(self, tmp_path):
        per_frame = {
            0: [box_det(1, 2, 30, 40, n_extra=1, stage=SourceStage.COARSE)],
            2: [box_det(5, 5, 50, 90, stage=SourceStage.SLIDING)],
        }
        path = tmp_path / "dets.jsonl"
        write_detections_jsonl(per_frame, path)
        back = read_detections_jsonl(path)
        assert set(back) == {0, 2}
        assert back[0] == per_frame[0]
        assert back[2] == per_frame[2]

    def test_bad_json_reports_line(self, tmp_path):
        path = tmp_path / "dets.jsonl"
        path.write_text('{"frame": 0, "keypoints": [{"part": 0, "x": 1, "y": 2, "c": 0.5}], "stage": "external"}\nnot json\n')
        from courttrack.errors import InputFormatError

        with pytest.raises(InputFormatError) as err:
            read_detections_jsonl(path)
        assert ":2" in str(err.value)

    def test_integer_beyond_digit_limit_reports_line(self, tmp_path):
        from courttrack.errors import InputFormatError

        path = tmp_path / "dets.jsonl"
        good = '{"frame": 0, "keypoints": [{"part": 0, "x": 1, "y": 2, "c": 0.5}]}'
        bad = '{"frame": 1, "keypoints": [{"part": 0, "x": ' + "1" * 5000 + ', "y": 2, "c": 0.5}]}'
        path.write_text(f"{good}\n{bad}\n")
        with pytest.raises(InputFormatError) as err:
            read_detections_jsonl(path)
        assert err.value.line == 2 and "dets.jsonl:2" in str(err.value)

    def test_non_utf8_byte_reports_line(self, tmp_path):
        from courttrack.errors import InputFormatError

        path = tmp_path / "dets.jsonl"
        good = b'{"frame": 0, "keypoints": [{"part": 0, "x": 1, "y": 2, "c": 0.5}]}'
        path.write_bytes(good + b"\n" + good.replace(b"0.5", b"\xff\xfe") + b"\n")
        with pytest.raises(InputFormatError, match="UTF-8") as err:
            read_detections_jsonl(path)
        assert err.value.line == 2 and "dets.jsonl:2" in str(err.value)

    @pytest.mark.parametrize(
        "keypoints",
        [
            "5",
            '[{"part": 4, "x": 1, "y": 2, "c": 0.5}, {"part": 4, "x": 3, "y": 4, "c": 0.5}]',
        ],
    )
    def test_bad_keypoints_report_line(self, tmp_path, keypoints):
        from courttrack.errors import InputFormatError

        path = tmp_path / "dets.jsonl"
        good = '{"frame": 0, "keypoints": [{"part": 0, "x": 1, "y": 2, "c": 0.5}]}'
        path.write_text(f'{good}\n{{"frame": 1, "keypoints": {keypoints}}}\n')
        with pytest.raises(InputFormatError) as err:
            read_detections_jsonl(path)
        assert err.value.line == 2 and err.value.field == "keypoints"

    @pytest.mark.parametrize(
        "value",
        ['"12"', "false", "true", "null", "Infinity", "NaN", "1e400", pytest.param("1" + "0" * 400, id="int-401-digits")],
    )
    @pytest.mark.parametrize("field", ["x", "y", "c"])
    def test_non_number_keypoint_value_reports_line(self, tmp_path, field, value):
        from courttrack.errors import InputFormatError

        path = tmp_path / "dets.jsonl"
        literals = {"part": "0", "x": "1", "y": "2", "c": "0.5", field: value}
        bad = "{" + ", ".join(f'"{k}": {v}' for k, v in literals.items()) + "}"
        good = '{"frame": 0, "keypoints": [{"part": 0, "x": 1, "y": 2, "c": 0.5}]}'
        path.write_text(f'{good}\n{{"frame": 1, "keypoints": [{bad}]}}\n')
        with pytest.raises(InputFormatError) as err:
            read_detections_jsonl(path)
        assert err.value.line == 2 and err.value.field == field

    @pytest.mark.parametrize("value", [1.5, True, "1"])
    @pytest.mark.parametrize("field", ["frame", "part"])
    def test_non_integer_frame_or_part_reports_line(self, tmp_path, field, value):
        from courttrack.errors import InputFormatError

        path = tmp_path / "dets.jsonl"
        good = '{"frame": 0, "keypoints": [{"part": 0, "x": 1, "y": 2, "c": 0.5}]}'
        bad = {"frame": 1, "keypoints": [{"part": 3, "x": 1, "y": 2, "c": 0.5}]}
        (bad if field == "frame" else bad["keypoints"][0])[field] = value
        path.write_text(f"{good}\n{json.dumps(bad)}\n")
        with pytest.raises(InputFormatError) as err:
            read_detections_jsonl(path)
        assert err.value.line == 2 and err.value.field == field
        assert "dets.jsonl:2" in str(err.value)
