import json
import random

import pytest

from courttrack.detect import (
    Detection,
    Keypoint,
    SourceStage,
    read_detections_jsonl,
    write_detections_jsonl,
)
from courttrack.errors import InputFormatError
from courttrack.geometry import BBox, Point2


def det_at(points, stage=SourceStage.EXTERNAL, conf=0.9):
    kps = [Keypoint(i, Point2(float(x), float(y)), conf) for i, (x, y) in enumerate(points)]
    return Detection(tuple(kps), stage)


def box_det(x0, y0, x1, y1, n_extra=0, stage=SourceStage.EXTERNAL, conf=0.9):
    """Detection whose bbox is exactly (x0, y0, x1, y1)."""
    points = [(x0, y0), (x1, y1)]
    for k in range(n_extra):
        points.append(((x0 + x1) / 2, (y0 + y1) / 2 + k * 1e-3))
    return det_at(points, stage, conf)


class TestSkeletonBBox:
    def test_single_keypoint_degenerate_box(self):
        kp = Keypoint(3, Point2(5.0, 5.0), 1.0)
        assert Detection((kp,), SourceStage.EXTERNAL).bbox == BBox(5.0, 5.0, 5.0, 5.0)

    def test_two_keypoints(self):
        kps = (Keypoint(0, Point2(0.0, 0.0), 0.5), Keypoint(1, Point2(10.0, 20.0), 0.5))
        assert Detection(kps, SourceStage.EXTERNAL).bbox == BBox(0.0, 0.0, 10.0, 20.0)

    def test_seventeen_random_keypoints_min_max_oracle(self):
        rng = random.Random(12)
        pts = [(rng.uniform(0, 500), rng.uniform(0, 500)) for _ in range(17)]
        kps = tuple(Keypoint(i, Point2(x, y), 0.7) for i, (x, y) in enumerate(pts))
        box = Detection(kps, SourceStage.EXTERNAL).bbox
        assert box.x_min == min(p[0] for p in pts)
        assert box.x_max == max(p[0] for p in pts)
        assert box.y_min == min(p[1] for p in pts)
        assert box.y_max == max(p[1] for p in pts)

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            Detection((), SourceStage.EXTERNAL)


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

    def test_every_stage_name_reads_and_a_missing_stage_is_external(self, tmp_path):
        path = tmp_path / "dets.jsonl"
        kps = '"keypoints": [{"part": 0, "x": 1, "y": 2, "c": 0.5}]'
        stages = ["coarse", "refined", "sliding", "external", None]
        path.write_text(
            "".join(
                f'{{"frame": {t}, {kps}}}\n' if name is None else f'{{"frame": {t}, {kps}, "stage": "{name}"}}\n'
                for t, name in enumerate(stages)
            )
        )
        back = read_detections_jsonl(path)
        assert [back[t][0].source_stage for t in range(len(stages))] == [
            SourceStage.COARSE,
            SourceStage.REFINED,
            SourceStage.SLIDING,
            SourceStage.EXTERNAL,
            SourceStage.EXTERNAL,
        ]

    @pytest.mark.parametrize("stage", ['"multiscale"', '"Coarse"', '""', "null", "3"])
    def test_unknown_stage_reports_line_and_field(self, tmp_path, stage):
        path = tmp_path / "dets.jsonl"
        kps = '"keypoints": [{"part": 0, "x": 1, "y": 2, "c": 0.5}]'
        path.write_text(f'{{"frame": 0, {kps}}}\n{{"frame": 1, {kps}, "stage": {stage}}}\n')
        with pytest.raises(InputFormatError, match="unknown stage") as err:
            read_detections_jsonl(path)
        assert err.value.line == 2 and err.value.field == "stage"
        assert "dets.jsonl:2 (field 'stage')" in str(err.value)

    def test_bad_json_reports_line(self, tmp_path):
        path = tmp_path / "dets.jsonl"
        path.write_text('{"frame": 0, "keypoints": [{"part": 0, "x": 1, "y": 2, "c": 0.5}], "stage": "external"}\nnot json\n')
        with pytest.raises(InputFormatError) as err:
            read_detections_jsonl(path)
        assert ":2" in str(err.value)

    def test_integer_beyond_digit_limit_reports_line(self, tmp_path):
        path = tmp_path / "dets.jsonl"
        good = '{"frame": 0, "keypoints": [{"part": 0, "x": 1, "y": 2, "c": 0.5}]}'
        bad = '{"frame": 1, "keypoints": [{"part": 0, "x": ' + "1" * 5000 + ', "y": 2, "c": 0.5}]}'
        path.write_text(f"{good}\n{bad}\n")
        with pytest.raises(InputFormatError) as err:
            read_detections_jsonl(path)
        assert err.value.line == 2 and "dets.jsonl:2" in str(err.value)

    def test_non_utf8_byte_reports_line(self, tmp_path):
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
        path = tmp_path / "dets.jsonl"
        good = '{"frame": 0, "keypoints": [{"part": 0, "x": 1, "y": 2, "c": 0.5}]}'
        bad = {"frame": 1, "keypoints": [{"part": 3, "x": 1, "y": 2, "c": 0.5}]}
        (bad if field == "frame" else bad["keypoints"][0])[field] = value
        path.write_text(f"{good}\n{json.dumps(bad)}\n")
        with pytest.raises(InputFormatError) as err:
            read_detections_jsonl(path)
        assert err.value.line == 2 and err.value.field == field
        assert "dets.jsonl:2" in str(err.value)
