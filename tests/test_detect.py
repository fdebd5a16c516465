import json
import math
import random

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from courttrack.detect import (
    NO_DETECTIONS,
    STAGES,
    DetectionsBuilder,
    FrameDetections,
    read_detections_jsonl,
    write_detections_jsonl,
)
from courttrack.errors import InputFormatError
from tests.detections import box_det, frame_of, read_detections_objects, same_detections


def box_of(*detections) -> list[float]:
    """The box of the one detection given as a list of (part id, x, y)."""
    (box,) = frame_of(*detections).boxes.tolist()
    return box


class TestSkeletonBBox:
    def test_single_keypoint_degenerate_box(self):
        assert box_of([(3, 5.0, 5.0)]) == [5.0, 5.0, 5.0, 5.0]

    def test_two_keypoints(self):
        assert box_of([(0, 0.0, 0.0), (1, 10.0, 20.0)]) == [0.0, 0.0, 10.0, 20.0]

    def test_seventeen_random_keypoints_min_max_oracle(self):
        rng = random.Random(12)
        pts = [(rng.uniform(0, 500), rng.uniform(0, 500)) for _ in range(17)]
        box = box_of([(i, x, y) for i, (x, y) in enumerate(pts)])
        assert box[0] == min(p[0] for p in pts)
        assert box[2] == max(p[0] for p in pts)
        assert box[1] == min(p[1] for p in pts)
        assert box[3] == max(p[1] for p in pts)

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            DetectionsBuilder().add([], [])

    def test_signed_zeros_keep_the_first_of_equal_values(self):
        # as Python's min and max do
        box = frame_of([(0, 0.0, -0.0), (1, -0.0, 0.0)]).boxes
        assert [math.copysign(1.0, v) for v in box[0]] == [1.0, -1.0, 1.0, -1.0]

    @pytest.mark.parametrize("xy", [[(1e308, -1e308), (-1e308, 1e308)], [(0.0, -1e308), (0.0, 1e308)]])
    def test_box_of_overflowing_span_rejected(self, xy):
        with pytest.raises(ValueError, match="not finite"):
            DetectionsBuilder().add([0, 1], xy)


class TestDetectionType:
    def test_duplicate_part_ids_rejected(self):
        with pytest.raises(ValueError):
            DetectionsBuilder().add([4, 4], [(0.0, 0.0), (1.0, 1.0)])

    def test_arrays_of_a_frame(self):
        dets = frame_of([(5, 1.0, 2.0), (0, 3.0, 9.0)], [(2, 4.0, 4.0)])
        assert len(dets) == 2
        assert dets.boxes.tolist() == [[1.0, 2.0, 3.0, 9.0], [4.0, 4.0, 4.0, 4.0]]
        assert dets.parts.tolist() == [5, 0, 2]  # in input order, not sorted
        assert dets.xy.tolist() == [[1.0, 2.0], [3.0, 9.0], [4.0, 4.0]]
        assert dets.owners.tolist() == [0, 0, 1]
        assert (dets.parts.dtype, dets.owners.dtype, dets.xy.dtype) == (np.int64, np.int64, np.float64)

    def test_no_detections_is_one_shared_value(self):
        assert frame_of() is NO_DETECTIONS
        assert NO_DETECTIONS.boxes.shape == (0, 4) and NO_DETECTIONS.xy.shape == (0, 2)


class TestDetectionsJsonl:
    def test_round_trip(self, tmp_path):
        per_frame = {
            0: frame_of(box_det(1, 2, 30, 40, n_extra=1)),
            2: frame_of(box_det(5, 5, 50, 90), box_det(-0.0, 1e-300, 7.25, 1e300)),
        }
        path = tmp_path / "dets.jsonl"
        write_detections_jsonl(per_frame, path)
        back = read_detections_jsonl(path)
        assert set(back) == {0, 2}
        assert same_detections(back[0], per_frame[0])
        assert same_detections(back[2], per_frame[2])

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
        assert list(back) == list(range(len(stages)))
        assert all(back[t].boxes.tolist() == [[1.0, 2.0, 1.0, 2.0]] for t in back)

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

    def test_overflowing_keypoint_span_reports_line(self, tmp_path):
        path = tmp_path / "dets.jsonl"
        good = '{"frame": 0, "keypoints": [{"part": 0, "x": 1, "y": 2, "c": 0.5}]}'
        kps = [{"part": 0, "x": 1e308, "y": -1e308, "c": 0.5}, {"part": 1, "x": -1e308, "y": 1e308, "c": 0.5}]
        path.write_text(f'{good}\n{json.dumps({"frame": 1, "keypoints": kps})}\n')
        with pytest.raises(InputFormatError, match="not finite") as err:
            read_detections_jsonl(path)
        assert err.value.line == 2 and err.value.field == "keypoints"
        assert "dets.jsonl:2 (field 'keypoints')" in str(err.value)


# --- the array reader against the object reader ------------------------------------

ODD_VALUES = st.sampled_from([True, False, None, "1", "0.5", [], {}])
NUMBERS = st.one_of(
    st.floats(-1e4, 1e4),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, -0.0, 1e308, -1e308, 1]),
    st.integers(-(10**400), 10**400),
)
COORDINATES = st.one_of(st.floats(-1e4, 1e4), st.sampled_from([0.0, -0.0]))  # zeros tie, signs differ
VALID_KEYPOINTS = st.fixed_dictionaries(
    {
        "part": st.integers(0, 16),
        "x": COORDINATES,
        "y": COORDINATES,
        "c": st.one_of(st.floats(0.0, 1.0), st.sampled_from([0, 1, -0.0])),
    }
)
# any field may be missing, of the wrong kind or out of range
KEYPOINTS = st.fixed_dictionaries(
    {},
    optional={
        "part": st.one_of(st.integers(-2, 18), st.sampled_from([1.0, 2.5, 1e20]), ODD_VALUES),
        "x": st.one_of(NUMBERS, ODD_VALUES),
        "y": st.one_of(NUMBERS, ODD_VALUES),
        "c": st.one_of(st.floats(-0.5, 1.5), ODD_VALUES),
    },
)
OUT_OF_RANGE_KEYPOINTS = st.fixed_dictionaries(
    {"part": st.integers(-2, 18), "x": COORDINATES, "y": COORDINATES, "c": st.floats(-0.5, 1.5)}
)
# valid but for the values, which may be beyond float range or span it
FAR_KEYPOINTS = st.fixed_dictionaries(
    {"part": st.integers(0, 16), "x": NUMBERS, "y": NUMBERS, "c": st.just(0.5)}
)
OVERFLOWING_SPAN = json.dumps(
    {"frame": 0, "keypoints": [{"part": 0, "x": 1e308, "y": -1e308, "c": 0.5},
                               {"part": 1, "x": -1e308, "y": 1e308, "c": 0.5}]}
)


@st.composite
def detection_lines(draw) -> list[str]:
    """Lines of a detections file, frames in any order: most well formed,
    some with a fault of one kind."""
    lines = []
    for _ in range(draw(st.integers(0, 8))):
        fault = draw(st.integers(0, 24))  # 1 to 8 name a fault, the rest none
        if fault == 1:
            lines.append(draw(st.sampled_from(["", "not json", "[1]", "{}", '"x"', "3", '{"frame": 1'])))
            continue
        obj = {"frame": draw(st.one_of(st.integers(-2, 5), st.just(1.0)))}
        if fault == 2:
            obj["frame"] = draw(st.sampled_from([1.5, True, "1", None, 2**70 + 0.5]))
            if draw(st.booleans()):
                del obj["frame"]
        if draw(st.booleans()):
            obj["stage"] = draw(st.sampled_from(STAGES))
        if fault == 3:
            obj["stage"] = draw(st.sampled_from(["multiscale", "Coarse", "", None, 3, ["coarse"]]))
        if fault == 4:
            obj["keypoints"] = draw(st.sampled_from([5, "a", {}, None, []]))
            if draw(st.booleans()):
                del obj["keypoints"]
        elif fault == 5:  # parts may repeat
            obj["keypoints"] = draw(st.lists(VALID_KEYPOINTS, min_size=2, max_size=5))
        elif fault == 6:
            kps = st.one_of(VALID_KEYPOINTS, KEYPOINTS, ODD_VALUES)
            obj["keypoints"] = draw(st.lists(kps, min_size=1, max_size=5))
        elif fault == 7:
            obj["keypoints"] = draw(st.lists(OUT_OF_RANGE_KEYPOINTS, min_size=1, max_size=3))
        elif fault == 8:
            far = st.lists(FAR_KEYPOINTS, min_size=1, max_size=3, unique_by=lambda k: k["part"])
            obj["keypoints"] = draw(far)
        else:
            kps = st.lists(VALID_KEYPOINTS, min_size=1, max_size=5, unique_by=lambda k: k["part"])
            obj["keypoints"] = draw(kps)
        lines.append(json.dumps(obj))
    return lines


def object_frame(dets) -> FrameDetections:
    """One frame's Detection objects as the arrays the reader should give."""
    kps = [(i, k) for i, d in enumerate(dets) for k in d.keypoints]
    return FrameDetections(
        np.array([(d.bbox.x_min, d.bbox.y_min, d.bbox.x_max, d.bbox.y_max) for d in dets]),
        np.array([k.part_id for _, k in kps], dtype=np.int64),
        np.array([(k.position.x, k.position.y) for _, k in kps]),
        np.array([i for i, _ in kps], dtype=np.int64),
    )


def outcome(reader, path):
    """What a reader makes of a file: its result, or its InputFormatError."""
    try:
        return reader(path), None
    except InputFormatError as exc:
        return None, exc


@pytest.fixture(scope="module")
def lines_file(tmp_path_factory):
    return tmp_path_factory.mktemp("lines") / "dets.jsonl"


class TestAgainstTheObjectReader:
    @given(detection_lines())
    @example([OVERFLOWING_SPAN])
    @example(['{"frame": 3, "keypoints": [{"part": 2, "x": -0.0, "y": 0.0, "c": 1}]}', OVERFLOWING_SPAN, "bad"])
    @example([json.dumps({"frame": 0, "keypoints": [{"part": 2, "x": 0.0, "y": -0.0, "c": 1},
                                                    {"part": 3, "x": -0.0, "y": 0, "c": 1}]})])
    def test_same_arrays_or_same_error(self, lines_file, lines):
        lines_file.write_text("".join(line + "\n" for line in lines))
        got, error = outcome(read_detections_jsonl, lines_file)
        if error is not None and "keypoint span" in str(error):
            # the one check the object reader lacks: it reads the file up to
            # that line, and the line's detection has a box with an infinite side
            lines_file.write_text("".join(line + "\n" for line in lines[: error.line]))
            want, oracle_error = outcome(read_detections_objects, lines_file)
            assert oracle_error is None
            box = want[int(json.loads(lines[error.line - 1])["frame"])][-1].bbox
            assert not (math.isfinite(box.width) and math.isfinite(box.height))
            return
        want, oracle_error = outcome(read_detections_objects, lines_file)
        assert str(error) == str(oracle_error)
        if error is None:
            assert list(got) == list(want)
            assert all(same_detections(dets, object_frame(want[t])) for t, dets in got.items())
