import random

import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from courttrack.errors import InputFormatError
from courttrack.geometry import FrameDims, Homography
from courttrack.metrics import (
    DetectionReport,
    eval_detections,
    eval_mot_records,
    read_mot_csv,
    write_mot_csv,
)
from courttrack.synth import ScenarioSpec, generate
from courttrack.track import FrameObservations, run_tracker
from tests.detections import box_det, frame_of
from tests.oracles import (
    BBox,
    GroundTruthBox,
    box_array,
    eval_mot_objects,
    filled,
    frame_boxes,
    greedy_detection_counts,
    observations,
    records_of,
    write_mot_objects,
)
from tests.test_geometry import boxes


def rec(frame, tid, x0, y0, x1, y1):
    return GroundTruthBox(frame, tid, BBox(float(x0), float(y0), float(x1), float(y1)))


MOT_THRESHOLD = 0.5
# ids whose set order is not their sorted order, and 10x10 boxes that
# overlap a box at the origin by 1, 9/11, 2/3, 1/3 or 0, plus one that
# overlaps it by exactly 1/2
MOT_IDS = (0, 1, 2, 7, -3, 2**40)
MOT_BOXES = (*(BBox(x, 0.0, x + 10.0, 10.0) for x in (0.0, 1.0, 2.0, 5.0, 20.0)), BBox(0.0, 0.0, 10.0, 20.0))


@st.composite
def mot_frames(draw) -> tuple[list[GroundTruthBox], list[GroundTruthBox]]:
    """Ground truth and hypotheses on a few of frames 0..9: each frame
    draws rows for either side or neither, unique ids in any order, and
    boxes from a pool, so ties, carried pairs and switches are common."""
    gt, hyp = [], []
    for t in sorted(draw(st.sets(st.integers(0, 9), max_size=6))):
        for side in (gt, hyp):
            for track_id in draw(st.lists(st.sampled_from(MOT_IDS), unique=True, max_size=4)):
                side.append(GroundTruthBox(t, track_id, draw(st.sampled_from(MOT_BOXES))))
    return gt, hyp


class TestEvalDetections:
    def test_perfect_detections(self):
        gt = [rec(0, 1, 0, 0, 10, 10), rec(1, 1, 5, 5, 15, 15)]
        dets = {0: box_array([gt[0].bbox]), 1: box_array([gt[1].bbox])}
        report = eval_detections(frame_boxes(gt), dets)
        assert (report.precision, report.recall, report.f1) == (1.0, 1.0, 1.0)

    def test_empty_detections(self):
        gt = [rec(0, 1, 0, 0, 10, 10)]
        report = eval_detections(frame_boxes(gt), {})
        assert report.precision == 0.0
        assert report.recall == 0.0
        assert report.f1 == 0.0
        assert report.fn == 1

    def test_greedy_trace_one_gt_two_overlapping_dets(self):
        gt = [rec(0, 1, 0, 0, 10, 10)]
        strong = BBox(0.0, 2.0, 10.0, 10.0)  # IoU 0.8
        weak = BBox(0.0, 5.0, 10.0, 15.0)  # IoU 1/3
        report = eval_detections(frame_boxes(gt), {0: box_array([weak, strong])})
        assert (report.tp, report.fp, report.fn) == (1, 1, 0)

    def test_count_identities(self):
        rng = random.Random(14)
        gt = []
        dets = {}
        for frame in range(6):
            boxes = []
            for tid in range(rng.randrange(0, 5)):
                x, y = rng.uniform(0, 300), rng.uniform(0, 300)
                gt.append(rec(frame, tid, x, y, x + 20, y + 30))
            for _ in range(rng.randrange(0, 5)):
                x, y = rng.uniform(0, 300), rng.uniform(0, 300)
                boxes.append(BBox(x, y, x + 20, y + 30))
            dets[frame] = box_array(boxes)
        report = eval_detections(frame_boxes(gt), dets)
        assert report.tp + report.fn == len(gt)
        assert report.tp + report.fp == sum(len(b) for b in dets.values())

    def test_gt_frame_without_detections_counts_misses(self):
        gt = [rec(0, 1, 0, 0, 10, 10), rec(1, 1, 0, 0, 10, 10)]
        report = eval_detections(frame_boxes(gt), {0: box_array([gt[0].bbox])})
        assert report.fn == 1

    @given(st.lists(st.tuples(*[st.lists(boxes(st.integers(0, 4).map(float)), max_size=5)] * 2), max_size=3))
    @example([([BBox(0, 0, 2, 2), BBox(2, 0, 4, 2)], [BBox(1, 0, 3, 2), BBox(-1, 0, 1, 2)])])
    def test_counts_equal_the_scalar_protocol(self, frames):
        # every pair of the example ties at 1/3; taking detection 0 first leaves gt 1 unmatched
        gt = [GroundTruthBox(t, i, b) for t, (truth, _) in enumerate(frames) for i, b in enumerate(truth)]
        report = eval_detections(frame_boxes(gt), {t: box_array(found) for t, (_, found) in enumerate(frames)})
        counts = [greedy_detection_counts(truth, found) for truth, found in frames]
        assert (report.tp, report.fp, report.fn) == tuple(sum(c) for c in zip((0, 0, 0), *counts))

    def test_f1_symmetric_under_precision_recall_swap(self):
        a = DetectionReport.from_counts(tp=6, fp=2, fn=5)
        b = DetectionReport.from_counts(tp=6, fp=5, fn=2)
        assert a.f1 == pytest.approx(b.f1, rel=1e-15)


class TestEvalMot:
    def test_perfect_tracking(self):
        gt = [rec(t, 1, 0, 0, 10, 10) for t in range(5)]
        report = eval_mot_records(frame_boxes(gt), frame_boxes([rec(t, 42, 0, 0, 10, 10) for t in range(5)]))
        assert report.mota == 1.0
        assert report.motp == 1.0
        assert report.id_switches == 0

    def test_single_mid_sequence_id_change(self):
        gt = [rec(t, 7, 0, 0, 10, 10) for t in range(10)]
        hyp = [rec(t, 1 if t < 5 else 2, 0, 0, 10, 10) for t in range(10)]
        report = eval_mot_records(frame_boxes(gt), frame_boxes(hyp))
        assert report.id_switches == 1
        assert report.mota == pytest.approx(0.9, rel=1e-12)
        assert report.motp == 1.0

    def test_two_targets_one_miss_one_spurious(self):
        gt = [rec(t, 0, 0, 0, 10, 10) for t in range(3)]
        gt += [rec(t, 1, 50, 0, 60, 10) for t in range(3)]
        hyp = [rec(t, 10, 0, 0, 10, 10) for t in range(3)]
        hyp += [rec(t, 20, 50, 0, 60, 10) for t in (0, 2)]  # missed at t=1
        hyp += [rec(1, 30, 200, 200, 210, 210)]  # spurious
        report = eval_mot_records(frame_boxes(gt), frame_boxes(hyp))
        assert report.misses == 1
        assert report.false_positives == 1
        assert report.id_switches == 0
        assert report.mota == pytest.approx(2.0 / 3.0, rel=1e-12)

    def test_relabeling_hypothesis_ids_changes_nothing(self):
        gt = [rec(t, 0, 0, 0, 10, 10) for t in range(6)]
        gt += [rec(t, 1, 40, 0, 50, 10) for t in range(6)]
        hyp = [rec(t, 5, 0, 0, 10, 10) for t in range(6)]
        hyp += [rec(t, 6, 40, 0, 50, 10) for t in range(6)]
        base = eval_mot_records(frame_boxes(gt), frame_boxes(hyp))
        relabeled = [GroundTruthBox(h.frame, h.id + 100, h.bbox) for h in hyp]
        again = eval_mot_records(frame_boxes(gt), frame_boxes(relabeled))
        assert (base.mota, base.motp, base.id_switches) == (
            again.mota,
            again.motp,
            again.id_switches,
        )

    def test_spurious_box_costs_exactly_one_over_gt(self):
        gt = [rec(t, 0, 0, 0, 10, 10) for t in range(8)]
        hyp = [rec(t, 3, 0, 0, 10, 10) for t in range(8)]
        base = eval_mot_records(frame_boxes(gt), frame_boxes(hyp))
        noisy = hyp + [rec(4, 9, 300, 300, 310, 310)]
        degraded = eval_mot_records(frame_boxes(gt), frame_boxes(noisy))
        assert base.mota - degraded.mota == pytest.approx(1.0 / len(gt), abs=1e-12)
        assert degraded.motp == base.motp

    @pytest.mark.parametrize("threshold", [1.0, 1.5, -1.0, float("nan")])
    def test_iou_threshold_outside_unit_interval_rejected(self, threshold):
        gt = [rec(0, 1, 0, 0, 10, 10)]
        with pytest.raises(ValueError, match="IoU threshold"):
            eval_mot_records(frame_boxes(gt), frame_boxes(gt), threshold)

    def test_zero_iou_threshold_accepted(self):
        gt = [rec(0, 1, 0, 0, 10, 10)]
        assert eval_mot_records(frame_boxes(gt), frame_boxes(gt), 0.0).mota == 1.0

    def test_empty_ground_truth_rejected(self):
        with pytest.raises(ValueError, match="ground-truth"):
            eval_mot_records({}, frame_boxes([rec(0, 1, 0, 0, 5, 5)]))

    def test_accepts_tracker_rows(self):
        dims = FrameDims(200, 200)
        gray = filled(dims, (90, 90, 90))
        frames = [
            FrameObservations(frame_of(box_det(50.0, 50.0, 70.0, 90.0)), Homography.identity(), gray)
            for _ in range(4)
        ]
        gt = [rec(t, 0, 50, 50, 70, 90) for t in range(4)]
        report = eval_mot_records(frame_boxes(gt), run_tracker(frames))
        assert report.mota == 1.0
        assert report.motp == 1.0

    @pytest.mark.parametrize("side", ["gt", "hyp"])
    def test_repeated_frame_and_id_rejected(self, side):
        # merging the two rows would score mota 0.0 in this order and 1.0 in the other
        repeated = [rec(0, 1, 0, 0, 10, 10), rec(0, 1, 100, 100, 110, 110)]
        single = [rec(0, 5, 0, 0, 10, 10)]
        gt, hyp = (repeated, single) if side == "gt" else (single, repeated)
        with pytest.raises(ValueError, match="frame 0: .* id 1 repeats"):
            eval_mot_records(frame_boxes(gt), frame_boxes(hyp))

    def test_mota_and_motp_are_python_floats(self):
        gt = [rec(0, 1, 0, 0, 10, 10), rec(1, 1, 0, 0, 10, 10)]
        hyp = [rec(0, 5, 0, 0, 10, 10), rec(1, 5, 1, 0, 11, 10)]
        for found in (hyp, []):  # one pair matched, then none
            report = eval_mot_records(frame_boxes(gt), frame_boxes(found))
            assert type(report.mota) is float and type(report.motp) is float

    @given(mot_frames(), st.sampled_from([0.0, MOT_THRESHOLD, 0.8]))
    @example(
        # the pair (0, 7) carries over the gap at frame 1; an assignment
        # alone would break the tie by the lower id and count a switch to 5
        (
            [rec(0, 0, 0, 0, 10, 10), rec(2, 0, 0, 0, 10, 10)],
            [rec(0, 7, 0, 0, 10, 10), rec(2, 7, 0, 0, 10, 10), rec(2, 5, 0, 0, 10, 10)],
        ),
        MOT_THRESHOLD,
    )
    def test_report_equals_the_record_evaluator(self, records, threshold):
        gt, hyp = records
        assume(gt)
        got = eval_mot_records(frame_boxes(gt), frame_boxes(hyp), threshold)
        want = eval_mot_objects(gt, hyp, threshold)
        counts = ("misses", "false_positives", "id_switches", "gt_count")
        assert [getattr(got, c) for c in counts] == [getattr(want, c) for c in counts]
        assert (got.mota.hex(), got.motp.hex()) == (float(want.mota).hex(), float(want.motp).hex())


class TestMotCsv:
    def test_round_trip(self, tmp_path):
        records = [rec(0, 1, 5, 6, 25, 46), rec(1, 2, 0.5, 1.5, 10.5, 21.5)]
        path = tmp_path / "gt.csv"
        write_mot_csv(frame_boxes(records), path)
        back = read_mot_csv(path)
        assert records_of(back) == records

    def test_reads_headerless_rows(self, tmp_path):
        path = tmp_path / "gt.csv"
        path.write_text("0,1,5.0,6.0,20.0,40.0\n")
        back = read_mot_csv(path)
        assert records_of(back) == [rec(0, 1, 5, 6, 25, 46)]

    def test_field_beyond_the_csv_limit_names_file_and_line(self, tmp_path):
        path = tmp_path / "gt.csv"
        path.write_text("frame,id,x_min,y_min,width,height\n" + "1" * 200_000 + ",1,5.0,6.0,20.0,40.0\n")
        with pytest.raises(InputFormatError, match="field larger than field limit") as err:
            read_mot_csv(path)
        assert err.value.path == str(path) and err.value.line == 2 and err.value.field == "frame"
        # a quoted cell that spans lines: its field is not told
        path.write_text('frame,id,x_min,y_min,width,height\n0,1,"5\n' + "1" * 200_000 + '",6.0,20.0,40.0\n')
        with pytest.raises(InputFormatError, match="field larger than field limit") as err:
            read_mot_csv(path)
        assert err.value.line == 3 and err.value.field is None

    def test_bad_cell_reports_field(self, tmp_path):
        path = tmp_path / "gt.csv"
        path.write_text("frame,id,x_min,y_min,width,height\n0,1,oops,6.0,20.0,40.0\n")
        with pytest.raises(InputFormatError) as err:
            read_mot_csv(path)
        assert "x_min" in str(err.value)

    @pytest.mark.parametrize("field, row", [("frame", "1.5,1"), ("id", "1,2.5"), ("frame", "inf,1")])
    def test_non_integer_frame_or_id_rejected(self, tmp_path, field, row):
        path = tmp_path / "gt.csv"
        path.write_text(f"0,1,5.0,6.0,20.0,40.0\n{row},5.0,6.0,20.0,40.0\n")
        with pytest.raises(InputFormatError) as err:
            read_mot_csv(path)
        assert err.value.line == 2 and err.value.field == field

    @pytest.mark.parametrize("cells", ["nan,6.0,20.0,40.0", "5.0,inf,20.0,40.0", "5.0,6.0,nan,40.0"])
    def test_non_finite_coordinate_rejected(self, tmp_path, cells):
        path = tmp_path / "gt.csv"
        path.write_text(f"0,1,5.0,6.0,20.0,40.0\n1,1,{cells}\n")
        with pytest.raises(InputFormatError) as err:
            read_mot_csv(path)
        assert str(path) in str(err.value) and err.value.line == 2

    def test_non_utf8_byte_reports_line(self, tmp_path):
        path = tmp_path / "gt.csv"
        path.write_bytes(b"0,1,5.0,6.0,20.0,40.0\n1,1,\xff\xfe,6.0,20.0,40.0\n")
        with pytest.raises(InputFormatError, match="UTF-8") as err:
            read_mot_csv(path)
        assert err.value.line == 2 and str(path) in str(err.value)

    def test_error_names_the_file_line_after_a_multi_line_field(self, tmp_path):
        # the quoted "2\n" spans lines 2 and 3, so the bad id is on line 4
        path = tmp_path / "gt.csv"
        path.write_text('frame,id,x_min,y_min,width,height\n0,1,"2\n",3,4,5\n0,x,1,1,1,1\n')
        with pytest.raises(InputFormatError) as err:
            read_mot_csv(path)
        assert err.value.line == 4 and err.value.field == "id" and "gt.csv:4" in str(err.value)

    def test_repeated_frame_and_id_rejected_only_when_unique(self, tmp_path):
        path = tmp_path / "gt.csv"
        path.write_text("0,1,5.0,6.0,20.0,40.0\n0,2,5.0,6.0,20.0,40.0\n0,1,9.0,6.0,20.0,40.0\n")
        assert records_of(read_mot_csv(path)) == [
            rec(0, 1, 5, 6, 25, 46), rec(0, 2, 5, 6, 25, 46), rec(0, 1, 9, 6, 29, 46)
        ]
        with pytest.raises(InputFormatError) as err:
            read_mot_csv(path, unique_ids=True)
        assert err.value.line == 3 and "line 1" in str(err.value)

    def test_out_of_range_id_rejected(self, tmp_path):
        path = tmp_path / "gt.csv"
        path.write_text("0,1,5.0,6.0,20.0,40.0\n0,1e19,5.0,6.0,20.0,40.0\n")
        with pytest.raises(InputFormatError) as err:
            read_mot_csv(path)
        assert err.value.line == 2 and err.value.field == "id"

    def test_overflowing_box_rejected_as_non_finite(self, tmp_path):
        path = tmp_path / "gt.csv"
        path.write_text("0,1,1e308,6.0,1e308,40.0\n")
        with pytest.raises(InputFormatError, match=r"non-finite box \(1e\+308, 6\.0, inf, 46\.0\)") as err:
            read_mot_csv(path)
        assert err.value.line == 1

    def test_writer_gives_the_record_writer_bytes(self, tmp_path):
        # frames out of order, signed zeros, huge coordinates, and a
        # frame whose id 5 repeats: equal ids keep their order
        records = [
            rec(3, 5, 1e300, -0.0, 1e300, 3.5),
            rec(3, 2, -0.0, 0.0, 0.5, 1e300),
            rec(3, 5, -1e300, -1e300, -0.0, 0.0),
            rec(1, 9, 0.1, 0.2, 0.30000000000000004, 0.7),
            rec(3, -1, 2.0, 2.0, 2.0, 2.0),
        ]
        write_mot_csv(frame_boxes(records), tmp_path / "arrays.csv")
        write_mot_objects(records, tmp_path / "records.csv")
        written = (tmp_path / "arrays.csv").read_bytes()
        assert written == (tmp_path / "records.csv").read_bytes()
        assert [line.split(b",")[:2] for line in written.splitlines()[1:]] == [
            [b"1", b"9"], [b"3", b"-1"], [b"3", b"2"], [b"3", b"5"], [b"3", b"5"]
        ]
        assert written.splitlines()[4].startswith(b"3,5,1e+300,-0.0,")

        back = read_mot_csv(tmp_path / "arrays.csv")
        assert list(back) == [1, 3] and back[3].ids.tolist() == [-1, 2, 5, 5]
        write_mot_csv(back, tmp_path / "again.csv")
        assert (tmp_path / "again.csv").read_bytes() == written

    def test_report_on_written_files_equals_the_in_process_one(self, tmp_path):
        seq = generate(ScenarioSpec(n_targets=2, n_frames=12, dropout_rate=0.5, seed=3))
        empty = [t for t, dets in seq.detections.items() if not len(dets)]
        assert empty, "the scenario must hold a frame without detections"
        tracks = run_tracker(observations(seq))
        assert sorted(tracks) == [t for t in range(12) if t not in empty]
        write_mot_csv(seq.gt, tmp_path / "gt.csv")
        write_mot_csv(tracks, tmp_path / "tracks.csv")
        on_files = eval_mot_records(read_mot_csv(tmp_path / "gt.csv"), read_mot_csv(tmp_path / "tracks.csv"))
        assert eval_mot_records(seq.gt, tracks).to_json_dict() == on_files.to_json_dict()
