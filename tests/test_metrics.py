import random

import pytest

from courttrack.errors import EmptyGroundTruth, InputFormatError
from courttrack.geometry import BBox, FrameDims, Homography
from courttrack.imaging import FrameRaster
from courttrack.metrics import (
    DetectionReport,
    GroundTruthBox,
    eval_detections,
    eval_mot_records,
    read_mot_csv,
    write_mot_csv,
)
from courttrack.track import FrameObservations, run_tracker
from tests.detections import box_det, frame_of


def rec(frame, tid, x0, y0, x1, y1):
    return GroundTruthBox(frame, tid, BBox(float(x0), float(y0), float(x1), float(y1)))


class TestEvalDetections:
    def test_perfect_detections(self):
        gt = [rec(0, 1, 0, 0, 10, 10), rec(1, 1, 5, 5, 15, 15)]
        dets = {0: [gt[0].bbox], 1: [gt[1].bbox]}
        report = eval_detections(gt, dets)
        assert (report.precision, report.recall, report.f1) == (1.0, 1.0, 1.0)

    def test_empty_detections(self):
        gt = [rec(0, 1, 0, 0, 10, 10)]
        report = eval_detections(gt, {})
        assert report.precision == 0.0
        assert report.recall == 0.0
        assert report.f1 == 0.0
        assert report.fn == 1

    def test_greedy_trace_one_gt_two_overlapping_dets(self):
        gt = [rec(0, 1, 0, 0, 10, 10)]
        strong = BBox(0.0, 2.0, 10.0, 10.0)  # IoU 0.8
        weak = BBox(0.0, 5.0, 10.0, 15.0)  # IoU 1/3
        report = eval_detections(gt, {0: [weak, strong]})
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
            dets[frame] = boxes
        report = eval_detections(gt, dets)
        assert report.tp + report.fn == len(gt)
        assert report.tp + report.fp == sum(len(b) for b in dets.values())

    def test_gt_frame_without_detections_counts_misses(self):
        gt = [rec(0, 1, 0, 0, 10, 10), rec(1, 1, 0, 0, 10, 10)]
        report = eval_detections(gt, {0: [gt[0].bbox]})
        assert report.fn == 1

    def test_f1_symmetric_under_precision_recall_swap(self):
        a = DetectionReport.from_counts(tp=6, fp=2, fn=5)
        b = DetectionReport.from_counts(tp=6, fp=5, fn=2)
        assert a.f1 == pytest.approx(b.f1, rel=1e-15)


class TestEvalMot:
    def test_perfect_tracking(self):
        gt = [rec(t, 1, 0, 0, 10, 10) for t in range(5)]
        report = eval_mot_records(gt, [rec(t, 42, 0, 0, 10, 10) for t in range(5)])
        assert report.mota == 1.0
        assert report.motp == 1.0
        assert report.id_switches == 0

    def test_single_mid_sequence_id_change(self):
        gt = [rec(t, 7, 0, 0, 10, 10) for t in range(10)]
        hyp = [rec(t, 1 if t < 5 else 2, 0, 0, 10, 10) for t in range(10)]
        report = eval_mot_records(gt, hyp)
        assert report.id_switches == 1
        assert report.mota == pytest.approx(0.9, rel=1e-12)
        assert report.motp == 1.0

    def test_two_targets_one_miss_one_spurious(self):
        gt = [rec(t, 0, 0, 0, 10, 10) for t in range(3)]
        gt += [rec(t, 1, 50, 0, 60, 10) for t in range(3)]
        hyp = [rec(t, 10, 0, 0, 10, 10) for t in range(3)]
        hyp += [rec(t, 20, 50, 0, 60, 10) for t in (0, 2)]  # missed at t=1
        hyp += [rec(1, 30, 200, 200, 210, 210)]  # spurious
        report = eval_mot_records(gt, hyp)
        assert report.misses == 1
        assert report.false_positives == 1
        assert report.id_switches == 0
        assert report.mota == pytest.approx(2.0 / 3.0, rel=1e-12)

    def test_relabeling_hypothesis_ids_changes_nothing(self):
        gt = [rec(t, 0, 0, 0, 10, 10) for t in range(6)]
        gt += [rec(t, 1, 40, 0, 50, 10) for t in range(6)]
        hyp = [rec(t, 5, 0, 0, 10, 10) for t in range(6)]
        hyp += [rec(t, 6, 40, 0, 50, 10) for t in range(6)]
        base = eval_mot_records(gt, hyp)
        relabeled = [GroundTruthBox(h.frame, h.id + 100, h.bbox) for h in hyp]
        again = eval_mot_records(gt, relabeled)
        assert (base.mota, base.motp, base.id_switches) == (
            again.mota,
            again.motp,
            again.id_switches,
        )

    def test_spurious_box_costs_exactly_one_over_gt(self):
        gt = [rec(t, 0, 0, 0, 10, 10) for t in range(8)]
        hyp = [rec(t, 3, 0, 0, 10, 10) for t in range(8)]
        base = eval_mot_records(gt, hyp)
        noisy = hyp + [rec(4, 9, 300, 300, 310, 310)]
        degraded = eval_mot_records(gt, noisy)
        assert base.mota - degraded.mota == pytest.approx(1.0 / len(gt), abs=1e-12)
        assert degraded.motp == base.motp

    @pytest.mark.parametrize("threshold", [1.0, 1.5, -1.0, float("nan")])
    def test_iou_threshold_outside_unit_interval_rejected(self, threshold):
        gt = [rec(0, 1, 0, 0, 10, 10)]
        with pytest.raises(ValueError, match="IoU threshold"):
            eval_mot_records(gt, gt, threshold)

    def test_zero_iou_threshold_accepted(self):
        gt = [rec(0, 1, 0, 0, 10, 10)]
        assert eval_mot_records(gt, gt, 0.0).mota == 1.0

    def test_empty_ground_truth_rejected(self):
        with pytest.raises(EmptyGroundTruth):
            eval_mot_records([], [rec(0, 1, 0, 0, 5, 5)])

    def test_accepts_tracker_rows(self):
        dims = FrameDims(200, 200)
        gray = FrameRaster.filled(dims, (90, 90, 90))
        frames = [
            FrameObservations(frame_of(box_det(50.0, 50.0, 70.0, 90.0)), Homography.identity(), gray)
            for _ in range(4)
        ]
        gt = [rec(t, 0, 50, 50, 70, 90) for t in range(4)]
        report = eval_mot_records(gt, run_tracker(frames))
        assert report.mota == 1.0
        assert report.motp == 1.0


class TestMotCsv:
    def test_round_trip(self, tmp_path):
        records = [rec(0, 1, 5, 6, 25, 46), rec(1, 2, 0.5, 1.5, 10.5, 21.5)]
        path = tmp_path / "gt.csv"
        write_mot_csv(records, path)
        back = read_mot_csv(path)
        assert back == records

    def test_reads_headerless_rows(self, tmp_path):
        path = tmp_path / "gt.csv"
        path.write_text("0,1,5.0,6.0,20.0,40.0\n")
        back = read_mot_csv(path)
        assert back == [rec(0, 1, 5, 6, 25, 46)]

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
        assert len(read_mot_csv(path)) == 3
        with pytest.raises(InputFormatError) as err:
            read_mot_csv(path, unique_ids=True)
        assert err.value.line == 3 and "line 1" in str(err.value)
