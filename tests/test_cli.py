import hashlib
import json
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import courttrack
from courttrack.cli import (
    SETTINGS,
    _build_parser,
    _rows_between,
    main,
    read_homographies_json,
    resolve_settings,
    scenario_spec,
)
from courttrack.geometry import FrameDims, Line2
from courttrack.imaging import BinaryMask, FrameRaster, write_pgm, write_ppm
from courttrack.metrics import read_mot_csv
from courttrack.synth import ScenarioSpec


def run(capsys, *argv) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def synth_args(outdir, **kw):
    args = [
        "synth",
        "--out",
        str(outdir),
        "--targets",
        str(kw.get("targets", 3)),
        "--num-frames",
        str(kw.get("frames", 6)),
        "--width",
        str(kw.get("width", 320)),
        "--height",
        str(kw.get("height", 180)),
        "--seed",
        str(kw.get("seed", 1)),
    ]
    if "pan" in kw:
        args += ["--pan", kw["pan"]]
    if "extra_dropout" in kw:
        args += ["--extra-dropout", str(kw["extra_dropout"])]
    return args


def track_args(scen, out, memory=2):
    return [
        "track",
        "--frames",
        str(Path(scen) / "frames"),
        "--detections",
        str(Path(scen) / "detections.jsonl"),
        "--homographies",
        str(Path(scen) / "homographies.json"),
        "--out",
        str(out),
        "--memory",
        str(memory),
    ]


class TestSynthTrackEvalRoundTrip:
    def test_clean_scenario_reaches_perfect_mota(self, tmp_path, capsys):
        scen = tmp_path / "scen"
        assert run(capsys, *synth_args(scen, pan="2,0"))[0] == 0
        assert (scen / "gt.csv").exists()
        assert (scen / "frames" / "frame_000000.ppm").exists()

        tracks_csv = tmp_path / "tracks.csv"
        assert run(capsys, *track_args(scen, tracks_csv))[0] == 0

        code, out, _ = run(
            capsys,
            "eval",
            "--mode",
            "mot",
            "--gt",
            str(scen / "gt.csv"),
            "--hyp",
            str(tracks_csv),
        )
        assert code == 0
        report = json.loads(out)
        assert report["mota"] == 1.0
        assert report["id_switches"] == 0
        assert report["motp"] >= 0.999

    def test_tracks_equal_gt_up_to_relabeling(self, tmp_path, capsys):
        scen = tmp_path / "scen"
        run(capsys, *synth_args(scen))
        tracks_csv = tmp_path / "tracks.csv"
        run(capsys, *track_args(scen, tracks_csv))
        gt = read_mot_csv(scen / "gt.csv")
        hyp = read_mot_csv(tracks_csv)
        strip = lambda recs: sorted(
            (r.frame, r.bbox.x_min, r.bbox.y_min, r.bbox.x_max, r.bbox.y_max) for r in recs
        )
        assert strip(hyp) == strip(gt)


class TestTrackCommand:
    def test_missing_homography_file_fails(self, tmp_path, capsys):
        scen = tmp_path / "scen"
        run(capsys, *synth_args(scen))
        code, _, err = run(
            capsys,
            "track",
            "--frames",
            str(scen / "frames"),
            "--detections",
            str(scen / "detections.jsonl"),
            "--homographies",
            str(scen / "nope.json"),
            "--out",
            str(tmp_path / "t.csv"),
        )
        assert code == 1
        assert "nope.json" in err

    def test_frame_of_other_size_fails_naming_it(self, tmp_path, capsys):
        scen = tmp_path / "scen"
        run(capsys, *synth_args(scen, width=320, height=200))
        odd = scen / "frames" / "frame_000002.ppm"
        write_ppm(FrameRaster.filled(FrameDims(160, 100), (0, 0, 0)), odd)
        out_csv = tmp_path / "t.csv"
        code, _, err = run(capsys, *track_args(scen, out_csv))
        assert code == 1
        assert "frame_000002.ppm" in err
        assert "160x100" in err and "320x200" in err
        assert not out_csv.exists()

    def test_peak_memory_does_not_grow_with_frame_count(self, tmp_path, capsys):
        # frames are decoded one at a time, so 40 frames peak near what 10 do
        peaks = {}
        for n in (10, 40):
            scen = tmp_path / f"scen{n}"
            spec = synth_args(scen, targets=6, frames=n, width=640, height=360)
            assert run(capsys, *spec)[0] == 0
            tracemalloc.start()
            try:
                code = main(track_args(scen, tmp_path / f"tracks{n}.csv"))
                peaks[n] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert code == 0
        assert peaks[40] / peaks[10] < 1.5

    def test_empty_detections_writes_header_only(self, tmp_path, capsys):
        scen = tmp_path / "scen"
        run(capsys, *synth_args(scen))
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        out_csv = tmp_path / "t.csv"
        code, _, _ = run(
            capsys,
            "track",
            "--frames",
            str(scen / "frames"),
            "--detections",
            str(empty),
            "--homographies",
            str(scen / "homographies.json"),
            "--out",
            str(out_csv),
        )
        assert code == 0
        assert out_csv.read_text().splitlines() == ["frame,id,x_min,y_min,width,height"]

    def test_missing_homography_entry_warns_and_assumes_identity(self, tmp_path, capsys):
        scen = tmp_path / "scen"
        run(capsys, *synth_args(scen))
        payload = json.loads((scen / "homographies.json").read_text())
        (scen / "homographies.json").write_text(json.dumps(payload[:-1]))
        code, _, err = run(capsys, *track_args(scen, tmp_path / "t.csv"))
        assert code == 0
        assert "warning" in err
        assert "identity" in err


    @pytest.mark.parametrize("frame", [-1, 6])
    def test_homography_frame_outside_frames_fails(self, tmp_path, capsys, frame):
        scen = tmp_path / "scen"
        run(capsys, *synth_args(scen, frames=6))
        payload = json.loads((scen / "homographies.json").read_text())
        payload.append({"frame": frame, "h": [1, 0, 0, 0, 1, 0, 0, 0, 1]})
        (scen / "homographies.json").write_text(json.dumps(payload))
        code, _, err = run(capsys, *track_args(scen, tmp_path / "t.csv"))
        assert code == 1
        assert "homographies.json" in err and f"[{frame}]" in err

    @pytest.mark.parametrize("frame", [1.5, True, "1"])
    def test_non_integer_homography_frame_fails(self, tmp_path, capsys, frame):
        scen = tmp_path / "scen"
        run(capsys, *synth_args(scen))
        payload = json.loads((scen / "homographies.json").read_text())
        payload[1]["frame"] = frame
        (scen / "homographies.json").write_text(json.dumps(payload))
        code, _, err = run(capsys, *track_args(scen, tmp_path / "t.csv"))
        assert code == 1
        assert "homographies.json" in err and "'frame'" in err and "entry 1" in err

    @pytest.mark.parametrize(
        "h",
        [
            ["1", 0, 0, 0, 1, 0, 0, 0, 1],
            [True, 0, 0, 0, 1, 0, 0, 0, 1],
            [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
        ],
    )
    def test_homography_entries_must_be_nine_numbers(self, tmp_path, capsys, h):
        scen = tmp_path / "scen"
        run(capsys, *synth_args(scen))
        payload = json.loads((scen / "homographies.json").read_text())
        payload[1]["h"] = h
        (scen / "homographies.json").write_text(json.dumps(payload))
        code, _, err = run(capsys, *track_args(scen, tmp_path / "t.csv"))
        assert code == 1
        assert "homographies.json" in err and "'h'" in err and "entry 1" in err

    @pytest.mark.parametrize("field, value", [("x", "12"), ("y", False), ("c", True)])
    def test_non_number_keypoint_fails_naming_its_line(self, tmp_path, capsys, field, value):
        scen = tmp_path / "scen"
        run(capsys, *synth_args(scen))
        lines = (scen / "detections.jsonl").read_text().splitlines()
        bad = json.loads(lines[1])
        bad["keypoints"][0][field] = value
        lines[1] = json.dumps(bad)
        (scen / "detections.jsonl").write_text("\n".join(lines) + "\n")
        code, _, err = run(capsys, *track_args(scen, tmp_path / "t.csv"))
        assert code == 1
        assert f"detections.jsonl:2 (field '{field}')" in err

    def test_overflowing_keypoint_span_fails_naming_its_line(self, tmp_path, capsys):
        # finite keypoints whose box is too wide for its width to be a float
        scen = tmp_path / "scen"
        run(capsys, *synth_args(scen))
        lines = (scen / "detections.jsonl").read_text().splitlines()
        bad = json.loads(lines[1])
        bad["keypoints"] = [
            {"part": 0, "x": 1e308, "y": -1e308, "c": 0.9},
            {"part": 1, "x": -1e308, "y": 1e308, "c": 0.9},
        ]
        lines[1] = json.dumps(bad)
        (scen / "detections.jsonl").write_text("\n".join(lines) + "\n")
        out_csv = tmp_path / "t.csv"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, _, err = run(capsys, *track_args(scen, out_csv))
        assert code == 1
        assert "detections.jsonl:2 (field 'keypoints'): keypoint span" in err and "is not finite" in err
        assert caught == []
        assert not out_csv.exists()

    def test_homography_integer_beyond_digit_limit_names_file(self, tmp_path):
        from courttrack.errors import InputFormatError

        path = tmp_path / "homographies.json"
        h = ["1" * 5000] + ["0"] * 3 + ["1"] + ["0"] * 3 + ["1"]
        path.write_text('[{"frame": 0, "h": [' + ", ".join(h) + "]}]")
        with pytest.raises(InputFormatError) as err:
            read_homographies_json(path)
        assert str(path) in str(err.value)

    def test_deeply_nested_homographies_fail_naming_the_file(self, tmp_path, capsys):
        scen = tmp_path / "scen"
        run(capsys, *synth_args(scen))
        (scen / "homographies.json").write_text("[" * 100000 + "]" * 100000)
        code, _, err = run(capsys, *track_args(scen, tmp_path / "t.csv"))
        assert code == 1
        assert "homographies.json" in err and "invalid JSON" in err

    def test_deeply_nested_keypoints_fail_naming_their_line(self, tmp_path, capsys):
        scen = tmp_path / "scen"
        run(capsys, *synth_args(scen))
        lines = (scen / "detections.jsonl").read_text().splitlines()
        lines[1] = '{"frame": 1, "keypoints": ' + "[" * 100000 + "]" * 100000 + "}"
        (scen / "detections.jsonl").write_text("\n".join(lines) + "\n")
        code, _, err = run(capsys, *track_args(scen, tmp_path / "t.csv"))
        assert code == 1
        assert "detections.jsonl:2" in err and "invalid JSON" in err

    def test_repeated_homography_frame_fails(self, tmp_path, capsys):
        scen = tmp_path / "scen"
        run(capsys, *synth_args(scen))
        payload = json.loads((scen / "homographies.json").read_text())
        (scen / "homographies.json").write_text(json.dumps(payload + payload[:1]))
        code, _, err = run(capsys, *track_args(scen, tmp_path / "t.csv"))
        assert code == 1
        assert "homographies.json" in err and "frame 0 repeats" in err

    def test_projection_to_infinity_fails_naming_file_frame_and_point(self, tmp_path, capsys):
        # frame 1's homography sends x = 100 to the line at infinity
        scen = tmp_path / "scen"
        (scen / "frames").mkdir(parents=True)
        frame = FrameRaster.filled(FrameDims(200, 100), (50, 60, 70))
        keypoints = [{"part": 0, "x": 100.0, "y": 40.0, "c": 0.9}, {"part": 1, "x": 100.0, "y": 60.0, "c": 0.9}]
        lines = []
        for t in range(2):
            write_ppm(frame, scen / "frames" / f"frame_{t:06d}.ppm")
            lines.append(json.dumps({"frame": t, "keypoints": keypoints, "stage": "external"}) + "\n")
        (scen / "detections.jsonl").write_text("".join(lines))
        h = [[1, 0, 0, 0, 1, 0, 0, 0, 1], [1, 0, 0, 0, 1, 0, -0.01, 0, 1]]
        (scen / "homographies.json").write_text(json.dumps([{"frame": t, "h": h[t]} for t in range(2)]))
        out_csv = tmp_path / "t.csv"
        code, _, err = run(capsys, *track_args(scen, out_csv))
        assert code == 1
        assert "homographies.json" in err and "frame 1" in err
        assert "point (100.0, 50.0) maps to the line at infinity" in err
        assert not out_csv.exists()

    def test_nan_gate_fails(self, tmp_path, capsys):
        scen = tmp_path / "scen"
        run(capsys, *synth_args(scen))
        out_csv = tmp_path / "t.csv"
        code, _, err = run(capsys, *track_args(scen, out_csv), "--gate", "nan")
        assert code == 1
        assert "gate" in err
        assert not out_csv.exists()

    @pytest.mark.parametrize(
        "flags, name",
        [
            (["--memory", "3"], "memory"),
            (["--memory", "0"], "memory"),
            (["--patch", "0"], "patch"),
            (["--gate", "0"], "gate"),
            (["--gate", "-1"], "gate"),
            (["--alpha", "1.5"], "alpha"),
            (["--beta", "-0.1"], "beta"),
            (["--alpha", "0.7", "--beta", "0.5"], "alpha/beta"),
        ],
    )
    def test_out_of_range_track_setting_is_input_error(self, tmp_path, capsys, flags, name):
        scen = tmp_path / "scen"
        run(capsys, *synth_args(scen))
        out_csv = tmp_path / "t.csv"
        code, _, err = run(capsys, *track_args(scen, out_csv), *flags)
        assert code == 1
        assert f"{name}:" in err
        assert not out_csv.exists()

        config = tmp_path / "run.cfg"
        config.write_text("".join(f"{k[2:]}={v}\n" for k, v in zip(flags[::2], flags[1::2])))
        argv = track_args(scen, out_csv)[:-2]  # without "--memory 2", which would beat the file
        code, _, err = run(capsys, *argv, "--config", str(config))
        assert code == 1
        if name == "alpha/beta":  # the joint bound is the command's and names no line
            assert "alpha/beta: gamma = 1 - (alpha + beta) must be >= 0" in err
        else:
            value = SETTINGS[name].kind(flags[1])
            assert f"run.cfg:1 (field '{name}'): {SETTINGS[name].need}, got {value}" in err
        assert not out_csv.exists()


class TestEvalCommand:
    def test_detection_fixture(self, tmp_path, capsys):
        gt = tmp_path / "gt.csv"
        gt.write_text("0,1,0.0,0.0,10.0,10.0\n")
        hyp = tmp_path / "hyp.csv"
        hyp.write_text("0,1,0.0,2.0,10.0,8.0\n0,2,0.0,5.0,10.0,10.0\n")
        code, out, _ = run(
            capsys, "eval", "--mode", "det", "--gt", str(gt), "--hyp", str(hyp)
        )
        assert code == 0
        report = json.loads(out)
        assert (report["tp"], report["fp"], report["fn"]) == (1, 1, 0)

    @pytest.mark.parametrize("dropout", [None, "0.3"])
    def test_detection_f1_of_synth_detections_jsonl(self, tmp_path, capsys, dropout):
        scen = tmp_path / "scen"
        extra = [] if dropout is None else ["--dropout", dropout, "--jitter", "1.5"]
        synth = synth_args(scen, targets=5, frames=8, pan="2,1", seed=4)
        assert run(capsys, *synth, *extra)[0] == 0
        hyp = scen / "detections.jsonl"
        code, out, _ = run(capsys, "eval", "--mode", "det", "--gt", str(scen / "gt.csv"), "--hyp", str(hyp))
        assert code == 0
        report = json.loads(out)
        lines = len(hyp.read_text().splitlines())
        if dropout is None:
            assert report["f1"] == 1.0 and report["tp"] == lines
        else:
            # every planted detection matches its target; dropped ones are misses
            assert report["fp"] == 0 and report["tp"] == lines and report["fn"] > 0

    def test_identical_gt_and_hyp(self, tmp_path, capsys):
        gt = tmp_path / "gt.csv"
        gt.write_text("0,1,0.0,0.0,10.0,10.0\n1,1,0.0,0.0,10.0,10.0\n")
        code, out, _ = run(
            capsys, "eval", "--mode", "mot", "--gt", str(gt), "--hyp", str(gt)
        )
        assert code == 0
        report = json.loads(out)
        assert report["mota"] == 1.0
        assert report["motp"] == 1.0

    def test_empty_ground_truth_fails(self, tmp_path, capsys):
        gt = tmp_path / "gt.csv"
        gt.write_text("")
        hyp = tmp_path / "hyp.csv"
        hyp.write_text("0,1,0.0,0.0,10.0,10.0\n")
        code, _, err = run(
            capsys, "eval", "--mode", "mot", "--gt", str(gt), "--hyp", str(hyp)
        )
        assert code == 1
        assert "ground-truth" in err

    def test_memory_ablation_ordering(self, tmp_path, capsys):
        scen = tmp_path / "scen"
        run(
            capsys,
            *synth_args(scen, targets=6, frames=30, width=640, height=360, seed=3, extra_dropout=0.12),
        )
        motas = {}
        for memory in (1, 2):
            tracks_csv = tmp_path / f"tracks_{memory}.csv"
            assert run(capsys, *track_args(scen, tracks_csv, memory=memory))[0] == 0
            code, out, _ = run(
                capsys,
                "eval",
                "--mode",
                "mot",
                "--gt",
                str(scen / "gt.csv"),
                "--hyp",
                str(tracks_csv),
            )
            assert code == 0
            motas[memory] = json.loads(out)
        assert motas[2]["mota"] > motas[1]["mota"]
        assert motas[2]["id_switches"] < motas[1]["id_switches"]


    @pytest.mark.parametrize("repeated", ["gt", "hyp"])
    def test_repeated_mot_row_fails_naming_its_line(self, tmp_path, capsys, repeated):
        row = "0,1,0.0,0.0,10.0,10.0\n"
        files = {"gt": tmp_path / "gt.csv", "hyp": tmp_path / "hyp.csv"}
        for name, path in files.items():
            path.write_text(row + "1,1,0.0,0.0,10.0,10.0\n" + (row if name == repeated else ""))
        code, _, err = run(
            capsys, "eval", "--mode", "mot", "--gt", str(files["gt"]), "--hyp", str(files["hyp"])
        )
        assert code == 1
        assert f"{repeated}.csv:3" in err

    @pytest.mark.parametrize("threshold", ["1.5", "-1", "nan"])
    def test_mot_iou_outside_unit_interval_fails(self, tmp_path, capsys, threshold):
        gt = tmp_path / "gt.csv"
        gt.write_text("0,1,0.0,0.0,10.0,10.0\n1,1,0.0,0.0,10.0,10.0\n")
        code, out, err = run(
            capsys, "eval", "--mode", "mot", "--gt", str(gt), "--hyp", str(gt), "--mot-iou", threshold
        )
        assert code == 1
        assert out == ""
        assert "mot_iou: must lie in [0, 1)" in err

    def test_det_mode_accepts_repeated_ids(self, tmp_path, capsys):
        gt = tmp_path / "gt.csv"
        gt.write_text("0,-1,0.0,0.0,10.0,10.0\n0,-1,50.0,50.0,10.0,10.0\n")
        hyp = tmp_path / "hyp.csv"
        hyp.write_text("0,-1,0.0,0.0,10.0,10.0\n0,-1,90.0,90.0,10.0,10.0\n")
        code, out, _ = run(capsys, "eval", "--mode", "det", "--gt", str(gt), "--hyp", str(hyp))
        assert code == 0
        report = json.loads(out)
        assert (report["tp"], report["fp"], report["fn"]) == (1, 1, 1)


class TestCourtCommand:
    @staticmethod
    def planted_nba_args(tmp_path, out_json):
        bits = np.random.default_rng(0).random((400, 192)) < 0.04
        bits[:80] = True
        bits[320:] = True
        write_pgm(BinaryMask(bits), tmp_path / "mask.pgm")
        (tmp_path / "segments.csv").write_text("0,200,191,200\n")
        return [
            "court",
            "--court",
            "nba",
            "--segments",
            str(tmp_path / "segments.csv"),
            "--mask",
            str(tmp_path / "mask.pgm"),
            "--out",
            str(out_json),
        ]

    def test_nba_planted_mask(self, tmp_path, capsys):
        out_json = tmp_path / "court.json"
        code, out, _ = run(capsys, *self.planted_nba_args(tmp_path, out_json))
        assert code == 0
        payload = json.loads(out_json.read_text())
        a, b, c = payload["top"]
        assert abs(-c / b - 80.0) <= 4.0
        a, b, c = payload["bottom"]
        assert abs(abs(c / b) - 320.0) <= 4.0
        assert payload["left"] is None and payload["right"] is None

    @pytest.mark.parametrize("candidates", ["0", "-1"])
    def test_candidates_below_one_is_input_error(self, tmp_path, capsys, candidates):
        out_json = tmp_path / "court.json"
        argv = self.planted_nba_args(tmp_path, out_json) + ["--candidates", candidates]
        code, _, err = run(capsys, *argv)
        assert code == 1
        assert "candidates" in err
        assert not out_json.exists()

    @pytest.mark.parametrize(
        "flag, value, name",
        [
            ("--step", "nan", "step"),
            ("--step", "inf", "step"),
            ("--step", "0.5", "step"),
            ("--drop-tol", "nan", "drop_tol"),
            ("--drop-tol", "-1", "drop_tol"),
            ("--drop-tol", "1", "drop_tol"),
        ],
    )
    def test_out_of_range_nba_setting_is_input_error(self, tmp_path, capsys, flag, value, name):
        out_json = tmp_path / "court.json"
        argv = self.planted_nba_args(tmp_path, out_json) + [flag, value]
        code, _, err = run(capsys, *argv)
        assert code == 1
        assert name in err
        assert not out_json.exists()

    @staticmethod
    def planted_european_args(tmp_path):
        arr = np.empty((100, 100, 3), dtype=np.uint8)
        arr[:30] = (40, 180, 60)
        arr[30:] = (120, 120, 130)
        write_ppm(FrameRaster(arr), tmp_path / "frame.ppm")
        (tmp_path / "segments.csv").write_text("0,30,99,30\n10,10,40,10\n10,60,30,60\n")
        return [
            "court",
            "--court",
            "european",
            "--segments",
            str(tmp_path / "segments.csv"),
            "--frames",
            str(tmp_path / "frame.ppm"),
        ]

    @pytest.mark.parametrize("hsv", ["nan:150,0.4:1,0.2:1", "90:150,nan:1,0.2:1", "90:inf,0.4:1,0.2:1"])
    def test_non_finite_hsv_bound_is_input_error(self, tmp_path, capsys, hsv):
        code, out, err = run(capsys, *self.planted_european_args(tmp_path), "--hsv", hsv)
        assert code == 1 and not out
        assert "--hsv" in err

        config = tmp_path / "run.cfg"
        config.write_text(f"hsv={hsv}\n")
        code, out, err = run(
            capsys, *self.planted_european_args(tmp_path), "--config", str(config)
        )
        assert code == 1 and not out
        assert "run.cfg:1" in err and "hsv" in err

    @pytest.mark.parametrize("hsv", ["400:500,0.4:1,0.2:1", "0:360,0:1,0:1"])
    def test_filter_matching_no_or_every_pixel_is_degenerate(self, tmp_path, capsys, hsv):
        # hue never exceeds 360, and the full ranges hold every colour
        out_json = tmp_path / "court.json"
        argv = self.planted_european_args(tmp_path) + ["--hsv", hsv, "--out", str(out_json)]
        code, out, err = run(capsys, *argv)
        assert code == 2 and not out
        assert "HSV filter" in err
        assert not out_json.exists()

    def test_european_planted_frame(self, tmp_path, capsys):
        code, out, _ = run(
            capsys, *self.planted_european_args(tmp_path), "--hsv", "90:150,0.4:1,0.2:1"
        )
        assert code == 0
        payload = json.loads(out)
        a, b, c = payload["top"]
        assert abs(-c / b - 30.0) < 1e-6

    @pytest.mark.parametrize(
        "court_cols, side_x, side", [((0, 70), 70.0, "right"), ((30, 100), 30.0, "left")]
    )
    def test_european_side_follows_mid_height_crossing(
        self, tmp_path, capsys, court_cols, side_x, side
    ):
        # green court below row 30 and between court_cols; the strongest
        # vertical candidate is the court's edge at side_x
        arr = np.full((100, 100, 3), (120, 120, 130), dtype=np.uint8)
        arr[30:, court_cols[0] : court_cols[1]] = (40, 180, 60)
        write_ppm(FrameRaster(arr), tmp_path / "frame.ppm")
        (tmp_path / "segments.csv").write_text(
            f"0,30,99,30\n{side_x},0,{side_x},99\n50,0,50,60\n"
        )
        code, out, _ = run(
            capsys,
            "court",
            "--court",
            "european",
            "--segments",
            str(tmp_path / "segments.csv"),
            "--frames",
            str(tmp_path / "frame.ppm"),
            "--hsv",
            "90:150,0.4:1,0.2:1",
        )
        assert code == 0
        payload = json.loads(out)
        other = "left" if side == "right" else "right"
        assert payload[other] is None
        a, b, c = payload[side]
        assert abs(-c / a - side_x) < 1e-6

    def variant_args(self, tmp_path, variant, out_json):
        """A court run of `variant` on its planted input that exits 0."""
        if variant == "nba":
            return self.planted_nba_args(tmp_path, out_json)
        return self.planted_european_args(tmp_path) + ["--hsv", "90:150,0.4:1,0.2:1", "--out", str(out_json)]

    @pytest.mark.parametrize(
        "variant, flag, value",
        [
            ("european", "--mask", "mask.pgm"),
            ("european", "--step", "7"),
            ("european", "--drop-tol", "0.2"),
            ("nba", "--frames", "frame.ppm"),
            ("nba", "--hsv", "90:150,0.4:1,0.2:1"),
        ],
    )
    def test_other_variant_flag_rejected(self, tmp_path, capsys, variant, flag, value):
        out_json = tmp_path / "court.json"
        code, out, err = run(capsys, *self.variant_args(tmp_path, variant, out_json), flag, value)
        assert code == 1 and not out
        assert flag.lstrip("-").replace("-", "_") in err and f"--court {variant}" in err
        assert not out_json.exists()

    @pytest.mark.parametrize("variant, key", [("european", "drop_tol=0.2"), ("nba", "frames=frame.ppm")])
    def test_other_variant_config_key_rejected(self, tmp_path, capsys, variant, key):
        out_json = tmp_path / "court.json"
        config = tmp_path / "run.cfg"
        config.write_text(f"candidates=4\n{key}\n")
        argv = self.variant_args(tmp_path, variant, out_json) + ["--config", str(config)]
        code, out, err = run(capsys, *argv)
        assert code == 1 and not out
        assert "run.cfg:2" in err and key.partition("=")[0] in err
        assert not out_json.exists()

    @pytest.mark.parametrize("variant, dropped", [("european", "--hsv"), ("european", "--frames"), ("nba", "--mask")])
    @pytest.mark.parametrize("variant_in_config", [False, True])
    def test_variant_setting_required(self, tmp_path, capsys, variant, dropped, variant_in_config):
        out_json = tmp_path / "court.json"
        argv = self.variant_args(tmp_path, variant, out_json)
        at = argv.index(dropped)
        del argv[at : at + 2]
        if variant_in_config:
            config = tmp_path / "run.cfg"
            config.write_text(f"court={variant}\n")
            at = argv.index("--court")
            argv[at : at + 2] = ["--config", str(config)]
        code, out, err = run(capsys, *argv)
        assert code == 1 and not out
        assert dropped.lstrip("-") in err and f"--court {variant}" in err
        assert not out_json.exists()

    def test_no_segments_is_input_error(self, tmp_path, capsys):
        (tmp_path / "segments.csv").write_text("")
        bits = np.ones((50, 50), dtype=bool)
        write_pgm(BinaryMask(bits), tmp_path / "mask.pgm")
        code, _, err = run(
            capsys,
            "court",
            "--court",
            "nba",
            "--segments",
            str(tmp_path / "segments.csv"),
            "--mask",
            str(tmp_path / "mask.pgm"),
        )
        assert code == 1

    def test_segment_shorter_than_line_tolerance_is_input_error(self, tmp_path, capsys):
        # 1e-13 is a nonzero length, but too short to define a line
        out_json = tmp_path / "court.json"
        argv = self.planted_nba_args(tmp_path, out_json)
        (tmp_path / "segments.csv").write_text("0,0,1e-13,0\n")
        code, out, err = run(capsys, *argv)
        assert code == 1 and not out
        assert "segments.csv:1" in err and "coincide" in err
        assert not out_json.exists()

    def test_overflowing_segment_line_is_input_error(self, tmp_path, capsys):
        # finite endpoints 2e308 apart: the length is inf and the line NaN
        out_json = tmp_path / "court.json"
        argv = self.planted_nba_args(tmp_path, out_json)
        (tmp_path / "segments.csv").write_text("0,200,191,200\n1e308,0,-1e308,0\n")
        code, out, err = run(capsys, *argv)
        assert code == 1 and not out
        assert "segments.csv:2" in err and "not finite" in err
        assert not out_json.exists()

    def test_segment_too_long_to_fit_is_input_error(self, tmp_path, capsys):
        # finite endpoints, length and line, but an endpoint beyond the bound:
        # the length cubed would overflow, fit a NaN line and rank it first
        out_json = tmp_path / "court.json"
        argv = self.planted_nba_args(tmp_path, out_json)
        (tmp_path / "segments.csv").write_text("0,200,191,200\n0,0,1e103,0\n")
        code, out, err = run(capsys, *argv)
        assert code == 1 and not out
        assert "segments.csv:2 (field 'x1'): segment endpoint 1e+103 not finite or beyond 1e+75" in err
        assert not out_json.exists()

    def test_far_apart_segments_of_one_cell_are_input_error(self, tmp_path, capsys):
        # each row's length cubed is finite, but the two far-apart diagonal
        # rows share a cell, and their distances to the cell's mean would
        # overflow the fit's moments into a NaN line
        out_json = tmp_path / "court.json"
        argv = self.planted_nba_args(tmp_path, out_json)
        (tmp_path / "segments.csv").write_text(
            "0,200,191,200\n0,0,1e100,1e100\n1e115,1e115,1.00000000000001e115,1.00000000000001e115\n"
        )
        code, out, err = run(capsys, *argv)
        assert code == 1 and not out
        assert "segments.csv:2 (field 'x1')" in err and "beyond 1e+75" in err
        assert not out_json.exists()

    def test_band_edge_just_above_row_zero_keeps_row_zero(self):
        dims = FrameDims(100, 50)
        top, bottom = Line2.horizontal_at(-0.5), Line2.horizontal_at(20.5)
        assert _rows_between(top, bottom, dims) == (0, 21)
        assert _rows_between(Line2.horizontal_at(3.0), bottom, dims) == (4, 21)

    def test_all_false_mask_is_degenerate(self, tmp_path, capsys):
        bits = np.zeros((200, 100), dtype=bool)
        write_pgm(BinaryMask(bits), tmp_path / "mask.pgm")
        (tmp_path / "segments.csv").write_text("0,100,99,100\n")
        code, _, err = run(
            capsys,
            "court",
            "--court",
            "nba",
            "--segments",
            str(tmp_path / "segments.csv"),
            "--mask",
            str(tmp_path / "mask.pgm"),
        )
        assert code == 2


class TestSynthCommand:
    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--jitter", "nan"),
            ("--jitter", "inf"),
            ("--jitter", "1e308"),
            ("--pan", "nan,0"),
            ("--extra-dropout", "-0.5"),
            ("--extra-dropout", "nan"),
        ],
    )
    def test_out_of_range_noise_fails(self, tmp_path, capsys, flag, value):
        scen = tmp_path / "scen"
        code, _, err = run(capsys, *synth_args(scen), flag, value)
        assert code == 1
        assert flag.lstrip("-").replace("-", "_") in err
        assert not scen.exists()

    def test_defaults_are_the_default_scenario(self, tmp_path):
        args = _build_parser().parse_args(["synth", "--out", str(tmp_path / "scen")])
        resolve_settings(args)
        assert scenario_spec(args) == ScenarioSpec()

    def test_directory_with_frames_fails_before_writing(self, tmp_path, capsys):
        scen = tmp_path / "scen"
        assert run(capsys, *synth_args(scen, frames=10))[0] == 0
        before = {p: p.read_bytes() for p in scen.rglob("*") if p.is_file()}
        code, _, err = run(capsys, *synth_args(scen, frames=5, seed=2))
        assert code == 1
        assert str(scen / "frames") in err
        assert {p: p.read_bytes() for p in scen.rglob("*") if p.is_file()} == before


class TestDeterminism:
    def test_synth_twice_byte_identical(self, tmp_path, capsys):
        a, b = tmp_path / "a", tmp_path / "b"
        run(capsys, *synth_args(a, seed=7, pan="1,0"))
        run(capsys, *synth_args(b, seed=7, pan="1,0"))
        files_a = sorted(p.relative_to(a) for p in a.rglob("*") if p.is_file())
        files_b = sorted(p.relative_to(b) for p in b.rglob("*") if p.is_file())
        assert files_a == files_b
        for rel in files_a:
            assert (a / rel).read_bytes() == (b / rel).read_bytes()

    def test_track_twice_byte_identical(self, tmp_path, capsys):
        scen = tmp_path / "scen"
        run(capsys, *synth_args(scen, seed=9))
        out1, out2 = tmp_path / "t1.csv", tmp_path / "t2.csv"
        run(capsys, *track_args(scen, out1))
        run(capsys, *track_args(scen, out2))
        assert out1.read_bytes() == out2.read_bytes()


    # a change to these bytes must be stated and justified, like the benchmark's golden pins
    @pytest.mark.parametrize(
        "flag, value, digest",
        [
            ("--memory", "1", "a395ee3482a5cbb68332aa362a124c6e4bff02f7bf35d5176a4089bbf7c497f5"),
            ("--gate", "0.4", "cb3b3030cc00fa530681fc218584273d2a6eef3531281fb8da91553eb5bb18e3"),
            ("--gate", "inf", "57a9a86200e668f221243163de7f662dea90451d939276bdfd13c978db30c623"),
            ("--patch", "3", "820f6f27bf992224f8bcb48d9c2ec164680cce36866760f6db57fc4554ef354d"),
        ],
    )
    def test_non_default_settings_keep_pinned_bytes(self, tmp_path, capsys, flag, value, digest):
        scen, out = tmp_path / "scen", tmp_path / "tracks.csv"
        synth = synth_args(scen, targets=12, frames=16, width=240, height=135, seed=3, pan="3,1")
        assert run(capsys, *synth, "--jitter", "20", "--dropout", "0.3")[0] == 0
        assert run(capsys, *track_args(scen, out), flag, value)[0] == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    @pytest.mark.parametrize(
        "seed, digest",
        [
            (1, "fa42dc523d48a300b0e2a3ea1113087b440c0e9f2b2d9169d3f20dfb84f4a30d"),
            (5, "186210fadd6cb66a3b8db3bb9c84c9d851bef33c16ff1acc08abf621d9bf9d3e"),
        ],
    )
    def test_extra_dropout_keeps_pinned_bytes(self, tmp_path, capsys, seed, digest):
        scen = tmp_path / "scen"
        synth = synth_args(scen, targets=10, frames=40, width=640, height=360, seed=seed, pan="3,0")
        assert run(capsys, *synth, "--extra-dropout", "0.1")[0] == 0
        detections = (scen / "detections.jsonl").read_bytes()
        assert hashlib.sha256(detections).hexdigest() == digest


# one out-of-range value of each ranged setting, by command
OUT_OF_RANGE = [
    ("track", "alpha", "1.5"),
    ("track", "beta", "-0.1"),
    ("track", "gate", "-1"),
    ("track", "memory", "3"),
    ("track", "patch", "0"),
    ("eval", "mot_iou", "2"),
    ("court", "candidates", "0"),
    ("court", "step", "0.5"),
    ("court", "drop_tol", "1"),
    ("synth", "targets", "0"),
    ("synth", "num_frames", "1"),
    ("synth", "width", "0"),
    ("synth", "height", "0"),
    ("synth", "dropout", "1"),
    ("synth", "jitter", "-1"),
    ("synth", "extra_dropout", "1"),
    ("synth", "pan", "nan,0"),
]


class TestSettingRanges:
    def test_every_ranged_setting_is_covered(self):
        assert {name for _, name, _ in OUT_OF_RANGE} == {n for n, s in SETTINGS.items() if s.need}

    @staticmethod
    def command_args(tmp_path, capsys, command):
        """argv of a run of `command` that writes only `out`, and `out`."""
        if command == "track":
            scen, out = tmp_path / "scen", tmp_path / "tracks.csv"
            assert run(capsys, *synth_args(scen))[0] == 0
            return track_args(scen, out)[:-2], out  # without "--memory 2"
        if command == "eval":
            gt, out = tmp_path / "gt.csv", tmp_path / "report.json"
            gt.write_text("0,1,0.0,0.0,10.0,10.0\n1,1,0.0,0.0,10.0,10.0\n")
            return ["eval", "--mode", "mot", "--gt", str(gt), "--hyp", str(gt), "--out", str(out)], out
        if command == "court":
            out = tmp_path / "court.json"
            return TestCourtCommand.planted_nba_args(tmp_path, out), out
        out = tmp_path / "scen"
        return ["synth", "--out", str(out)], out

    @pytest.mark.parametrize("command, name, value", OUT_OF_RANGE)
    def test_flag_and_config_value_out_of_range_fail_alike(self, tmp_path, capsys, command, name, value):
        argv, out = self.command_args(tmp_path, capsys, command)
        need = SETTINGS[name].need

        code, stdout, err = run(capsys, *argv, "--" + name.replace("_", "-"), value)
        assert code == 1 and stdout == ""
        assert f"{name}: {need}" in err
        assert not out.exists()

        config = tmp_path / "run.cfg"
        config.write_text(f"# line 2 is out of range\n{name}={value}\n")
        code, stdout, err = run(capsys, *argv, "--config", str(config))
        assert code == 1 and stdout == ""
        assert f"run.cfg:2 (field '{name}'): {need}" in err
        assert not out.exists()


class TestConfigPrecedence:
    def test_flag_beats_config_beats_default(self, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text("gate=0.9\nalpha=0.5\n# comment line\n")
        required = ["--frames", "f", "--detections", "d", "--homographies", "h", "--out", "o"]
        args = _build_parser().parse_args(
            ["track", *required, "--config", str(config), "--alpha", "0.7"]
        )
        resolve_settings(args)
        assert args.alpha == 0.7  # flag wins
        assert args.gate == 0.9  # config wins over default
        assert args.beta == 0.05  # default

    def test_unknown_config_key_rejected(self, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text("bogus=1\n")
        args = _build_parser().parse_args(["track", "--config", str(config)])
        from courttrack.errors import InputFormatError

        with pytest.raises(InputFormatError):
            resolve_settings(args)

    def test_non_utf8_config_byte_reports_line(self, tmp_path):
        from courttrack.errors import InputFormatError

        config = tmp_path / "run.cfg"
        config.write_bytes(b"gate=0.9\nalpha=\xff\xfe\n")
        args = _build_parser().parse_args(["track", "--config", str(config)])
        with pytest.raises(InputFormatError, match="UTF-8") as err:
            resolve_settings(args)
        assert err.value.line == 2 and "run.cfg:2" in str(err.value)

    @pytest.mark.parametrize(
        "command, lines, key",
        [
            (["track"], ["gate=0.9", "# comment line", "gate=0.3"], "gate"),
            (["synth"], ["extra-dropout=0.1", "seed=3", "extra_dropout=0.2"], "extra_dropout"),
        ],
    )
    def test_repeated_config_key_rejected(self, tmp_path, capsys, command, lines, key):
        config = tmp_path / "run.cfg"
        config.write_text("".join(line + "\n" for line in lines))
        code, stdout, err = run(capsys, *command, "--config", str(config))
        assert code == 1 and stdout == ""
        assert f"run.cfg:3 (field '{key}'): repeated key, first set on line 1" in err

    def test_bad_hsv_flag_is_input_error(self, tmp_path, capsys):
        code, _, err = run(
            capsys,
            "court",
            "--court",
            "european",
            "--segments",
            str(tmp_path / "nope.csv"),
            "--hsv",
            "not-a-filter",
        )
        assert code == 1


class TestCommandSurface:
    COMMANDS = {
        "track": ["track"],
        "eval": ["eval", "--mode", "mot"],
        "court": ["court"],
        "synth": ["synth"],
    }

    @pytest.mark.parametrize(
        "command, flag, value",
        [
            ("track", "--court", "nba"),
            ("eval", "--alpha", "0.1"),
            ("court", "--gate", "0.3"),
            ("synth", "--mot-iou", "0.5"),
        ]
        + [(command, "--dup-iou", "0.5") for command in ("track", "eval", "court", "synth")],
    )
    def test_flag_of_another_command_rejected(self, capsys, command, flag, value):
        code, _, err = run(capsys, *self.COMMANDS[command], flag, value)
        assert code == 1
        assert f"unrecognized arguments: {flag}" in err

    @pytest.mark.parametrize(
        "command, key",
        [("track", "court=nba"), ("eval", "alpha=0.1"), ("court", "gate=0.3"), ("synth", "mot_iou=0.5")],
    )
    def test_config_key_of_another_command_rejected(self, tmp_path, capsys, command, key):
        config = tmp_path / "run.cfg"
        config.write_text(f"out={tmp_path / 'x'}\n{key}\n")
        code, _, err = run(capsys, *self.COMMANDS[command], "--config", str(config))
        assert code == 1
        assert "run.cfg:2" in err and key.partition("=")[0] in err

    @pytest.mark.parametrize("command", ["track", "eval", "court", "synth"])
    def test_help_exits_zero(self, capsys, command):
        code, out, _ = run(capsys, command, "--help")
        assert code == 0
        assert f"courttrack {command}" in out


def run_child(code: str, *argv, **env) -> subprocess.CompletedProcess:
    """`python -c code argv...` in a fresh interpreter that imports
    courttrack from this checkout, with OPENBLAS_NUM_THREADS unset
    unless given in `env`."""
    src = str(Path(courttrack.__file__).resolve().parents[1])
    base = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    base["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", code, *map(str, argv)],
        env={**base, **env},
        capture_output=True,
        text=True,
        check=True,
    )


class TestStartup:
    """What `import courttrack.cli` does to a fresh process: one OS
    thread (OpenBLAS pinned unless the user says otherwise) and the
    import-time objects frozen out of the collector."""

    @pytest.mark.parametrize("preset, seen", [(None, "1"), ("3", "3")])
    def test_blas_threads_pinned_unless_set(self, preset, seen):
        env = {} if preset is None else {"OPENBLAS_NUM_THREADS": preset}
        code = "import os, courttrack.cli; print(os.environ['OPENBLAS_NUM_THREADS'])"
        assert run_child(code, **env).stdout.strip() == seen

    @pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs Linux /proc")
    def test_import_starts_no_thread(self):
        out = run_child("import os, courttrack.cli; print(len(os.listdir('/proc/self/task')))")
        assert out.stdout.strip() == "1"

    def test_import_time_objects_are_frozen(self):
        out = run_child("import gc, courttrack.cli; print(gc.get_freeze_count())")
        assert int(out.stdout) > 0

    def test_output_bytes_do_not_depend_on_blas_threads(self, tmp_path, capsys):
        scen = tmp_path / "scen"
        assert run(capsys, *synth_args(scen, targets=6, frames=12, seed=7, pan="2,0"))[0] == 0
        (tmp_path / "nba").mkdir()  # the helpers write their inputs there
        (tmp_path / "eu").mkdir()
        nba = TestCourtCommand.planted_nba_args(tmp_path / "nba", tmp_path / "nba.json")
        european = TestCourtCommand.planted_european_args(tmp_path / "eu")
        european += ["--hsv", "90:150,0.4:1,0.2:1", "--out", str(tmp_path / "eu.json")]
        entry = "import sys; from courttrack.cli import main; sys.exit(main())"
        outputs = {}
        for threads in (None, "2"):
            env = {} if threads is None else {"OPENBLAS_NUM_THREADS": threads}
            run_child(entry, *track_args(scen, tmp_path / "tracks.csv"), **env)
            run_child(entry, *nba, **env)
            run_child(entry, *european, **env)
            outputs[threads] = [
                (tmp_path / name).read_bytes() for name in ("tracks.csv", "nba.json", "eu.json")
            ]
        assert outputs[None] == outputs["2"]
        assert all(outputs[None])
