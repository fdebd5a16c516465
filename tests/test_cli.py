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
import courttrack.court
from courttrack.cli import (
    SETTINGS,
    _build_parser,
    _rows_between,
    main,
    read_homographies_json,
    resolve_settings,
    scenario_spec,
)
from courttrack.court import read_segments_csv, vote_dominant_lines
from courttrack.defaults import DEFAULT_CANDIDATES
from courttrack.errors import DegenerateCourt
from courttrack.geometry import FrameDims, Line2
from courttrack.imaging import BinaryMask, FrameRaster, write_ppm
from courttrack.metrics import read_mot_csv
from courttrack.synth import ScenarioSpec
from tests.oracles import filled, write_pgm


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
        strip = lambda per_frame: sorted((t, *box) for t, f in per_frame.items() for box in f.boxes.tolist())
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
        write_ppm(filled(FrameDims(160, 100), (0, 0, 0)), odd)
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

    def test_peak_memory_grows_only_by_what_track_keeps_per_frame(self, tmp_path, capsys):
        # Each frame's detections are parsed when the tracker reaches it. What
        # 810 more frames still add is kept for the whole clip: each frame's
        # homography (about 0.45 KB) and its rows of results (about 0.7 KB),
        # 0.9 MB in all; the slack leaves 0.6 MB above that. Parsing every
        # frame's detections before frame 0 added 3.5 MB here.
        peaks = {}
        for n in (90, 900):
            scen = tmp_path / f"scen{n}"
            assert run(capsys, *synth_args(scen, targets=4, frames=n, width=96, height=64))[0] == 0
            tracemalloc.start()
            try:
                code = main(track_args(scen, tmp_path / f"tracks{n}.csv", memory=1) + ["--patch", "1"])
                peaks[n] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert code == 0
        assert peaks[900] - peaks[90] < 1.5e6

    @pytest.mark.parametrize("where", ["missing_directory", "directory"])
    def test_unusable_out_path_fails_before_frame_0_is_read(self, tmp_path, capsys, monkeypatch, where):
        scen = tmp_path / "scen"
        run(capsys, *synth_args(scen))
        out = tmp_path / "missing" / "t.csv" if where == "missing_directory" else tmp_path
        before = sorted(tmp_path.rglob("*"))

        def read_ppm(path):
            raise AssertionError(f"{path} was read")

        monkeypatch.setattr(courttrack.cli, "read_ppm", read_ppm, raising=False)
        code, _, err = run(capsys, *track_args(scen, out))
        assert code == 1
        reason = "No such file or directory" if where == "missing_directory" else "Is a directory"
        assert f"error: [Errno " in err and f"{reason}: '{out}'" in err
        assert sorted(tmp_path.rglob("*")) == before

    @pytest.mark.parametrize("frames", [[-2, 0, 1, 6, 9], [0, 6], [-1]])
    def test_detection_frame_outside_frames_fails_naming_its_line(self, tmp_path, capsys, frames):
        scen = tmp_path / "scen"
        run(capsys, *synth_args(scen, frames=6))
        kps = [{"part": 0, "x": 10.0, "y": 20.0, "c": 0.9}]
        (scen / "detections.jsonl").write_text("".join(json.dumps({"frame": t, "keypoints": kps}) + "\n" for t in frames))
        out_csv = tmp_path / "t.csv"
        code, _, err = run(capsys, *track_args(scen, out_csv))
        assert code == 1
        line = next(i for i, t in enumerate(frames, 1) if not 0 <= t < 6)
        assert f"detections.jsonl:{line} (field 'frame'): frame {frames[line - 1]} outside 0..5" in err
        assert not out_csv.exists()

    def test_decreasing_detection_frame_fails_naming_its_line(self, tmp_path, capsys):
        scen = tmp_path / "scen"
        run(capsys, *synth_args(scen))
        lines = (scen / "detections.jsonl").read_text().splitlines()
        first = lines.pop(0)
        at = next(i for i, line in enumerate(lines) if json.loads(line)["frame"] == 2)
        lines.insert(at, first)  # a frame 0 line just before frame 2's
        before = json.loads(lines[at - 1])["frame"]
        assert json.loads(first)["frame"] == 0 < before
        (scen / "detections.jsonl").write_text("\n".join(lines) + "\n")
        out_csv = tmp_path / "t.csv"
        code, _, err = run(capsys, *track_args(scen, out_csv))
        assert code == 1
        assert f"detections.jsonl:{at + 1} (field 'frame'): frame 0 after frame {before}; frames must not decrease" in err
        assert not out_csv.exists()

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
        entry = len(payload) - 1
        assert f"homographies.json (field 'frame'): entry {entry}: frame {frame} outside 0..5" in err

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
            read_homographies_json(path, 1)
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

    @pytest.mark.parametrize(
        "layout, message",
        [
            ("file", "not a directory of frames"),
            ("empty", "no frame_%06d.ppm files found"),
            ("gap", "frame files are not consecutive from 0"),
        ],
    )
    def test_unusable_frame_directory_fails_naming_it(self, tmp_path, capsys, layout, message):
        scen = tmp_path / "scen"
        run(capsys, *synth_args(scen))
        frames = scen / "frames"
        if layout == "file":
            frames = scen / "gt.csv"
        elif layout == "empty":
            frames = tmp_path / "no-frames"
            frames.mkdir()
            (frames / "frame_0.ppm").write_bytes((scen / "frames" / "frame_000000.ppm").read_bytes())
        else:
            (frames / "frame_000003.ppm").unlink()
        argv = track_args(scen, tmp_path / "t.csv")
        argv[argv.index("--frames") + 1] = str(frames)
        code, out, err = run(capsys, *argv)
        assert code == 1 and not out
        assert f"error: {frames}: {message}\n" in err
        assert not (tmp_path / "t.csv").exists()

    def test_homographies_object_fails_naming_the_file(self, tmp_path, capsys):
        scen = tmp_path / "scen"
        run(capsys, *synth_args(scen))
        path = scen / "homographies.json"
        path.write_text(json.dumps({"frame": 0, "h": [1, 0, 0, 0, 1, 0, 0, 0, 1]}))
        code, out, err = run(capsys, *track_args(scen, tmp_path / "t.csv"))
        assert code == 1 and not out
        assert f"error: {path}: expected a JSON array\n" in err

    def test_singular_homography_fails_naming_its_entry(self, tmp_path, capsys):
        scen = tmp_path / "scen"
        run(capsys, *synth_args(scen))
        path = scen / "homographies.json"
        payload = json.loads(path.read_text())
        payload[1]["h"] = [1, 0, 0, 0, 0, 0, 0, 0, 1]
        path.write_text(json.dumps(payload))
        code, out, err = run(capsys, *track_args(scen, tmp_path / "t.csv"))
        assert code == 1 and not out
        assert f"error: {path} (field 'h'): entry 1: homography matrix is singular\n" in err

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
        frame = filled(FrameDims(200, 100), (50, 60, 70))
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

    def test_projection_past_the_float_range_fails_naming_file_frame_and_point(self, tmp_path, capsys):
        # x * 1e307 overflows; a numpy warning would be an error under this suite's settings
        scen = tmp_path / "scen"
        run(capsys, *synth_args(scen, width=64, height=48))
        payload = json.loads((scen / "homographies.json").read_text())
        payload[1]["h"][0] = 1e307
        (scen / "homographies.json").write_text(json.dumps(payload))
        out_csv = tmp_path / "t.csv"
        code, _, err = run(capsys, *track_args(scen, out_csv))
        assert code == 1
        assert "homographies.json (field 'h'): frame 1: point (" in err
        assert "maps to the non-finite point (inf, " in err and "Warning" not in err
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

    @pytest.mark.parametrize("patch", [65, 5000, 10**9, 10**29])
    def test_patch_beyond_the_larger_side_is_input_error(self, tmp_path, capsys, patch):
        # half-extent 5000 would ask for 11.2 GiB of patches, 10**9 for more
        # than numpy can shape and 10**29 for more than a C long holds
        scen = tmp_path / "scen"
        run(capsys, *synth_args(scen, targets=2, frames=3, width=64, height=48))
        out_csv = tmp_path / "t.csv"
        tracemalloc.start()
        try:
            code, _, err = run(capsys, *track_args(scen, out_csv), "--patch", str(patch))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 1
        assert f"error: patch: half-extent {patch} exceeds frame 0's larger side, 64 px" in err
        assert peak < 16 * 2**20
        assert not out_csv.exists()

    def test_patch_equal_to_the_larger_side_runs(self, tmp_path, capsys):
        scen = tmp_path / "scen"
        run(capsys, *synth_args(scen, targets=2, frames=3, width=64, height=48))
        out_csv = tmp_path / "t.csv"
        code, _, err = run(capsys, *track_args(scen, out_csv), "--patch", "64")
        assert (code, err) == (0, "")
        assert len(read_mot_csv(out_csv)) == 3


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

    def test_out_in_a_missing_directory_fails_before_any_input_is_read(self, tmp_path, capsys, monkeypatch):
        gt = tmp_path / "gt.csv"
        gt.write_text("0,1,0.0,0.0,10.0,10.0\n")
        out_json = tmp_path / "missing" / "report.json"
        before = sorted(tmp_path.rglob("*"))

        def read_mot_csv(path, **kw):
            raise AssertionError(f"{path} was read")

        monkeypatch.setattr(courttrack.cli, "read_mot_csv", read_mot_csv, raising=False)
        code, out, err = run(capsys, "eval", "--mode", "mot", "--gt", str(gt), "--hyp", str(gt), "--out", str(out_json))
        assert code == 1 and out == ""
        assert f"No such file or directory: '{out_json}'" in err
        assert sorted(tmp_path.rglob("*")) == before

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

    def test_negative_box_width_fails_naming_its_line(self, tmp_path, capsys):
        gt = tmp_path / "gt.csv"
        gt.write_text("0,1,0.0,0.0,10.0,10.0\n")
        hyp = tmp_path / "hyp.csv"
        hyp.write_text("frame,id,x_min,y_min,width,height\n0,1,0.0,0.0,10.0,10.0\n1,1,0.0,0.0,-10.0,10.0\n")
        code, out, err = run(capsys, "eval", "--mode", "mot", "--gt", str(gt), "--hyp", str(hyp))
        assert code == 1 and not out
        assert f"error: {hyp}:3 (field 'width'): negative box size\n" in err

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
        assert f"{gt}: holds no ground-truth boxes" in err

    @pytest.mark.parametrize("side", ["gt", "hyp"])
    def test_field_beyond_the_csv_limit_is_input_error(self, tmp_path, capsys, side):
        files = {name: tmp_path / f"{name}.csv" for name in ("gt", "hyp")}
        for path in files.values():
            path.write_text("0,1,0.0,0.0,10.0,10.0\n")
        files[side].write_text("0,1,0.0,0.0,10.0,10.0\n" + "1" * 200_000 + ",1,0.0,0.0,10.0,10.0\n")
        code, out, err = run(
            capsys, "eval", "--mode", "mot", "--gt", str(files["gt"]), "--hyp", str(files["hyp"])
        )
        assert code == 1 and not out
        assert f"{files[side]}:2: field larger than field limit" in err

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

    def test_mot_iou_flag_rejected_by_det_mode(self, tmp_path, capsys):
        gt, out_json = tmp_path / "gt.csv", tmp_path / "report.json"
        gt.write_text("0,1,0.0,0.0,10.0,10.0\n")
        argv = ["eval", "--mode", "det", "--gt", str(gt), "--hyp", str(gt), "--out", str(out_json)]
        code, out, err = run(capsys, *argv, "--mot-iou", "0.9")
        assert code == 1 and not out
        assert err == "error: mot_iou: not read by eval --mode det\n"
        assert not out_json.exists()

    @pytest.mark.parametrize("mode_in_config", [False, True])
    def test_mot_iou_config_key_rejected_by_det_mode(self, tmp_path, capsys, mode_in_config):
        gt, out_json, config = tmp_path / "gt.csv", tmp_path / "report.json", tmp_path / "run.cfg"
        gt.write_text("0,1,0.0,0.0,10.0,10.0\n")
        config.write_text(("mode=det\n" if mode_in_config else "# det mode\n") + "mot-iou=0.3\n")
        argv = ["eval", "--gt", str(gt), "--hyp", str(gt), "--out", str(out_json), "--config", str(config)]
        code, out, err = run(capsys, *argv, *([] if mode_in_config else ["--mode", "det"]))
        assert code == 1 and not out
        assert err == f"error: {config}:2 (field 'mot_iou'): not read by eval --mode det\n"
        assert not out_json.exists()

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

    def test_out_in_a_missing_directory_fails_before_any_input_is_read(self, tmp_path, capsys, monkeypatch):
        out_json = tmp_path / "missing" / "court.json"
        argv = self.planted_nba_args(tmp_path, out_json)
        before = sorted(tmp_path.rglob("*"))

        def read_segments_csv(path):
            raise AssertionError(f"{path} was read")

        monkeypatch.setattr(courttrack.cli, "read_segments_csv", read_segments_csv, raising=False)
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == ""
        assert f"No such file or directory: '{out_json}'" in err
        assert sorted(tmp_path.rglob("*")) == before

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

    def test_european_frames_directory_reads_its_frame_0(self, tmp_path, capsys):
        argv = self.planted_european_args(tmp_path) + ["--hsv", "90:150,0.4:1,0.2:1", "--out"]
        frames = tmp_path / "frames"
        frames.mkdir()
        (frames / "frame_000000.ppm").write_bytes((tmp_path / "frame.ppm").read_bytes())
        assert run(capsys, *argv, str(tmp_path / "from-file.json"))[0] == 0
        argv[argv.index("--frames") + 1] = str(frames)
        assert run(capsys, *argv, str(tmp_path / "from-dir.json"))[0] == 0
        assert (tmp_path / "from-dir.json").read_bytes() == (tmp_path / "from-file.json").read_bytes()

    def test_pgm_comment_without_end_fails_naming_the_mask(self, tmp_path, capsys):
        out_json = tmp_path / "court.json"
        argv = self.planted_nba_args(tmp_path, out_json)
        (tmp_path / "mask.pgm").write_bytes(b"P5\n4 3\n# people, with no newline after")
        code, out, err = run(capsys, *argv)
        assert code == 1 and not out
        assert f"error: {tmp_path / 'mask.pgm'}: unterminated comment\n" in err
        assert not out_json.exists()

    def test_degenerate_vertical_convergence_leaves_no_lateral_side(self, tmp_path, capsys, monkeypatch):
        # no person between the crowd bands, so the vertical lines meet before any fraction drops
        bits = np.zeros((400, 192), dtype=bool)
        bits[:80] = True
        bits[320:] = True
        out_json = tmp_path / "court.json"
        argv = self.planted_nba_args(tmp_path, out_json)
        write_pgm(BinaryMask(bits), tmp_path / "mask.pgm")
        (tmp_path / "segments.csv").write_text("0,200,191,200\n96,0,96,399\n")
        outcomes = []
        converge = courttrack.court.converge_boundaries_nba

        def recording(*args):
            try:
                found = converge(*args)
            except DegenerateCourt as exc:
                outcomes.append(exc)
                raise
            outcomes.append(found)
            return found

        monkeypatch.setattr(courttrack.cli, "converge_boundaries_nba", recording, raising=False)
        assert run(capsys, *argv)[0] == 0
        assert len(outcomes) == 2 and isinstance(outcomes[1], DegenerateCourt)
        payload = json.loads(out_json.read_text())
        assert payload["left"] is None and payload["right"] is None
        assert -payload["top"][2] / payload["top"][1] == 80.0

    @pytest.mark.parametrize("variant", ["european", "nba"])
    def test_each_voted_line_is_classified_once(self, tmp_path, capsys, monkeypatch, variant):
        out_json = tmp_path / "court.json"
        argv = self.variant_args(tmp_path, variant, out_json)
        votes = len(vote_dominant_lines(read_segments_csv(tmp_path / "segments.csv"), DEFAULT_CANDIDATES))
        calls = []
        classify = courttrack.court.classify_orientation

        def counting(line, dims):
            calls.append(line)
            return classify(line, dims)

        monkeypatch.setattr(courttrack.court, "classify_orientation", counting)
        assert run(capsys, *argv)[0] == 0
        # CourtRegion checks each boundary it is given once more
        boundaries = sum(line is not None for line in json.loads(out_json.read_text()).values())
        assert len(calls) == votes + boundaries

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
        assert f"{tmp_path / 'segments.csv'}: no segments" in err

    def test_field_beyond_the_csv_limit_is_input_error(self, tmp_path, capsys):
        out_json = tmp_path / "court.json"
        argv = self.planted_nba_args(tmp_path, out_json)
        (tmp_path / "segments.csv").write_text("0,200,191,200\n" + "1" * 200_000 + ",0,1,0\n")
        code, out, err = run(capsys, *argv)
        assert code == 1 and not out
        assert f"{tmp_path / 'segments.csv'}:2: field larger than field limit" in err
        assert not out_json.exists()

    @pytest.mark.parametrize(
        "people, boundary",
        [
            # the converged top line leaves through the frame's top right corner
            (((0, 2, 192, 200), (80, 100, 0, 200)), "top"),
            # the mirror image: the bottom line leaves through the bottom left corner
            (((0, 20, 0, 200), (98, 100, 0, 8)), "bottom"),
        ],
    )
    def test_boundary_clipping_a_corner_is_degenerate(self, tmp_path, capsys, people, boundary):
        bits = np.zeros((100, 200), dtype=bool)
        for y0, y1, x0, x1 in people:
            bits[y0:y1, x0:x1] = True
        write_pgm(BinaryMask(bits), tmp_path / "mask.pgm")
        (tmp_path / "segments.csv").write_text("0,10,199,30\n")
        out_json = tmp_path / "court.json"
        code, out, err = run(
            capsys,
            "court",
            "--court",
            "nba",
            "--segments",
            str(tmp_path / "segments.csv"),
            "--mask",
            str(tmp_path / "mask.pgm"),
            "--out",
            str(out_json),
        )
        assert code == 2 and not out
        assert f"{boundary} boundary must classify as horizontal" in err
        assert not out_json.exists()

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

    def test_frame_too_large_for_an_array_fails(self, tmp_path, capsys):
        # 3e20 bytes: numpy refuses the shape before allocating anything
        scen = tmp_path / "scen"
        code, _, err = run(capsys, *synth_args(scen, width=10**10, height=10**10))
        assert code == 1
        assert "10000000000x10000000000 frame does not fit" in err
        assert not scen.exists()

    def test_defaults_are_the_default_scenario(self, tmp_path):
        args = _build_parser().parse_args(["synth", "--out", str(tmp_path / "scen")])
        resolve_settings(args)
        assert scenario_spec(args) == ScenarioSpec()

    @pytest.mark.parametrize("out", ["file", "file/scen"])
    def test_out_at_or_under_a_file_fails_before_any_frame_is_drawn(self, tmp_path, capsys, monkeypatch, out):
        (tmp_path / "file").write_text("kept\n")
        before = sorted(tmp_path.rglob("*"))

        def generate(spec):
            raise AssertionError("a scenario was drawn")

        monkeypatch.setattr(courttrack.cli, "generate", generate, raising=False)
        code, stdout, err = run(capsys, *synth_args(tmp_path / out))
        assert code == 1 and stdout == ""
        assert f"Not a directory: '{tmp_path / out}'" in err
        assert sorted(tmp_path.rglob("*")) == before and (tmp_path / "file").read_text() == "kept\n"

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

    def test_nul_byte_in_a_config_path_reports_line(self, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text("mode=mot\ngt=g\0t.csv\n")
        code, stdout, err = run(capsys, "eval", "--hyp", str(tmp_path / "hyp.csv"), "--config", str(config))
        assert code == 1 and stdout == ""
        assert "run.cfg:2 (field 'gt'): value holds a NUL byte" in err

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


# main(argv) in a fresh process with every command wrapped to note, as
# it starts, the numpy and courttrack modules whose objects the
# collector still tracks; the last stdout line reports that, the exit
# code, the OS threads, the OpenBLAS setting and the modules loaded.
PROBE = """
import gc, json, os, sys
import courttrack.cli as cli

unfrozen = []

def probing(command):
    def probe(args):
        tracked = {id(o) for o in gc.get_objects()}
        unfrozen.extend(name for name, module in list(sys.modules.items())
                        if name.partition(".")[0] in ("numpy", "courttrack") and id(vars(module)) in tracked)
        return command(args)
    return probe

cli.COMMANDS = {name: probing(command) for name, command in cli.COMMANDS.items()}
rc = cli.main(sys.argv[1:])
print(json.dumps({
    "rc": rc,
    "threads": len(os.listdir("/proc/self/task")) if os.path.isdir("/proc/self/task") else None,
    "blas": os.environ.get("OPENBLAS_NUM_THREADS"),
    "numpy": "numpy" in sys.modules,
    "modules": sorted(m.partition(".")[2] for m in sys.modules if m.startswith("courttrack.")),
    "unfrozen": sorted(unfrozen),
}))
"""


class TestStartup:
    """What a command does to a fresh process: one OS thread (OpenBLAS
    pinned unless the user says otherwise), its modules loaded and frozen
    out of the collector before it runs, and no module it does not use.
    Importing courttrack.cli, --help and the errors found before a
    command runs load no numpy."""

    @pytest.fixture(scope="class")
    def runs(self, tmp_path_factory):
        """argv of a court, a track and an eval run on small inputs."""
        tmp = tmp_path_factory.mktemp("startup")
        assert main(synth_args(tmp / "scen", targets=4, frames=6, seed=7, pan="2,0")) == 0
        gt = str(tmp / "scen" / "gt.csv")
        return {
            "court": TestCourtCommand.planted_nba_args(tmp, tmp / "court.json"),
            "track": track_args(tmp / "scen", tmp / "tracks.csv"),
            "eval": ["eval", "--mode", "mot", "--gt", gt, "--hyp", gt],
        }

    @staticmethod
    def probe(*argv, **env) -> dict:
        return json.loads(run_child(PROBE, *argv, **env).stdout.splitlines()[-1])

    @pytest.mark.parametrize("preset, seen", [(None, "1"), ("3", "3")])
    def test_blas_threads_pinned_unless_set(self, runs, preset, seen):
        env = {} if preset is None else {"OPENBLAS_NUM_THREADS": preset}
        assert self.probe(*runs["court"], **env)["blas"] == seen

    @pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs Linux /proc")
    @pytest.mark.parametrize("command", ["court", "track"])
    def test_command_starts_no_thread(self, runs, command):
        # OpenBLAS starts its workers when numpy loads, so this fails if
        # numpy is imported before the pin (on a machine of 2 or more CPUs)
        seen = self.probe(*runs[command])
        assert seen["rc"] == 0 and seen["numpy"]
        assert seen["threads"] == 1

    @pytest.mark.parametrize("command", ["court", "track", "eval"])
    def test_command_modules_are_frozen_before_it_runs(self, runs, command):
        seen = self.probe(*runs[command])
        assert seen["rc"] == 0 and seen["numpy"]
        assert seen["unfrozen"] == []

    def test_court_loads_no_tracker_module(self, runs):
        seen = self.probe(*runs["court"])
        assert seen["rc"] == 0 and "court" in seen["modules"]
        assert not {"cost", "detect", "track", "metrics", "synth", "rng"} & set(seen["modules"])

    def test_track_loads_no_court_or_synth_module(self, runs):
        seen = self.probe(*runs["track"])
        assert seen["rc"] == 0 and "track" in seen["modules"]
        assert not {"court", "synth", "rng"} & set(seen["modules"])

    def test_eval_loads_no_tracker_module(self, runs):
        seen = self.probe(*runs["eval"])
        assert seen["rc"] == 0 and "metrics" in seen["modules"]
        assert not {"track", "cost", "imaging", "court", "synth", "rng"} & set(seen["modules"])

    def test_import_loads_no_numpy(self):
        out = run_child("import sys, courttrack.cli; print('numpy' in sys.modules)")
        assert out.stdout.strip() == "False"

    @pytest.mark.parametrize(
        "argv, code",
        [(["--help"], 0), (["track", "--help"], 0), (["track", "--gate", "abc"], 1), ([], 1),
         (["eval", "--config", "{cfg}"], 1), (["court", "--hsv", "nan:1,0:1,0:1"], 1)],
        ids=["help", "command-help", "usage", "no-command", "config-file", "hsv"],
    )
    def test_no_numpy_before_a_command_runs(self, tmp_path, argv, code):
        (tmp_path / "bad.cfg").write_text("bogus=1\n")
        seen = self.probe(*(arg.format(cfg=tmp_path / "bad.cfg") for arg in argv))
        assert seen["rc"] == code
        assert not seen["numpy"]

    @pytest.mark.parametrize(
        "call",
        [
            "cli.scenario_spec(SimpleNamespace(targets=2, num_frames=3, width=64, height=48, pan=(0.0, 0.0), "
            "dropout=0.0, jitter=0.0, extra_dropout=0.0, seed=1))",
            "cli.write_scenario(generate(ScenarioSpec(n_targets=2, n_frames=2, dims=FrameDims(64, 48))), scen)",
            "cli.read_homographies_json(scen / 'homographies.json', 6)",
            "list(cli.decode_frames(cli.list_frame_files(scen / 'frames'), {}, {}, PatchWindow()))",
        ],
    )
    def test_helpers_run_before_main(self, runs, tmp_path, call):
        # each in a fresh process, so no other call has bound its names
        scen = Path(runs["track"][2]).parent
        if call.startswith("cli.write_scenario"):
            scen = tmp_path
        code = (
            "import sys; from pathlib import Path; from types import SimpleNamespace\n"
            "import courttrack.cli as cli\n"
            "from courttrack.geometry import FrameDims\n"
            "from courttrack.imaging import PatchWindow\n"
            "from courttrack.synth import ScenarioSpec, generate\n"
            f"scen = Path(sys.argv[1])\n{call}\nprint('ran')"
        )
        assert run_child(code, scen).stdout.strip() == "ran"

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
