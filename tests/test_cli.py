import ast
import hashlib
import json
import os
import shutil
import subprocess
import sys
import tracemalloc
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np
import pytest

import courttrack
import courttrack.court
from courttrack.cli import HOME, SETTINGS, _build_parser, _rows_between, main, resolve_settings, scenario_spec
from courttrack.court import read_segments_csv, vote_dominant_lines
from courttrack.defaults import DEFAULT_CANDIDATES
from courttrack.errors import DegenerateCourt
from courttrack.geometry import FrameDims, Line2, read_homographies_json
from courttrack.imaging import BinaryMask, FrameRaster, write_ppm
from courttrack.metrics import read_mot_csv
from courttrack.synth import ScenarioSpec
from tests.oracles import write_pgm


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


def track_args(scen, out, memory=None):
    """argv of a track run on a synth scenario; --memory only where memory is given."""
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
        *(() if memory is None else ("--memory", str(memory))),
    ]


# --- input faults ----------------------------------------------------------------------
#
# Each command's input faults are one table of rows. A row copies the
# shared valid inputs (the `inputs` fixture) that its argv or its edit
# names, edits them, runs its command there with its change to the
# command's base argv, and asserts its exit code, an empty stdout, its
# `error:` line as the whole of stderr (argparse prints its usage first)
# and that no file under the copy changed, so nothing was written at
# --out. Paths are relative to the copy. A row keeps the id of the test
# it stands for; the rows of one id run in turn, as one test.

FRAMES, HOM, DET = "scen/frames", "scen/homographies.json", "scen/detections.jsonl"
EYE = [1, 0, 0, 0, 1, 0, 0, 0, 1]
GREEN = "90:150,0.4:1,0.2:1"  # the European planted frame's court colour
BOX_ROWS = "0,1,0.0,0.0,10.0,10.0\n1,1,0.0,0.0,10.0,10.0\n"  # eval's gt.csv and hyp.csv

BASE = {
    "track": ["track", "--frames", FRAMES, "--detections", DET, "--homographies", HOM, "--out", "tracks.csv"],
    "eval": ["eval", "--mode", "mot", "--gt", "gt.csv", "--hyp", "hyp.csv", "--out", "report.json"],
    "nba": ["court", "--court", "nba", "--segments", "nba/segments.csv", "--mask", "nba/mask.pgm", "--out", "court.json"],
    "european": ["court", "--court", "european", "--segments", "eu/segments.csv", "--frames", "eu/frame.ppm",
                 "--hsv", GREEN, "--out", "court.json"],
    "synth": ["synth", "--out", "new", "--targets", "3", "--num-frames", "6", "--width", "320", "--height", "180"],
}


class Fault(NamedTuple):
    id: str  # the test's name, with its case in brackets if it has cases
    base: str  # the key of the command's argv in BASE
    edit: dict  # path -> text or bytes to write, None to delete it, or a function that edits it
    args: tuple  # flag, value pairs: a value replaces the base's (a tuple of them repeats the flag),
    # None drops the flag, a new flag is added
    code: int
    message: str  # the line on stderr


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """The valid inputs that the fault rows edit: a synth scenario, the
    planted NBA and European court inputs, and eval's gt.csv and hyp.csv."""
    root = tmp_path_factory.mktemp("inputs")
    assert main(synth_args(root / "scen")) == 0
    (root / "nba").mkdir()
    (root / "eu").mkdir()
    TestCourtCommand.planted_nba_args(root / "nba", root / "court.json")  # these write the inputs there
    TestCourtCommand.planted_european_args(root / "eu")
    (root / "gt.csv").write_text(BOX_ROWS)
    (root / "hyp.csv").write_text(BOX_ROWS)
    return root


def fault_argv(fault: Fault) -> list[str]:
    argv = list(BASE[fault.base])
    for flag, value in zip(fault.args[::2], fault.args[1::2]):
        at = argv.index(flag) if flag in argv else len(argv)
        values = value if isinstance(value, tuple) else () if value is None else (value,)
        argv[at : at + 2] = [arg for each in values for arg in (flag, each)]
    return argv


def files_under(root: Path) -> dict:
    return {path: path.is_file() and path.read_bytes() for path in root.rglob("*")}


def check_faults(faults, inputs, tmp_path, capsys, monkeypatch) -> None:
    for n, fault in enumerate(faults):
        root, argv = tmp_path / str(n), fault_argv(fault)
        root.mkdir()
        monkeypatch.chdir(root)
        named = {name.partition("/")[0] for name in [*argv, *fault.edit]}
        for entry in inputs.iterdir():
            if entry.name in named:
                (shutil.copytree if entry.is_dir() else shutil.copy)(entry, entry.name)
        for name, value in fault.edit.items():
            path = root / name
            if value is None:
                path.unlink()
            elif callable(value):
                value(path)
            else:
                path.parent.mkdir(exist_ok=True)
                path.write_bytes(value if isinstance(value, bytes) else value.encode())
        before = files_under(root)
        code, out, err = run(capsys, *argv)
        assert (code, out) == (fault.code, ""), err
        if fault.message.startswith("error: "):
            assert err == fault.message + "\n"
        else:  # an argparse usage error
            assert err.startswith("usage: courttrack ") and err.endswith("\n" + fault.message + "\n"), err
        assert files_under(root) == before


def fault_tests(faults: list[Fault]) -> Callable[[type], type]:
    """Class decorator: one test per name among the faults' ids, with one
    case per bracketed case of that name."""

    def add(cls: type) -> type:
        by_name: dict[str, dict[str, list[Fault]]] = {}
        for fault in faults:
            name, _, case = fault.id.partition("[")
            by_name.setdefault(name, {}).setdefault(case.removesuffix("]"), []).append(fault)
        for name, cases in by_name.items():
            if list(cases) == [""]:
                def test(self, inputs, tmp_path, capsys, monkeypatch, rows=cases[""]):
                    check_faults(rows, inputs, tmp_path, capsys, monkeypatch)
            else:
                @pytest.mark.parametrize("rows", list(cases.values()), ids=list(cases))
                def test(self, rows, inputs, tmp_path, capsys, monkeypatch):
                    check_faults(rows, inputs, tmp_path, capsys, monkeypatch)
            test.__name__, test.__qualname__ = name, f"{cls.__name__}.{name}"
            setattr(cls, name, test)
        return cls

    return add


def config(text) -> dict:
    return {"run.cfg": text}


def out_of_range(id: str, base: str, name: str, value: str, said: str, head: str = "") -> list[Fault]:
    """Two rows of one id: the setting's value as a flag, then as a line of
    a config file after head, with the flag dropped from the base argv."""
    flag, line = "--" + name.replace("_", "-"), head.count("\n") + 1
    return [
        Fault(id, base, {}, (flag, value), 1, f"error: {name}: {said}"),
        Fault(id, base, config(f"{head}{name}={value}\n"), (flag, None, "--config", "run.cfg"), 1,
              f"error: run.cfg:{line} (field '{name}'): {said}"),
    ]


KEYPOINT = {"part": 0, "x": 10.0, "y": 20.0, "c": 0.9}


def detections(*lines) -> dict:
    """An edit that writes the scenario's detections, one line per item:
    its text, or its frame and its keypoints as changes of KEYPOINT (one
    unchanged keypoint if none is given)."""

    def text(line):
        if isinstance(line, str):
            return line
        frame, *keypoints = line
        return json.dumps({"frame": frame, "keypoints": [{**KEYPOINT, **kp} for kp in keypoints or [{}]]})

    return {DET: "".join(text(line) + "\n" for line in lines)}


def homographies(change) -> dict:
    """An edit of the scenario's homographies: change(array) gives the array to write."""
    return {HOM: lambda path: path.write_text(json.dumps(change(json.loads(path.read_text()))))}


def entry(i: int, **keys) -> dict:
    """An edit that sets keys of the scenario's homography entry i."""
    return homographies(lambda payload: [*payload[:i], {**payload[i], **keys}, *payload[i + 1 :]])


def people(h: int, w: int, *boxes) -> Callable[[Path], None]:
    """A writer of an h x w people mask, true in each box (y0, y1, x0, x1)."""
    bits = np.zeros((h, w), dtype=bool)
    for y0, y1, x0, x1 in boxes:
        bits[y0:y1, x0:x1] = True
    return lambda path: write_pgm(BinaryMask(bits), path)


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


INFINITE_AT_X_100 = ({"x": 100.0, "y": 40.0}, {"part": 1, "x": 100.0, "y": 60.0})  # centroid (100, 50)

TRACK_FAULTS = [
    Fault("test_missing_homography_file_fails", "track", {}, ("--homographies", "scen/nope.json"), 1,
          "error: [Errno 2] No such file or directory: 'scen/nope.json'"),
    Fault("test_frame_of_other_size_fails_naming_it", "track",
          {f"{FRAMES}/frame_000002.ppm": b"P6\n160 100\n255\n" + bytes(160 * 100 * 3)}, (), 1,
          f"error: {FRAMES}/frame_000002.ppm: frame is 160x100, frame 0 is 320x180"),
    Fault("test_detection_frame_outside_frames_fails_naming_its_line[frames0]", "track",
          detections((-2,), (0,), (1,), (6,), (9,)), (), 1, f"error: {DET}:1 (field 'frame'): frame -2 outside 0..5"),
    Fault("test_detection_frame_outside_frames_fails_naming_its_line[frames1]", "track",
          detections((0,), (6,)), (), 1, f"error: {DET}:2 (field 'frame'): frame 6 outside 0..5"),
    Fault("test_detection_frame_outside_frames_fails_naming_its_line[frames2]", "track",
          detections((-1,)), (), 1, f"error: {DET}:1 (field 'frame'): frame -1 outside 0..5"),
    Fault("test_decreasing_detection_frame_fails_naming_its_line", "track", detections((0,), (1,), (0,)), (), 1,
          f"error: {DET}:3 (field 'frame'): frame 0 after frame 1; frames must not decrease"),
    Fault("test_homography_frame_outside_frames_fails[-1]", "track",
          homographies(lambda p: p + [{"frame": -1, "h": EYE}]), (), 1,
          f"error: {HOM} (field 'frame'): entry 6: frame -1 outside 0..5"),
    Fault("test_homography_frame_outside_frames_fails[6]", "track",
          homographies(lambda p: p + [{"frame": 6, "h": EYE}]), (), 1,
          f"error: {HOM} (field 'frame'): entry 6: frame 6 outside 0..5"),
    Fault("test_non_integer_homography_frame_fails[1.5]", "track", entry(1, frame=1.5), (), 1,
          f"error: {HOM} (field 'frame'): entry 1: expected an integer, got 1.5"),
    Fault("test_non_integer_homography_frame_fails[True]", "track", entry(1, frame=True), (), 1,
          f"error: {HOM} (field 'frame'): entry 1: expected an integer, got True"),
    Fault("test_non_integer_homography_frame_fails[1]", "track", entry(1, frame="1"), (), 1,
          f"error: {HOM} (field 'frame'): entry 1: expected an integer, got '1'"),
    Fault("test_homography_entries_must_be_nine_numbers[h0]", "track", entry(1, h=["1", *EYE[1:]]), (), 1,
          f"error: {HOM} (field 'h'): entry 1: expected a finite number, got '1'"),
    Fault("test_homography_entries_must_be_nine_numbers[h1]", "track", entry(1, h=[True, *EYE[1:]]), (), 1,
          f"error: {HOM} (field 'h'): entry 1: expected a finite number, got True"),
    Fault("test_homography_entries_must_be_nine_numbers[h2]", "track", entry(1, h=[EYE[:3], EYE[3:6], EYE[6:]]), (), 1,
          f"error: {HOM} (field 'h'): entry 1: expected a flat array of 9 numbers"),
    Fault("test_unknown_homography_key_fails_naming_it", "track", entry(1, x=5), (), 1,
          f"error: {HOM} (field 'x'): entry 1: unknown key 'x'"),
    Fault("test_non_number_keypoint_fails_naming_its_line[x-12]", "track", detections((0,), (1, {"x": "12"})), (), 1,
          f"error: {DET}:2 (field 'x'): expected a finite number, got '12'"),
    Fault("test_non_number_keypoint_fails_naming_its_line[y-False]", "track", detections((0,), (1, {"y": False})), (),
          1, f"error: {DET}:2 (field 'y'): expected a finite number, got False"),
    Fault("test_non_number_keypoint_fails_naming_its_line[c-True]", "track", detections((0,), (1, {"c": True})), (), 1,
          f"error: {DET}:2 (field 'c'): expected a finite number, got True"),
    # finite keypoints whose box is too wide for its width to be a float; a
    # numpy warning on the way would be an error under this suite's settings
    Fault("test_overflowing_keypoint_span_fails_naming_its_line", "track",
          detections((0,), (1, {"x": 1e308, "y": -1e308}, {"part": 1, "x": -1e308, "y": 1e308})), (), 1,
          f"error: {DET}:2 (field 'keypoints'): keypoint span from (-1e+308, -1e+308) to (1e+308, 1e+308) is not finite"),
    Fault("test_deeply_nested_homographies_fail_naming_the_file", "track", {HOM: "[" * 100000 + "]" * 100000}, (), 1,
          f"error: {HOM}: invalid JSON: maximum recursion depth exceeded while decoding a JSON array from a unicode "
          "string"),
    Fault("test_deeply_nested_keypoints_fail_naming_their_line", "track",
          detections((0,), '{"frame": 1, "keypoints": ' + "[" * 100000 + "]" * 100000 + "}"), (), 1,
          f"error: {DET}:2: invalid JSON: maximum recursion depth exceeded while decoding a JSON array from a unicode "
          "string"),
    Fault("test_unusable_frame_directory_fails_naming_it[file-not a directory of frames]", "track", {},
          ("--frames", "scen/gt.csv"), 1, "error: scen/gt.csv: not a directory of frames"),
    Fault("test_unusable_frame_directory_fails_naming_it[empty-no frame_%06d.ppm files found]", "track",
          {"no-frames/frame_0.ppm": ""}, ("--frames", "no-frames"), 1, "error: no-frames: no frame_%06d.ppm files found"),
    Fault("test_unusable_frame_directory_fails_naming_it[gap-frame files are not consecutive from 0]", "track",
          {f"{FRAMES}/frame_000003.ppm": None}, (), 1, f"error: {FRAMES}: frame files are not consecutive from 0"),
    Fault("test_homographies_object_fails_naming_the_file", "track", {HOM: json.dumps({"frame": 0, "h": EYE})}, (), 1,
          f"error: {HOM}: expected a JSON array"),
    Fault("test_singular_homography_fails_naming_its_entry", "track", entry(1, h=[1, 0, 0, 0, 0, 0, 0, 0, 1]), (), 1,
          f"error: {HOM} (field 'h'): entry 1: homography matrix is singular"),
    Fault("test_repeated_homography_frame_fails", "track", homographies(lambda p: p + p[:1]), (), 1,
          f"error: {HOM} (field 'frame'): entry 6: frame 0 repeats"),
    # frame 1's homography sends x = 100 to the line at infinity
    Fault("test_projection_to_infinity_fails_naming_file_frame_and_point", "track",
          {**detections((0, *INFINITE_AT_X_100), (1, *INFINITE_AT_X_100)), **entry(1, h=[1, 0, 0, 0, 1, 0, -0.01, 0, 1])},
          (), 1, f"error: {HOM} (field 'h'): frame 1: point (100.0, 50.0) maps to the line at infinity"),
    Fault("test_projection_past_the_float_range_fails_naming_file_frame_and_point", "track",
          entry(1, h=[1e307, *EYE[1:]]), (), 1,
          f"error: {HOM} (field 'h'): frame 1: point (100.32992105988177, 58.81168914290795) maps to the non-finite "
          "point (inf, 58.81168914290795)"),
    Fault("test_nan_gate_fails", "track", {}, ("--gate", "nan"), 1, "error: gate: must be positive, got nan"),
    *(
        fault
        for case, name, value, said in [
            ("flags0-memory", "memory", "3", "must be 1 or 2, got 3"),
            ("flags1-memory", "memory", "0", "must be 1 or 2, got 0"),
            ("flags2-patch", "patch", "0", "must be at least 1, got 0"),
            ("flags3-gate", "gate", "0", "must be positive, got 0.0"),
            ("flags4-gate", "gate", "-1", "must be positive, got -1.0"),
            ("flags5-alpha", "alpha", "1.5", "must lie in [0, 1], got 1.5"),
            ("flags6-beta", "beta", "-0.1", "must lie in [0, 1], got -0.1"),
        ]
        for fault in out_of_range(f"test_out_of_range_track_setting_is_input_error[{case}]", "track", name, value, said)
    ),
    # the joint bound is the command's, so it names no line
    Fault("test_out_of_range_track_setting_is_input_error[flags7-alpha/beta]", "track", {},
          ("--alpha", "0.7", "--beta", "0.5"), 1,
          "error: alpha/beta: gamma = 1 - (alpha + beta) must be >= 0, got 0.7 and 0.5"),
    Fault("test_out_of_range_track_setting_is_input_error[flags7-alpha/beta]", "track", config("alpha=0.7\nbeta=0.5\n"),
          ("--config", "run.cfg"), 1, "error: alpha/beta: gamma = 1 - (alpha + beta) must be >= 0, got 0.7 and 0.5"),
]


@fault_tests(TRACK_FAULTS)
class TestTrackCommand:
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
        assert run(capsys, *synth_args(scen, pan="2,0"))[0] == 0
        payload = json.loads((scen / "homographies.json").read_text())
        assert payload[2]["frame"] == 2 and payload[2]["h"] != EYE  # the pan moves frame 2
        seen = {}
        for name, frame_2 in (("pan", payload[2:3]), ("identity", [{"frame": 2, "h": EYE}]), ("missing", [])):
            (scen / "homographies.json").write_text(json.dumps([*payload[:2], *frame_2, *payload[3:]]))
            # a gate this tight ends every track at frame 2 unless its homography is the pan's
            code, _, err = run(capsys, *track_args(scen, tmp_path / f"{name}.csv"), "--gate", "0.02")
            assert code == 0
            seen[name] = (err, (tmp_path / f"{name}.csv").read_bytes())
        assert seen["identity"][0] == ""
        assert seen["missing"][0] == "warning: no homography for frame 2, assuming identity\n"
        assert seen["missing"][1] == seen["identity"][1] != seen["pan"][1]

    def test_homography_whose_determinant_overflows_tracks_quietly(self, tmp_path, capsys):
        # finite and nonsingular, though np.linalg.det of it overflows to inf
        scen = tmp_path / "scen"
        assert run(capsys, *synth_args(scen, targets=2, frames=3, width=64, height=48))[0] == 0
        payload = json.loads((scen / "homographies.json").read_text())
        payload[1]["h"] = [1e200, 0, 0, 0, 1e200, 0, 0, 0, 1]
        (scen / "homographies.json").write_text(json.dumps(payload))
        assert run(capsys, *track_args(scen, tmp_path / "tracks.csv")) == (0, "", "")

    def test_homography_integer_beyond_digit_limit_names_file(self, tmp_path):
        from courttrack.errors import InputFormatError

        path = tmp_path / "homographies.json"
        h = ["1" * 5000] + ["0"] * 3 + ["1"] + ["0"] * 3 + ["1"]
        path.write_text('[{"frame": 0, "h": [' + ", ".join(h) + "]}]")
        with pytest.raises(InputFormatError) as err:
            read_homographies_json(path, 1)
        assert str(path) in str(err.value)

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


BOX_ROW = "0,1,0.0,0.0,10.0,10.0\n"
LONG_FIELD_ROW = "1" * 200_000 + ",1,0.0,0.0,10.0,10.0\n"  # beyond the csv module's field limit

EVAL_FAULTS = [
    Fault("test_negative_box_width_fails_naming_its_line", "eval",
          {"hyp.csv": f"frame,id,x_min,y_min,width,height\n{BOX_ROW}1,1,0.0,0.0,-10.0,10.0\n"}, (), 1,
          "error: hyp.csv:3 (field 'width'): negative box size"),
    Fault("test_empty_ground_truth_fails", "eval", {"gt.csv": ""}, (), 1, "error: gt.csv: holds no ground-truth boxes"),
    Fault("test_field_beyond_the_csv_limit_is_input_error[gt]", "eval", {"gt.csv": BOX_ROW + LONG_FIELD_ROW}, (), 1,
          "error: gt.csv:2 (field 'frame'): field larger than field limit (131072)"),
    Fault("test_field_beyond_the_csv_limit_is_input_error[hyp]", "eval", {"hyp.csv": BOX_ROW + LONG_FIELD_ROW}, (), 1,
          "error: hyp.csv:2 (field 'frame'): field larger than field limit (131072)"),
    Fault("test_repeated_mot_row_fails_naming_its_line[gt]", "eval", {"gt.csv": BOX_ROWS + BOX_ROW}, (), 1,
          "error: gt.csv:3 (field 'id'): frame 0 id 1 repeats line 1"),
    Fault("test_repeated_mot_row_fails_naming_its_line[hyp]", "eval", {"hyp.csv": BOX_ROWS + BOX_ROW}, (), 1,
          "error: hyp.csv:3 (field 'id'): frame 0 id 1 repeats line 1"),
    Fault("test_mot_iou_outside_unit_interval_fails[1.5]", "eval", {}, ("--mot-iou", "1.5"), 1,
          "error: mot_iou: must lie in [0, 1), got 1.5"),
    Fault("test_mot_iou_outside_unit_interval_fails[-1]", "eval", {}, ("--mot-iou", "-1"), 1,
          "error: mot_iou: must lie in [0, 1), got -1.0"),
    Fault("test_mot_iou_outside_unit_interval_fails[nan]", "eval", {}, ("--mot-iou", "nan"), 1,
          "error: mot_iou: must lie in [0, 1), got nan"),
    Fault("test_mot_iou_flag_rejected_by_det_mode", "eval", {}, ("--mode", "det", "--mot-iou", "0.9"), 1,
          "error: mot_iou: not read by eval --mode det"),
    Fault("test_mot_iou_config_key_rejected_by_det_mode[False]", "eval", config("# det mode\nmot-iou=0.3\n"),
          ("--mode", "det", "--config", "run.cfg"), 1, "error: run.cfg:2 (field 'mot_iou'): not read by eval --mode det"),
    Fault("test_mot_iou_config_key_rejected_by_det_mode[True]", "eval", config("mode=det\nmot-iou=0.3\n"),
          ("--mode", None, "--config", "run.cfg"), 1, "error: run.cfg:2 (field 'mot_iou'): not read by eval --mode det"),
]


@fault_tests(EVAL_FAULTS)
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

    def test_det_mode_accepts_repeated_ids(self, tmp_path, capsys):
        gt = tmp_path / "gt.csv"
        gt.write_text("0,-1,0.0,0.0,10.0,10.0\n0,-1,50.0,50.0,10.0,10.0\n")
        hyp = tmp_path / "hyp.csv"
        hyp.write_text("0,-1,0.0,0.0,10.0,10.0\n0,-1,90.0,90.0,10.0,10.0\n")
        code, out, _ = run(capsys, "eval", "--mode", "det", "--gt", str(gt), "--hyp", str(hyp))
        assert code == 0
        report = json.loads(out)
        assert (report["tp"], report["fp"], report["fn"]) == (1, 1, 1)


def segments(text: str) -> dict:
    return {"nba/segments.csv": text}


COURT_FAULTS = [
    Fault("test_candidates_below_one_is_input_error[0]", "nba", {}, ("--candidates", "0"), 1,
          "error: candidates: must be at least 1, got 0"),
    Fault("test_candidates_below_one_is_input_error[-1]", "nba", {}, ("--candidates", "-1"), 1,
          "error: candidates: must be at least 1, got -1"),
    Fault("test_out_of_range_nba_setting_is_input_error[--step-nan-step]", "nba", {}, ("--step", "nan"), 1,
          "error: step: must be a finite number of pixels >= 1, got nan"),
    Fault("test_out_of_range_nba_setting_is_input_error[--step-inf-step]", "nba", {}, ("--step", "inf"), 1,
          "error: step: must be a finite number of pixels >= 1, got inf"),
    Fault("test_out_of_range_nba_setting_is_input_error[--step-0.5-step]", "nba", {}, ("--step", "0.5"), 1,
          "error: step: must be a finite number of pixels >= 1, got 0.5"),
    Fault("test_out_of_range_nba_setting_is_input_error[--drop-tol-nan-drop_tol]", "nba", {}, ("--drop-tol", "nan"), 1,
          "error: drop_tol: must lie in [0, 1), got nan"),
    Fault("test_out_of_range_nba_setting_is_input_error[--drop-tol--1-drop_tol]", "nba", {}, ("--drop-tol", "-1"), 1,
          "error: drop_tol: must lie in [0, 1), got -1.0"),
    Fault("test_out_of_range_nba_setting_is_input_error[--drop-tol-1-drop_tol]", "nba", {}, ("--drop-tol", "1"), 1,
          "error: drop_tol: must lie in [0, 1), got 1.0"),
    *(
        fault
        for hsv in ("nan:150,0.4:1,0.2:1", "90:150,nan:1,0.2:1", "90:inf,0.4:1,0.2:1")
        for fault in (
            Fault(f"test_non_finite_hsv_bound_is_input_error[{hsv}]", "european", {}, ("--hsv", hsv), 1,
                  f"error: hsv: bad value '{hsv}'"),
            Fault(f"test_non_finite_hsv_bound_is_input_error[{hsv}]", "european", config(f"hsv={hsv}\n"),
                  ("--hsv", None, "--config", "run.cfg"), 1, f"error: run.cfg:1 (field 'hsv'): bad value '{hsv}'"),
        )
    ),
    # hue never exceeds 360, and the full ranges hold every colour
    Fault("test_filter_matching_no_or_every_pixel_is_degenerate[400:500,0.4:1,0.2:1]", "european", {},
          ("--hsv", "400:500,0.4:1,0.2:1"), 2, "error: the HSV filter matches no pixel"),
    Fault("test_filter_matching_no_or_every_pixel_is_degenerate[0:360,0:1,0:1]", "european", {},
          ("--hsv", "0:360,0:1,0:1"), 2, "error: the HSV filter matches every pixel"),
    Fault("test_pgm_comment_without_end_fails_naming_the_mask", "nba",
          {"nba/mask.pgm": b"P5\n4 3\n# people, with no newline after"}, (), 1,
          "error: nba/mask.pgm: unterminated comment"),
    Fault("test_other_variant_flag_rejected[european---mask-mask.pgm]", "european", {}, ("--mask", "mask.pgm"), 1,
          "error: mask: not read by court --court european"),
    Fault("test_other_variant_flag_rejected[european---step-7]", "european", {}, ("--step", "7"), 1,
          "error: step: not read by court --court european"),
    Fault("test_other_variant_flag_rejected[european---drop-tol-0.2]", "european", {}, ("--drop-tol", "0.2"), 1,
          "error: drop_tol: not read by court --court european"),
    Fault("test_other_variant_flag_rejected[nba---frames-frame.ppm]", "nba", {}, ("--frames", "frame.ppm"), 1,
          "error: frames: not read by court --court nba"),
    Fault(f"test_other_variant_flag_rejected[nba---hsv-{GREEN}]", "nba", {}, ("--hsv", GREEN), 1,
          "error: hsv: not read by court --court nba"),
    Fault("test_other_variant_config_key_rejected[european-drop_tol=0.2]", "european",
          config("candidates=4\ndrop_tol=0.2\n"), ("--config", "run.cfg"), 1,
          "error: run.cfg:2 (field 'drop_tol'): not read by court --court european"),
    Fault("test_other_variant_config_key_rejected[nba-frames=frame.ppm]", "nba",
          config("candidates=4\nframes=frame.ppm\n"), ("--config", "run.cfg"), 1,
          "error: run.cfg:2 (field 'frames'): not read by court --court nba"),
    *(
        Fault(f"test_variant_setting_required[{in_config}-{variant}---{dropped}]", variant,
              config(f"court={variant}\n") if in_config else {},
              (f"--{dropped}", None) + (("--court", None, "--config", "run.cfg") if in_config else ()), 1,
              f"error: {dropped}: required for court --court {variant}")
        for in_config in (False, True)
        for variant, dropped in (("european", "hsv"), ("european", "frames"), ("nba", "mask"))
    ),
    Fault("test_no_segments_is_input_error", "nba", segments(""), (), 1,
          "error: nba/segments.csv: no segments: dominant-line voting needs at least one"),
    Fault("test_field_beyond_the_csv_limit_is_input_error", "nba",
          segments("0,200,191,200\n" + "1" * 200_000 + ",0,1,0\n"), (), 1,
          "error: nba/segments.csv:2 (field 'x0'): field larger than field limit (131072)"),
    # the converged top line leaves through the frame's top right corner
    Fault("test_boundary_clipping_a_corner_is_degenerate[people0-top]", "nba",
          {"nba/mask.pgm": people(100, 200, (0, 2, 192, 200), (80, 100, 0, 200)), **segments("0,10,199,30\n")}, (), 2,
          "error: top boundary must classify as horizontal"),
    # the mirror image: the bottom line leaves through the bottom left corner
    Fault("test_boundary_clipping_a_corner_is_degenerate[people1-bottom]", "nba",
          {"nba/mask.pgm": people(100, 200, (0, 20, 0, 200), (98, 100, 0, 8)), **segments("0,10,199,30\n")}, (), 2,
          "error: bottom boundary must classify as horizontal"),
    # 1e-13 is a nonzero length, but too short to define a line
    Fault("test_segment_shorter_than_line_tolerance_is_input_error", "nba", segments("0,0,1e-13,0\n"), (), 1,
          "error: nba/segments.csv:1: segment endpoints coincide"),
    # finite endpoints 2e308 apart: the length is inf and the line NaN
    Fault("test_overflowing_segment_line_is_input_error", "nba", segments("0,200,191,200\n1e308,0,-1e308,0\n"), (), 1,
          "error: nba/segments.csv:2 (field 'x0'): segment endpoint 1e+308 not finite or beyond 1e+75 in absolute value"),
    # finite endpoints, length and line, but an endpoint beyond the bound:
    # the length cubed would overflow, fit a NaN line and rank it first
    Fault("test_segment_too_long_to_fit_is_input_error", "nba", segments("0,200,191,200\n0,0,1e103,0\n"), (), 1,
          "error: nba/segments.csv:2 (field 'x1'): segment endpoint 1e+103 not finite or beyond 1e+75 in absolute value"),
    # each row's length cubed is finite, but the two far-apart diagonal rows
    # share a cell, and their distances to the cell's mean would overflow the
    # fit's moments into a NaN line
    Fault("test_far_apart_segments_of_one_cell_are_input_error", "nba",
          segments("0,200,191,200\n0,0,1e100,1e100\n1e115,1e115,1.00000000000001e115,1.00000000000001e115\n"), (), 1,
          "error: nba/segments.csv:2 (field 'x1'): segment endpoint 1e+100 not finite or beyond 1e+75 in absolute value"),
    Fault("test_all_false_mask_is_degenerate", "nba",
          {"nba/mask.pgm": people(200, 100), **segments("0,100,99,100\n")}, (), 2,
          "error: boundary candidates met before any fraction drop"),
]


@fault_tests(COURT_FAULTS)
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

    def test_band_edge_just_above_row_zero_keeps_row_zero(self):
        dims = FrameDims(100, 50)
        top, bottom = Line2.horizontal_at(-0.5), Line2.horizontal_at(20.5)
        assert _rows_between(top, bottom, dims) == (0, 21)
        assert _rows_between(Line2.horizontal_at(3.0), bottom, dims) == (4, 21)


SYNTH_FAULTS = [
    Fault("test_out_of_range_noise_fails[--jitter-nan]", "synth", {}, ("--jitter", "nan"), 1,
          "error: jitter: must be finite and >= 0, got nan"),
    Fault("test_out_of_range_noise_fails[--jitter-inf]", "synth", {}, ("--jitter", "inf"), 1,
          "error: jitter: must be finite and >= 0, got inf"),
    Fault("test_out_of_range_noise_fails[--jitter-1e308]", "synth", {}, ("--jitter", "1e308"), 1,
          "error: jitter: 1e+308 overflows a box at t=0"),
    Fault("test_out_of_range_noise_fails[--pan-nan,0]", "synth", {}, ("--pan", "nan,0"), 1,
          "error: pan: components must be finite, got (nan, 0.0)"),
    Fault("test_out_of_range_noise_fails[--extra-dropout--0.5]", "synth", {}, ("--extra-dropout", "-0.5"), 1,
          "error: extra_dropout: must lie in [0, 1), got -0.5"),
    Fault("test_out_of_range_noise_fails[--extra-dropout-nan]", "synth", {}, ("--extra-dropout", "nan"), 1,
          "error: extra_dropout: must lie in [0, 1), got nan"),
    # 3e20 bytes: numpy refuses the shape before allocating anything
    Fault("test_frame_too_large_for_an_array_fails", "synth", {}, ("--width", "10000000000", "--height", "10000000000"),
          1, "error: width/height: a 10000000000x10000000000 frame does not fit in memory"),
    Fault("test_infeasible_scenario_names_its_settings[drift]", "synth", {},
          ("--targets", "2", "--num-frames", "40", "--width", "64", "--height", "48", "--pan", "5,0"), 1,
          "error: pan/num_frames/width/height: target 0 cannot stay in frame with drift (-5.0, 0.0)/frame"),
    Fault("test_infeasible_scenario_names_its_settings[colors]", "synth", {}, ("--targets", "60"), 1,
          "error: targets: the color lattice holds 56 colors, got 60"),
    Fault("test_directory_with_frames_fails_before_writing", "synth", {}, ("--out", "scen", "--num-frames", "5"), 1,
          "error: scen/frames: already holds frame files; synth needs a fresh directory"),
]


@fault_tests(SYNTH_FAULTS)
class TestSynthCommand:
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


# one out-of-range value of each ranged setting, by command, and what its error says of it
OUT_OF_RANGE = [
    ("track", "alpha", "1.5", "must lie in [0, 1], got 1.5"),
    ("track", "beta", "-0.1", "must lie in [0, 1], got -0.1"),
    ("track", "gate", "-1", "must be positive, got -1.0"),
    ("track", "memory", "3", "must be 1 or 2, got 3"),
    ("track", "patch", "0", "must be at least 1, got 0"),
    ("eval", "mode", "both", "must be det or mot, got both"),
    ("eval", "mot_iou", "2", "must lie in [0, 1), got 2.0"),
    ("court", "court", "fiba", "must be european or nba, got fiba"),
    ("court", "candidates", "0", "must be at least 1, got 0"),
    ("court", "step", "0.5", "must be a finite number of pixels >= 1, got 0.5"),
    ("court", "drop_tol", "1", "must lie in [0, 1), got 1.0"),
    ("synth", "targets", "0", "must be at least 1, got 0"),
    ("synth", "num_frames", "1", "must be at least 2, got 1"),
    ("synth", "width", "0", "must be at least 1, got 0"),
    ("synth", "height", "0", "must be at least 1, got 0"),
    ("synth", "dropout", "1", "must lie in [0, 1), got 1.0"),
    ("synth", "jitter", "-1", "must be finite and >= 0, got -1.0"),
    ("synth", "extra_dropout", "1", "must lie in [0, 1), got 1.0"),
    ("synth", "pan", "nan,0", "components must be finite, got (nan, 0.0)"),
]

SETTING_FAULTS = [
    *(
        fault
        for command, name, value, said in OUT_OF_RANGE
        for fault in out_of_range(f"test_flag_and_config_value_out_of_range_fail_alike[{command}-{name}-{value}]",
                                  "nba" if command == "court" else command, name, value, said,
                                  "# line 2 is out of range\n")
    ),
    # argparse would keep the last value; a config key set twice fails alike (read_config_file)
    Fault("test_flag_given_twice_fails[gate]", "track", {}, ("--gate", ("0.9", "0.3")), 1,
          "error: gate: flag given 2 times"),
    Fault("test_flag_given_twice_fails[config]", "track", config("gate=0.9\n"), ("--config", ("run.cfg", "run.cfg")), 1,
          "error: config: flag given 2 times"),
]


@fault_tests(SETTING_FAULTS)
class TestSettingRanges:
    def test_every_ranged_setting_is_covered(self):
        assert {name for _, name, _, _ in OUT_OF_RANGE} == {n for n, s in SETTINGS.items() if s.need}


CONFIG_FAULTS = [
    Fault("test_unknown_config_key_rejected", "track", config("bogus=1\n"), ("--config", "run.cfg"), 1,
          "error: run.cfg:1 (field 'bogus'): unknown key 'bogus'"),
    Fault("test_non_utf8_config_byte_reports_line", "track", config(b"gate=0.9\nalpha=\xff\xfe\n"),
          ("--config", "run.cfg"), 1, "error: run.cfg:2: not UTF-8 text"),
    Fault("test_nul_byte_in_a_config_path_reports_line", "eval", config("mode=mot\ngt=g\0t.csv\n"),
          ("--mode", None, "--gt", None, "--config", "run.cfg"), 1,
          "error: run.cfg:2 (field 'gt'): value holds a NUL byte"),
    Fault("test_repeated_config_key_rejected[command0-lines0-gate]", "track",
          config("gate=0.9\n# comment line\ngate=0.3\n"), ("--config", "run.cfg"), 1,
          "error: run.cfg:3 (field 'gate'): repeated key, first set on line 1"),
    Fault("test_repeated_config_key_rejected[command1-lines1-extra_dropout]", "synth",
          config("extra-dropout=0.1\nseed=3\nextra_dropout=0.2\n"), ("--config", "run.cfg"), 1,
          "error: run.cfg:3 (field 'extra_dropout'): repeated key, first set on line 1"),
    *out_of_range("test_value_that_does_not_parse_is_input_error", "track", "gate", "abc", "bad value 'abc'"),
    Fault("test_bad_hsv_flag_is_input_error", "european", {}, ("--hsv", "not-a-filter"), 1,
          "error: hsv: bad value 'not-a-filter'"),
    Fault("test_bad_hsv_flag_is_input_error", "european", config("court=european\nhsv=not-a-filter\n"),
          ("--court", None, "--hsv", None, "--config", "run.cfg"), 1,
          "error: run.cfg:2 (field 'hsv'): bad value 'not-a-filter'"),
]


@fault_tests(CONFIG_FAULTS)
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


# what each base argv runs, as a "not read by" error names it
RUN = {"track": "the track command", "eval": "eval --mode mot", "nba": "court --court nba",
       "synth": "the synth command"}
# a setting of another command, as a flag and as a config key: (base, setting, value)
OTHER_COMMAND = [("track", "court", "nba"), ("eval", "alpha", "0.1"), ("nba", "gate", "0.3"),
                 ("synth", "mot_iou", "0.5")]

# BASE[base][0] is the command's name
SURFACE_FAULTS = [
    *(
        Fault(f"test_flag_of_another_command_rejected[{BASE[base][0]}-{flag}-{value}]", base, {}, (flag, value), 1,
              f"error: {name}: not read by {RUN[base]}")
        for base, name, value in OTHER_COMMAND
        for flag in ["--" + name.replace("_", "-")]
    ),
    # no command has this flag
    *(
        Fault(f"test_flag_of_another_command_rejected[{BASE[base][0]}---dup-iou-0.5]", base, {}, ("--dup-iou", "0.5"), 1,
              "courttrack: error: unrecognized arguments: --dup-iou 0.5")
        for base in ("track", "eval", "nba", "synth")
    ),
    *(
        Fault(f"test_config_key_of_another_command_rejected[{BASE[base][0]}-{key}={value}]", base,
              config(f"out=x\n{key}={value}\n"), ("--config", "run.cfg"), 1,
              f"error: run.cfg:2 (field '{key}'): not read by {RUN[base]}")
        for base, key, value in OTHER_COMMAND
    ),
    *(
        Fault(f"test_abbreviated_flag_rejected[{BASE[base][0]}-{flag}]", base, {}, (flag, value), 1,
              f"courttrack: error: unrecognized arguments: {flag} {value}")
        for base, flag, value in [("track", "--pat", "3"), ("synth", "--num", "3"), ("eval", "--mot", "0.5")]
    ),
]


@fault_tests(SURFACE_FAULTS)
class TestCommandSurface:
    @pytest.mark.parametrize("command", ["track", "eval", "court", "synth"])
    def test_help_exits_zero(self, capsys, command):
        code, out, _ = run(capsys, command, "--help")
        assert code == 0
        assert f"courttrack {command}" in out

    @pytest.mark.parametrize(
        "command, flags",
        [
            ("track", "--frames --detections --homographies --out --alpha --beta --gate --memory --patch"),
            ("eval", "--gt --hyp --out --mode --mot-iou"),
            ("court", "--frames --segments --mask --out --court --hsv --candidates --step --drop-tol"),
            ("synth", "--out --seed --targets --num-frames --width --height --pan --dropout --jitter --extra-dropout"),
        ],
    )
    def test_help_lists_the_flags_that_the_command_reads(self, capsys, command, flags):
        code, out, _ = run(capsys, command, "--help")
        listed = [word for line in out.partition("options:")[2].splitlines() for word in line.split()[:2]
                  if word.startswith("--")]
        assert code == 0
        assert listed == ["--help", "--config", *flags.split()]


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
# it returns, the numpy and courttrack modules whose objects the
# collector still tracks; the last stdout line reports that, the exit
# code, the OS threads, the OpenBLAS setting and the modules loaded.
PROBE = """
import gc, json, os, sys
import courttrack.cli as cli

unfrozen = []

def probing(command):
    def probe(args):
        rc = command(args)
        tracked = {id(o) for o in gc.get_objects()}
        unfrozen.extend(name for name, module in list(sys.modules.items())
                        if name.partition(".")[0] in ("numpy", "courttrack") and id(vars(module)) in tracked)
        return rc
    return probe

cli.COMMANDS = {name: probing(command) for name, command in cli.COMMANDS.items()}
rc = cli.main(sys.argv[1:])
print(json.dumps({
    "rc": rc,
    "threads": len(os.listdir("/proc/self/task")) if os.path.isdir("/proc/self/task") else None,
    "blas": os.environ.get("OPENBLAS_NUM_THREADS"),
    "numpy": "numpy" in sys.modules,
    "scipy": any(m.partition(".")[0] == "scipy" for m in sys.modules),
    "modules": sorted(m.partition(".")[2] for m in sys.modules if m.startswith("courttrack.")),
    "unfrozen": sorted(unfrozen),
}))
"""


def bare_lazy_reads(source: str) -> list[str]:
    """The names of cli.IMPORTED that source uses as bare names, outside
    annotations, which are never evaluated (from __future__ import annotations)."""
    tree = ast.parse(source)
    hints = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            a = node.args
            hints += [arg.annotation for arg in (*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg) if arg]
            hints.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            hints.append(node.annotation)
    exempt = {id(n) for hint in hints if hint is not None for n in ast.walk(hint)}
    return [n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and n.id in HOME and id(n) not in exempt]


class TestStartup:
    """What a command does to a fresh process: one OS thread (OpenBLAS
    pinned unless the user says otherwise), each module it loads frozen
    out of the collector once imported, and no module it does not use,
    scipy, a test dependency, included. Importing courttrack.cli, --help
    and the errors found before a command runs load no numpy."""

    @pytest.fixture(scope="class")
    def runs(self, tmp_path_factory):
        """argv of a court, a track, an eval and a synth run on small inputs."""
        tmp = tmp_path_factory.mktemp("startup")
        assert main(synth_args(tmp / "scen", targets=4, frames=6, seed=7, pan="2,0")) == 0
        gt = str(tmp / "scen" / "gt.csv")
        return {
            "court": TestCourtCommand.planted_nba_args(tmp, tmp / "court.json"),
            "track": track_args(tmp / "scen", tmp / "tracks.csv"),
            "eval": ["eval", "--mode", "mot", "--gt", gt, "--hyp", gt],
            "synth": synth_args(tmp / "synth", targets=2, frames=2, width=64, height=48),
        }

    @pytest.fixture(scope="class")
    def probed(self, runs):
        """What the probe saw of each run, each run once."""
        return {command: self.probe(*argv) for command, argv in runs.items()}

    @staticmethod
    def probe(*argv, **env) -> dict:
        seen = json.loads(run_child(PROBE, *argv, **env).stdout.splitlines()[-1])
        assert not seen["scipy"]
        return seen

    @pytest.mark.parametrize("preset, seen", [(None, "1"), ("3", "3")])
    def test_blas_threads_pinned_unless_set(self, runs, probed, preset, seen):
        court = probed["court"] if preset is None else self.probe(*runs["court"], OPENBLAS_NUM_THREADS=preset)
        assert court["blas"] == seen

    @pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs Linux /proc")
    @pytest.mark.parametrize("command", ["court", "track"])
    def test_command_starts_no_thread(self, probed, command):
        # OpenBLAS starts its workers when numpy loads, so this fails if
        # numpy is imported before the pin (on a machine of 2 or more CPUs)
        seen = probed[command]
        assert seen["rc"] == 0 and seen["numpy"]
        assert seen["threads"] == 1

    @pytest.mark.parametrize("command", ["court", "track", "eval", "synth"])
    def test_command_modules_are_frozen_when_it_returns(self, probed, command):
        seen = probed[command]
        assert seen["rc"] == 0 and seen["numpy"]
        assert seen["unfrozen"] == []

    def test_court_loads_no_tracker_module(self, probed):
        seen = probed["court"]
        assert seen["rc"] == 0 and "court" in seen["modules"]
        assert not {"cost", "detect", "track", "metrics", "synth", "rng"} & set(seen["modules"])

    def test_track_loads_no_court_or_synth_module(self, probed):
        seen = probed["track"]
        assert seen["rc"] == 0 and "track" in seen["modules"]
        assert not {"court", "synth", "rng"} & set(seen["modules"])

    def test_eval_loads_no_tracker_module(self, probed):
        seen = probed["eval"]  # a --mode mot run
        assert seen["rc"] == 0 and "metrics" in seen["modules"]
        assert not {"detect", "track", "cost", "imaging", "court", "synth", "rng"} & set(seen["modules"])

    def test_eval_loads_detect_for_a_jsonl_hypothesis(self, runs):
        scen = Path(runs["track"][2]).parent
        seen = self.probe("eval", "--mode", "det", "--gt", scen / "gt.csv", "--hyp", scen / "detections.jsonl")
        assert seen["rc"] == 0 and "detect" in seen["modules"]

    def test_synth_loads_no_tracker_or_court_module(self, probed):
        seen = probed["synth"]
        assert seen["rc"] == 0 and "synth" in seen["modules"]
        assert not {"track", "cost", "court"} & set(seen["modules"])

    def test_commands_read_the_lazy_names_as_cli_attributes(self):
        # a bare read would be a NameError where no test reaches, or a call
        # that a wrapper set on courttrack.cli before main runs does not see
        assert bare_lazy_reads(Path(courttrack.cli.__file__).read_text(encoding="utf-8")) == []
        planted = "def f(path: PatchWindow) -> FrameRaster:\n    return read_ppm(path), cli.read_pgm(path)\n"
        assert bare_lazy_reads(planted) == ["read_ppm"]

    def test_import_loads_no_numpy(self):
        out = run_child("import sys, courttrack.cli; print('numpy' in sys.modules)")
        assert out.stdout.strip() == "False"

    @pytest.mark.parametrize(
        "argv, code",
        [(["--help"], 0), (["track", "--help"], 0), (["track", "--gate", "abc"], 1), ([], 1),
         (["eval", "--config", "{cfg}"], 1), (["court", "--court", "european", "--hsv", "nan:1,0:1,0:1"], 1),
         (["track", "--court", "nba"], 1), (["track", "--config", "{other}"], 1),
         (["track", "--gate", "0.9", "--gate", "0.3"], 1)],
        ids=["help", "command-help", "usage", "no-command", "config-file", "hsv", "flag-not-read", "key-not-read",
             "flag-twice"],
    )
    def test_no_numpy_before_a_command_runs(self, tmp_path, argv, code):
        (tmp_path / "bad.cfg").write_text("bogus=1\n")
        (tmp_path / "other.cfg").write_text("court=nba\n")  # a key of another command
        seen = self.probe(*(arg.format(cfg=tmp_path / "bad.cfg", other=tmp_path / "other.cfg") for arg in argv))
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

    def test_homographies_reader_loads_only_geometry(self, runs):
        code = (
            "import sys, courttrack.cli as cli\n"
            "cli.read_homographies_json(sys.argv[1], 6)\n"
            "print(' '.join(sorted(m for m in sys.modules if m.startswith('courttrack.'))))"
        )
        loaded = run_child(code, Path(runs["track"][2]).parent / "homographies.json").stdout.split()
        assert loaded == ["courttrack.cli", "courttrack.defaults", "courttrack.errors", "courttrack.geometry"]

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
