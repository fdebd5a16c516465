import json
from pathlib import Path

import numpy as np
import pytest

from courttrack.cli import _build_parser, build_run_config, main
from courttrack.geometry import FrameDims
from courttrack.imaging import BinaryMask, FrameRaster, write_pgm, write_ppm
from courttrack.metrics import read_mot_csv


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


class TestCourtCommand:
    def test_nba_planted_mask(self, tmp_path, capsys):
        bits = np.random.default_rng(0).random((400, 192)) < 0.04
        bits[:80] = True
        bits[320:] = True
        write_pgm(BinaryMask(bits), tmp_path / "mask.pgm")
        (tmp_path / "segments.csv").write_text("0,200,191,200\n")
        out_json = tmp_path / "court.json"
        code, out, _ = run(
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
        assert code == 0
        payload = json.loads(out_json.read_text())
        a, b, c = payload["top"]
        assert abs(-c / b - 80.0) <= 4.0
        a, b, c = payload["bottom"]
        assert abs(abs(c / b) - 320.0) <= 4.0
        assert payload["left"] is None and payload["right"] is None

    def test_european_planted_frame(self, tmp_path, capsys):
        from courttrack.imaging import FrameRaster, write_ppm

        arr = np.empty((100, 100, 3), dtype=np.uint8)
        arr[:30] = (40, 180, 60)
        arr[30:] = (120, 120, 130)
        write_ppm(FrameRaster(arr), tmp_path / "frame.ppm")
        (tmp_path / "segments.csv").write_text(
            "0,30,99,30\n10,10,40,10\n10,60,30,60\n"
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
        a, b, c = payload["top"]
        assert abs(-c / b - 30.0) < 1e-6

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


class TestConfigPrecedence:
    def test_flag_beats_config_beats_default(self, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text("gate=0.9\nalpha=0.5\n# comment line\n")
        args = _build_parser().parse_args(
            ["track", "--config", str(config), "--alpha", "0.7"]
        )
        cfg = build_run_config(args)
        assert cfg.alpha == 0.7  # flag wins
        assert cfg.gate == 0.9  # config wins over default
        assert cfg.beta == 0.05  # default

    def test_unknown_config_key_rejected(self, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text("bogus=1\n")
        args = _build_parser().parse_args(["track", "--config", str(config)])
        from courttrack.errors import InputFormatError

        with pytest.raises(InputFormatError):
            build_run_config(args)

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
