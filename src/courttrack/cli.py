"""Command-line surface and file-format layer for offline runs.

Subcommands: track, eval, court, synth. Every command is deterministic
given its input files and flags; outputs are byte-stable across runs.
Exit codes: 0 success, 1 input/format error, 2 degenerate-result error.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from dataclasses import dataclass
from pathlib import Path

from .cost import CostWeights
from .court import (
    CourtRegion,
    HsvFilter,
    Orientation,
    classify_orientation,
    converge_boundaries_nba,
    read_segments_csv,
    select_boundary_european,
    vote_dominant_lines,
)
from .detect import read_detections_jsonl, write_detections_jsonl
from .errors import (
    CourtTrackError,
    DegenerateCourt,
    EmptyGroundTruth,
    InputFormatError,
    NoCandidates,
)
from .geometry import BBox, FrameDims, Homography, Line2
from .imaging import BinaryMask, FrameRaster, PatchWindow, read_pgm, read_ppm, write_ppm
from .metrics import (
    eval_detections,
    eval_mot_records,
    read_mot_csv,
    write_mot_csv,
)
from .synth import ScenarioSpec, SyntheticSequence, degrade, generate
from .track import FrameObservations, MatchConfig, run_tracker, write_tracks_csv

FRAME_FILE_PATTERN = "frame_%06d.ppm"

_DEFAULTS = {
    "alpha": 0.65,
    "beta": 0.05,
    "gate": 0.5,
    "memory": 2,
    "patch": 12,
    "dup_iou": 0.5,
    "mot_iou": 0.5,
    "candidates": 10,
    "step": 2.0,
    "drop_tol": 0.005,
    "court": "none",
    "hsv": None,
    "seed": 0,
}

_VALUE_TYPES = {
    "alpha": float,
    "beta": float,
    "gate": float,
    "memory": int,
    "patch": int,
    "dup_iou": float,
    "mot_iou": float,
    "candidates": int,
    "step": float,
    "drop_tol": float,
    "court": str,
    "hsv": str,
    "seed": int,
    "frames": str,
    "detections": str,
    "homographies": str,
    "segments": str,
    "mask": str,
    "gt": str,
    "hyp": str,
    "out": str,
}


@dataclass
class RunConfig:
    """Merged command configuration: flag > config file > default."""

    alpha: float
    beta: float
    gate: float
    memory: int
    patch: int
    dup_iou: float
    mot_iou: float
    candidates: int
    step: float
    drop_tol: float
    court: str
    hsv: HsvFilter | None
    seed: int
    frames: str | None = None
    detections: str | None = None
    homographies: str | None = None
    segments: str | None = None
    mask: str | None = None
    gt: str | None = None
    hyp: str | None = None
    out: str | None = None

    def match_config(self) -> MatchConfig:
        return MatchConfig(
            gate=self.gate,
            memory_depth=self.memory,
            weights=CostWeights(self.alpha, self.beta),
            patch=PatchWindow(self.patch),
        )


def parse_hsv_filter(text: str) -> HsvFilter:
    """Parse "h0:h1,s0:s1,v0:v1" into an HsvFilter."""
    parts = text.split(",")
    if len(parts) != 3:
        raise ValueError(f"expected 3 comma-separated ranges in {text!r}")
    bounds = []
    for part in parts:
        lo_hi = part.split(":")
        if len(lo_hi) != 2:
            raise ValueError(f"expected lo:hi in {part!r}")
        bounds.append((float(lo_hi[0]), float(lo_hi[1])))
    (h_lo, h_hi), (s_lo, s_hi), (v_lo, v_hi) = bounds
    return HsvFilter(h_lo, h_hi, s_lo, s_hi, v_lo, v_hi)


def read_config_file(path) -> dict:
    """Flat key=value configuration; '#' starts a comment line."""
    values = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise InputFormatError(path, "expected key=value", line=lineno)
            key, _, value = line.partition("=")
            key = key.strip().replace("-", "_")
            if key not in _VALUE_TYPES:
                raise InputFormatError(path, f"unknown key {key!r}", line=lineno, field=key)
            try:
                values[key] = _VALUE_TYPES[key](value.strip())
            except ValueError:
                raise InputFormatError(
                    path, f"bad value {value.strip()!r}", line=lineno, field=key
                ) from None
    return values


def build_run_config(args: argparse.Namespace) -> RunConfig:
    merged = dict(_DEFAULTS)
    if getattr(args, "config", None):
        merged.update(read_config_file(args.config))
    for key in _VALUE_TYPES:
        flag = getattr(args, key, None)
        if flag is not None:
            merged[key] = flag
    hsv = merged.get("hsv")
    if isinstance(hsv, str):
        try:
            hsv = parse_hsv_filter(hsv)
        except ValueError as exc:
            raise InputFormatError("hsv", str(exc)) from None
    if merged["court"] not in ("european", "nba", "none"):
        raise InputFormatError("court", f"unknown court variant {merged['court']!r}")
    return RunConfig(
        alpha=float(merged["alpha"]),
        beta=float(merged["beta"]),
        gate=float(merged["gate"]),
        memory=int(merged["memory"]),
        patch=int(merged["patch"]),
        dup_iou=float(merged["dup_iou"]),
        mot_iou=float(merged["mot_iou"]),
        candidates=int(merged["candidates"]),
        step=float(merged["step"]),
        drop_tol=float(merged["drop_tol"]),
        court=str(merged["court"]),
        hsv=hsv,
        seed=int(merged["seed"]),
        frames=merged.get("frames"),
        detections=merged.get("detections"),
        homographies=merged.get("homographies"),
        segments=merged.get("segments"),
        mask=merged.get("mask"),
        gt=merged.get("gt"),
        hyp=merged.get("hyp"),
        out=merged.get("out"),
    )


# --- homographies JSON ---------------------------------------------------------

def write_homographies_json(homographies: list[Homography], path) -> None:
    """Array of {"frame": int, "h": [9 numbers row-major]}."""
    payload = [
        {"frame": t, "h": h.flat()} for t, h in enumerate(homographies)
    ]
    Path(path).write_text(json.dumps(payload, sort_keys=True, indent=1) + "\n")


def read_homographies_json(path) -> dict[int, Homography]:
    try:
        payload = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise InputFormatError(path, f"invalid JSON: {exc}") from None
    if not isinstance(payload, list):
        raise InputFormatError(path, "expected a JSON array")
    out: dict[int, Homography] = {}
    for idx, entry in enumerate(payload):
        try:
            frame = int(entry["frame"])
            matrix = entry["h"]
        except (KeyError, TypeError, ValueError):
            raise InputFormatError(path, f"entry {idx} needs 'frame' and 'h'", field="frame")
        try:
            out[frame] = Homography(matrix)
        except ValueError as exc:
            raise InputFormatError(path, f"entry {idx}: {exc}", field="h") from None
    return out


# --- frame directory -----------------------------------------------------------

def load_frame_series(frames_dir) -> list[FrameRaster]:
    """Read frame_%06d.ppm files indexed consecutively from 0."""
    root = Path(frames_dir)
    if not root.is_dir():
        raise InputFormatError(frames_dir, "not a directory of frames")
    indexed = {}
    for p in root.iterdir():
        match = re.fullmatch(r"frame_(\d{6})\.ppm", p.name)
        if match:
            indexed[int(match.group(1))] = p
    if not indexed:
        raise InputFormatError(frames_dir, "no frame_%06d.ppm files found")
    expected = list(range(len(indexed)))
    if sorted(indexed) != expected:
        raise InputFormatError(frames_dir, "frame files are not consecutive from 0")
    frames = []
    for i in expected:
        frame = read_ppm(indexed[i])
        # the tracker normalizes every distance by frame 0's diagonal
        if frames and frame.dims != frames[0].dims:
            first = frames[0].dims
            raise InputFormatError(
                indexed[i], f"frame is {frame.dims.w}x{frame.dims.h}, frame 0 is {first.w}x{first.h}"
            )
        frames.append(frame)
    return frames


def write_scenario(seq: SyntheticSequence, outdir) -> None:
    """Persist a synthetic scenario in the standard pipeline formats."""
    root = Path(outdir)
    (root / "frames").mkdir(parents=True, exist_ok=True)
    for t, frame in enumerate(seq.frames):
        write_ppm(frame, root / "frames" / (FRAME_FILE_PATTERN % t))
    write_detections_jsonl(seq.detections, root / "detections.jsonl")
    write_homographies_json(seq.homographies, root / "homographies.json")
    write_mot_csv(seq.gt, root / "gt.csv")


# --- commands --------------------------------------------------------------------

def cmd_track(cfg: RunConfig) -> int:
    for name in ("detections", "homographies", "frames", "out"):
        if getattr(cfg, name) is None:
            raise InputFormatError(name, "required for the track command")
    detections = read_detections_jsonl(cfg.detections)
    homographies = read_homographies_json(cfg.homographies)
    frames = load_frame_series(cfg.frames)

    n = len(frames)
    bad = [t for t in detections if not 0 <= t < n]
    if bad:
        raise InputFormatError(
            cfg.detections, f"detections reference frames {sorted(bad)} outside 0..{n - 1}"
        )
    sequence = []
    for t in range(n):
        h = homographies.get(t)
        if h is None:
            print(f"warning: no homography for frame {t}, assuming identity", file=sys.stderr)
            h = Homography.identity()
        sequence.append(FrameObservations(t, detections.get(t, []), h, frames[t]))

    tracks = run_tracker(sequence, cfg.match_config())
    write_tracks_csv(tracks, cfg.out)
    return 0


def _report_out(report_dict: dict, cfg: RunConfig) -> None:
    text = json.dumps(report_dict, sort_keys=True)
    print(text)
    if cfg.out:
        Path(cfg.out).write_text(text + "\n")


def cmd_eval(cfg: RunConfig, mode: str) -> int:
    for name in ("gt", "hyp"):
        if getattr(cfg, name) is None:
            raise InputFormatError(name, "required for the eval command")
    gt = read_mot_csv(cfg.gt)
    if not gt:
        raise EmptyGroundTruth(f"{cfg.gt} holds no ground-truth boxes")
    if mode == "mot":
        hyp = read_mot_csv(cfg.hyp)
        report = eval_mot_records(gt, hyp, cfg.mot_iou)
    else:
        per_frame: dict[int, list[BBox]] = {}
        if str(cfg.hyp).endswith(".jsonl"):
            for t, dets in read_detections_jsonl(cfg.hyp).items():
                per_frame[t] = [d.bbox for d in dets]
        else:
            for rec in read_mot_csv(cfg.hyp):
                per_frame.setdefault(rec.frame, []).append(rec.bbox)
        report = eval_detections(gt, per_frame)
    _report_out(report.to_json_dict(), cfg)
    return 0


def _line_json(line: Line2 | None):
    return None if line is None else list(line.coeffs())


def _rows_between(top: Line2, bottom: Line2, dims: FrameDims) -> tuple[int, int]:
    """Bounding row range of the band between two near-horizontal lines."""
    ys = []
    for line in (top, bottom):
        for x in (0.0, float(dims.w)):
            if abs(line.b) > 1e-9:
                ys.append(-(line.a * x + line.c) / line.b)
    r0 = max(0, int(min(ys)) + 1)
    r1 = min(dims.h, int(max(ys)) + 1)
    return r0, r1


def cmd_court(cfg: RunConfig) -> int:
    if cfg.segments is None:
        raise InputFormatError("segments", "required for the court command")
    if cfg.court not in ("european", "nba"):
        raise InputFormatError("court", "court command needs --court european or nba")
    segments = read_segments_csv(cfg.segments)

    if cfg.court == "european":
        if cfg.frames is None:
            raise InputFormatError("frames", "european variant needs a frame image")
        if cfg.hsv is None:
            raise InputFormatError("hsv", "european variant needs an --hsv filter")
        frame_path = Path(cfg.frames)
        if frame_path.is_dir():
            frame_path = frame_path / (FRAME_FILE_PATTERN % 0)
        frame = read_ppm(frame_path)
        dims = frame.dims
        candidates = [v.line for v in vote_dominant_lines(segments, dims)[: cfg.candidates]]
        top = select_boundary_european(candidates, frame, cfg.hsv, Orientation.HORIZONTAL)
        bottom = Line2.horizontal_at(float(dims.h))
        left = right = None
        try:
            side = select_boundary_european(candidates, frame, cfg.hsv, Orientation.VERTICAL)
            # assign by which half of the frame the line crosses at mid-height
            x_mid = (
                -(side.b * dims.h / 2.0 + side.c) / side.a if abs(side.a) > 1e-9 else dims.w
            )
            if x_mid <= dims.w / 2.0:
                left = side
            else:
                right = side
        except NoCandidates:
            pass
        region = CourtRegion.from_boundaries(top, bottom, left, right, dims)
    else:
        if cfg.mask is None:
            raise InputFormatError("mask", "nba variant needs a people-mask")
        mask = read_pgm(cfg.mask)
        dims = mask.dims
        votes = vote_dominant_lines(segments, dims)[: cfg.candidates]
        horiz = [v.line for v in votes if classify_orientation(v.line, dims) == Orientation.HORIZONTAL]
        if not horiz:
            raise NoCandidates("no horizontal dominant line among the top candidates")
        top, bottom = converge_boundaries_nba(mask, horiz[0], cfg.step, cfg.drop_tol)
        left = right = None
        vert = [v.line for v in votes if classify_orientation(v.line, dims) == Orientation.VERTICAL]
        if vert:
            r0, r1 = _rows_between(top, bottom, dims)
            if r1 - r0 >= 2:
                band = BinaryMask(mask.bits[r0:r1])
                try:
                    l_raw, r_raw = converge_boundaries_nba(band, vert[0], cfg.step, cfg.drop_tol)
                    left = Line2(l_raw.a, l_raw.b, l_raw.c - l_raw.b * r0)
                    right = Line2(r_raw.a, r_raw.b, r_raw.c - r_raw.b * r0)
                except DegenerateCourt:
                    pass
        region = CourtRegion.from_boundaries(top, bottom, left, right, dims)

    payload = {
        "top": _line_json(region.top),
        "bottom": _line_json(region.bottom),
        "left": _line_json(region.left),
        "right": _line_json(region.right),
    }
    text = json.dumps(payload, sort_keys=True)
    print(text)
    if cfg.out:
        Path(cfg.out).write_text(text + "\n")
    return 0


def cmd_synth(cfg: RunConfig, args: argparse.Namespace) -> int:
    if cfg.out is None:
        raise InputFormatError("out", "synth command needs an output directory")
    pan = (0.0, 0.0)
    if args.pan:
        parts = args.pan.split(",")
        if len(parts) != 2:
            raise InputFormatError("pan", f"expected 'px,py', got {args.pan!r}")
        pan = (float(parts[0]), float(parts[1]))
    spec = ScenarioSpec(
        n_targets=args.targets,
        n_frames=args.num_frames,
        dims=FrameDims(args.width, args.height),
        pan=pan,
        dropout_rate=args.dropout,
        jitter_sigma=args.jitter,
        seed=cfg.seed,
    )
    seq = generate(spec)
    if args.extra_dropout > 0.0:
        seq = degrade(seq, args.extra_dropout, cfg.seed)
    write_scenario(seq, cfg.out)
    return 0


# --- argument parsing ---------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="courttrack",
        description="Tracking-by-detection pipeline for single-camera basketball video",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="flat key=value config file")
    common.add_argument("--frames", help="frame directory (frame_%%06d.ppm)")
    common.add_argument("--detections", help="detections JSONL file")
    common.add_argument("--homographies", help="homographies JSON file")
    common.add_argument("--segments", help="line-segments CSV file")
    common.add_argument("--mask", help="people-mask PGM file")
    common.add_argument("--gt", help="ground-truth CSV file")
    common.add_argument("--hyp", help="hypothesis CSV/JSONL file")
    common.add_argument("--out", help="output path")
    common.add_argument("--alpha", type=float, help="distance-term weight")
    common.add_argument("--beta", type=float, help="overlap-term weight")
    common.add_argument("--gate", type=float, help="maximum acceptable matching cost")
    common.add_argument("--memory", type=int, choices=(1, 2), help="memory depth in frames")
    common.add_argument("--patch", type=int, help="patch half-extent in pixels")
    common.add_argument("--dup-iou", dest="dup_iou", type=float, help="duplicate-IoU threshold")
    common.add_argument("--mot-iou", dest="mot_iou", type=float, help="CLEAR-MOT IoU threshold")
    common.add_argument("--candidates", type=int, help="dominant lines fed to boundary search")
    common.add_argument("--step", type=float, help="NBA convergence step in pixels")
    common.add_argument("--drop-tol", dest="drop_tol", type=float, help="NBA drop tolerance")
    common.add_argument("--court", choices=("european", "nba", "none"), help="court variant")
    common.add_argument("--hsv", help="HSV filter 'h0:h1,s0:s1,v0:v1'")
    common.add_argument("--seed", type=int, help="random seed")

    sub.add_parser("track", parents=[common], help="link detections into identity tracks")

    p_eval = sub.add_parser("eval", parents=[common], help="evaluate detections or tracks")
    p_eval.add_argument("--mode", choices=("det", "mot"), required=True)

    sub.add_parser("court", parents=[common], help="estimate the court region")

    p_synth = sub.add_parser("synth", parents=[common], help="generate a synthetic scenario")
    p_synth.add_argument("--targets", type=int, default=10)
    p_synth.add_argument("--num-frames", dest="num_frames", type=int, default=40)
    p_synth.add_argument("--width", type=int, default=640)
    p_synth.add_argument("--height", type=int, default=360)
    p_synth.add_argument("--pan", help="camera pan 'px,py' in pixels/frame")
    p_synth.add_argument("--dropout", type=float, default=0.0)
    p_synth.add_argument("--jitter", type=float, default=0.0)
    p_synth.add_argument("--extra-dropout", dest="extra_dropout", type=float, default=0.0)

    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; that code is reserved for
        # degenerate results here, so remap usage problems to 1
        return 0 if exc.code in (0, None) else 1
    try:
        cfg = build_run_config(args)
        if args.command == "track":
            return cmd_track(cfg)
        if args.command == "eval":
            return cmd_eval(cfg, args.mode)
        if args.command == "court":
            return cmd_court(cfg)
        if args.command == "synth":
            return cmd_synth(cfg, args)
        raise AssertionError(f"unhandled command {args.command}")
    except DegenerateCourt as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NoCandidates as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (CourtTrackError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
