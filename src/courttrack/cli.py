"""Command-line surface and file-format layer for offline runs.

Subcommands: track, eval, court, synth. Every command is deterministic
given its input files and flags; outputs are byte-stable across runs.
Exit codes: 0 success, 1 input/format error, 2 degenerate-result error.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import re
import sys
from pathlib import Path
from typing import Callable, Iterator, NamedTuple

# No command makes a BLAS call that threads would speed up (the only
# LAPACK call is a 3x3 determinant), but numpy's bundled OpenBLAS starts
# a worker per CPU when it loads, which costs tens of milliseconds per
# process. The pin must come before the first numpy import, which is
# .cost's; a value the user set wins. The package root leaves library
# users' threading alone.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .cost import DEFAULT_ALPHA, DEFAULT_BETA, CostWeights
from .court import (
    DEFAULT_CANDIDATES,
    DEFAULT_DROP_TOL,
    DEFAULT_STEP_PX,
    CourtRegion,
    HsvFilter,
    Orientation,
    classify_orientation,
    converge_boundaries_nba,
    read_segments_csv,
    row_prefix_sums,
    select_boundary_european,
    vote_dominant_lines,
)
from .detect import NO_DETECTIONS, read_detections_jsonl, write_detections_jsonl
from .errors import (
    CourtTrackError,
    DegenerateCourt,
    DegenerateProjection,
    EmptyGroundTruth,
    InputFormatError,
    NoCandidates,
    json_int,
    json_number,
    open_text,
    text_lines,
)
from .geometry import BBox, FrameDims, Homography, Line2
from .imaging import BinaryMask, PatchWindow, read_pgm, read_ppm, write_ppm
from .metrics import (
    MOT_IOU_THRESHOLD,
    eval_detections,
    eval_mot_records,
    read_mot_csv,
    write_mot_csv,
)
from .synth import ScenarioSpec, SyntheticSequence, generate
from .track import DEFAULT_GATE, FrameObservations, MatchConfig, run_tracker

FRAME_FILE_PATTERN = "frame_%06d.ppm"
FRAME_FILE_RE = re.compile(r"frame_(\d{6})\.ppm")


def parse_hsv_filter(text: str) -> HsvFilter:
    """Parse "h0:h1,s0:s1,v0:v1" into an HsvFilter."""
    (h_lo, h_hi), (s_lo, s_hi), (v_lo, v_hi) = (part.split(":") for part in text.split(","))
    return HsvFilter(*map(float, (h_lo, h_hi, s_lo, s_hi, v_lo, v_hi)))


def parse_pan(text: str) -> tuple[float, float]:
    """Parse "px,py", a camera pan in pixels per frame."""
    px, py = text.split(",")
    return float(px), float(py)


def one_of(*options: str) -> Callable[[str], str]:
    """Parse type that accepts only one of `options`."""

    def parse(text: str) -> str:
        if text not in options:
            raise ValueError(text)
        return text

    parse.__name__ = " or ".join(options)  # argparse names the type in its error
    return parse


class Setting(NamedTuple):
    """A CLI setting: parse type, default (None: unset unless given), help
    and, where it has one, its range as a test and the words for it."""

    kind: Callable[[str], object]
    default: object
    help: str
    in_range: Callable[[object], bool] = lambda value: True
    need: str = ""

    def check(self, value, path, line=None, field=None) -> None:
        """InputFormatError at path (line, field) when value is out of range."""
        if not self.in_range(value):
            raise InputFormatError(path, f"{self.need}, got {value}", line=line, field=field)


AT_LEAST_1 = (lambda v: v >= 1, "must be at least 1")
UNIT_INTERVAL = (lambda v: 0.0 <= v < 1.0, "must lie in [0, 1)")
WEIGHT = (lambda v: 0.0 <= v <= 1.0, "must lie in [0, 1]")
SCENE = ScenarioSpec()  # the defaults of synth's settings

# every setting of every command; a flag and a config-file value both go
# through the type and the range
SETTINGS = {
    "frames": Setting(str, None, "frame directory (frame_%%06d.ppm); court also takes one PPM"),
    "detections": Setting(str, None, "detections JSONL file"),
    "homographies": Setting(str, None, "homographies JSON file"),
    "segments": Setting(str, None, "line-segments CSV file"),
    "mask": Setting(str, None, "people-mask PGM file"),
    "gt": Setting(str, None, "ground-truth CSV file"),
    "hyp": Setting(str, None, "hypothesis CSV/JSONL file"),
    "out": Setting(str, None, "output path"),
    "alpha": Setting(float, DEFAULT_ALPHA, "distance-term weight", *WEIGHT),
    "beta": Setting(float, DEFAULT_BETA, "overlap-term weight", *WEIGHT),
    "gate": Setting(float, DEFAULT_GATE, "maximum acceptable matching cost",
                    lambda v: v > 0.0, "must be positive"),
    "memory": Setting(int, MatchConfig.memory_depth, "memory depth in frames, 1 or 2",
                      lambda v: v in (1, 2), "must be 1 or 2"),
    "patch": Setting(int, PatchWindow.half_extent, "patch half-extent in pixels", *AT_LEAST_1),
    "mode": Setting(one_of("det", "mot"), None, "evaluation mode, det or mot"),
    "mot_iou": Setting(float, MOT_IOU_THRESHOLD, "CLEAR-MOT IoU threshold", *UNIT_INTERVAL),
    "court": Setting(one_of("european", "nba"), None, "court variant, european or nba"),
    "hsv": Setting(parse_hsv_filter, None, "HSV filter 'h0:h1,s0:s1,v0:v1'"),
    "candidates": Setting(int, DEFAULT_CANDIDATES, "dominant lines fed to boundary search", *AT_LEAST_1),
    "step": Setting(float, DEFAULT_STEP_PX, "NBA convergence step in pixels",
                    lambda v: 1.0 <= v < math.inf, "must be a finite number of pixels >= 1"),
    "drop_tol": Setting(float, DEFAULT_DROP_TOL, "NBA drop tolerance", *UNIT_INTERVAL),
    "seed": Setting(int, SCENE.seed, "random seed"),
    "targets": Setting(int, SCENE.n_targets, "number of targets", *AT_LEAST_1),
    "num_frames": Setting(int, SCENE.n_frames, "number of frames", lambda v: v >= 2, "must be at least 2"),
    "width": Setting(int, SCENE.dims.w, "frame width in pixels", *AT_LEAST_1),
    "height": Setting(int, SCENE.dims.h, "frame height in pixels", *AT_LEAST_1),
    "pan": Setting(parse_pan, SCENE.pan, "camera pan 'px,py' in pixels/frame",
                   lambda v: all(map(math.isfinite, v)), "components must be finite"),
    "dropout": Setting(float, SCENE.dropout_rate, "share of detections dropped", *UNIT_INTERVAL),
    "jitter": Setting(float, SCENE.jitter_sigma, "box-corner jitter sigma in pixels",
                      lambda v: 0.0 <= v < math.inf, "must be finite and >= 0"),
    "extra_dropout": Setting(float, SCENE.extra_dropout, "share of single-frame drops", *UNIT_INTERVAL),
}

# court variant -> (the settings it requires, the others it reads); a
# court run rejects the settings that only the other variant reads
COURT_VARIANTS = {
    "european": (("frames", "hsv"), ()),
    "nba": (("mask",), ("step", "drop_tol")),
}
VARIANT_SETTINGS = tuple(name for needs, reads in COURT_VARIANTS.values() for name in needs + reads)

# command -> (the settings it requires, the others it reads), as flags and as config-file keys
COMMAND_SETTINGS = {
    "track": (("frames", "detections", "homographies", "out"), ("alpha", "beta", "gate", "memory", "patch")),
    "eval": (("mode", "gt", "hyp"), ("out", "mot_iou")),
    "court": (("court", "segments"), ("candidates", "out") + VARIANT_SETTINGS),
    "synth": (("out",), ("seed", "targets", "num_frames", "width", "height", "pan", "dropout", "jitter",
                         "extra_dropout")),
}


def read_config_file(path, names) -> dict:
    """Flat key=value configuration of the settings `names` as {key: (value,
    line)}; '#' starts a comment line, and a key may appear once."""
    values = {}
    with open_text(path) as fh:
        for lineno, raw in text_lines(fh, path):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise InputFormatError(path, "expected key=value", line=lineno)
            key, _, value = line.partition("=")
            key = key.strip().replace("-", "_")
            if key not in names:
                raise InputFormatError(path, f"unknown key {key!r}", line=lineno, field=key)
            if key in values:
                first = values[key][1]
                raise InputFormatError(path, f"repeated key, first set on line {first}", line=lineno, field=key)
            try:
                values[key] = (SETTINGS[key].kind(value.strip()), lineno)
            except ValueError:
                raise InputFormatError(path, f"bad value {value.strip()!r}", line=lineno, field=key) from None
    return values


def resolve_settings(args: argparse.Namespace) -> None:
    """Fill each of the command's settings in args: flag > config file > default.

    An unset required setting, or a flag or config-file value out of its
    range, is an InputFormatError; a config-file one names file, line and key.
    A court run requires its variant's settings, and a flag or config-file
    value of a setting only the other variant reads is an InputFormatError.
    """
    required, optional = COMMAND_SETTINGS[args.command]
    from_file = read_config_file(args.config, required + optional) if args.config else {}
    for name, (value, line) in from_file.items():
        SETTINGS[name].check(value, args.config, line, field=name)
    run = f"the {args.command} command"
    if args.command == "court" and (args.court or "court" in from_file):
        variant = args.court or from_file["court"][0]
        needs, reads = COURT_VARIANTS[variant]
        run = f"court --court {variant}"
        for name in VARIANT_SETTINGS:
            if name in needs + reads:
                continue
            if getattr(args, name) is not None:
                raise InputFormatError(name, f"not read by {run}")
            if name in from_file:
                raise InputFormatError(args.config, f"not read by {run}", line=from_file[name][1], field=name)
        required += needs
        optional = tuple(name for name in optional if name not in VARIANT_SETTINGS) + reads
    for name in required + optional:
        value = getattr(args, name)
        if value is None:
            value = from_file.get(name, (SETTINGS[name].default,))[0]
        else:
            SETTINGS[name].check(value, name)
        if value is None and name in required:
            raise InputFormatError(name, f"required for {run}")
        setattr(args, name, value)


# --- homographies JSON ---------------------------------------------------------

def write_homographies_json(homographies: list[Homography], path) -> None:
    """Array of {"frame": int, "h": [9 numbers row-major]}."""
    payload = [
        {"frame": t, "h": h.flat()} for t, h in enumerate(homographies)
    ]
    Path(path).write_text(json.dumps(payload, sort_keys=True, indent=1) + "\n")


def read_homographies_json(path) -> dict[int, Homography]:
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except (ValueError, RecursionError) as exc:  # non-UTF-8, over-long integer, deep nesting
        raise InputFormatError(path, f"invalid JSON: {exc}") from None
    if not isinstance(payload, list):
        raise InputFormatError(path, "expected a JSON array")
    out: dict[int, Homography] = {}
    for idx, entry in enumerate(payload):
        try:
            raw_frame, matrix = entry["frame"], entry["h"]
        except (KeyError, TypeError):
            raise InputFormatError(path, f"entry {idx} needs 'frame' and 'h'", field="frame") from None
        frame = json_int(raw_frame, path, "frame", entry=idx)
        if frame in out:
            raise InputFormatError(path, f"entry {idx}: frame {frame} repeats", field="frame")
        if not isinstance(matrix, list) or len(matrix) != 9:
            raise InputFormatError(path, f"entry {idx}: expected a flat array of 9 numbers", field="h")
        try:
            out[frame] = Homography([json_number(v, path, "h", entry=idx) for v in matrix])
        except ValueError as exc:
            raise InputFormatError(path, f"entry {idx}: {exc}", field="h") from None
    return out


# --- frame directory -----------------------------------------------------------

def list_frame_files(frames_dir) -> list[Path]:
    """Paths of the frame_%06d.ppm files, indexed consecutively from 0."""
    root = Path(frames_dir)
    if not root.is_dir():
        raise InputFormatError(frames_dir, "not a directory of frames")
    indexed = {}
    for p in root.iterdir():
        match = FRAME_FILE_RE.fullmatch(p.name)
        if match:
            indexed[int(match.group(1))] = p
    if not indexed:
        raise InputFormatError(frames_dir, "no frame_%06d.ppm files found")
    expected = list(range(len(indexed)))
    if sorted(indexed) != expected:
        raise InputFormatError(frames_dir, "frame files are not consecutive from 0")
    return [indexed[i] for i in expected]


def decode_frames(paths, detections, homographies) -> Iterator[FrameObservations]:
    """Read one frame at a time and pair it with its detections and homography."""
    for t, path in enumerate(paths):
        raster = read_ppm(path)
        # the tracker normalizes every distance by frame 0's diagonal
        if t == 0:
            first = raster.dims
        elif raster.dims != first:
            raise InputFormatError(
                path, f"frame is {raster.dims.w}x{raster.dims.h}, frame 0 is {first.w}x{first.h}"
            )
        h = homographies.get(t)
        if h is None:
            print(f"warning: no homography for frame {t}, assuming identity", file=sys.stderr)
            h = Homography.identity()
        yield FrameObservations(detections.get(t, NO_DETECTIONS), h, raster)


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

def cmd_track(args: argparse.Namespace) -> int:
    try:
        weights = CostWeights(args.alpha, args.beta)
    except ValueError as exc:
        raise InputFormatError("alpha/beta", f"{exc}, got {args.alpha} and {args.beta}") from None
    config = MatchConfig(
        gate=args.gate, memory_depth=args.memory, weights=weights, patch=PatchWindow(args.patch)
    )
    detections = read_detections_jsonl(args.detections)
    homographies = read_homographies_json(args.homographies)
    paths = list_frame_files(args.frames)

    n = len(paths)
    for path, per_frame, what in (
        (args.detections, detections, "detections"),
        (args.homographies, homographies, "homographies"),
    ):
        bad = [t for t in per_frame if not 0 <= t < n]
        if bad:
            raise InputFormatError(
                path, f"{what} reference frames {sorted(bad)} outside 0..{n - 1}"
            )
    try:
        rows = run_tracker(decode_frames(paths, detections, homographies), config)
    except DegenerateProjection as exc:
        raise InputFormatError(args.homographies, str(exc), field="h") from None
    write_mot_csv(rows, args.out)
    return 0


def _report_out(payload: dict, args: argparse.Namespace) -> None:
    text = json.dumps(payload, sort_keys=True)
    print(text)
    if args.out:
        Path(args.out).write_text(text + "\n")


def cmd_eval(args: argparse.Namespace) -> int:
    mot = args.mode == "mot"
    gt = read_mot_csv(args.gt, unique_ids=mot)
    if not gt:
        raise EmptyGroundTruth(f"{args.gt} holds no ground-truth boxes")
    if mot:
        hyp = read_mot_csv(args.hyp, unique_ids=True)
        report = eval_mot_records(gt, hyp, args.mot_iou)
    else:
        per_frame: dict[int, list[BBox]] = {}
        if str(args.hyp).endswith(".jsonl"):
            for t, dets in read_detections_jsonl(args.hyp).items():
                per_frame[t] = [BBox(*box) for box in dets.boxes.tolist()]
        else:
            for rec in read_mot_csv(args.hyp):
                per_frame.setdefault(rec.frame, []).append(rec.bbox)
        report = eval_detections(gt, per_frame)
    _report_out(report.to_json_dict(), args)
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
    r0 = max(0, math.floor(min(ys)) + 1)
    r1 = min(dims.h, math.floor(max(ys)) + 1)
    return r0, r1


def cmd_court(args: argparse.Namespace) -> int:
    segments = read_segments_csv(args.segments)

    if args.court == "european":
        frame_path = Path(args.frames)
        if frame_path.is_dir():
            frame_path = frame_path / (FRAME_FILE_PATTERN % 0)
        frame = read_ppm(frame_path)
        dims = frame.dims
        candidates = [v.line for v in vote_dominant_lines(segments, args.candidates)]
        prefix = row_prefix_sums(args.hsv.match_array(frame))
        top = select_boundary_european(candidates, prefix, Orientation.HORIZONTAL)
        bottom = Line2.horizontal_at(float(dims.h))
        left = right = None
        try:
            side = select_boundary_european(candidates, prefix, Orientation.VERTICAL)
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
        mask = read_pgm(args.mask)
        dims = mask.dims
        votes = vote_dominant_lines(segments, args.candidates)
        horiz = [v.line for v in votes if classify_orientation(v.line, dims) == Orientation.HORIZONTAL]
        if not horiz:
            raise NoCandidates("no horizontal dominant line among the top candidates")
        top, bottom = converge_boundaries_nba(mask, horiz[0], args.step, args.drop_tol)
        left = right = None
        vert = [v.line for v in votes if classify_orientation(v.line, dims) == Orientation.VERTICAL]
        if vert:
            r0, r1 = _rows_between(top, bottom, dims)
            if r1 - r0 >= 2:
                band = BinaryMask(mask.bits[r0:r1])
                try:
                    l_raw, r_raw = converge_boundaries_nba(band, vert[0], args.step, args.drop_tol)
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
    _report_out(payload, args)
    return 0


def scenario_spec(args: argparse.Namespace) -> ScenarioSpec:
    """The ScenarioSpec that the synth command's resolved settings ask for."""
    return ScenarioSpec(
        n_targets=args.targets,
        n_frames=args.num_frames,
        dims=FrameDims(args.width, args.height),
        pan=args.pan,
        dropout_rate=args.dropout,
        jitter_sigma=args.jitter,
        extra_dropout=args.extra_dropout,
        seed=args.seed,
    )


def cmd_synth(args: argparse.Namespace) -> int:
    # frames left over from a longer scenario would be read by track as part of this one
    frames_dir = Path(args.out) / "frames"
    if frames_dir.is_dir() and any(FRAME_FILE_RE.fullmatch(p.name) for p in frames_dir.iterdir()):
        raise InputFormatError(frames_dir, "already holds frame files; synth needs a fresh directory")
    write_scenario(generate(scenario_spec(args)), args.out)
    return 0


# --- argument parsing ---------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="courttrack",
        description="Tracking-by-detection pipeline for single-camera basketball video",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    helps = {
        "track": "link detections into identity tracks",
        "eval": "evaluate detections or tracks",
        "court": "estimate the court region",
        "synth": "generate a synthetic scenario",
    }
    for command, (required, optional) in COMMAND_SETTINGS.items():
        p = sub.add_parser(command, help=helps[command])
        p.add_argument("--config", help="flat key=value config file")
        for name in required + optional:
            setting = SETTINGS[name]
            p.add_argument("--" + name.replace("_", "-"), dest=name, type=setting.kind, help=setting.help)
    return parser


COMMANDS = {"track": cmd_track, "eval": cmd_eval, "court": cmd_court, "synth": cmd_synth}


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; that code is reserved for
        # degenerate results here, so remap usage problems to 1
        return 0 if exc.code in (0, None) else 1
    try:
        resolve_settings(args)
        return COMMANDS[args.command](args)
    except (DegenerateCourt, NoCandidates) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (CourtTrackError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


# Everything imported so far lives until exit: move it out of the
# collector's generations, so that neither the collections during a run
# nor the one at interpreter exit walk numpy's and these modules' objects.
gc.freeze()

if __name__ == "__main__":
    sys.exit(main())
