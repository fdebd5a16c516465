"""Command-line surface and file-format layer for offline runs.

Subcommands: track, eval, court, synth. Every command is deterministic
given its input files and flags; outputs are byte-stable across runs.
Exit codes: 0 success, 2 DegenerateCourt, 1 other CourtTrackError or OSError.

Importing this module loads no numpy: the settings' defaults come from
the numpy-free defaults module, and the commands read each name they
take from the numpy modules as an attribute of this module, cli.<name>,
which imports its module on first use (__getattr__). So --help and a
usage or config-file error cost no more than the interpreter and
argparse, and a run loads only the modules whose names it touches.
"""

from __future__ import annotations

import argparse
import errno
import gc
import importlib
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
# process. The pin must come before the first numpy import, which is the
# first __getattr__ call's; a value the user set wins. The package root
# leaves library users' threading alone.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .defaults import (
    DEFAULT_ALPHA,
    DEFAULT_BETA,
    DEFAULT_CANDIDATES,
    DEFAULT_DROP_TOL,
    DEFAULT_GATE,
    DEFAULT_HALF_EXTENT,
    DEFAULT_MEMORY_DEPTH,
    DEFAULT_STEP_PX,
    MOT_IOU_THRESHOLD,
    SCENE_DROPOUT,
    SCENE_EXTRA_DROPOUT,
    SCENE_FRAMES,
    SCENE_HEIGHT,
    SCENE_JITTER,
    SCENE_PAN,
    SCENE_SEED,
    SCENE_TARGETS,
    SCENE_WIDTH,
)
from .errors import (
    CourtTrackError,
    DegenerateCourt,
    DegenerateProjection,
    InfeasibleScenario,
    InputFormatError,
    check_hsv_bounds,
    open_text,
    text_lines,
)

# The names that the commands take from the numpy modules, by module. The
# commands read each as cli.<name>, so it is bound in this module's
# globals on first use (__getattr__), and a caller that replaces one here
# before main runs is what main calls.
IMPORTED = {
    "cost": ("CostWeights",),
    "court": (
        "CourtRegion", "HsvFilter", "converge_boundaries_nba", "lines_by_axis", "read_segments_csv",
        "row_prefix_sums", "select_boundary_european", "vote_dominant_lines",
    ),
    "detect": ("NO_DETECTIONS", "iter_detections_jsonl", "read_detections_jsonl", "write_detections_jsonl"),
    "geometry": ("FrameDims", "Homography", "Line2", "read_homographies_json", "write_homographies_json"),
    "imaging": ("BinaryMask", "PatchWindow", "read_pgm", "read_ppm", "write_ppm"),
    "metrics": ("eval_detections", "eval_mot_records", "read_mot_csv", "write_mot_csv"),
    "synth": ("ScenarioSpec", "generate"),
    "track": ("FrameObservations", "MatchConfig", "run_tracker"),
}
HOME = {name: module for module, names in IMPORTED.items() for name in names}
cli = sys.modules[__name__]


def __getattr__(name: str):
    """A name of IMPORTED, imported from its module and kept (PEP 562).

    What the import made lives until exit: gc.freeze() moves it out of
    the collector's generations, so that neither the collections during
    the run nor the one at exit walk numpy's and these modules' objects.
    """
    module = HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(importlib.import_module(f".{module}", __package__), name)
    gc.freeze()
    return value


FRAME_FILE_PATTERN = "frame_%06d.ppm"
FRAME_FILE_RE = re.compile(r"frame_(\d{6})\.ppm")


def parse_hsv_filter(text: str) -> tuple[float, ...]:
    """Parse "h0:h1,s0:s1,v0:v1" into the bounds of an HsvFilter, checked as it checks them."""
    (h_lo, h_hi), (s_lo, s_hi), (v_lo, v_hi) = (part.split(":") for part in text.split(","))
    bounds = tuple(map(float, (h_lo, h_hi, s_lo, s_hi, v_lo, v_hi)))
    check_hsv_bounds(bounds)
    return bounds


def parse_pan(text: str) -> tuple[float, float]:
    """Parse "px,py", a camera pan in pixels per frame."""
    px, py = text.split(",")
    return float(px), float(py)


class Setting(NamedTuple):
    """A CLI setting: parse type, default (None: unset unless given), help
    and, where it has one, its range as a test and the words for it."""

    kind: Callable[[str], object]
    default: object
    help: str
    in_range: Callable[[object], bool] = lambda value: True
    need: str = ""

    def parse(self, text: str, path, line=None, field=None):
        """text's value, or an InputFormatError at path (line, field) when
        it does not parse or lies out of range."""
        if "\0" in text:  # no path may hold one, and no number or word does
            raise InputFormatError(path, "value holds a NUL byte", line=line, field=field)
        try:
            value = self.kind(text)
        except ValueError:
            raise InputFormatError(path, f"bad value {text!r}", line=line, field=field) from None
        if not self.in_range(value):
            raise InputFormatError(path, f"{self.need}, got {value}", line=line, field=field)
        return value


AT_LEAST_1 = (lambda v: v >= 1, "must be at least 1")
UNIT_INTERVAL = (lambda v: 0.0 <= v < 1.0, "must lie in [0, 1)")
WEIGHT = (lambda v: 0.0 <= v <= 1.0, "must lie in [0, 1]")

# every setting of every command; a flag and a config-file value both go
# through Setting.parse
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
    "memory": Setting(int, DEFAULT_MEMORY_DEPTH, "memory depth in frames, 1 or 2",
                      lambda v: v in (1, 2), "must be 1 or 2"),
    "patch": Setting(int, DEFAULT_HALF_EXTENT, "patch half-extent in pixels", *AT_LEAST_1),
    "mode": Setting(str, None, "evaluation mode, det or mot", lambda v: v in ("det", "mot"), "must be det or mot"),
    "mot_iou": Setting(float, MOT_IOU_THRESHOLD, "CLEAR-MOT IoU threshold", *UNIT_INTERVAL),
    "court": Setting(str, None, "court variant, european or nba", lambda v: v in ("european", "nba"),
                     "must be european or nba"),
    "hsv": Setting(parse_hsv_filter, None, "HSV filter 'h0:h1,s0:s1,v0:v1'"),
    "candidates": Setting(int, DEFAULT_CANDIDATES, "dominant lines fed to boundary search", *AT_LEAST_1),
    "step": Setting(float, DEFAULT_STEP_PX, "NBA convergence step in pixels",
                    lambda v: 1.0 <= v < math.inf, "must be a finite number of pixels >= 1"),
    "drop_tol": Setting(float, DEFAULT_DROP_TOL, "NBA drop tolerance", *UNIT_INTERVAL),
    "seed": Setting(int, SCENE_SEED, "random seed"),
    "targets": Setting(int, SCENE_TARGETS, "number of targets", *AT_LEAST_1),
    "num_frames": Setting(int, SCENE_FRAMES, "number of frames", lambda v: v >= 2, "must be at least 2"),
    "width": Setting(int, SCENE_WIDTH, "frame width in pixels", *AT_LEAST_1),
    "height": Setting(int, SCENE_HEIGHT, "frame height in pixels", *AT_LEAST_1),
    "pan": Setting(parse_pan, SCENE_PAN, "camera pan 'px,py' in pixels/frame",
                   lambda v: all(map(math.isfinite, v)), "components must be finite"),
    "dropout": Setting(float, SCENE_DROPOUT, "share of detections dropped", *UNIT_INTERVAL),
    "jitter": Setting(float, SCENE_JITTER, "box-corner jitter sigma in pixels",
                      lambda v: 0.0 <= v < math.inf, "must be finite and >= 0"),
    "extra_dropout": Setting(float, SCENE_EXTRA_DROPOUT, "share of single-frame drops", *UNIT_INTERVAL),
}

# run -> (the settings it requires, the others it reads), as flags and as
# config-file keys; a court or an eval run is the variant its PICKS setting names
RUNS = {
    "track": (("frames", "detections", "homographies", "out"), ("alpha", "beta", "gate", "memory", "patch")),
    "eval --mode det": (("mode", "gt", "hyp"), ("out",)),
    "eval --mode mot": (("mode", "gt", "hyp"), ("out", "mot_iou")),
    "court --court european": (("court", "segments", "frames", "hsv"), ("candidates", "out")),
    "court --court nba": (("court", "segments", "mask"), ("candidates", "out", "step", "drop_tol")),
    "synth": (("out",), ("seed", "targets", "num_frames", "width", "height", "pan", "dropout", "jitter",
                         "extra_dropout")),
}
PICKS = {"eval": "mode", "court": "court"}


def read_config_file(path) -> dict:
    """Flat key=value configuration as {setting: (value text, line)}; '#'
    starts a comment line, a key is a setting's name, and it may appear once."""
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
            if key not in SETTINGS:
                raise InputFormatError(path, f"unknown key {key!r}", line=lineno, field=key)
            if key in values:
                raise InputFormatError(path, f"repeated key, first set on line {values[key][1]}", lineno, key)
            values[key] = (value.strip(), lineno)
    return values


def resolve_settings(args: argparse.Namespace) -> None:
    """Fill each setting that the run reads in args: flag > config file > default.

    A flag given twice is an InputFormatError naming it. Once the variant
    is known, a flag or config value of a setting that the run does not
    read, then one that does not parse or lies out of range, then an
    unset required setting is one naming the setting, or the config
    file's path, line and key.
    """
    for name, given in list(vars(args).items()):
        if isinstance(given, list):  # a flag's values, in argv order
            if len(given) > 1:
                raise InputFormatError(name, f"flag given {len(given)} times")
            setattr(args, name, given[0])
    from_file = read_config_file(args.config) if args.config else {}

    def value(name):
        if getattr(args, name) is not None:
            return SETTINGS[name].parse(getattr(args, name), name)
        if name in from_file:
            text, line = from_file[name]
            return SETTINGS[name].parse(text, args.config, line, field=name)
        return SETTINGS[name].default

    pick = PICKS.get(args.command)
    run = f"{args.command} --{pick} {value(pick)}" if pick else args.command
    if run not in RUNS:  # the variant is unset
        raise InputFormatError(pick, f"required for the {args.command} command")
    required, optional = RUNS[run]
    run = run if pick else f"the {run} command"
    for name in (name for name in SETTINGS if name not in required + optional):
        if getattr(args, name) is not None:
            raise InputFormatError(name, f"not read by {run}")
        if name in from_file:
            raise InputFormatError(args.config, f"not read by {run}", line=from_file[name][1], field=name)
    for name in required + optional:
        setattr(args, name, value(name))
    for name in required:
        if getattr(args, name) is None:
            raise InputFormatError(name, f"required for {run}")


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


def decode_frames(paths, detections, homographies, patch: PatchWindow) -> Iterator[FrameObservations]:
    """Read one frame at a time and pair it with its detections and homography.

    detections are (frame, FrameDetections) pairs in increasing frame
    order, each frame in 0..len(paths)-1, as iter_detections_jsonl(path,
    len(paths)) yields them; a frame without a pair has no detections.
    The pair after frame t's is taken before frame t is yielded, so an
    error that a later pair raises surfaces then.

    A patch half-extent beyond frame 0's larger side is an input error,
    raised before frame 0 is yielded: its patches would be mostly
    outside the frame, and they would take (2 * half_extent)**2 * 3
    bytes each.
    """
    pairs = iter(detections)
    upcoming = next(pairs, None)
    for t, path in enumerate(paths):
        raster = cli.read_ppm(path)
        # the tracker normalizes every distance by frame 0's diagonal
        if t == 0:
            first = raster.dims
            if not patch.fits(first):
                raise InputFormatError(
                    "patch", f"half-extent {patch.half_extent} exceeds frame 0's larger side, "
                    f"{max(first.w, first.h)} px"
                )
        elif raster.dims != first:
            raise InputFormatError(
                path, f"frame is {raster.dims.w}x{raster.dims.h}, frame 0 is {first.w}x{first.h}"
            )
        h = homographies.get(t)
        if h is None:
            print(f"warning: no homography for frame {t}, assuming identity", file=sys.stderr)
            h = cli.Homography.identity()
        dets = cli.NO_DETECTIONS
        if upcoming is not None and upcoming[0] == t:
            dets, upcoming = upcoming[1], next(pairs, None)
        yield cli.FrameObservations(dets, h, raster)


def check_output_file(path) -> None:
    """Raise the OSError that opening path for writing would, where path
    names a directory or lies in a missing one; no file is made."""
    out = Path(path)
    if out.is_dir():
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(path))
    if not out.parent.is_dir():
        raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), str(path))


def check_output_dir(path) -> None:
    """Raise the NotADirectoryError that making directory path would,
    where path or the nearest of its ancestors that exists is no directory."""
    existing = next(p for p in (Path(path), *Path(path).parents) if p.exists())
    if not existing.is_dir():
        raise NotADirectoryError(errno.ENOTDIR, os.strerror(errno.ENOTDIR), str(path))


def write_scenario(seq: SyntheticSequence, outdir) -> None:
    """Persist a synthetic scenario in the standard pipeline formats."""
    root = Path(outdir)
    (root / "frames").mkdir(parents=True, exist_ok=True)
    for t, frame in enumerate(seq.frames):
        cli.write_ppm(frame, root / "frames" / (FRAME_FILE_PATTERN % t))
    cli.write_detections_jsonl(seq.detections, root / "detections.jsonl")
    cli.write_homographies_json(seq.homographies, root / "homographies.json")
    cli.write_mot_csv(seq.gt, root / "gt.csv")


# --- commands --------------------------------------------------------------------

def cmd_track(args: argparse.Namespace) -> int:
    check_output_file(args.out)  # before any frame is decoded
    try:
        weights = cli.CostWeights(args.alpha, args.beta)
    except ValueError as exc:
        raise InputFormatError("alpha/beta", f"{exc}, got {args.alpha} and {args.beta}") from None
    config = cli.MatchConfig(
        gate=args.gate, memory_depth=args.memory, weights=weights, patch=cli.PatchWindow(args.patch)
    )
    paths = list_frame_files(args.frames)
    homographies = cli.read_homographies_json(args.homographies, len(paths))
    # each frame's detections are parsed when the tracker reaches that frame
    detections = cli.iter_detections_jsonl(args.detections, len(paths))
    try:
        tracks = cli.run_tracker(decode_frames(paths, detections, homographies, config.patch), config)
    except DegenerateProjection as exc:
        raise InputFormatError(args.homographies, str(exc), field="h") from None
    cli.write_mot_csv(tracks, args.out)
    return 0


def _report_out(payload: dict, args: argparse.Namespace) -> None:
    text = json.dumps(payload, sort_keys=True)
    print(text)
    if args.out:
        Path(args.out).write_text(text + "\n")


def cmd_eval(args: argparse.Namespace) -> int:
    if args.out:
        check_output_file(args.out)
    mot = args.mode == "mot"
    gt = cli.read_mot_csv(args.gt, unique_ids=mot)
    if not gt:
        raise InputFormatError(args.gt, "holds no ground-truth boxes")
    if mot:
        report = cli.eval_mot_records(gt, cli.read_mot_csv(args.hyp, unique_ids=True), args.mot_iou)
    else:
        # a JSONL hypothesis is the one eval run that loads detect
        reader = cli.read_detections_jsonl if str(args.hyp).endswith(".jsonl") else cli.read_mot_csv
        report = cli.eval_detections(gt, {t: f.boxes for t, f in reader(args.hyp).items()})
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
    if args.out:
        check_output_file(args.out)
    segments = cli.read_segments_csv(args.segments)
    if args.court == "european":
        frame_path = Path(args.frames)
        if frame_path.is_dir():
            frame_path = frame_path / (FRAME_FILE_PATTERN % 0)
        frame = cli.read_ppm(frame_path)
        dims = frame.dims
    else:
        mask = cli.read_pgm(args.mask)
        dims = mask.dims
    votes = cli.vote_dominant_lines(segments, args.candidates)
    horizontal, vertical = cli.lines_by_axis([v.line for v in votes], dims)
    if not horizontal:
        raise DegenerateCourt("no candidate line of axis horizontal")

    left = right = None
    if args.court == "european":
        prefix = cli.row_prefix_sums(cli.HsvFilter(*args.hsv).match_array(frame))
        top = cli.select_boundary_european(horizontal, prefix)
        bottom = cli.Line2.horizontal_at(float(dims.h))
        if vertical:
            side = cli.select_boundary_european(vertical, prefix)
            # assign by which half of the frame the line crosses at mid-height
            x_mid = -(side.b * dims.h / 2.0 + side.c) / side.a if abs(side.a) > 1e-9 else dims.w
            if x_mid <= dims.w / 2.0:
                left = side
            else:
                right = side
    else:
        top, bottom = cli.converge_boundaries_nba(mask, horizontal[0], args.step, args.drop_tol)
        r0, r1 = _rows_between(top, bottom, dims)
        if vertical and r1 - r0 >= 2:
            band = cli.BinaryMask(mask.bits[r0:r1])
            try:
                l_raw, r_raw = cli.converge_boundaries_nba(band, vertical[0], args.step, args.drop_tol)
                left = cli.Line2(l_raw.a, l_raw.b, l_raw.c - l_raw.b * r0)
                right = cli.Line2(r_raw.a, r_raw.b, r_raw.c - r_raw.b * r0)
            except DegenerateCourt:
                pass
    region = cli.CourtRegion.from_boundaries(top, bottom, left, right, dims)

    payload = {
        "top": _line_json(region.top),
        "bottom": _line_json(region.bottom),
        "left": _line_json(region.left),
        "right": _line_json(region.right),
    }
    _report_out(payload, args)
    return 0


# the synth settings behind each ScenarioSpec field that an InfeasibleScenario names
SPEC_SETTINGS = {"n_targets": "targets", "n_frames": "num_frames", "dims": "width/height", "pan": "pan",
                 "jitter_sigma": "jitter"}


def scenario_spec(args: argparse.Namespace) -> ScenarioSpec:
    """The ScenarioSpec that the synth command's resolved settings ask for."""
    return cli.ScenarioSpec(
        n_targets=args.targets,
        n_frames=args.num_frames,
        dims=cli.FrameDims(args.width, args.height),
        pan=args.pan,
        dropout_rate=args.dropout,
        jitter_sigma=args.jitter,
        extra_dropout=args.extra_dropout,
        seed=args.seed,
    )


def cmd_synth(args: argparse.Namespace) -> int:
    check_output_dir(args.out)
    # frames left over from a longer scenario would be read by track as part of this one
    frames_dir = Path(args.out) / "frames"
    if frames_dir.is_dir() and any(FRAME_FILE_RE.fullmatch(p.name) for p in frames_dir.iterdir()):
        raise InputFormatError(frames_dir, "already holds frame files; synth needs a fresh directory")
    try:
        seq = cli.generate(scenario_spec(args))
    except InfeasibleScenario as exc:
        if exc.field is None:
            raise
        raise InputFormatError("/".join(SPEC_SETTINGS[field] for field in exc.field.split("/")), exc.reason) from None
    write_scenario(seq, args.out)
    return 0


# --- argument parsing ---------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="courttrack",
        description="Tracking-by-detection pipeline for single-camera basketball video",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    helps = {
        "track": "link detections into identity tracks",
        "eval": "evaluate detections or tracks",
        "court": "estimate the court region",
        "synth": "generate a synthetic scenario",
    }
    # argparse only splits argv, and a flag must be spelled in full: every command
    # takes every setting's flag, each time it is given, for resolve_settings to
    # parse or reject, and --help lists only those that the command reads
    for command in helps:
        p = sub.add_parser(command, help=helps[command], allow_abbrev=False)
        p.add_argument("--config", action="append", help="flat key=value config file")
        read = {name for run, settings in RUNS.items() if run.split()[0] == command for name in sum(settings, ())}
        for name, setting in SETTINGS.items():
            shown = setting.help if name in read else argparse.SUPPRESS
            p.add_argument("--" + name.replace("_", "-"), dest=name, action="append", help=shown)
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
    except DegenerateCourt as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (CourtTrackError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
