"""Every input reader on arbitrary and mutated bytes, and the court and
track commands on random valid inputs.

A reader either returns a value or raises an InputFormatError naming the
file it read; any other exception is a defect. The config reader is
followed by the parse of every value it read, as a command does. A court run on valid
inputs either writes a region (exit 0) or finds none (exit 2): exit 1
would call valid inputs malformed. A track run on valid inputs writes
tracks (exit 0), unless a homography sends a detection to infinity: that
is the one exit 1 it may give.
"""

import contextlib
import io
import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from courttrack.cli import SETTINGS, main, read_config_file, write_scenario
from courttrack.court import read_segments_csv
from courttrack.detect import read_detections_jsonl
from courttrack.errors import InputFormatError
from courttrack.geometry import FrameDims, Homography, read_homographies_json
from courttrack.imaging import BinaryMask, FrameRaster, read_pgm, read_ppm, write_ppm
from courttrack.metrics import read_mot_csv
from courttrack.synth import ScenarioSpec, generate
from tests.oracles import write_pgm

# csv refuses a field longer than 131072 characters
LONG_FIELD_ROW = b"1" * 200_000 + b",2,3,4,5,6\n"


# reader name -> (the reader, one valid file of its format)
READERS = {
    "ppm": (read_ppm, b"P6\n3 2\n255\n" + bytes(range(0, 18 * 13, 13))),
    "pgm": (read_pgm, b"P5\n4 3\n# people\n255\n" + bytes([255, 0, 0, 0, 0, 255, 0, 0, 0, 0, 255, 0])),
    "detections": (
        read_detections_jsonl,
        b'{"frame": 0, "keypoints": [{"part": 0, "x": 1.5, "y": 2, "c": 0.9}, '
        b'{"part": 5, "x": 4, "y": 8.25, "c": 1}], "stage": "external"}\n'
        b'{"frame": 2, "keypoints": [{"part": 16, "x": -3, "y": 1e3, "c": 0.05}]}\n',
    ),
    "homographies": (
        lambda path: read_homographies_json(path, 2),
        b'[{"frame": 0, "h": [1, 0, 0, 0, 1, 0, 0, 0, 1]},\n'
        b' {"frame": 1, "h": [1.0, 0.0, -2.5, 0.0, 1.0, 3.0, 0.0, 0.0, 1.0]}]\n',
    ),
    "mot": (read_mot_csv, b"frame,id,x_min,y_min,width,height\n0,1,5.0,6.0,20,40\n1,1,7,8,20.5,40\n"),
    "mot-unique": (
        lambda path: read_mot_csv(path, unique_ids=True),
        b"0,1,5.0,6.0,20,40\n0,2,50,6,20,40\n3,1,7,8,20.5,40\n",
    ),
    "segments": (read_segments_csv, b"0,100,10,100\n5.5,2.25,9,9\n"),
    "config": (
        lambda path: {
            key: SETTINGS[key].parse(text, path, line, field=key) for key, (text, line) in read_config_file(path).items()
        },
        b"# run\nalpha=0.5\ngate = 0.4\nhsv=90:150,0.4:1,0.2:1\nmode=mot\npan=2,-1\n",
    ),
}

# byte strings that readers treat specially
TOKENS = [
    b"\x00", b"\xff", b"\n", b"\r", b" ", b",", b'"', b"#", b"=", b"-", b".", b"[", b"]", b"{", b"}",
    b"nan", b"inf", b"1e999", b"-0", b"9" * 30, b"P5", b"P6", b"255", b"true", b"null",
]
EDITS = st.lists(
    st.tuples(
        st.sampled_from(("replace", "insert", "delete")),
        st.integers(0, 1 << 12),
        st.one_of(st.binary(min_size=1, max_size=8), st.sampled_from(TOKENS)),
    ),
    min_size=1,
    max_size=4,
)


def mutate(data: bytes, edits) -> bytes:
    for kind, at, chunk in edits:
        at %= len(data) + 1
        if kind == "replace":
            data = data[:at] + chunk + data[at + len(chunk) :]
        elif kind == "insert":
            data = data[:at] + chunk + data[at:]
        else:
            data = data[:at] + data[at + len(chunk) :]
    return data


def read_or_input_error(name: str, data: bytes) -> None:
    reader, _ = READERS[name]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "input"
        path.write_bytes(data)
        try:
            reader(path)
        except InputFormatError as exc:
            assert exc.path == str(path)


def test_every_valid_sample_reads():
    for name, (reader, data) in READERS.items():
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "input"
            path.write_bytes(data)
            assert reader(path) is not None, name


@pytest.mark.parametrize("name", sorted(READERS))
@given(data=st.binary(max_size=512))
@example(data=LONG_FIELD_ROW)
@example(data=b"")
def test_arbitrary_bytes_read_or_name_the_file(name, data):
    read_or_input_error(name, data)


@pytest.mark.parametrize("name", sorted(READERS))
@given(edits=EDITS)
@example(edits=[("insert", 0, LONG_FIELD_ROW)])
def test_mutated_valid_file_reads_or_names_the_file(name, edits):
    read_or_input_error(name, mutate(READERS[name][1], edits))


# --- the court command on valid inputs ------------------------------------------

GREEN, GRAY = (40, 180, 60), (120, 120, 130)
GREEN_HSV = "90:150,0.4:1,0.2:1"


@st.composite
def court_inputs(draw):
    """A w x h people mask of 0-4 rectangles, and 1-5 segments longer
    than 1 px whose endpoints lie within 5 px of the frame."""
    w, h = draw(st.integers(8, 60)), draw(st.integers(8, 60))
    bits = np.zeros((h, w), dtype=bool)
    for _ in range(draw(st.integers(0, 4))):
        x0, y0 = draw(st.integers(0, w - 1)), draw(st.integers(0, h - 1))
        bits[y0 : draw(st.integers(y0 + 1, h)), x0 : draw(st.integers(x0 + 1, w))] = True
    xs, ys = st.floats(-5.0, w + 5.0), st.floats(-5.0, h + 5.0)
    segment = st.tuples(xs, ys, xs, ys).filter(lambda s: math.hypot(s[2] - s[0], s[3] - s[1]) > 1.0)
    segments = draw(st.lists(segment, min_size=1, max_size=5))
    return bits, segments


def run_quietly(argv) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


@given(court_inputs())
def test_court_on_valid_inputs_finds_a_region_or_none(case):
    bits, segments = case
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        (root / "segments.csv").write_text("".join(f"{x0!r},{y0!r},{x1!r},{y1!r}\n" for x0, y0, x1, y1 in segments))
        write_pgm(BinaryMask(bits), root / "mask.pgm")
        colours = np.where(bits[..., None], np.array(GRAY, dtype=np.uint8), np.array(GREEN, dtype=np.uint8))
        write_ppm(FrameRaster(colours), root / "frame.ppm")
        common = ["court", "--segments", str(root / "segments.csv")]
        for variant in (
            ["--court", "nba", "--mask", str(root / "mask.pgm")],
            ["--court", "european", "--frames", str(root / "frame.ppm"), "--hsv", GREEN_HSV],
        ):
            code, err = run_quietly(common + variant)
            assert code in (0, 2), (variant[1], err)


# --- the track command on valid inputs --------------------------------------------

# a finite offset or scale, from none to far beyond the frame; at 1e307 a
# point right of x = 18 projects beyond the float range
MOVES = st.one_of(st.just(0.0), st.floats(-100.0, 100.0), st.sampled_from([-1e12, 1e12]))
SCALES = st.one_of(st.just(1.0), st.floats(0.01, 100.0), st.sampled_from([-1.0, 1e-6, 1e6, 1e307]))
# the first messages a DegenerateProjection gives, as project_points words them
AT_INFINITY = ("maps to the line at infinity", "maps to the non-finite point")


@st.composite
def homography_entries(draw):
    """A perturbed homography that the reader accepts: scales, a shift and
    a projective row; a last entry of 1e-13 sends every point to infinity."""
    tilt = st.one_of(st.just(0.0), st.floats(-0.1, 0.1))
    s, tx, ty = draw(SCALES), draw(MOVES), draw(MOVES)
    m = [s, 0.0, tx, 0.0, draw(SCALES), ty, draw(tilt), draw(tilt), draw(st.sampled_from([1.0, 1e-3, -1.0, 1e-13]))]
    try:
        Homography(m)
    except ValueError:  # singular
        assume(False)
    return m


@st.composite
def track_inputs(draw):
    """A synth scenario of at most 6 frames of 64 x 48 px, and edits of its
    detections (each line kept, dropped or moved, or a keypoint moved) and
    of its homographies (each entry kept, dropped or replaced)."""
    spec = ScenarioSpec(
        n_targets=draw(st.integers(1, 4)),
        n_frames=draw(st.integers(2, 6)),
        dims=FrameDims(64, 48),
        pan=(draw(st.integers(-2, 2)), draw(st.integers(-2, 2))),
        dropout_rate=draw(st.sampled_from([0.0, 0.2])),
        jitter_sigma=draw(st.sampled_from([0.0, 1.0])),
        seed=draw(st.integers(0, 1 << 16)),
    )
    line_edit = st.one_of(
        st.just(None),
        st.just("drop"),
        st.tuples(MOVES, MOVES),
        st.tuples(st.integers(0, 4), MOVES, MOVES),
    )
    entry_edit = st.one_of(st.just(None), st.just("drop"), homography_entries())
    return spec, draw(st.lists(line_edit, max_size=30)), draw(st.lists(entry_edit, max_size=6))


def edit_detections(path: Path, edits) -> None:
    """Drop a line, move its keypoints by (dx, dy), or move its keypoint k."""
    lines = []
    for i, text in enumerate(path.read_text().splitlines()):
        edit = edits[i] if i < len(edits) else None
        if edit == "drop":
            continue
        obj = json.loads(text)
        if edit is not None:
            *k, dx, dy = edit
            keypoints = obj["keypoints"]
            for kp in [keypoints[k[0] % len(keypoints)]] if k else keypoints:
                kp["x"] += dx
                kp["y"] += dy
        lines.append(json.dumps(obj) + "\n")
    path.write_text("".join(lines))


def edit_homographies(path: Path, edits) -> None:
    """Drop an entry (the frame then assumes identity) or replace its matrix."""
    entries = []
    for i, entry in enumerate(json.loads(path.read_text())):
        edit = edits[i] if i < len(edits) else None
        if edit != "drop":
            entries.append(entry if edit is None else {"frame": entry["frame"], "h": edit})
    path.write_text(json.dumps(entries))


# each example runs synth and track: 20 examples in tier-1, 200 under the deep profile
@settings(max_examples=settings.default.max_examples // 5)
@given(track_inputs())
def test_track_on_valid_inputs_writes_tracks_or_names_a_point_at_infinity(case):
    spec, detection_edits, homography_edits = case
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        write_scenario(generate(spec), root)
        edit_detections(root / "detections.jsonl", detection_edits)
        edit_homographies(root / "homographies.json", homography_edits)
        code, err = run_quietly(
            ["track", "--frames", str(root / "frames"), "--detections", str(root / "detections.jsonl"),
             "--homographies", str(root / "homographies.json"), "--out", str(root / "tracks.csv")]
        )
    lines = err.splitlines()
    if code != 0:
        error = lines.pop()
        assert code == 1 and error.startswith("error: ") and any(words in error for words in AT_INFINITY), err
    assert all(line.startswith("warning: no homography for frame ") for line in lines), err
