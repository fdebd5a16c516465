"""courttrack benchmark: one workload, one run, one JSON result line.

Run from the repository root, for example:

    python3 perfbench/run.py --workload crowd-540p --seed 7 --seconds 35 --trace 0

With --trace 0 every courttrack command runs in a child process, and
the run reports the end-to-end metrics listed in BENCHMARK.json. With
--trace 1 the same commands run in-process through courttrack.cli.main
with the functions in tracing.WRAPPED instrumented, and the run reports
the per-layer metrics. Inputs are generated from --seed under
.perfbench/. Every output is checked, and at DEFAULT_SEED the outputs
must also match the sha256 pins in golden.json. The last line on stdout
is {"correct", "attempted", "failed", "metrics"}. See README.md for the
metric definitions.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from courtclips import HSV_FILTER, make_clip, row_at_center
from tracing import Tracer, installed

ROOT = Path.cwd()
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent
OUT = ROOT / ".perfbench"

DEFAULT_SEED = 7  # the seed the golden pins were taken at
SETUP_SAMPLES = 5
MIN_REPS = 2  # so that determinism and exact counters can be compared

# workload -> (frames, `courttrack synth` arguments besides --out and --seed)
TRACK_WORKLOADS = {
    "hd-pan": (
        90,
        "--targets 10 --num-frames 90 --width 1920 --height 1080"
        " --pan 3,0 --jitter 1.0 --dropout 0.05".split(),
    ),
    "crowd-540p": (
        60,
        "--targets 24 --num-frames 60 --width 960 --height 540"
        " --pan 2,0 --jitter 1.5 --dropout 0.05 --extra-dropout 0.1".split(),
    ),
}
COURT_WORKLOAD = "court-1080p"
COURT_CLIPS = 4
COURT_STEP = 2.0  # the court command's default --step; the NBA check allows 2 * step

ENTRY = "import sys; from courttrack.cli import main; sys.exit(main())"
IMPORT = [sys.executable, "-c", "import courttrack.cli"]


def courttrack(*args) -> list[str]:
    """The argv of the `courttrack` console script, run from the checkout's src/."""
    return [sys.executable, "-c", ENTRY, *map(str, args)]


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@dataclass
class Outcome:
    op: int  # index of the command run, for attributing failed checks
    rc: int
    wall_s: float
    stdout: str
    rss_mb: float = 0.0
    cpu_s: float = 0.0


class Run:
    """Counts command runs and failures; runs commands as children or in-process."""

    def __init__(self, workdir: Path) -> None:
        self.workdir = workdir
        self.attempted = 0
        self.failed_ops: set[int] = set()
        self.env = dict(os.environ, PYTHONPATH=str(SRC))

    @property
    def failed(self) -> int:
        return len(self.failed_ops)

    def fail(self, op: int, what: str) -> None:
        """Count command run `op` as failed (once, however many of its checks fail)."""
        self.failed_ops.add(op)
        print(f"check failed: {what}", file=sys.stderr)

    def child(self, argv: list[str], tag: str) -> Outcome:
        """Run one process to completion; its peak RSS is this child's alone (wait4)."""
        self.attempted += 1
        out_path = self.workdir / f"{tag}.out"
        err_path = self.workdir / f"{tag}.err"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=self.env, cwd=ROOT)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0:
            self.fail(self.attempted, f"{tag} exited {proc.returncode}: {err_path.read_text()[-500:]}")
        return Outcome(
            self.attempted, proc.returncode, wall, out_path.read_text(), usage.ru_maxrss / 1024.0
        )

    def in_process(self, argv: list[str], tracer=None) -> Outcome:
        """courttrack.cli.main(argv) in this process, optionally under a tracer."""
        import courttrack.cli

        self.attempted += 1
        buf = io.StringIO()
        before = resource.getrusage(resource.RUSAGE_SELF)
        start = time.perf_counter()
        with contextlib.redirect_stdout(buf):
            if tracer is None:
                rc = courttrack.cli.main(argv)
            else:
                with installed(tracer), tracer.span("cli.main"):
                    rc = courttrack.cli.main(argv)
        wall = time.perf_counter() - start
        after = resource.getrusage(resource.RUSAGE_SELF)
        if rc != 0:
            self.fail(self.attempted, f"in-process {argv[0]} returned {rc}")
        cpu = after.ru_utime + after.ru_stime - before.ru_utime - before.ru_stime
        return Outcome(self.attempted, rc, wall, buf.getvalue(), cpu_s=cpu)


def keep_going(reps: int, last_s: float, deadline: float, min_reps: int) -> bool:
    """Start another repetition only if it should end before the deadline."""
    return reps < min_reps or time.perf_counter() + last_s <= deadline


def golden(workload: str) -> dict:
    return json.loads((BENCH / "golden.json").read_text())[workload]


def check_pin(run: Run, op: int, workload: str, key: str, data: bytes) -> None:
    got, want = sha256(data), golden(workload)[key]
    if got != want:
        run.fail(op, f"golden pin {workload}/{key}: sha256 {got} != pinned {want}")


# --- track workloads -------------------------------------------------------------

class Scenario:
    def __init__(self, workdir: Path, workload: str, seed: int) -> None:
        self.frames, synth_args = TRACK_WORKLOADS[workload]
        self.dir = workdir / "scenario"
        self.synth_args = ["synth", "--out", str(self.dir), "--seed", str(seed), *synth_args]
        self.gt = self.dir / "gt.csv"

    def track_args(self, out: Path) -> list[str]:
        d = self.dir
        return [
            "track", "--frames", str(d / "frames"), "--detections", str(d / "detections.jsonl"),
            "--homographies", str(d / "homographies.json"), "--out", str(out),
        ]

    def eval_args(self, tracks: Path) -> list[str]:
        return ["eval", "--mode", "mot", "--gt", str(self.gt), "--hyp", str(tracks)]


def check_eval(run: Run, scen: Scenario, workload: str, seed: int, tracks: Path, ev: Outcome) -> dict:
    """The eval report must equal eval_mot_records on the written CSVs; returns it."""
    from courttrack.metrics import eval_mot_records, read_mot_csv

    expected = eval_mot_records(read_mot_csv(scen.gt), read_mot_csv(tracks)).to_json_dict()
    try:
        report = json.loads(ev.stdout)
    except json.JSONDecodeError:
        report = None
    if report != expected:
        run.fail(ev.op, f"eval report {ev.stdout.strip()!r} != in-process {expected}")
    if seed == DEFAULT_SEED:
        check_pin(run, ev.op, workload, "eval_json", ev.stdout.encode())
    return expected


def check_tracks(run: Run, res: Outcome, first: bytes | None, path: Path, workload: str, seed: int) -> bytes:
    """Tracks must repeat across repetitions and, at the default seed, match the pin."""
    data = path.read_bytes()
    if first is None and seed == DEFAULT_SEED:
        check_pin(run, res.op, workload, "tracks_csv", data)
    if first is not None and data != first:
        run.fail(res.op, f"{path.name} differs between repetitions of one seed")
    return data if first is None else first


def track_end_to_end(run: Run, workload: str, seed: int, seconds: float) -> dict:
    scen = Scenario(run.workdir, workload, seed)
    if run.child(courttrack(*scen.synth_args), "synth").rc != 0:
        raise SystemExit("input generation failed")
    deadline = time.perf_counter() + seconds
    setup = [run.child(IMPORT, f"setup{i}").wall_s for i in range(SETUP_SAMPLES)]

    tracks = run.workdir / "tracks.csv"
    walls, rss, first = [], [], None
    reps, last = 0, 0.0
    while keep_going(reps, last, deadline, MIN_REPS):
        res = run.child(courttrack(*scen.track_args(tracks)), f"track{reps}")
        reps, last = reps + 1, res.wall_s
        if res.rc == 0:
            walls.append(res.wall_s)
            rss.append(res.rss_mb)
            first = check_tracks(run, res, first, tracks, workload, seed)
    if not walls:
        raise SystemExit("no track run succeeded")
    tracks.write_bytes(first)
    ev = run.child(courttrack(*scen.eval_args(tracks)), "eval")
    report = check_eval(run, scen, workload, seed, tracks, ev) if ev.rc == 0 else {}

    ms = statistics.median(walls) / scen.frames * 1000.0
    print(f"{workload} seed {seed}: {len(walls)} track runs of {scen.frames} frames")
    print(f"track_ms_per_frame {ms:.2f} ms (lower is better)")
    print(f"mota {report.get('mota')} (higher is better)")
    print(f"id_switches {report.get('id_switches')} count (lower is better)")
    return {
        "setup_s": statistics.median(setup),
        "ms_per_frame": ms,
        "peak_rss_mb": statistics.median(rss),
    }


def frame_percentiles(durations_s: list[float]) -> dict:
    """Median and the highest percentile with at least ten frames beyond it."""
    n = len(durations_s)
    ordered = sorted(durations_s)
    tail = n >= 11
    return {
        "track.match_frame.frames": n,
        "track.match_frame.p50_ms": statistics.median(ordered) * 1000.0 if n else 0.0,
        "track.match_frame.ptail_ms": ordered[n - 11] * 1000.0 if tail else 0.0,
        "track.match_frame.ptail_pct": 100.0 * (n - 10) / n if tail else 0.0,
    }


def layer_values(tracer) -> dict:
    """Per-layer times and counts of one traced command; absent layers read 0."""
    summary = tracer.summary()

    def get(name: str, key: str):
        return summary.get(name, {}).get(key, 0)

    values = {
        f"{name}.{key}": get(name, key)
        for name, keys in (
            ("imaging.read_ppm", ("s", "calls")),
            ("imaging.read_pgm", ("s",)),
            ("detect.read_detections_jsonl", ("s",)),
            ("cli.read_homographies_json", ("s",)),
            ("track.run_tracker", ("s",)),
            ("track.match_frame", ("self_s",)),
            ("track.solve_assignment", ("s", "calls")),
            ("track.linear_sum_assignment", ("calls",)),
            ("track.write_tracks_csv", ("s",)),
            ("cost.similarity_cost", ("self_s", "calls")),
            ("cost.distance", ("s",)),
            ("cost.iou", ("s",)),
            ("cost.content", ("self_s",)),
            ("imaging.patch_mean_abs_diff", ("s", "calls")),
            ("metrics.read_mot_csv", ("s",)),
            ("metrics.eval_mot_records", ("s",)),
            ("court.read_segments_csv", ("s",)),
            ("court.vote_dominant_lines", ("s",)),
            ("court.select_boundary_european", ("s",)),
            ("court.converge_boundaries_nba", ("s",)),
            ("synth.generate", ("s",)),
            ("cli.write_scenario", ("s",)),
        )
        for key in keys
    }
    values["imaging.read_ppm.mb"] = tracer.decoded_bytes / 1e6
    values.update(frame_percentiles(tracer.durations("track.match_frame")))
    root = summary.get("cli.main")
    values["trace.coverage_ratio"] = 1.0 - root["self_s"] / root["s"] if root else 0.0
    return values


EXACT_COUNTERS = (
    "cost.similarity_cost.calls",
    "imaging.patch_mean_abs_diff.calls",
    "track.linear_sum_assignment.calls",
    "track.solve_assignment.calls",
    "track.matches",
)


def per_layer_medians(per_rep: list[dict]) -> dict:
    """Median of each timing over repetitions; counts must repeat exactly."""
    out = {}
    for name, first in per_rep[0].items():
        values = [rep[name] for rep in per_rep]
        out[name] = first if isinstance(first, int) else statistics.median(values)
    return out


def check_counters(run: Run, per_rep: list[dict], ops: list[int]) -> None:
    """Exact counters must repeat in every traced repetition of one seed."""
    for name in EXACT_COUNTERS:
        for values, op in zip(per_rep[1:], ops[1:]):
            if values[name] != per_rep[0][name]:
                run.fail(op, f"{name} differs between repetitions of one seed: "
                         f"{values[name]} != {per_rep[0][name]}")


def track_per_layer(run: Run, workload: str, seed: int, seconds: float) -> dict:
    scen = Scenario(run.workdir, workload, seed)
    gen = Tracer()
    if run.in_process(scen.synth_args, gen).rc != 0:
        raise SystemExit("input generation failed")
    generation = layer_values(gen)

    plain_out, traced_out = run.workdir / "plain.csv", run.workdir / "traced.csv"
    deadline = time.perf_counter() + seconds
    reps, last, first, tracer = 0, 0.0, None, None
    plain_s, traced_s, per_rep, ops = [], [], [], []
    while keep_going(reps, last, deadline, MIN_REPS):
        rep_start = time.perf_counter()
        plain = run.in_process(scen.track_args(plain_out))
        tracer, eval_tracer = Tracer(), Tracer()
        traced = run.in_process(scen.track_args(traced_out), tracer)
        ev = run.in_process(scen.eval_args(traced_out), eval_tracer) if traced.rc == 0 else None
        reps, last = reps + 1, time.perf_counter() - rep_start
        if plain.rc != 0 or ev is None or ev.rc != 0:
            continue
        first = check_tracks(run, plain, first, plain_out, workload, seed)
        first = check_tracks(run, traced, first, traced_out, workload, seed)
        report = check_eval(run, scen, workload, seed, traced_out, ev)

        values = layer_values(tracer)
        values.update(
            (name, value) for name, value in layer_values(eval_tracer).items()
            if name.startswith("metrics.")
        )
        matches = track_matches(traced_out)
        calls = values["cost.similarity_cost.calls"]
        values.update({
            "track.matches": matches,
            "cost.match_yield": matches / calls if calls else 0.0,
            "track.cpu_s": plain.cpu_s,
            "court.cpu_s": 0.0,
            "metrics.mota": report["mota"],
            "metrics.id_switches": report["id_switches"],
            "synth.generate.s": generation["synth.generate.s"],
            "cli.write_scenario.s": generation["cli.write_scenario.s"],
        })
        plain_s.append(plain.wall_s)
        traced_s.append(traced.wall_s)
        per_rep.append(values)
        ops.append(traced.op)
    if not per_rep:
        raise SystemExit("no traced track run succeeded")
    tracer.write_csv(OUT / f"trace-{workload}.csv")
    check_counters(run, per_rep, ops)
    out = per_layer_medians(per_rep)
    out["trace.overhead_ratio"] = statistics.median(traced_s) / statistics.median(plain_s)
    print(f"{workload} seed {seed}: {len(per_rep)} traced track runs")
    return out


def track_matches(path: Path) -> int:
    """Rows of a tracks CSV minus its distinct ids: detections linked to an earlier one."""
    rows = [line.split(",") for line in path.read_text().splitlines()[1:] if line]
    return len(rows) - len({row[1] for row in rows})


# --- court workload ----------------------------------------------------------------

COURT_VARIANTS = ("nba", "european")


def court_args(clip, variant: str, out: Path) -> list[str]:
    args = ["court", "--court", variant, "--segments", str(clip.segments), "--out", str(out)]
    if variant == "nba":
        return args + ["--mask", str(clip.mask)]
    return args + ["--frames", str(clip.frame), "--hsv", HSV_FILTER]


def check_court(run: Run, op: int, clip, variant: str, text: str) -> None:
    """Recovered boundaries lie within 2 * step of the planted rows (top only for european)."""
    planted = {"top": clip.top, "bottom": clip.bottom} if variant == "nba" else {"top": clip.top}
    try:
        region = json.loads(text)
        rows = {key: row_at_center(region[key]) for key in planted}
    except (json.JSONDecodeError, KeyError, TypeError, ValueError, ZeroDivisionError):
        run.fail(op, f"{variant} court output is not a region: {text!r}")
        return
    off = {key: round(row, 2) for key, row in rows.items() if abs(row - planted[key]) > 2 * COURT_STEP}
    if off:
        run.fail(op, f"{variant} boundaries at rows {off}, planted at {planted}")


class CourtOutputs:
    """Outputs per (clip, variant): checked, compared across repetitions, pinned."""

    def __init__(self, run: Run, seed: int) -> None:
        self.run, self.seed, self.seen = run, seed, {}

    def add(self, res: Outcome, clip_index: int, clip, variant: str) -> None:
        key = f"clip{clip_index}.{variant}"
        if key in self.seen:
            if res.stdout != self.seen[key]:
                self.run.fail(res.op, f"court output {key} differs between repetitions")
            return
        self.seen[key] = res.stdout
        check_court(self.run, res.op, clip, variant, res.stdout)
        if self.seed == DEFAULT_SEED:
            check_pin(self.run, res.op, COURT_WORKLOAD, key, res.stdout.encode())


def make_clips(run: Run, seed: int) -> list:
    return [make_clip(seed, k, run.workdir / f"clip{k}") for k in range(COURT_CLIPS)]


def court_end_to_end(run: Run, workload: str, seed: int, seconds: float) -> dict:
    clips = make_clips(run, seed)
    run.child(IMPORT, "warmup")  # compiles bytecode once, as an installed package would have
    deadline = time.perf_counter() + seconds
    setup = [run.child(IMPORT, f"setup{i}").wall_s for i in range(SETUP_SAMPLES)]

    outputs = CourtOutputs(run, seed)
    walls, rss = [], []
    reps, last = 0, 0.0
    while keep_going(reps, last, deadline, COURT_CLIPS):
        k = reps % COURT_CLIPS
        done = []
        for variant in COURT_VARIANTS:
            out = run.workdir / f"court-{k}-{variant}.json"
            res = run.child(courttrack(*court_args(clips[k], variant, out)), f"court{reps}{variant}")
            if res.rc == 0:
                outputs.add(res, k, clips[k], variant)
                done.append(res)
        reps, last = reps + 1, sum(res.wall_s for res in done)
        if len(done) == len(COURT_VARIANTS):
            walls.append(last / len(done))
            rss.append(max(res.rss_mb for res in done))
    if not walls:
        raise SystemExit("no court run succeeded")

    court_s = statistics.median(walls)
    print(f"{workload} seed {seed}: {len(walls)} clip runs, {len(COURT_VARIANTS)} estimates each")
    print(f"court_s {court_s:.4f} s (lower is better)")
    return {
        "setup_s": statistics.median(setup),
        "ms_per_frame": court_s * 1000.0,
        "peak_rss_mb": statistics.median(rss),
    }


def court_per_layer(run: Run, workload: str, seed: int, seconds: float) -> dict:
    clips = make_clips(run, seed)
    outputs = CourtOutputs(run, seed)
    deadline = time.perf_counter() + seconds
    reps, last, tracer = 0, 0.0, None
    plain_s, traced_s, per_rep = [], [], []
    while keep_going(reps, last, deadline, COURT_CLIPS):
        rep_start = time.perf_counter()
        k = reps % COURT_CLIPS
        tracer = Tracer()
        plain_wall = traced_wall = cpu = 0.0
        ok = True
        for variant in COURT_VARIANTS:
            out = run.workdir / f"court-{k}-{variant}.json"
            plain = run.in_process(court_args(clips[k], variant, out))
            traced = run.in_process(court_args(clips[k], variant, out), tracer)
            for res in (plain, traced):
                if res.rc == 0:
                    outputs.add(res, k, clips[k], variant)
            ok = ok and plain.rc == 0 and traced.rc == 0
            plain_wall += plain.wall_s
            traced_wall += traced.wall_s
            cpu += plain.cpu_s
        reps, last = reps + 1, time.perf_counter() - rep_start
        if not ok:
            continue
        values = layer_values(tracer)
        values.update({
            "track.matches": 0,
            "cost.match_yield": 0.0,
            "track.cpu_s": 0.0,
            "court.cpu_s": cpu / len(COURT_VARIANTS),
            "metrics.mota": 0.0,
            "metrics.id_switches": 0,
        })
        plain_s.append(plain_wall)
        traced_s.append(traced_wall)
        per_rep.append(values)
    if not per_rep:
        raise SystemExit("no traced court run succeeded")
    tracer.write_csv(OUT / f"trace-{workload}.csv")
    out = per_layer_medians(per_rep)
    out["trace.overhead_ratio"] = statistics.median(traced_s) / statistics.median(plain_s)
    print(f"{workload} seed {seed}: {len(per_rep)} traced clip runs")
    return out


# --- entry point -------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="courttrack benchmark (one run of one workload)")
    parser.add_argument("--workload", required=True, choices=[*TRACK_WORKLOADS, COURT_WORKLOAD])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "courttrack" / "cli.py").is_file():
        print(f"error: no src/courttrack/cli.py under {ROOT}; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import courttrack

    if not Path(courttrack.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"error: courttrack imported from {courttrack.__file__}, not {SRC}", file=sys.stderr)
        return 2
    listed = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = listed["per_layer" if args.trace else "end_to_end"]

    court = args.workload == COURT_WORKLOAD
    measure = {
        (False, 0): track_end_to_end,
        (False, 1): track_per_layer,
        (True, 0): court_end_to_end,
        (True, 1): court_per_layer,
    }[(court, args.trace)]
    workdir = OUT / args.workload
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    run = Run(workdir)
    try:
        values = measure(run, args.workload, args.seed, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    metrics = {}
    for metric in listed:
        name, unit = metric["name"], metric["unit"]
        metrics[name] = {"value": values[name], "unit": unit}
        print(f"{name} {values[name]} {unit} ({metric['better']} is better)")
    print(f"failed_ratio {run.failed}/{run.attempted} (failed/attempted command runs)")
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
