"""In-process spans for the traced benchmark run.

Public courttrack functions are wrapped at the module attribute their
caller looks up (match_frame finds `similarity_cost` in courttrack.track,
cmd_track finds `read_ppm` in courttrack.cli). Each call records one span
[name, start_ns, end_ns, parent index] in memory; nothing is written
until the run ends. A function that no longer exists is skipped, so a
layer the program stops calling reads as zero calls and its time shows
up in the caller's self time.
"""

from __future__ import annotations

import importlib
import time
from contextlib import contextmanager

# (module, attribute, span name); span names are "<layer>.<function>".
WRAPPED = (
    ("courttrack.cli", "read_ppm", "imaging.read_ppm"),
    ("courttrack.cli", "read_pgm", "imaging.read_pgm"),
    ("courttrack.cli", "read_detections_jsonl", "detect.read_detections_jsonl"),
    ("courttrack.cli", "read_homographies_json", "cli.read_homographies_json"),
    ("courttrack.cli", "run_tracker", "track.run_tracker"),
    ("courttrack.cli", "write_tracks_csv", "track.write_tracks_csv"),
    ("courttrack.cli", "read_mot_csv", "metrics.read_mot_csv"),
    ("courttrack.cli", "eval_mot_records", "metrics.eval_mot_records"),
    ("courttrack.cli", "read_segments_csv", "court.read_segments_csv"),
    ("courttrack.cli", "vote_dominant_lines", "court.vote_dominant_lines"),
    ("courttrack.cli", "select_boundary_european", "court.select_boundary_european"),
    ("courttrack.cli", "converge_boundaries_nba", "court.converge_boundaries_nba"),
    ("courttrack.cli", "generate", "synth.generate"),
    ("courttrack.cli", "write_scenario", "cli.write_scenario"),
    ("courttrack.track", "match_frame", "track.match_frame"),
    ("courttrack.track", "solve_assignment", "track.solve_assignment"),
    ("courttrack.track", "linear_sum_assignment", "track.linear_sum_assignment"),
    ("courttrack.track", "similarity_cost", "cost.similarity_cost"),
    ("courttrack.cost", "cost_distance", "cost.distance"),
    ("courttrack.cost", "cost_iou", "cost.iou"),
    ("courttrack.cost", "cost_content", "cost.content"),
    ("courttrack.cost", "patch_mean_abs_diff", "imaging.patch_mean_abs_diff"),
)
# spans whose result is a raster: the bytes it holds are counted as decoded
DECODERS = frozenset({"imaging.read_ppm"})


class Tracer:
    """Span recorder; one instance per traced command run."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.decoded_bytes = 0
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, 0, 0, self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        self.spans[idx][1] = time.perf_counter_ns()
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter_ns()
        self._stack.pop()

    def wrap(self, name: str, fn):
        open_, close = self._open, self._close
        if name in DECODERS:

            def traced(*args, **kwargs):
                idx = open_(name)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    close(idx)
                self.decoded_bytes += result.data.nbytes
                return result

        else:

            def traced(*args, **kwargs):
                idx = open_(name)
                try:
                    return fn(*args, **kwargs)
                finally:
                    close(idx)

        return traced

    def summary(self) -> dict[str, dict]:
        """Per span name: calls, total seconds and self seconds (total minus child spans)."""
        child_ns = [0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out: dict[str, dict] = {}
        for (name, start, end, _), inner in zip(self.spans, child_ns):
            entry = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["s"] += (end - start) / 1e9
            entry["self_s"] += (end - start - inner) / 1e9
        return out

    def durations(self, name: str) -> list[float]:
        """Seconds of each call of one span name, in call order."""
        return [(end - start) / 1e9 for n, start, end, _ in self.spans if n == name]

    def write_csv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("index,parent,name,start_ns,end_ns\n")
            for idx, (name, start, end, parent) in enumerate(self.spans):
                fh.write(f"{idx},{parent},{name},{start},{end}\n")


@contextmanager
def installed(tracer: Tracer):
    """Route every WRAPPED function through the tracer; restore on exit."""
    patched = []
    try:
        for module_name, attr, name in WRAPPED:
            try:
                module = importlib.import_module(module_name)
            except ModuleNotFoundError as exc:
                if exc.name != module_name:
                    raise
                continue
            fn = getattr(module, attr, None)
            if callable(fn):
                patched.append((module, attr, fn))
                setattr(module, attr, tracer.wrap(name, fn))
        yield tracer
    finally:
        for module, attr, fn in reversed(patched):
            setattr(module, attr, fn)
