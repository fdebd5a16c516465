"""Seeded court clips for the court-1080p workload.

A clip is one 1920x1080 frame (PPM), a people mask (PGM) and a CSV of
line segments. The court is planted: a green floor between the top and
bottom boundary rows and the left and right boundary columns, crowds
outside it, and dashed segments along the four boundaries among about
3000 short noise segments. The planted rows are what the output check
compares the estimated boundaries against.

Row and column ranges are chosen so that both court variants can find
the planted lines: the top crowd band stays thin enough (<= 260 rows)
that each 2-pixel step past it drops the fraction above the line by more
than the default drop tolerance, and the bottom row lies below
height - top so that the top line has the largest HSV contrast.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from pathlib import Path

import numpy as np

WIDTH, HEIGHT = 1920, 1080
SEGMENTS_PER_CLIP = 3000
HSV_FILTER = "90:150,0.4:1,0.2:1"  # accepts the floor colour only

FLOOR = (40, 140, 60)  # hue 129, saturation 0.71, value 0.55
CROWD = (100, 100, 100)
APRON = (120, 80, 50)  # hue 26: outside the filter


@dataclass(frozen=True)
class Clip:
    top: int
    bottom: int
    left: int
    right: int
    dir: Path

    @property
    def frame(self) -> Path:
        return self.dir / "frame.ppm"

    @property
    def mask(self) -> Path:
        return self.dir / "mask.pgm"

    @property
    def segments(self) -> Path:
        return self.dir / "segments.csv"


def _dashed(rng: random.Random, p0: tuple[float, float], p1: tuple[float, float]):
    """Collinear pieces covering about 70% of the line from p0 to p1."""
    length = math.hypot(p1[0] - p0[0], p1[1] - p0[1])
    pos = 0.0
    while pos < length:
        piece = rng.uniform(25.0, 45.0)
        end = min(length, pos + piece)
        if end - pos >= 5.0:
            f0, f1 = pos / length, end / length
            yield (
                p0[0] + f0 * (p1[0] - p0[0]),
                p0[1] + f0 * (p1[1] - p0[1]),
                p0[0] + f1 * (p1[0] - p0[0]),
                p0[1] + f1 * (p1[1] - p0[1]),
            )
        pos = end + piece * rng.uniform(0.3, 0.6)


def make_clip(seed: int, index: int, outdir: Path) -> Clip:
    """Write one clip under outdir; the same (seed, index) gives the same bytes."""
    rng = random.Random(f"court-1080p/{seed}/{index}")
    top = rng.randrange(180, 261)
    bottom = rng.randrange(910, 961)
    left = rng.randrange(80, 161)
    right = WIDTH - rng.randrange(80, 161)
    clip = Clip(top, bottom, left, right, outdir)
    outdir.mkdir(parents=True, exist_ok=True)

    frame = np.empty((HEIGHT, WIDTH, 3), dtype=np.uint8)
    frame[:] = CROWD
    frame[bottom:] = APRON
    frame[top:bottom, left:right] = FLOOR
    people = np.random.default_rng(rng.getrandbits(64)).random((HEIGHT, WIDTH)) < 0.02
    people[:top] = True
    people[bottom:] = True
    people[:, :left] = True
    people[:, right:] = True
    for _ in range(10):
        x = rng.randrange(left, right - 40)
        y = rng.randrange(top, bottom - 110)
        colour = (rng.randrange(150, 256), rng.randrange(0, 80), rng.randrange(0, 80))
        frame[y : y + 110, x : x + 40] = colour
        people[y : y + 110, x : x + 40] = True
    clip.frame.write_bytes(b"P6\n%d %d\n255\n" % (WIDTH, HEIGHT) + frame.tobytes())
    clip.mask.write_bytes(
        b"P5\n%d %d\n255\n" % (WIDTH, HEIGHT) + (people.astype(np.uint8) * 255).tobytes()
    )

    segments = []
    for p0, p1 in (
        ((0.0, top), (WIDTH, top)),
        ((0.0, bottom), (WIDTH, bottom)),
        ((left, top), (left, bottom)),
        ((right, top), (right, bottom)),
    ):
        segments.extend(_dashed(rng, p0, p1))
    while len(segments) < SEGMENTS_PER_CLIP:
        x, y = rng.uniform(10.0, WIDTH - 10.0), rng.uniform(10.0, HEIGHT - 10.0)
        angle, length = rng.uniform(0.0, math.pi), rng.uniform(5.0, 30.0)
        segments.append((x, y, x + length * math.cos(angle), y + length * math.sin(angle)))
    rng.shuffle(segments)
    clip.segments.write_text(
        "".join(",".join(f"{v:.2f}" for v in seg) + "\n" for seg in segments)
    )
    return clip


def row_at_center(line: list[float]) -> float:
    """Row where a near-horizontal line [a, b, c] crosses the frame's middle column."""
    a, b, c = line
    return -(a * WIDTH / 2.0 + c) / b
