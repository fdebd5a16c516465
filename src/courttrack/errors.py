"""Exception types shared across the engine, and the input checks they share."""

import math
import re


class CourtTrackError(Exception):
    """Base class for all engine errors."""


class DegenerateProjection(CourtTrackError):
    """Homogeneous projection whose third coordinate vanishes."""


class EmptyOverlap(CourtTrackError):
    """Patch comparison with no offset valid in both frames."""


class NoSegments(CourtTrackError):
    """Line voting invoked with an empty segment list."""


class NoCandidates(CourtTrackError):
    """Boundary selection with no candidate of the requested axis."""


class DegenerateCourt(CourtTrackError):
    """Court boundary search collapsed without a usable region."""


class EmptyGroundTruth(CourtTrackError):
    """Tracking evaluation requires at least one ground-truth box."""


class TargetOutOfFrame(CourtTrackError):
    """Synthetic scenario cannot keep every target inside the frame."""


class TooLarge(CourtTrackError):
    """A request beyond a fixed capacity (brute force, synthetic colours)."""


class InputFormatError(CourtTrackError):
    """Malformed input file; carries file, line and field context."""

    def __init__(self, path, message, line=None, field=None):
        self.path = str(path)
        self.line = line
        self.field = field
        loc = self.path
        if line is not None:
            loc += f":{line}"
        if field is not None:
            loc += f" (field '{field}')"
        super().__init__(f"{loc}: {message}")


def json_int(value, path, field, line=None, entry=None) -> int:
    """The integer a JSON number stands for, or InputFormatError.

    A bool, a string, a fraction or a non-finite number is rejected
    rather than truncated. `entry` names the array element when the
    file has no line to point at.
    """
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, float) and value.is_integer():
        return int(value)
    where = "" if entry is None else f"entry {entry}: "
    raise InputFormatError(path, f"{where}expected an integer, got {value!r}", line=line, field=field)


def json_number(value, path, field, line=None, entry=None) -> float:
    """The finite float a JSON number stands for, or InputFormatError.

    A bool or a string is rejected rather than converted, and so is a
    number that is infinite or too large for a float. `entry` names the
    array element when the file has no line to point at.
    """
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            number = float(value)
        except OverflowError:
            number = math.inf
        if math.isfinite(number):
            return number
    where = "" if entry is None else f"entry {entry}: "
    raise InputFormatError(path, f"{where}expected a finite number, got {value!r}", line=line, field=field)


_NOT_UTF8 = re.compile("[\udc80-\udcff]")  # what errors="surrogateescape" makes of a bad byte


def open_text(path, newline=None):
    """Open a UTF-8 text input for text_lines: a byte that is not UTF-8
    reads as a lone surrogate instead of failing somewhere ahead."""
    return open(path, encoding="utf-8", errors="surrogateescape", newline=newline)


def text_lines(fh, path):
    """(line number, line) of a file from open_text; a line holding a
    byte that is not UTF-8 is an InputFormatError naming it."""
    for lineno, line in enumerate(fh, start=1):
        if _NOT_UTF8.search(line):
            raise InputFormatError(path, "not UTF-8 text", line=lineno)
        yield lineno, line
