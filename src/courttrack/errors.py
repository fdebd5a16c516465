"""Exception types shared across the engine, and the input readers and checks they share.

The type alone decides a command's exit code: 2 for DegenerateCourt, 1
for any other CourtTrackError. A ValueError is a caller's mistake.
"""

import csv
import math
import re


class CourtTrackError(Exception):
    """Base class for all engine errors."""


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


class DegenerateProjection(CourtTrackError):
    """Homogeneous projection whose third coordinate vanishes or whose result is not finite."""


class DegenerateCourt(CourtTrackError):
    """Valid court inputs that give no usable region."""


class InfeasibleScenario(CourtTrackError):
    """A synthetic scenario that cannot be drawn; field names the
    ScenarioSpec field at fault, or the fields at fault together, joined
    by "/", where that can be told."""

    def __init__(self, reason, field=None):
        self.reason = reason
        self.field = field
        super().__init__(reason if field is None else f"{field}: {reason}")


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


def check_hsv_bounds(bounds: tuple[float, ...]) -> None:
    """ValueError unless the HSV filter bounds (h_lo, h_hi, s_lo, s_hi,
    v_lo, v_hi) are finite, with lo <= hi for saturation and value."""
    if not all(math.isfinite(x) for x in bounds):
        raise ValueError(f"HSV bounds must be finite, got {bounds}")
    _, _, s_lo, s_hi, v_lo, v_hi = bounds
    if s_lo > s_hi or v_lo > v_hi:
        raise ValueError("saturation/value bounds must satisfy lo <= hi")


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


def csv_number_rows(path, fields, header=False):
    """(line number, cells, numbers) of each row of a CSV file of numbers,
    one cell per name in fields; blank rows are skipped, and with header
    so is a first line that spells fields.

    A row's line number is the one csv gives its last line, as a quoted
    field may span lines. A row with another count of cells is an
    InputFormatError naming its line, and a cell that float() refuses
    one naming its line and field; so is a row that csv cannot split,
    such as one with a field beyond csv's size limit, whose field is
    named where the row is one line without quotes.
    """
    with open_text(path, newline="") as fh:
        row_lines = []  # the lines of the row being split

        def lines():
            for _, line in text_lines(fh, path):
                row_lines.append(line)
                yield line

        reader = csv.reader(lines())
        try:
            for row in reader:
                row_lines.clear()
                lineno = reader.line_num
                if not row or (len(row) == 1 and not row[0].strip()):
                    continue
                if header and lineno == 1 and row == list(fields):
                    continue
                if len(row) != len(fields):
                    raise InputFormatError(path, f"expected {len(fields)} values, got {len(row)}", line=lineno)
                values = []
                for name, cell in zip(fields, row):
                    try:
                        values.append(float(cell))
                    except ValueError:
                        raise InputFormatError(path, f"not a number: {cell!r}", line=lineno, field=name) from None
                yield lineno, row, values
        except csv.Error as exc:
            field = None
            if len(row_lines) == 1 and '"' not in row_lines[0]:  # its cells are what split(",") gives
                cells = row_lines[0].rstrip("\r\n").split(",")
                limit = csv.field_size_limit()
                field = next((name for name, cell in zip(fields, cells) if len(cell) > limit), None)
            raise InputFormatError(path, str(exc), line=reader.line_num, field=field) from None
