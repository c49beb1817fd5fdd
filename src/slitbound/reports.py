"""Bit-exact output formats: CSV tables encoded a column at a time, the
JSON report, unit parsing, atomic file writes and the frame CSV reader,
which checks a frame's size and returns the pitch of its uniform grid."""

import itertools
import json
import math
import os

from . import InvalidArgument, NumericFailure

CSV_FLOAT_FORMAT = "%.9g"
# the most pixels a frame may hold, checked before a frame is allocated or read
MAX_PIXELS = 65_536

LENGTH_SUFFIXES = {
    "nm": 1e-9,
    "um": 1e-6,
    "mm": 1e-3,
    "cm": 1e-2,
    "m": 1.0,
}

def parse_length(text) -> float:
    """Parse a length with an optional SI suffix (nm, um, mm, cm, m) into
    meters; bare numbers are meters.  A number is read through its str,
    which round-trips a float."""
    try:
        s, factor = str(text).strip(), 1.0
    except ValueError as exc:  # an int past the digit limit of str
        raise InvalidArgument("length must be positive and finite") from exc
    for suffix in sorted(LENGTH_SUFFIXES, key=len, reverse=True):
        if s.endswith(suffix):
            s, factor = s[: -len(suffix)], LENGTH_SUFFIXES[suffix]
            break
    try:
        value = float(s) * factor
    except ValueError as exc:
        raise InvalidArgument(f"cannot parse length {text!r}") from exc
    if not (value > 0 and math.isfinite(value)):
        raise InvalidArgument(f"length must be positive and finite, got {text!r}")
    return value


def atomic_write_text(path: str, text: str) -> None:
    """Write via a temp file in the same directory plus rename.  The temp
    file is created the way open() creates a file, so the umask sets the
    mode of the result."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    tmp = os.path.join(directory, f".tmp-{os.urandom(8).hex()}")
    try:
        with open(tmp, "x") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def format_csv(name: str, header: list[str], columns,
               comments: list[str] | None = None, even: bool = False) -> str:
    """Encode the CSV table `name` from one array or list per column:
    booleans as true/false, floats at 9 significant digits, integers in
    full.  A NaN or infinity in a float column raises NumericFailure naming
    the file.  An even table is given by its rows i >= 0 alone: a first
    column of numbers >= 0, whose negation is the table's other half, and
    even value columns.  Those rows are encoded once, and each row i > 0 is
    written again before them, last first, after a "-"."""
    codes, cells = [], []
    for column in columns:
        if hasattr(column, "dtype"):
            kind, column = column.dtype.kind, column.tolist()
        else:
            kinds = set(map(type, column))
            kind = "b" if kinds <= {bool} else "i" if kinds <= {int} else "f"
        if kind == "b":
            codes.append("%s")
            column = ["true" if v else "false" for v in column]
        else:
            codes.append(CSV_FLOAT_FORMAT if kind == "f" else "%d")
        cells.append(column)
    template = ",".join(codes) + "\n"
    rows = list(zip(*cells))
    body = (template * len(rows)) % tuple(itertools.chain.from_iterable(rows))
    # only a non-finite float cell (nan, inf) holds an n: no finite %.9g
    # float, %d integer or true/false does
    if "n" in body:
        raise NumericFailure(f"{name} holds a non-finite value")
    if even and len(rows) > 1:
        # %.9g of -v is "-" then %.9g of v, for every float v >= 0 (+0.0 gives "-0")
        body = "-" + "-".join(body.splitlines(True)[:0:-1]) + body
    return "".join(f"# {c}\n" for c in comments or []) + ",".join(header) + "\n" + body


def format_report(command: str, parameters: dict, results: dict,
                  display: dict | None = None) -> str:
    """Encode the report {command, parameters, results[, display]} as strict
    JSON; a NaN or infinity anywhere in it raises NumericFailure."""
    report = {"command": command, "parameters": parameters, "results": results}
    if display is not None:
        report["display"] = display
    try:
        text = json.dumps(report, indent=2, sort_keys=True, allow_nan=False)
    except ValueError as exc:
        raise NumericFailure(f"{command} report holds a non-finite value") from exc
    return text + "\n"


def _frame_table(lines: list[str]):
    """The rows as an (n, 3) float array, or None unless every row holds
    exactly three finite numbers."""
    import numpy as np

    try:
        table = np.loadtxt(lines, delimiter=",", comments=None, ndmin=2)
    except ValueError:
        return None
    return table if table.shape[1] == 3 and np.isfinite(table).all() else None


def read_frame_csv(path: str):
    """Read a CCD frame CSV (`pixel,y_mm,intensity`, `#` lines skipped): 2 to
    MAX_PIXELS rows of three finite numbers, y_mm rising in steps uniform within
    2e-8*max|y|.  Returns (pixel_size, intensities): the span over N-1 in
    meters and a float array."""
    with open(path) as fh:
        # the header and at most one row past the cap, `#` and blank lines skipped
        lines = list(itertools.islice(
            (s for s in map(str.strip, fh) if s and not s.startswith("#")), MAX_PIXELS + 2))
    if lines and lines[0] != "pixel,y_mm,intensity":
        raise InvalidArgument(
            f"unexpected frame CSV header {lines[0]!r}; expected pixel,y_mm,intensity")
    rows = lines[1:]
    if not rows:
        raise InvalidArgument(f"frame CSV {path!r} contains no data")
    if len(rows) > MAX_PIXELS:
        raise InvalidArgument(f"frame CSV {path!r} holds more than {MAX_PIXELS} rows")
    table = _frame_table(rows)
    if table is None:
        # the table fails only where one of its rows fails on its own
        bad = next(line for line in rows if _frame_table([line]) is None)
        raise InvalidArgument(f"frame CSV row {bad!r} is not three finite numbers")
    y = table[:, 1] * 1e-3
    if len(y) < 2:
        raise InvalidArgument("frame must have at least two pixels")
    pixel_size = float((y[-1] - y[0]) / (len(y) - 1))
    if not pixel_size > 0:
        raise InvalidArgument("frame y_mm must increase from row to row")
    # CSV_FLOAT_FORMAT's 9 digits put a y_mm within 5e-9*max|y| of its true
    # value: each spacing within 1e-8*max|y| of the true pitch, and the span
    # over N-1 within 1e-8*max|y|/(N-1)
    if (abs(y[1:] - y[:-1] - pixel_size) > 2e-8 * abs(y).max()).any():
        raise InvalidArgument("frame pixels must be uniformly spaced")
    return pixel_size, table[:, 2]
