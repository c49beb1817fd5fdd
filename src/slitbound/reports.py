"""Bit-exact output formats: CSV tables, the JSON report, unit parsing,
and atomic file writes."""

from __future__ import annotations

import json
import math
import os
import tempfile

from .errors import InvalidArgument, NumericFailure

CSV_FLOAT_FORMAT = "{:.9g}"

LENGTH_SUFFIXES = {
    "nm": 1e-9,
    "um": 1e-6,
    "mm": 1e-3,
    "cm": 1e-2,
    "m": 1.0,
}

def parse_length(text) -> float:
    """Parse a length with an optional SI suffix (nm, um, mm, cm, m) into
    meters; bare numbers are meters."""
    if isinstance(text, (int, float)):
        value = float(text)
    else:
        s = str(text).strip()
        factor = 1.0
        for suffix in sorted(LENGTH_SUFFIXES, key=len, reverse=True):
            if s.endswith(suffix):
                s = s[: -len(suffix)]
                factor = LENGTH_SUFFIXES[suffix]
                break
        try:
            value = float(s) * factor
        except ValueError as exc:
            raise InvalidArgument(f"cannot parse length {text!r}") from exc
    if not (value > 0 and math.isfinite(value)):
        raise InvalidArgument(f"length must be positive and finite, got {text!r}")
    return value


def fmt(value) -> str:
    """Format one CSV cell: floats at 9 significant digits; a NaN or
    infinity raises NumericFailure."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        if not math.isfinite(value):
            raise NumericFailure(f"non-finite CSV cell {value}")
        return CSV_FLOAT_FORMAT.format(value)
    return str(value)


def atomic_write_text(path: str, text: str) -> None:
    """Write via a temp file in the same directory plus rename."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", text=True)
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def format_csv(name: str, header: list[str], rows, comments: list[str] | None = None) -> str:
    """Encode the CSV table `name`; a NaN or infinity in any cell raises
    NumericFailure naming the file."""
    lines = [f"# {c}" for c in (comments or [])]
    lines.append(",".join(header))
    try:
        lines.extend(",".join([fmt(v) for v in row]) for row in rows)
    except NumericFailure as exc:
        raise NumericFailure(f"{name} holds a non-finite value") from exc
    return "\n".join(lines) + "\n"


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


def read_frame_csv(path: str):
    """Read a CCD frame CSV (`pixel,y_mm,intensity` plus a
    `# normalized=<bool>` comment).  Returns (y_meters, intensities,
    normalized)."""
    y = []
    intens = []
    normalized = False
    with open(path) as fh:
        header_seen = False
        for line in fh:
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                body = line[1:].strip()
                if body.startswith("normalized="):
                    normalized = body.split("=", 1)[1].strip().lower() == "true"
                continue
            if not header_seen:
                if line != "pixel,y_mm,intensity":
                    raise InvalidArgument(
                        f"unexpected frame CSV header {line!r}; expected pixel,y_mm,intensity"
                    )
                header_seen = True
                continue
            try:
                _, y_text, value_text = line.split(",")
                y_mm, value = float(y_text), float(value_text)
            except ValueError as exc:
                raise InvalidArgument(f"malformed frame CSV row {line!r}") from exc
            if not (math.isfinite(y_mm) and math.isfinite(value)):
                raise InvalidArgument(f"non-finite value in frame CSV row {line!r}")
            y.append(y_mm * 1e-3)
            intens.append(value)
    if not header_seen or not y:
        raise InvalidArgument(f"frame CSV {path!r} contains no data")
    return y, intens, normalized
