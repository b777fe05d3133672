"""Point-set file I/O: CSV (one point per row) and JSON ({"points": [...]}).

Written floats use shortest round-trip repr, so write_points followed by
read_points reproduces the array bit-for-bit.
"""

from __future__ import annotations

import json
import os

import numpy as np

from .errors import ParseError
from .geometry import as_points

FORMATS = ("csv", "json")


def _infer_format(path: str, fmt: str | None) -> str:
    if fmt is not None:
        if fmt not in FORMATS:
            raise ValueError(f"unknown format {fmt!r}; expected csv or json")
        return fmt
    ext = os.path.splitext(path)[1].lower().lstrip(".")
    if ext in FORMATS:
        return ext
    raise ValueError(f"cannot infer format from {path!r}; pass fmt explicitly")


def is_number_list(value) -> bool:
    """True for a JSON list of numbers: ints and floats, but not booleans."""
    return isinstance(value, list) and all(
        isinstance(v, (int, float)) and not isinstance(v, bool) for v in value
    )


def _parse_csv(text: str) -> np.ndarray:
    rows = []
    width = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = [f.strip() for f in line.split(",")]
        try:
            row = [float(f) for f in fields]
        except ValueError:
            raise ParseError(lineno, f"not a number in {line!r}") from None
        if any(not np.isfinite(v) for v in row):
            raise ParseError(lineno, "non-finite coordinate")
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise ParseError(lineno, f"expected {width} coordinates, got {len(row)}")
        rows.append(row)
    if not rows:
        raise ParseError(1, "no points found")
    return np.array(rows, dtype=float)


def _parse_json(text: str) -> np.ndarray:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(exc.lineno, exc.msg) from None
    if not isinstance(doc, dict) or "points" not in doc:
        raise ParseError(1, 'expected an object with a "points" key')
    pts = doc["points"]
    if not isinstance(pts, list) or not pts:
        raise ParseError(1, '"points" must be a non-empty list')
    width = None
    for i, row in enumerate(pts):
        if not is_number_list(row):
            raise ParseError(1, f"point {i} is not a list of numbers")
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise ParseError(1, f"point {i}: expected {width} coordinates, got {len(row)}")
    arr = np.array(pts, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ParseError(1, "non-finite coordinate")
    return arr


def read_points(path: str, fmt: str | None = None) -> np.ndarray:
    """Load an (n, d) float array from a CSV or JSON file."""
    fmt = _infer_format(path, fmt)
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    arr = _parse_csv(text) if fmt == "csv" else _parse_json(text)
    return as_points(arr)


def write_points(path: str, points: np.ndarray, fmt: str | None = None) -> None:
    """Write an (n, d) array so that read_points recovers it exactly."""
    P = as_points(points)
    fmt = _infer_format(path, fmt)
    if fmt == "csv":
        lines = [",".join(repr(float(v)) for v in row) for row in P]
        body = "\n".join(lines) + "\n"
    else:
        body = json.dumps({"points": [[float(v) for v in row] for row in P]}, indent=2) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(body)
