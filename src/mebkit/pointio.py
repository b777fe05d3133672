"""Point-set file I/O: CSV (one point per row) and JSON ({"points": [...]}).

Files are parsed and written in blocks of rows, with no Python step per
point, and a parse holds one window of the text as Python objects, never
the whole file.  A CSV window's lines have their comma counts checked at
once and its tokens converted with Python's ``float`` into one
preallocated array, so every token reads to the same bits as
``float(token)``.  A canonical JSON document is decoded a window of rows
at a time; any other document, and any anomaly in a window, is decoded
whole.  Only a file that fails these checks is walked line by line (row by
row), and only to name its first bad line in a ``ParseError``.

Written floats use shortest round-trip repr, so write_points followed by
read_points reproduces the array bit-for-bit.  The same block formatter
renders the numeric arrays of any JSON document (``json_chunks``): JSON
point files and the CLI's reports, which the CLI writes chunk by chunk.
"""

from __future__ import annotations

import json
import os
import re
from itertools import repeat

import numpy as np

from .errors import ParseError
from .geometry import as_points

FORMATS = ("csv", "json")
BLOCK_VALUES = 4096  # coordinates per block of rows read or written
# json_chunks' stand-in for an array; its JSON text is found in the encoder's output
_ARRAY = "\x00array\x00"
_ARRAY_TOKEN = json.dumps(_ARRAY)


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


def load_json(text: str):
    """``json.loads`` with its failures as ``ParseError``: malformed text, and
    nesting too deep for the decoder."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(exc.lineno, exc.msg) from None
    except RecursionError:
        raise ParseError(1, "JSON nested too deeply") from None


def float_array(values) -> np.ndarray:
    """``values``, JSON lists of numbers, as a float array; an integer beyond
    float range is a ``ParseError``."""
    try:
        return np.array(values, dtype=float)
    except OverflowError:
        raise ParseError(1, "coordinate out of float range") from None


def _csv_error(text: str) -> ParseError:
    """The ParseError of the first bad line of a CSV text that ``_parse_csv``
    cannot read in blocks ("no points found" when it has no data line)."""
    width = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = [f.strip() for f in line.split(",")]
        try:
            row = [float(f) for f in fields]
        except ValueError:
            return ParseError(lineno, f"not a number in {line!r}")
        if any(not np.isfinite(v) for v in row):
            return ParseError(lineno, "non-finite coordinate")
        if width is None:
            width = len(row)
        elif len(row) != width:
            return ParseError(lineno, f"expected {width} coordinates, got {len(row)}")
    return ParseError(1, "no points found")


def _format_rows(rows: np.ndarray, line: str):
    """Yield the text of a 2-d int or float array, ``line`` (one ``%r``
    field per column) once per row, a block of rows per ``%`` operation.
    ``%r`` of a Python int or float is its shortest round-trip repr, the
    text ``json.dumps`` writes for it too."""
    per = max(1, BLOCK_VALUES // rows.shape[1])
    for start in range(0, len(rows), per):
        block = rows[start:start + per]
        yield line * len(block) % tuple(block.ravel().tolist())


def _json_default(value):
    """``json.dumps``'s ``default`` for numpy arrays and scalars."""
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, np.generic):
        return value.item()
    raise TypeError(f"{type(value).__name__} is not JSON serializable")


def _templated(value) -> bool:
    """True for an array whose JSON text ``_array_chunks`` writes: non-empty,
    1-d or 2-d, of ints or finite floats.  Booleans, NaN and infinities are
    left to the encoder, which writes ``true``, ``NaN`` and ``Infinity``
    where ``%r`` writes ``True``, ``nan`` and ``inf``."""
    return (type(value) is np.ndarray and value.ndim in (1, 2) and value.size > 0
            and value.dtype.kind in "iuf" and bool(np.isfinite(value).all()))


def _array_chunks(arr: np.ndarray, pad: str):
    """The text of ``json.dumps(arr.tolist(), indent=2)`` with every line but
    the first indented by ``pad``, in blocks of rows."""
    inner = pad + "  "
    if arr.ndim == 1:
        arr = arr[:, None]
        line = "\n" + inner + "%r,"
    else:
        cells = ",".join(["\n" + inner + "  %r"] * arr.shape[1])
        line = "\n" + inner + "[" + cells + "\n" + inner + "],"
    yield "["
    yield from _format_rows(arr[:-1], line)
    yield line[:-1] % tuple(arr[-1].tolist()) + "\n" + pad + "]"


def json_chunks(doc):
    """Yield the text of ``json.dumps(doc, indent=2, sort_keys=True)``, numpy
    values included, in pieces.

    The pure-Python encoder that ``indent`` needs writes one number at a
    time, so each non-empty 1-d or 2-d int or finite-float array is handed
    to it as a stand-in string instead.  The encoder calls ``default`` in
    the order it writes, so the stand-ins in its output meet the arrays in
    the order they were seen, and each is replaced by its array's text at
    the indent of the line that holds it.  Other values, arrays that
    ``_templated`` refuses among them, are the encoder's.
    """
    arrays = []

    def default(value):
        if _templated(value):
            arrays.append(value)
            return _ARRAY
        return _json_default(value)

    text = json.dumps(doc, indent=2, sort_keys=True, default=default)
    parts = text.split(_ARRAY_TOKEN)
    if len(parts) != len(arrays) + 1:  # a string of doc equals the stand-in
        yield json.dumps(doc, indent=2, sort_keys=True, default=_json_default)
        return
    for part, arr in zip(parts, arrays):
        yield part
        line = part[part.rfind("\n") + 1:]
        yield from _array_chunks(arr, " " * (len(line) - len(line.lstrip(" "))))
    yield parts[-1]


def _windows(text: str, end: str, start: int, stop: int):
    """Yield ``text[start:stop]`` in pieces of about ``16 * BLOCK_VALUES``
    characters (``BLOCK_VALUES`` coordinates' text), each cut just after an ``end``."""
    while start < stop:
        cut = text.find(end, start + 16 * BLOCK_VALUES, stop) + 1 or stop
        yield text[start:cut]
        start = cut


def _parse_csv(text: str) -> np.ndarray:
    flat, filled = None, 0
    for window in _windows(text, "\n", 0, len(text)):
        lines = [s for s in map(str.strip, window.splitlines()) if s and s[0] != "#"]
        if not lines:
            continue
        if flat is None:
            commas = lines[0].count(",")
            flat = np.empty((text.count("\n") + 1) * (commas + 1))
        if list(map(str.count, lines, repeat(",", len(lines)))).count(commas) != len(lines):
            raise _csv_error(text)
        tokens = ",".join(lines).split(",")
        if filled + len(tokens) > len(flat):  # lines broken at \r or another break than \n
            flat = np.concatenate((flat, np.empty(len(flat) + len(tokens))))
        try:  # fromiter frees each Python float as soon as it is stored
            flat[filled:filled + len(tokens)] = np.fromiter(map(float, tokens), float, len(tokens))
        except ValueError:
            raise _csv_error(text) from None
        filled += len(tokens)
    if flat is None:
        raise _csv_error(text)
    arr = flat[:filled].reshape(-1, commas + 1)
    if not np.isfinite(arr).all():
        raise _csv_error(text)
    return arr


def _number_rows(pts: list) -> np.ndarray | None:
    """``pts`` as one float array when it is a list of equal-length lists of
    ints and floats, else None.  Booleans must be ruled out beforehand:
    numpy reads ``[[1, True]]`` as integers."""
    try:
        arr = np.array(pts)
    except ValueError:  # ragged rows
        return None
    if arr.ndim != 2 or arr.dtype.kind not in "if":
        return None
    return arr.astype(float, copy=False)


def _json_windows(text: str) -> np.ndarray | None:
    """The points of a canonical ``{"points": [rows]}`` document (no ``"``,
    ``{``, ``true`` or ``false`` in the array), decoded a window of rows at a
    time; None for any other document and at any anomaly."""
    head = re.match(r'[ \t\n\r]*\{[ \t\n\r]*"points"[ \t\n\r]*:[ \t\n\r]*\[', text)
    stop = text.rfind("]", 0, text.rfind("]")) + 1  # just after the last row
    tail = re.fullmatch(r"[ \t\n\r]*\][ \t\n\r]*\}[ \t\n\r]*", text[stop:])
    if head is None or tail is None or stop <= head.end() or any(
            text.find(s, head.end(), stop) >= 0 for s in ('"', "{", "true", "false")):
        return None
    arr, filled = None, 0
    for window in _windows(text, "]", head.end(), stop):
        try:  # a later window starts at the comma after a row: an empty row stands in before it
            rows = _number_rows(json.loads(("[[]" if filled else "[") + window + "]")[1 if filled else 0:])
        except (ValueError, RecursionError):
            return None
        if rows is None or (arr is not None and rows.shape[1] != arr.shape[1]):
            return None
        if arr is None:  # every row holds one "]"
            arr = np.empty((text.count("]", head.end(), stop), rows.shape[1]))
        arr[filled:filled + len(rows)] = rows
        filled += len(rows)
    arr = arr[:filled]
    return arr if np.isfinite(arr).all() else None


def _parse_json(text: str) -> np.ndarray:
    arr = _json_windows(text)
    if arr is not None:
        return arr
    doc = load_json(text)
    if not isinstance(doc, dict) or "points" not in doc:
        raise ParseError(1, 'expected an object with a "points" key')
    pts = doc["points"]
    if not isinstance(pts, list) or not pts:
        raise ParseError(1, '"points" must be a non-empty list')
    # a document with a JSON boolean anywhere takes the row walk
    arr = None if "true" in text or "false" in text else _number_rows(pts)
    if arr is None:
        width = None
        for i, row in enumerate(pts):
            if not is_number_list(row):
                raise ParseError(1, f"point {i} is not a list of numbers")
            if width is None:
                width = len(row)
            elif len(row) != width:
                raise ParseError(1, f"point {i}: expected {width} coordinates, got {len(row)}")
        arr = float_array(pts)
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
    """Write an (n, d) array so that read_points recovers it exactly.

    Both formats are written in blocks of rows, each formatted by one ``%``
    operation whose ``%r`` fields are the shortest round-trip repr.
    """
    P = as_points(points)
    fmt = _infer_format(path, fmt)
    with open(path, "w", encoding="utf-8") as fh:
        if fmt == "json":
            fh.writelines(json_chunks({"points": P}))
            fh.write("\n")
        else:
            fh.writelines(_format_rows(P, ",".join(["%r"] * P.shape[1]) + "\n"))
