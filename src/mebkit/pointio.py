"""Point-set file I/O: CSV (one point per row) and JSON ({"points": [...]}).

Files are parsed and written in blocks of rows, with no Python step per
point; a parse reads the open file and holds only a non-canonical JSON
document whole.  CSV goes through numpy's C reader, which converts each
field as Python's ``float`` does, to the same bits.  A text it refuses is
read again in windows: their lines' comma counts are checked at once and
their tokens converted with ``float``.  A canonical JSON document is
decoded a window of rows at a time; any other document, and any anomaly
in a window, is decoded whole.  Only a file that fails these checks is
walked line by line (row by row), to name its first bad line in a ``ParseError``.

Written floats use shortest round-trip repr, so write_points followed by
read_points reproduces the array bit-for-bit.  The same block formatter
renders the numeric arrays of any JSON document (``json_chunks``): JSON
point files and the CLI's reports, which the CLI writes chunk by chunk.
An array of at least ``16 * BLOCK_VALUES`` values is formatted on two CPUs
where ``os.fork`` exists and the process may run on two or more: a forked
child formats the second half of its rows while this process formats the
first, so a large write or report briefly runs a second process.  The text
is byte-identical to the one-process text.
"""

from __future__ import annotations

import json
import os
import re
import warnings
from contextlib import suppress
from functools import partial
from itertools import chain, repeat

import numpy as np

from .errors import ParseError
from .geometry import as_points

FORMATS = ("csv", "json")
BLOCK_VALUES = 4096  # coordinates per block of rows read or written
# json_chunks' stand-in for an array; its JSON text is found in the encoder's output
_ARRAY = "\x00array\x00"
_ARRAY_TOKEN = json.dumps(_ARRAY)
# the breaks of str.splitlines but \n and \r: numpy's reader strips them from a field as spaces
_ODD = "\v\f\x1c\x1d\x1e\x85\u2028\u2029"


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


def _csv_error(fh) -> ParseError:
    """The ParseError of the first bad line of a CSV stream that ``_parse_csv``
    cannot read in blocks ("no points found" when it has no data line).  Its
    windows end at a newline, so their lines are the whole text's lines."""
    fh.seek(0)
    width = None
    for lineno, raw in enumerate(chain.from_iterable(w.splitlines() for w in _windows(fh, "\n")), start=1):
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


def _rows_text(rows: np.ndarray, line: str):
    """Yield the text of a 2-d int or float array, ``line`` (one ``%r``
    field per column) once per row, a block of rows per ``%`` operation.
    ``%r`` of a Python int or float is its shortest round-trip repr, the
    text ``json.dumps`` writes for it too."""
    per = max(1, BLOCK_VALUES // rows.shape[1])
    for start in range(0, len(rows), per):
        block = rows[start:start + per]
        yield line * len(block) % tuple(block.ravel().tolist())


def _format_rows(rows: np.ndarray, line: str):
    """The pieces of ``_rows_text(rows, line)``, formatted on two CPUs by
    ``_split_rows`` when the array holds at least ``16 * BLOCK_VALUES``
    values (about 35 ms of repr against about 2.5 ms to fork and reap a
    child), ``os.fork`` exists and this process may run on two CPUs."""
    if (rows.size < 16 * BLOCK_VALUES or not hasattr(os, "fork")
            or not hasattr(os, "sched_getaffinity") or len(os.sched_getaffinity(0)) < 2):
        return _rows_text(rows, line)
    return _split_rows(rows, line)


def _split_rows(rows: np.ndarray, line: str):
    """Yield the text of ``_rows_text(rows, line)``: one forked child formats
    the rows from a block-aligned midpoint on while this process formats and
    yields those before it, then the child's text follows in 64 KiB pieces.

    The child sends its text's length only once the text is whole, and leaves
    only through ``os._exit``, so it runs none of this process's exit handlers
    or buffer flushes.  If it ends before the length, this process formats
    its rows.  A consumer that leaves before the length is read kills the
    child; the pipe is closed and the child reaped however the consumer leaves.
    """
    per = max(1, BLOCK_VALUES // rows.shape[1])
    cut = per * -(-len(rows) // (2 * per))  # this process takes the larger half of the blocks
    r, w = os.pipe()
    with warnings.catch_warnings():
        # Python 3.12+ warns on a fork while threads run, as numpy's BLAS
        # threads do; the child only formats and writes, taking none of their locks
        warnings.simplefilter("ignore", DeprecationWarning)
        pid = os.fork()
    if pid == 0:
        code = 1
        try:
            os.close(r)
            text = "".join(_rows_text(rows[cut:], line)).encode("ascii")
            with open(w, "wb") as out:
                out.write(len(text).to_bytes(8, "little"))
                out.write(text)
            code = 0
        finally:
            os._exit(code)
    os.close(w)
    header = None
    try:
        with open(r, "rb") as pipe:
            yield from _rows_text(rows[:cut], line)
            header = pipe.read(8)
            if len(header) < 8:  # the child failed before its text was whole
                yield from _rows_text(rows[cut:], line)
                return
            left = int.from_bytes(header, "little")
            while left:
                piece = pipe.read(min(left, 1 << 16))
                if not piece:
                    raise OSError("the formatting child ended mid-text")
                left -= len(piece)
                yield piece.decode("ascii")
    finally:
        if header is None:  # the child may still be formatting rows no one reads
            import signal  # here: start-up would pay 0.7 ms to import it for every call
            os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)


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


def _windows(fh, end: str):
    """Yield the text of the stream ``fh`` in pieces of about ``16 * BLOCK_VALUES``
    characters (``BLOCK_VALUES`` coordinates' text), each cut just after an
    ``end``; the last piece is the text after the last ``end``, maybe empty."""
    rest = ""
    while chunk := fh.read(16 * BLOCK_VALUES):
        window, cut, rest = (rest + chunk).rpartition(end)
        if cut:
            yield window + cut
    yield rest


def _parse_csv(fh) -> np.ndarray:
    """The points of a CSV stream: numpy's reader's, unless the text holds an
    ``_ODD`` break or numpy refuses it, finds no data or reads a non-finite
    value; then the windows' below, under the rules of ``_csv_error``."""
    plain = not any(any(map(w.__contains__, _ODD)) for w in iter(partial(fh.read, 16 * BLOCK_VALUES), ""))
    fh.seek(0)
    if plain:
        with warnings.catch_warnings(), suppress(ValueError):
            warnings.simplefilter("ignore")  # a text with no data reads as an empty array
            arr = np.loadtxt(fh, delimiter=",", comments=None, ndmin=2)
            if arr.size and np.isfinite(arr).all():
                return arr
        fh.seek(0)
    blocks = []
    for window in _windows(fh, "\n"):
        # str.strip takes \x1f for a space, and float does not
        lines = [s for s in map(str.strip, window.replace("\x1f", " ").splitlines()) if s and s[0] != "#"]
        if not lines:
            continue
        if not blocks:
            commas = lines[0].count(",")
        if list(map(str.count, lines, repeat(",", len(lines)))).count(commas) != len(lines):
            raise _csv_error(fh)
        tokens = ",".join(lines).split(",")
        try:  # fromiter frees each Python float as soon as it is stored
            blocks.append(np.fromiter(map(float, tokens), float, len(tokens)))
        except ValueError:
            raise _csv_error(fh) from None
    arr = np.concatenate(blocks).reshape(-1, commas + 1) if blocks else None
    if arr is None or not np.isfinite(arr).all():
        raise _csv_error(fh)
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


def _json_windows(fh) -> np.ndarray | None:
    """The points of a canonical ``{"points": [rows]}`` document (no ``"``,
    ``{``, ``t`` or ``f`` in the array), decoded a window of rows at a time as
    the stream is read; None for any other document and at any anomaly."""
    windows = _windows(fh, "]")
    window = next(windows)
    head = re.match(r'[ \t\n\r]*\{[ \t\n\r]*"points"[ \t\n\r]*:[ \t\n\r]*\[', window)
    if head is None or not window.endswith("]"):
        return None
    window, blocks = window[head.end():], []
    for later in windows:  # window ends with a "]"; the last piece is the text after the last one
        if not later.endswith("]"):  # so window ends with the array's own "]"
            if re.fullmatch(r"[ \t\n\r]*\}[ \t\n\r]*", later) is None:
                return None
            window = window[:-1].rstrip(" \t\n\r")
            if not window and blocks:
                break
        if not window.endswith("]") or any(map(window.__contains__, '"{tf')):  # no string, object, true or false
            return None
        try:  # a later window starts at the comma after a row: an empty row stands in before it
            rows = _number_rows(json.loads(("[[]" if blocks else "[") + window + "]")[1 if blocks else 0:])
        except (ValueError, RecursionError):
            return None
        if rows is None or (blocks and rows.shape[1] != blocks[0].shape[1]):
            return None
        blocks.append(rows)
        window = later
    arr = np.concatenate(blocks)
    return arr if np.isfinite(arr).all() else None


def _parse_json(fh) -> np.ndarray:
    arr = _json_windows(fh)
    if arr is not None:
        return arr
    fh.seek(0)
    text = fh.read()
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
        arr = _parse_csv(fh) if fmt == "csv" else _parse_json(fh)
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
