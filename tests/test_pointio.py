"""The block parsers and writers of mebkit.pointio against the one-point-at-a-time
versions they replace: the same array bytes, or the same ParseError line
and message, and byte-identical files and JSON text."""

import io
import itertools
import json
import os
import re
import signal
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from mebkit import pointio
from mebkit.cli import main
from mebkit.errors import ParseError
from mebkit.pointio import (
    BLOCK_VALUES, _json_default, _parse_csv, _parse_json, _windows, json_chunks, read_points, write_points,
)
from oracles import csv_parse_oracle, json_parse_oracle


def parse_csv(text):
    return _parse_csv(io.StringIO(text))


def parse_json(text):
    return _parse_json(io.StringIO(text))


def outcome(parse, text):
    """("ok", dtype, shape, bytes) of a parse, or ("error", line, message)."""
    try:
        arr = parse(text)
    except ParseError as exc:
        return ("error", exc.line, str(exc))
    return ("ok", arr.dtype, arr.shape, arr.tobytes())


# --- CSV ------------------------------------------------------------------

NUMBERS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-10**20, 10**20).map(str),
)
GOOD_PIECES = ["1_0", " 1.5 ", "+.5", "\t-2e-3", "7"]
BAD_PIECES = ["1e500", "nan", "-inf", "0x10", "", "1__0", "infinity"]


@st.composite
def csv_texts(draw):
    """CSV texts: rows of numbers and odd tokens, comments, blank and
    whitespace lines, trailing commas, CRLF endings, and ragged rows whose
    total token count still divides by the first row's width."""
    width = draw(st.integers(1, 4))
    bad = draw(st.integers(0, 3)) == 0
    ragged = draw(st.integers(0, 3)) == 0
    token = st.one_of(NUMBERS, NUMBERS, st.sampled_from(GOOD_PIECES + (BAD_PIECES if bad else [])))
    lines, widths = [], []
    for _ in range(draw(st.integers(0, 12))):
        kind = draw(st.sampled_from(["row", "row", "row", "row", "comment", "blank", "space"]))
        if kind == "comment":
            lines.append(draw(st.sampled_from(["#", "# x,y", "  # 1,2,3", "#nan"])))
        elif kind == "blank":
            lines.append("")
        elif kind == "space":
            lines.append(draw(st.sampled_from([" ", "\t", " \t "])))
        else:
            w = draw(st.integers(1, 5)) if ragged and widths else width
            widths.append(w)
            row = ",".join(draw(st.lists(token, min_size=w, max_size=w)))
            if bad and draw(st.integers(0, 5)) == 0:
                row += ","  # trailing comma
            lines.append(row)
    if ragged and widths and sum(widths) % widths[0]:
        w = widths[0] - sum(widths) % widths[0]
        lines.append(",".join(draw(st.lists(token, min_size=w, max_size=w))))
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    return newline.join(lines) + (newline if draw(st.booleans()) else "")


@settings(max_examples=400)
@given(csv_texts())
@example("")
@example("# only a comment\n\n  \n")
@example("1\n2\n3\n")
@example("1_0, 1.5 ,+.5\r\n1e500,0,0\r\n")
@example("nan\n")
@example("1,-inf\n")
@example("0x10,1\n")
@example("1,2,\n3,4,\n")
@example("1,2\n3,4,5,6\n7,8,9\n")   # 9 tokens, width 2 then 4: ragged
@example("1,2,3\n4,5\n6\n")          # 6 tokens over width 3
@example(" 1 , 2 \n\t3,4\t\n")
@example("1,2\n1e500,1\n")
@example("1,2\n\x0c\n3,4\n")
@example("1\x0c2\n")             # a break inside a line: two rows of one coordinate
@example("1\x0c,2\n")            # numpy would strip the break: a line-by-line parse finds 1, then ,2
@example("1\x1f,2\n")            # str.strip takes \x1f for a space, float does not
@example("# c\n1\x1f,2\n")
@example("1,2\r3,4\n")
@example("1, \u20282\n3,4\n")
@example("1,2")
@example("1\xa0,2\r\n3,4\r\n")
def test_csv_parse_matches_line_oracle(tmp_path_factory, text):
    assert outcome(parse_csv, text) == outcome(csv_parse_oracle, text)
    path = tmp_path_factory.getbasetemp() / "oracle-points.csv"
    path.write_bytes(text.encode("utf-8"))  # read_points translates \r\n and \r, which splitlines breaks at too
    assert outcome(read_points, str(path)) == outcome(csv_parse_oracle, text)


def test_csv_parse_spans_blocks():
    # rows across several blocks, with a bad line in the last one
    rng = np.random.default_rng(3)
    P = rng.standard_normal((2 * BLOCK_VALUES // 3 + 17, 3))
    lines = [",".join(map(repr, row)) for row in P.tolist()]
    text = "\n".join(lines) + "\n"
    assert outcome(parse_csv, text) == outcome(csv_parse_oracle, text)
    assert np.array_equal(parse_csv(text), P)
    lines[-3] = "1,x,2"
    bad = "\n".join(lines)
    assert outcome(parse_csv, bad) == outcome(csv_parse_oracle, bad)
    assert outcome(parse_csv, bad)[1] == len(lines) - 2


def same(parse, oracle, text):
    """The parse and its oracle agree: equal value bits, or the same ParseError."""
    try:
        want = oracle(text)
    except ParseError as exc:
        with pytest.raises(ParseError) as got:
            parse(text)
        assert (got.value.line, str(got.value)) == (exc.line, str(exc))
        return
    arr = parse(text)
    assert arr.shape == want.shape
    assert np.array_equal(arr.view(np.int64), want.view(np.int64))


def cut_lines(text, end):
    """The line numbers (from 0) that open the second and later parse windows."""
    ends = itertools.accumulate(map(len, _windows(io.StringIO(text), end)))
    return [text.count("\n", 0, at) for at in ends if at < len(text)]


def cloud_lines(rows=4000):
    """Rows of a 3-d cloud as CSV lines: a text of more than three windows."""
    P = np.random.default_rng(11).standard_normal((rows, 3))
    return [",".join(map(repr, row)) for row in P.tolist()]


@pytest.mark.parametrize("newline", ["\n", "\r\n"])
@pytest.mark.parametrize("around", [
    ["# a comment", "#", "  # 1,2,3"],
    ["", " ", "\t"],
    ["# x,y", "", "1.5,2.5,-0.0", " # z"],
], ids=["comments", "blanks", "mixed"])
def test_csv_windows_cut_at_comments_blanks_and_crlf(newline, around):
    lines = cloud_lines()
    for _ in range(10):  # shorter lines move the cuts: replace until both sides of each are replaced
        text = newline.join(lines) + newline
        cuts = cut_lines(text, "\n")
        if all(lines[cut] in around and lines[cut - 1] in around for cut in cuts):
            break
        for cut in cuts:
            lines[cut - 3:cut + 3] = (around * 6)[:6]
    assert len(cuts) >= 3 and all(lines[cut] in around and lines[cut - 1] in around for cut in cuts)
    same(parse_csv, csv_parse_oracle, text)


@pytest.mark.parametrize("bad", ["1,x,2", "1,2", "1,2,3,4", "1,nan,2", "1,2,1e500", "1,,2"])
def test_csv_bad_row_in_the_last_window(bad):
    lines = cloud_lines()
    lines[-5] = bad
    text = "\n".join(lines) + "\n"
    assert len(cut_lines(text, "\n")) >= 3
    same(parse_csv, csv_parse_oracle, text)


def test_csv_lines_broken_at_other_than_newline():
    # splitlines breaks at \r alone: more rows than newlines to size the array from
    lines = cloud_lines(6000)
    text = "\r".join(lines[:3000]) + "\n" + "\n".join(lines[3000:]) + "\n"
    same(parse_csv, csv_parse_oracle, text)


# --- JSON -----------------------------------------------------------------

JSON_DOCS = [
    '{"points": [[1, true]]}',
    '{"points": [[1.0, false]]}',
    '{"points": [[1, 2], [3, 4]], "closed": true}',
    '{"points": [[1, 2]], "note": "false"}',
    '{"points": [[1, "2"]]}',
    '{"points": [[1, null]]}',
    '{"points": [[1, [2]]]}',
    '{"points": [[[1, 2]]]}',
    '{"points": [[9223372036854775807, 1]]}',
    '{"points": [[9223372036854775808, 1]]}',
    '{"points": [[18446744073709551616, 1.5]]}',
    '{"points": [[18446744073709551615, 1]]}',
    '{"points": [[1.5, 1180591620717411303424]]}',
    '{"points": [[-9223372036854775809, 2]]}',
    '{"points": [[9007199254740993, 3]]}',
    '{"points": [[1e999, 1]]}',
    '{"points": [[NaN, 1]]}',
    '{"points": [[]]}',
    '{"points": [[], []]}',
    '{"points": [[1, 2], [3]]}',
    '{"points": [[1], [2, 3]]}',
    '{"points": [[1, 2], 3]}',
    '{"points": [{"x": 1}]}',
    '{"points": ["ab"]}',
    '{"points": [[1, 2.5], [3, -0.0]]}',
    '{"points": [[1, 2], [3, 4]]}',
    '{"points": [[0.1], [0.2]]}',
    '{"points": []}',
    '{"points": 5}',
    '{"nope": []}',
    "[1, 2]",
]


@pytest.mark.parametrize("text", JSON_DOCS)
def test_json_parse_matches_row_walk(text):
    assert outcome(parse_json, text) == outcome(json_parse_oracle, text)


def test_json_parse_large_document():
    P = np.random.default_rng(4).standard_normal((3000, 3))
    text = json.dumps({"points": P.tolist()})
    assert outcome(parse_json, text) == outcome(json_parse_oracle, text)
    assert np.array_equal(parse_json(text), P)


CLOUD = np.random.default_rng(12).standard_normal((4000, 3))
ROWS = CLOUD.tolist()


def spoil(text, old, new):
    """``text`` with its last occurrence of ``old`` replaced by ``new``."""
    at = text.rindex(old)
    return text[:at] + new + text[at + len(old):]


LAST = repr(ROWS[-1][1])
WINDOWED_DOCS = {
    "compact": json.dumps({"points": ROWS}),
    "indent-2": json.dumps({"points": ROWS}, indent=2),
    "indent-tab-crlf": json.dumps({"points": ROWS}, indent="\t").replace("\n", "\r\n"),
    "loose": json.dumps({"points": ROWS}, separators=(" ,\n\t ", " :  ")) + "\n\n",
    "ints": json.dumps({"points": np.rint(CLOUD * 1e17).astype(np.int64).tolist()}),
    "int-2^63": spoil(json.dumps({"points": ROWS}), LAST, str(2**63 + 2**11)),
}
FALLBACK_DOCS = {
    "key-after": json.dumps({"points": ROWS, "units": "m"}),
    "key-before": json.dumps({"name": "cloud", "points": ROWS}, sort_keys=True),
    "true": spoil(json.dumps({"points": ROWS}), LAST, "true"),
    "nan": spoil(json.dumps({"points": ROWS}), LAST, "NaN"),
    "infinity": spoil(json.dumps({"points": ROWS}), LAST, "-Infinity"),
    "int-2^64": spoil(json.dumps({"points": ROWS}), LAST, str(2**64)),
    "int-beyond-float": spoil(json.dumps({"points": ROWS}), LAST, "1" + "0" * 400),
    "trailing-comma": json.dumps({"points": ROWS})[:-2] + ",]}",
    "nested": spoil(json.dumps({"points": ROWS}), LAST, f"[{LAST}]"),
    "ragged": spoil(json.dumps({"points": ROWS}), ", " + LAST, ""),
    "ragged-window": json.dumps({"points": ROWS[:3000] + [row[:2] for row in ROWS[3000:]]}),
    "missing-comma": spoil(json.dumps({"points": ROWS}), "], [", "] ["),
    "bad-token": spoil(json.dumps({"points": ROWS}), LAST, "1.5.2"),
    "unclosed": json.dumps({"points": ROWS})[:-1],
    "after-end": json.dumps({"points": ROWS}) + " x",
    "vertical-tab": "\x0b" + json.dumps({"points": ROWS}),
}


@pytest.mark.parametrize("name", sorted(WINDOWED_DOCS) + sorted(FALLBACK_DOCS))
def test_json_windows_match_the_row_walk(name, monkeypatch):
    text = WINDOWED_DOCS.get(name) or FALLBACK_DOCS[name]
    assert len(cut_lines(text, "]")) >= 3
    whole, load = [], pointio.load_json
    monkeypatch.setattr(pointio, "load_json", lambda t: whole.append(t) or load(t))
    if name == "int-beyond-float":  # the oracle's own float conversion overflows here
        with pytest.raises(ParseError, match="out of float range"):
            parse_json(text)
    else:
        same(parse_json, json_parse_oracle, text)
    # only a canonical document is decoded a window at a time
    assert bool(whole) == (name in FALLBACK_DOCS)


# --- memory ---------------------------------------------------------------

def traced_peak(fn, *args):
    tracemalloc.start()
    try:
        result = fn(*args)
        return tracemalloc.get_traced_memory()[1], result
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_parse_memory_is_bounded_by_the_array(tmp_path, fmt):
    # at 50,000 x 3 the whole-text parsers peaked at 7.8 MB (CSV) and 11.2 MB
    # (JSON) above the text, about 6.5x and 9.4x the array
    P = np.random.default_rng(13).standard_normal((50_000, 3))
    path = tmp_path / f"cloud.{fmt}"
    write_points(str(path), P)
    stream = io.StringIO(path.read_text(encoding="utf-8"))
    for parse, source in ((_parse_csv if fmt == "csv" else _parse_json, stream), (read_points, str(path))):
        peak, arr = traced_peak(parse, source)
        assert np.array_equal(arr.view(np.int64), P.view(np.int64))
        assert peak < 4 * P.nbytes


# --- writing --------------------------------------------------------------

def written_oracle(P, fmt):
    """The text write_points wrote one coordinate at a time."""
    if fmt == "csv":
        return "\n".join(",".join(repr(float(v)) for v in row) for row in P) + "\n"
    return json.dumps({"points": [[float(v) for v in row] for row in P]}, indent=2) + "\n"


WRITE_CASES = {
    "d1": np.array([[1.5], [-2.0], [3e-9]]),
    "n1": np.array([[0.1, 0.2, 0.3]]),
    "signed-zero": np.array([[-0.0, 0.0], [1.0, -0.0]]),
    "subnormal": np.array([[5e-324, -5e-324]]),
    "largest": np.array([[1.7976931348623157e308, -1.7976931348623157e308]]),
    "gaussian": np.random.default_rng(7).standard_normal((50, 7)),
    "blocks": np.random.default_rng(8).standard_normal((BLOCK_VALUES // 2 + 5, 2)),
    "wide": np.random.default_rng(9).standard_normal((3, BLOCK_VALUES + 1)),
}


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("name", sorted(WRITE_CASES))
def test_write_points_bytes_and_round_trip(tmp_path, name, fmt):
    P = WRITE_CASES[name]
    path = tmp_path / f"pts.{fmt}"
    write_points(str(path), P)
    assert path.read_bytes() == written_oracle(P, fmt).encode("utf-8")
    back = read_points(str(path))
    assert back.tobytes() == P.tobytes()  # bit-exact, -0.0 included


# --- JSON rendering -------------------------------------------------------

def dumps_oracle(doc):
    """The text the standard encoder writes for doc, one number at a time."""
    return json.dumps(doc, indent=2, sort_keys=True, default=_json_default)


FLOAT_EDGES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
               -1.7976931348623157e308, 0.1, 1e16, -123456789.0]
NON_FINITE = [float("nan"), float("inf"), float("-inf")]
SHAPES = st.one_of(
    st.tuples(st.integers(0, 4)),
    st.tuples(st.integers(0, 4), st.integers(0, 4)),
    st.just(()),
    st.just((2, 1, 2)),
)


@st.composite
def ndarrays(draw):
    """Small int, float and bool arrays of every shape the renderer meets,
    some floats holding a NaN or an infinity, and a few rows wider than a
    block."""
    dtype = draw(st.sampled_from(["float64", "float32", "int64", "int32", "uint8", "bool"]))
    if draw(st.integers(0, 9)) == 0:
        wide = np.random.default_rng(draw(st.integers(0, 9))).standard_normal((2, BLOCK_VALUES + 1))
        return wide.astype(dtype)
    if dtype.startswith("float"):
        width = int(dtype[-2:])
        elements = st.one_of(st.floats(width=width, allow_nan=False, allow_infinity=False),
                             st.sampled_from(FLOAT_EDGES).map(np.dtype(dtype).type))
    else:
        elements = hnp.from_dtype(np.dtype(dtype))
    arr = draw(hnp.arrays(dtype, draw(SHAPES), elements=elements))
    if dtype.startswith("float") and arr.size and draw(st.integers(0, 3)) == 0:
        arr.flat[draw(st.integers(0, arr.size - 1))] = draw(st.sampled_from(NON_FINITE))
    return arr


LEAVES = st.one_of(
    ndarrays(),
    st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=4),
    st.sampled_from([np.int64(7), np.float64(-0.0), np.bool_(True), "\x00array\x00"]),
)
DOCS = st.recursive(
    LEAVES,
    lambda kids: st.one_of(st.lists(kids, max_size=3),
                           st.dictionaries(st.text(" ab", max_size=3), kids, max_size=3)),
    max_leaves=8,
)


@settings(max_examples=300, deadline=None)
@given(DOCS)
@example(np.empty((0, 3)))
@example({"n-by-0": np.empty((3, 0)), "one": np.array([[2.5]]), "flat": np.array([1, -2, 3])})
@example({"edges": np.array([[-0.0, 5e-324], [1.7976931348623157e308, -1.7976931348623157e308]])})
@example({"f32": np.array([[0.1, -2.5]], dtype=np.float32), "nan": np.array([[1.0, np.nan]]),
          "inf": np.array([np.inf, 0.5]), "flags": np.array([True, False])})
@example({"trials": [{"witness": np.array([[0.5, 0.0], [6.5, 0.5]]), "witness_indices": np.array([1, 3])},
                     {"witness": None, "witness_indices": None}]})
@example({"wide": np.random.default_rng(9).standard_normal((3, BLOCK_VALUES + 1))})
@example(["\x00array\x00", np.array([1.0, 2.0])])  # a string equal to the stand-in
def test_json_chunks_match_the_encoder(doc):
    assert "".join(json_chunks(doc)) == dumps_oracle(doc)


# --- formatting on two CPUs -----------------------------------------------

SMALL_BLOCK = 4  # values per block in the split tests: arrays of 64 values and more split
CLOUD = np.random.default_rng(14).standard_normal((50_000, 3))
CSV_LINE = "%r,%r,%r\n"


def assert_no_child():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def record_splits(monkeypatch):
    """The row counts ``_split_rows`` is handed from now on, in order."""
    split, handed = pointio._split_rows, []
    monkeypatch.setattr(pointio, "_split_rows", lambda rows, line: handed.append(len(rows)) or split(rows, line))
    return handed


@pytest.fixture
def two_cpus(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    return record_splits(monkeypatch)


@pytest.fixture(params=["split", "one-cpu", "no-fork"])
def splitting(request, monkeypatch):
    """Blocks of SMALL_BLOCK values, the split allowed or not; the mode and
    the row counts ``_split_rows`` is handed."""
    monkeypatch.setattr(pointio, "BLOCK_VALUES", SMALL_BLOCK)
    if request.param == "no-fork":
        monkeypatch.delattr(os, "fork")
    else:
        cpus = {0, 1} if request.param == "split" else {0}
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
    yield request.param, record_splits(monkeypatch)
    assert_no_child()


@pytest.mark.parametrize("dtype", ["float64", "int64"])
@pytest.mark.parametrize("shape", [(), (1,), (3,)])  # (): 1-d arrays; (d,): rows d wide
def test_split_text_equals_the_serial_text(splitting, tmp_path, dtype, shape):
    mode, handed = splitting
    width = shape[0] if shape else 1
    per = max(1, SMALL_BLOCK // width)
    first = -(-16 * SMALL_BLOCK // width)  # the fewest rows that split
    rng = np.random.default_rng(width)
    splits = []
    # row counts below, at and above the cut, with even and odd block counts
    for n in range(first - 1, first + 2 * per + 3):
        arr = (rng.standard_normal((n,) + shape) * 1e3).astype(dtype)
        assert "".join(json_chunks({"a": arr})) == dumps_oracle({"a": arr})
        P = arr.reshape(n, width)
        for fmt in ("csv", "json"):
            path = tmp_path / f"pts.{fmt}"
            write_points(str(path), P)
            assert path.read_bytes() == written_oracle(P, fmt).encode("utf-8")
        # json_chunks formats all rows but the last; write_points' CSV formats every row
        splits += [rows for rows in (n - 1, n, n - 1) if rows * width >= 16 * SMALL_BLOCK]
    assert splits[0] == first and splits[-1] > first  # row counts below the cut ran serially
    assert handed == (splits if mode == "split" else [])


def test_split_write_of_a_real_size_cloud(tmp_path):
    for fmt in ("csv", "json"):
        path = tmp_path / f"cloud.{fmt}"
        write_points(str(path), CLOUD)
        assert read_points(str(path)).tobytes() == CLOUD.tobytes()
    assert path.read_bytes() == written_oracle(CLOUD, "json").encode("utf-8")
    assert_no_child()


def test_split_reaps_its_child_when_closed_after_the_first_piece(two_cpus):
    pieces = pointio._format_rows(CLOUD, CSV_LINE)
    assert next(pieces) == next(pointio._rows_text(CLOUD, CSV_LINE))
    pieces.close()  # the child is still formatting, or blocked writing to a full pipe
    assert two_cpus == [len(CLOUD)]
    assert_no_child()


def test_split_kills_its_child_when_closed_before_the_childs_length(two_cpus, monkeypatch):
    waitpid, statuses = os.waitpid, []

    def reap(pid, options):
        pid, status = waitpid(pid, options)
        statuses.append(status)
        return pid, status

    monkeypatch.setattr(os, "waitpid", reap)
    pieces = pointio._format_rows(CLOUD, CSV_LINE)
    next(pieces)
    pieces.close()  # the child is still formatting its 25,000 rows
    assert len(statuses) == 1 and os.WIFSIGNALED(statuses[0]) and os.WTERMSIG(statuses[0]) == signal.SIGKILL
    assert_no_child()


@pytest.mark.parametrize("stop", [3, 30])  # in this process's rows; in the child's text
def test_split_reaps_its_child_when_the_consumer_fails(two_cpus, stop):
    def consume(piece, count=itertools.count()):
        if next(count) == stop:
            raise RuntimeError("consumer failed")
        return piece

    with pytest.raises(RuntimeError, match="consumer failed"):
        "".join(map(consume, json_chunks({"points": CLOUD})))
    assert two_cpus == [len(CLOUD) - 1]
    assert_no_child()


def test_split_formats_the_half_of_a_failed_child(two_cpus, monkeypatch):
    parent, rows_text, formatted = os.getpid(), pointio._rows_text, []

    def rows_text_but_in_the_child(rows, line):
        if os.getpid() != parent:
            raise MemoryError  # before the child sends its length
        formatted.append(len(rows))
        return rows_text(rows, line)

    monkeypatch.setattr(pointio, "_rows_text", rows_text_but_in_the_child)
    assert "".join(pointio._format_rows(CLOUD, CSV_LINE)) == "".join(rows_text(CLOUD, CSV_LINE))
    assert two_cpus == [len(CLOUD)]
    assert len(formatted) == 2 and sum(formatted) == len(CLOUD)  # both halves, here
    assert_no_child()


def test_gen_report_of_a_large_cloud_equals_the_serial_report(monkeypatch, capsys):
    argv = ["gen", "--kind", "uniform-ball", "--n", "50000", "--d", "3"]
    src = os.path.dirname(os.path.dirname(os.path.abspath(pointio.__file__)))
    # run returns once every holder of the pipe has closed it: a child left running would hold it
    proc = subprocess.run([sys.executable, "-m", "mebkit.cli", *argv], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src), timeout=120)
    assert proc.returncode == 0, proc.stderr
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    assert main(argv) == 0
    serial = capsys.readouterr().out

    def zero_timing(text):
        return re.sub(r'"timing_ms": [^,]+,', '"timing_ms": 0.0,', text)

    assert zero_timing(proc.stdout) == zero_timing(serial)
    assert len(serial) > 50_000 * 3 * 15
