"""The block parsers and writers of mebkit.pointio against the one-point-at-a-time
versions they replace: the same array bytes, or the same ParseError line
and message, and byte-identical files and JSON text."""

import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from mebkit import pointio
from mebkit.errors import ParseError
from mebkit.pointio import (
    BLOCK_VALUES, _json_default, _parse_csv, _parse_json, _windows, json_chunks, read_points, write_points,
)
from oracles import csv_parse_oracle, json_parse_oracle


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
def test_csv_parse_matches_line_oracle(text):
    assert outcome(_parse_csv, text) == outcome(csv_parse_oracle, text)


def test_csv_parse_spans_blocks():
    # rows across several blocks, with a bad line in the last one
    rng = np.random.default_rng(3)
    P = rng.standard_normal((2 * BLOCK_VALUES // 3 + 17, 3))
    lines = [",".join(map(repr, row)) for row in P.tolist()]
    text = "\n".join(lines) + "\n"
    assert outcome(_parse_csv, text) == outcome(csv_parse_oracle, text)
    assert np.array_equal(_parse_csv(text), P)
    lines[-3] = "1,x,2"
    bad = "\n".join(lines)
    assert outcome(_parse_csv, bad) == outcome(csv_parse_oracle, bad)
    assert outcome(_parse_csv, bad)[1] == len(lines) - 2


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
    starts, start = [], 0
    for window in _windows(text, end, 0, len(text)):
        start += len(window)
        starts.append(text.count("\n", 0, start))
    return starts[:-1]


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
    same(_parse_csv, csv_parse_oracle, text)


@pytest.mark.parametrize("bad", ["1,x,2", "1,2", "1,2,3,4", "1,nan,2", "1,2,1e500", "1,,2"])
def test_csv_bad_row_in_the_last_window(bad):
    lines = cloud_lines()
    lines[-5] = bad
    text = "\n".join(lines) + "\n"
    assert len(cut_lines(text, "\n")) >= 3
    same(_parse_csv, csv_parse_oracle, text)


def test_csv_lines_broken_at_other_than_newline():
    # splitlines breaks at \r alone: more rows than newlines to size the array from
    lines = cloud_lines(6000)
    text = "\r".join(lines[:3000]) + "\n" + "\n".join(lines[3000:]) + "\n"
    same(_parse_csv, csv_parse_oracle, text)


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
    assert outcome(_parse_json, text) == outcome(json_parse_oracle, text)


def test_json_parse_large_document():
    P = np.random.default_rng(4).standard_normal((3000, 3))
    text = json.dumps({"points": P.tolist()})
    assert outcome(_parse_json, text) == outcome(json_parse_oracle, text)
    assert np.array_equal(_parse_json(text), P)


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
            _parse_json(text)
    else:
        same(_parse_json, json_parse_oracle, text)
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
    text = path.read_text(encoding="utf-8")
    peak, arr = traced_peak(_parse_csv if fmt == "csv" else _parse_json, text)
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
