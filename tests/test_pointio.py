"""The block parsers and writers of mebkit.pointio against the one-point-at-a-time
versions they replace: the same array bytes, or the same ParseError line
and message, and byte-identical files."""

import json

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from mebkit.errors import ParseError
from mebkit.pointio import BLOCK_VALUES, _parse_csv, _parse_json, read_points, write_points
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
