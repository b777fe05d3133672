import json
import math

import numpy as np
import pytest

from mebkit import generators
from mebkit.diameter import diameter_bruteforce
from mebkit.errors import ParseError
from mebkit.generators import KINDS, gen_instance, regular_simplex
from mebkit.pointio import read_points, write_points


# --- generators ---------------------------------------------------------


def test_regular_simplex_side_lengths():
    for d in range(1, 7):
        V = regular_simplex(d, side=2.5)
        assert V.shape == (d + 1, d)
        for i in range(d + 1):
            for j in range(i + 1, d + 1):
                assert np.linalg.norm(V[i] - V[j]) == pytest.approx(2.5, rel=1e-12)


def test_regular_simplex_invalid_dim():
    with pytest.raises(ValueError):
        regular_simplex(0)


@pytest.mark.parametrize("kind", KINDS)
def test_gen_deterministic_per_seed(kind):
    params = {"k2": 3} if kind == "far" else {}
    P1, _ = gen_instance(kind, 20, 3, seed=42, **params)
    P2, _ = gen_instance(kind, 20, 3, seed=42, **params)
    P3, _ = gen_instance(kind, 20, 3, seed=43, **params)
    assert np.array_equal(P1, P2)
    assert not np.array_equal(P1, P3)
    assert P1.shape == (20, 3)


def test_gen_unknown_kind_lists_kinds():
    with pytest.raises(ValueError) as err:
        gen_instance("torus", 5, 2)
    for kind in KINDS:
        assert kind in str(err.value)


def test_gen_uniform_ball_stays_inside():
    P, _ = gen_instance("uniform-ball", 200, 4, seed=7, radius=2.0)
    assert np.all(np.linalg.norm(P, axis=1) <= 2.0 + 1e-12)


def test_gen_sphere_surface_radii():
    P, _ = gen_instance("sphere-surface", 100, 3, seed=7, radius=1.5)
    assert np.allclose(np.linalg.norm(P, axis=1), 1.5)


def test_gen_sphere_surface_diameter_fixture():
    # the streaming-sketch fixture: 64 directions in the plane, diameter ~2
    P, _ = gen_instance("sphere-surface", 64, 2, seed=0)
    diam = diameter_bruteforce(P).value
    assert diam <= 2.0 + 1e-12
    assert diam > 1.99


def test_gen_clusterable_certificate():
    P, labels = gen_instance("clusterable", 50, 3, seed=1, k1=1, eps=1.0)
    cert = labels["certificate"]
    assert cert["centers"].shape == (1, 3)
    assert cert["radius"] == 1.0
    gaps = np.linalg.norm(P - cert["centers"][cert["assignment"]], axis=1)
    assert np.all(gaps <= 1.0)

    P, labels = gen_instance("clusterable", 40, 2, seed=4, k1=3, eps=0.5)
    cert = labels["certificate"]
    gaps = np.linalg.norm(P - cert["centers"][cert["assignment"]], axis=1)
    assert np.all(gaps <= 0.5)


def test_gen_far_certificate():
    P, labels = gen_instance("far", 12, 2, seed=3, k2=3, delta=10.0)
    cert = labels["certificate"]
    assert cert["indices"] == [0, 1, 2]
    assert cert["delta"] == 10.0
    anchors = P[cert["indices"]]
    for i in range(3):
        for j in range(i + 1, 3):
            assert np.linalg.norm(anchors[i] - anchors[j]) >= 10.0


def test_gen_far_validation():
    with pytest.raises(ValueError):
        gen_instance("far", 2, 2, seed=0, k2=3)
    with pytest.raises(ValueError):
        gen_instance("far", 5, 2, seed=0, k2=1)
    with pytest.raises(ValueError):
        gen_instance("far", 5, 2, seed=0, k2=3, delta=0.0)


@pytest.mark.parametrize("kind, name", [
    ("uniform-ball", "radius"), ("sphere-surface", "radius"), ("gaussian", "sigma"),
])
@pytest.mark.parametrize("value", [-1.0, 0.0, float("nan"), float("inf")])
def test_gen_lengths_are_refused_before_drawing(monkeypatch, kind, name, value):
    class NoDraws:
        def __getattr__(self, name):
            raise AssertionError("drew points for a refused length")

    monkeypatch.setattr(generators, "derive_rng", lambda *args: NoDraws())
    with pytest.raises(ValueError, match=name):
        gen_instance(kind, 1000, 3, seed=0, **{name: value})


@pytest.mark.parametrize("kind, name", [("clustered", "separation"), ("clusterable", "eps"), ("far", "delta")])
def test_gen_anchor_gap_beyond_float_range_is_refused(kind, name):
    with pytest.raises(ValueError, match="float range"):
        gen_instance(kind, 5, 2, seed=0, **{name: 1e308})


def test_gen_clustered_labels():
    P, labels = gen_instance("clustered", 30, 2, seed=9, k=4, separation=8.0)
    assert labels["centers"].shape == (4, 2)
    assert labels["assignment"].shape == (30,)
    assert set(labels["assignment"]) <= set(range(4))


# --- point I/O ----------------------------------------------------------


def test_read_csv_basic(tmp_path):
    path = tmp_path / "pts.csv"
    path.write_text("0,0\n3,4\n")
    P = read_points(str(path))
    assert P.shape == (2, 2)
    assert np.array_equal(P, [[0.0, 0.0], [3.0, 4.0]])


def test_read_csv_skips_comments_and_blanks(tmp_path):
    path = tmp_path / "pts.csv"
    path.write_text("# header\n\n1,2\n\n# mid\n3,4\n")
    P = read_points(str(path))
    assert P.shape == (2, 2)


def test_read_csv_ragged_row(tmp_path):
    path = tmp_path / "pts.csv"
    path.write_text("1,2\n3\n")
    with pytest.raises(ParseError) as err:
        read_points(str(path))
    assert err.value.line == 2


def test_read_csv_non_numeric(tmp_path):
    path = tmp_path / "pts.csv"
    path.write_text("1,2\nfoo,4\n")
    with pytest.raises(ParseError) as err:
        read_points(str(path))
    assert err.value.line == 2


def test_read_csv_non_finite(tmp_path):
    path = tmp_path / "pts.csv"
    path.write_text("1,2\nnan,4\n")
    with pytest.raises(ParseError) as err:
        read_points(str(path))
    assert err.value.line == 2


def test_read_csv_empty(tmp_path):
    path = tmp_path / "pts.csv"
    path.write_text("")
    with pytest.raises(ParseError) as err:
        read_points(str(path))
    assert err.value.line == 1


def test_read_json_basic(tmp_path):
    path = tmp_path / "pts.json"
    path.write_text('{"points": [[1, 2, 3]]}')
    P = read_points(str(path))
    assert P.shape == (1, 3)
    assert np.array_equal(P, [[1.0, 2.0, 3.0]])


def test_read_json_errors(tmp_path):
    cases = [
        '{"nope": []}',
        '{"points": []}',
        '{"points": [[1, "x"]]}',
        '{"points": [[1, 2], [3]]}',
        '{"points": [[1, true]]}',
        "[1, 2]",
    ]
    path = tmp_path / "pts.json"
    for text in cases:
        path.write_text(text)
        with pytest.raises(ParseError):
            read_points(str(path))


def test_read_json_malformed_reports_line(tmp_path):
    path = tmp_path / "pts.json"
    path.write_text('{"points": [[1, 2],\n [3, ]]}')
    with pytest.raises(ParseError) as err:
        read_points(str(path))
    assert err.value.line == 2


def test_format_inference_and_override(tmp_path):
    path = tmp_path / "pts.dat"
    path.write_text("1,2\n")
    with pytest.raises(ValueError):
        read_points(str(path))  # no extension to infer from
    P = read_points(str(path), fmt="csv")
    assert P.shape == (1, 2)
    with pytest.raises(ValueError):
        read_points(str(path), fmt="xml")


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_write_read_round_trip_exact(tmp_path, fmt):
    rng = np.random.default_rng(11)
    P = rng.standard_normal((25, 3)) * np.pi  # irrational-ish coordinates
    path = tmp_path / f"pts.{fmt}"
    write_points(str(path), P)
    back = read_points(str(path))
    assert np.array_equal(back, P)  # bit-exact round trip


def test_gen_write_read_round_trip(tmp_path):
    P, _ = gen_instance("gaussian", 40, 5, seed=21)
    path = tmp_path / "inst.csv"
    write_points(str(path), P)
    assert np.array_equal(read_points(str(path)), P)


def test_write_rejects_unknown_format(tmp_path):
    with pytest.raises(ValueError):
        write_points(str(tmp_path / "pts.bin"), np.zeros((2, 2)))
