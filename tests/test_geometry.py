import math

import numpy as np
import pytest

from mebkit.errors import DegenerateInputError
from mebkit.geometry import (
    Ball,
    BallBody,
    BoxBody,
    as_points,
    barycenter,
    circumball,
    circumballs,
    distance,
    fits_in_translate,
    geom_tol,
)


def test_distance_345():
    assert distance((0, 0), (3, 4)) == 5.0


def test_distance_identical_points():
    assert distance((1, 1), (1, 1)) == 0.0


def test_distance_unit_axes():
    assert distance((1, 0, 0), (0, 1, 0)) == pytest.approx(math.sqrt(2))


def test_distance_dimension_mismatch():
    with pytest.raises(ValueError, match="mismatch"):
        distance((0, 0), (0, 0, 0))


def test_as_points_rejects_nan_and_empty():
    with pytest.raises(ValueError):
        as_points([[0.0, float("nan")]])
    with pytest.raises(ValueError):
        as_points(np.empty((0, 2)))


def test_ball_requires_nonnegative_radius():
    with pytest.raises(ValueError):
        Ball(np.zeros(2), -0.1)


def test_ball_contains_boundary_point():
    b = Ball(np.zeros(2), 1.0)
    assert b.contains(np.array([[1.0, 0.0], [0.0, 0.0]]))
    assert not b.contains(np.array([[1.1, 0.0]]))


def test_body_validation():
    with pytest.raises(ValueError):
        BallBody(0.0)
    with pytest.raises(ValueError):
        BoxBody([1.0, 0.0])


def test_barycenter_examples():
    assert np.allclose(barycenter([[0, 0], [2, 0]]), [1, 0])
    assert np.allclose(barycenter([[3.5, -1.0]]), [3.5, -1.0])
    sq = [[1, 1], [1, -1], [-1, 1], [-1, -1]]
    assert np.allclose(barycenter(sq), [0, 0])


def test_circumball_segment():
    b = circumball([[0.0, 0.0], [2.0, 0.0]])
    assert np.allclose(b.center, [1.0, 0.0])
    assert b.radius == pytest.approx(1.0)


def test_circumball_equilateral_triangle():
    # side 1 -> circumradius 1/sqrt(3)
    tri = [[0.0, 0.0], [1.0, 0.0], [0.5, math.sqrt(3) / 2]]
    b = circumball(tri)
    assert b.radius == pytest.approx(1 / math.sqrt(3), abs=1e-12)
    for v in tri:
        assert distance(v, b.center) == pytest.approx(b.radius, abs=1e-12)


def test_circumball_single_point():
    b = circumball([[4.0, 5.0, 6.0]])
    assert b.radius == 0.0
    assert np.allclose(b.center, [4, 5, 6])


def test_circumball_collinear_points_degenerate():
    with pytest.raises(DegenerateInputError) as info:
        circumball([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
    assert list(info.value.indices) == [0, 1, 2]


def test_circumball_too_many_points_degenerate():
    with pytest.raises(DegenerateInputError):
        circumball([[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]])


@pytest.mark.parametrize("d", [1, 3, 10, 20])
def test_circumballs_batch_matches_single_calls(d):
    rng = np.random.default_rng(d)
    for m in range(1, d + 2):
        S = rng.standard_normal((6, m, d))
        centers, radii, ok, coords = circumballs(S)
        assert ok.all()
        assert coords.shape == (len(S), m)
        assert np.allclose(coords.sum(axis=1), 1.0, rtol=0.0, atol=1e-12)
        assert np.allclose(np.einsum("bm,bmd->bd", coords, S), centers, rtol=1e-9, atol=1e-9)
        for row in range(len(S)):
            b = circumball(S[row])
            assert np.allclose(centers[row], b.center, rtol=1e-12, atol=1e-12)
            assert radii[row] == pytest.approx(b.radius, rel=1e-12)
            dists = np.linalg.norm(S[row] - centers[row], axis=1)
            assert np.ptp(dists) <= 1e-8 * radii[row]


def test_circumball_tiny_triangle():
    tri = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, math.sqrt(3) / 2]]) * 1e-7
    b = circumball(tri)
    assert b.radius == pytest.approx(1e-7 / math.sqrt(3), rel=1e-12)
    assert np.linalg.norm(tri - b.center, axis=1) == pytest.approx([b.radius] * 3, rel=1e-12)


@pytest.mark.parametrize("scale", [1.0, 1e7])
def test_circumballs_flags_dependent_subsets(scale):
    S = scale * np.array([
        [[0.0, 0.0, 0.0], [1.0, 1.0, 0.0], [3.0, 3.0, 0.0]],   # collinear
        [[1.0, 2.0, 3.0], [1.0, 2.0, 3.0], [0.0, 1.0, 0.0]],   # duplicate
        [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]],   # independent
    ])
    _, _, ok, _ = circumballs(S)
    assert list(ok) == [False, False, True]
    _, _, ok, _ = circumballs(S[1:2, :2])
    assert list(ok) == [False]
    with pytest.raises(DegenerateInputError) as info:
        circumball(S[0])
    assert info.value.indices == [0, 1, 2]


def test_circumball_center_in_affine_hull():
    rng = np.random.default_rng(21)
    for _ in range(25):
        d = int(rng.integers(2, 6))
        m = int(rng.integers(2, d + 2))
        S = rng.standard_normal((m, d))
        b = circumball(S)
        # equidistance
        dists = np.linalg.norm(S - b.center, axis=1)
        assert np.ptp(dists) <= 1e-8 * (1 + dists.max())
        # membership in the affine hull: residual of least-squares fit is ~0
        A = np.vstack([S.T, np.ones(m)])
        y = np.concatenate([b.center, [1.0]])
        w, *_ = np.linalg.lstsq(A, y, rcond=None)
        assert np.linalg.norm(A @ w - y) <= 1e-7 * (1 + np.abs(S).max())


def test_fits_ball_exact_radius():
    assert fits_in_translate(BallBody(1.0), [[0.0, 0.0], [2.0, 0.0]])


def test_fits_ball_slightly_too_wide():
    assert not fits_in_translate(BallBody(1.0), [[0.0, 0.0], [2.1, 0.0]])


def test_fits_box_extent():
    body = BoxBody([1.0, 1.0])
    wide = [[0.0, 0.0], [2.5, 0.0]]
    assert not fits_in_translate(body, wide)
    assert fits_in_translate(body, [[0.0, 0.0], [2.0, 1.7]])


def test_fits_box_dimension_mismatch():
    with pytest.raises(ValueError):
        fits_in_translate(BoxBody([1.0, 1.0]), [[0.0, 0.0, 0.0]])


def test_geom_tol_scales_with_magnitude():
    # the slack follows the spread of the points and the lengths compared,
    # not where the points sit
    P = np.array([[0.0, 0.0], [3.0, 1.0], [1.0, -1.0]])
    assert geom_tol(P) == pytest.approx(1e-9 * 3.0)
    assert geom_tol(P + 1e6) == pytest.approx(geom_tol(P))
    assert geom_tol(P, 5.0) == pytest.approx(1e-9 * 5.0)
    assert geom_tol(P, -0.5) == geom_tol(P)
    for a in (1e-12, 1e-3, 1e7):
        assert geom_tol(a * P - 2e6 * a, 5.0 * a) == pytest.approx(a * geom_tol(P, 5.0))
    assert geom_tol(np.full((4, 3), 1e8)) == 0.0
