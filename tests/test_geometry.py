import itertools
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from mebkit.errors import DegenerateInputError
from mebkit.geometry import (
    SUBSET_BATCH,
    Ball,
    BallBody,
    BoxBody,
    _subset_blocks,
    as_points,
    barycenter,
    circumball,
    circumballs,
    fits_in_translate,
    fits_in_translates,
    geom_tol,
    small_meb_radii,
    subset_circumballs,
    subset_circumballs_work,
)
from mebkit.meb import exact_meb


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
        BallBody(float("nan"))
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
        assert np.linalg.norm(np.subtract(v, b.center)) == pytest.approx(b.radius, abs=1e-12)


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


# ---------------------------------------------------------------- small balls in batches


def dyadic_row(rng, m, d, shape):
    """m points in d dimensions with coordinates in multiples of 1/8: in
    general position, drawn with repetition from a few points, on one line,
    or on one plane.  Moving them by an integer vector or scaling them by a
    power of two is exact."""
    ints = lambda *size: rng.integers(-8, 9, size)  # noqa: E731
    if shape == "free":
        P = ints(m, d) * 8
    elif shape == "repeated":
        P = (ints(max(1, m // 3), d) * 8)[rng.integers(max(1, m // 3), size=m)]
    elif shape == "collinear":
        P = ints(1, d) * 8 + ints(m, 1) * ints(1, d)
    else:  # coplanar
        P = ints(1, d) * 8 + ints(m, 1) * ints(1, d) + ints(m, 1) * ints(1, d)
    return P / 8.0


shapes = st.sampled_from(["free", "repeated", "collinear", "coplanar"])


@st.composite
def batches(draw):
    """A (b, m, d) batch of dyadic rows, each of its own shape."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    b, m, d = draw(st.integers(1, 12)), draw(st.integers(1, 9)), draw(st.integers(1, 6))
    return np.array([dyadic_row(rng, m, d, draw(shapes)) for _ in range(b)])


def row_side(S):
    return (S.max(axis=1) - S.min(axis=1)).max(axis=1)


@given(batches())
def test_small_meb_radii_match_exact_meb(S):
    radii = small_meb_radii(S)
    exact = np.array([exact_meb(row).ball.radius for row in S])
    assert np.all(np.abs(radii - exact) <= 1e-12 * np.maximum(row_side(S), exact))


def bodies_near(S):
    """Ball and box bodies at, just inside and just outside the largest
    enclosing radius and half extent of the batch's rows."""
    r = small_meb_radii(S).max()
    h = (S.max(axis=1) - S.min(axis=1)).max() / 2.0
    d = S.shape[2]
    for f in (0.5, 1.0 - 2.0**-30, 1.0, 1.0 + 2.0**-30, 2.0):
        if r > 0.0:
            yield BallBody(f * r)
        if h > 0.0:
            yield BoxBody(np.full(d, f * h))


def scaled(body, a):
    return BallBody(a * body.radius) if isinstance(body, BallBody) else BoxBody(a * body.half_extents)


@given(batches(), st.integers(-2**20, 2**20), st.integers(-30, 30))
def test_fits_in_translates_ignores_position_and_units(S, shift, log2_scale):
    a = 2.0**log2_scale
    moved = S + shift * np.arange(1, S.shape[2] + 1)  # exact: dyadic plus integer
    for body in bodies_near(S):
        verdicts = fits_in_translates(body, S)
        assert np.array_equal(fits_in_translates(body, moved), verdicts)
        assert np.array_equal(fits_in_translates(scaled(body, a), a * S), verdicts)
        assert [fits_in_translate(body, row) for row in S] == verdicts.tolist()


def test_small_meb_radii_blocks_agree_with_single_rows():
    # 8 points in 7 dimensions: 255 subsets a row, so 8 rows a circumballs block
    rng = np.random.default_rng(3)
    S = rng.standard_normal((40, 8, 7))
    single = np.array([small_meb_radii(row[None])[0] for row in S])
    assert np.allclose(small_meb_radii(S), single, rtol=1e-14, atol=0.0)


def test_fits_in_translates_validates_batches():
    with pytest.raises(ValueError):
        fits_in_translates(BallBody(1.0), np.zeros((3, 2)))
    with pytest.raises(ValueError):
        fits_in_translates(BallBody(1.0), np.full((1, 2, 2), np.nan))
    with pytest.raises(ValueError, match="mismatch"):
        fits_in_translates(BoxBody([1.0, 1.0]), np.zeros((2, 3, 3)))
    with pytest.raises(TypeError):
        fits_in_translates("ball", np.zeros((1, 2, 2)))


@pytest.mark.parametrize("n, size", [(1, 1), (5, 2), (40, 3), (120, 2), (30, 4)])
def test_subset_blocks_equal_the_listed_combinations(n, size):
    # the blocks the list-built batches gave, to the bit: values, dtype and cut
    combos = itertools.combinations(range(n), size)
    want = []
    while block := list(itertools.islice(combos, SUBSET_BATCH)):
        want.append(np.array(block))
    got = list(_subset_blocks(n, size))
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and g.shape == w.shape and g.tobytes() == w.tobytes()


def test_subset_circumballs_yields_distance_rows():
    P = np.random.default_rng(4).standard_normal((9, 2))
    count = 0
    for centers, radii, dist in subset_circumballs(P):
        assert dist.shape == (len(centers), len(P))
        assert np.array_equal(dist, np.linalg.norm(P[None] - centers[:, None], axis=2))  # same sums as a norm
        count += len(radii)
    assert count == 9 + 36 + math.comb(9, 3)  # random points: every subset is independent
    assert subset_circumballs_work(9, 2) == (9 + 36 + 84) * 9 * 2 * 3
