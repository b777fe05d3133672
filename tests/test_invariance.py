"""Translating or rescaling the input translates or rescales the answer.

Each property draws a base cloud P, a scale a with |a| in [1e-12, 1e12]
and a shift t with |t| up to 1e8 times the spread of aP.  It checks that
aP gives |a| times the answer on P, and that Q = aP + t gives the answer
on Q - t, which far from the origin is computed exactly and so is the
input the routine saw, moved back.  Comparing Q with aP directly would
test the input's rounding: rounding Q to its magnitude moves its points
by up to 1e-8 of the spread.
"""

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from mebkit.convexity import (barycentric_circumradius, caratheodory_reduce, dist_to_hull, make_combination,
                              nodim_caratheodory)
from mebkit.diameter import diameter_bruteforce, stream_eps_2d
from mebkit.geometry import BallBody, BoxBody, bbox_frame, geom_tol
from mebkit.meb import badoiu_clarkson, elzinga_hearn_dual, exact_meb, hopp_reeve_meb
from mebkit.mkeb import exact_mkeb
from mebkit.testers import k_g_tester, one_s_tester, promise_label

REL = 1e-9

frames = st.tuples(
    st.integers(0, 2**32 - 1),  # seed of the base cloud
    st.floats(-12.0, 12.0),     # log10 |a|
    st.booleans(),              # a < 0
    st.floats(-3.0, 8.0),       # log10 (|t| / spread of aP)
)


def moves(frame, n, d):
    """(pairs, a): a seeded n x d cloud P under the drawn scale a and
    shift t, as (moved, reference, unit) triples (aP, P, |a|) and
    (aP + t, (aP + t) - t, 1), where unit scales the reference's lengths."""
    seed, log_a, negative, log_shift = frame
    rng = np.random.default_rng(seed)
    P = rng.standard_normal((n, d))
    a = (-1.0 if negative else 1.0) * 10.0**log_a
    X = a * P
    direction = rng.standard_normal(d)
    spread = float(np.max(X.max(axis=0) - X.min(axis=0)))
    t = 10.0**log_shift * spread * direction / np.linalg.norm(direction)
    Q = X + t
    return [(X, P, abs(a)), (Q, Q - t, 1.0)], a


def assert_length_transforms(length, pairs, rel=REL):
    for moved, reference, unit in pairs:
        assert length(moved) == pytest.approx(unit * length(reference), rel=rel)


@given(frames, st.integers(1, 25), st.integers(1, 5))
@example((0, -12.0, False, 8.0), 5, 3)
@example((0, 12.0, True, 8.0), 5, 3)
def test_bbox_frame_tol_is_geom_tol_of_the_frame(frame, n, d):
    # one bounding box gives both the frame and its tolerance, to the bit
    pairs, _ = moves(frame, n, d)
    for moved, _, _ in pairs:
        framed, mid, tol = bbox_frame(moved)
        assert np.array_equal(framed, moved - mid)
        assert tol == geom_tol(framed)
        assert np.float64(tol).tobytes() == np.float64(geom_tol(moved - mid)).tobytes()


@given(frames, st.integers(2, 25), st.integers(1, 5))
def test_exact_meb(frame, n, d):
    pairs, _ = moves(frame, n, d)
    assert_length_transforms(lambda X: exact_meb(X).ball.radius, pairs)
    for moved, reference, _ in pairs:
        assert np.array_equal(exact_meb(moved).support.indices, exact_meb(reference).support.indices)


@given(frames, st.integers(2, 25), st.integers(1, 5))
def test_hopp_reeve_meb(frame, n, d):
    pairs, _ = moves(frame, n, d)
    assert_length_transforms(lambda X: hopp_reeve_meb(X).ball.radius, pairs)


@given(frames, st.integers(2, 25), st.integers(1, 5))
def test_elzinga_hearn_dual_within_its_tol(frame, n, d):
    pairs, _ = moves(frame, n, d)
    tol = 1e-6
    assert_length_transforms(lambda X: elzinga_hearn_dual(X, tol=tol)[0].ball.radius, pairs, rel=tol)


@given(frames, st.integers(2, 25), st.integers(1, 5), st.integers(1, 30), st.sampled_from([None, 7]))
def test_badoiu_clarkson(frame, n, d, k, seed):
    pairs, _ = moves(frame, n, d)
    assert_length_transforms(lambda X: badoiu_clarkson(X, k, seed)[0].ball.radius, pairs)


@given(frames, st.integers(2, 8), st.integers(1, 3), st.data())
def test_exact_mkeb(frame, n, d, data):
    pairs, _ = moves(frame, n, d)
    k = data.draw(st.integers(1, n))
    assert_length_transforms(lambda X: exact_mkeb(X, k).ball.radius, pairs)


@given(frames, st.integers(2, 30), st.integers(1, 4))
def test_diameter_bruteforce(frame, n, d):
    pairs, _ = moves(frame, n, d)
    assert_length_transforms(lambda X: diameter_bruteforce(X).value, pairs)
    for moved, reference, _ in pairs:
        got, want = diameter_bruteforce(moved), diameter_bruteforce(reference)
        assert (got.pair, got.pairs_at_max) == (want.pair, want.pairs_at_max)


@given(frames, st.integers(2, 30), st.sampled_from([0.5, 0.01]))
@example((742042212, -10.059566094663797, False, 7.906097132059129), 6, 0.01)  # 8e-9 off in raw coordinates
def test_stream_eps_2d(frame, n, eps):
    pairs, _ = moves(frame, n, 2)
    assert_length_transforms(lambda X: stream_eps_2d(X, eps)[0], pairs)

    def merged_halves(X):  # two sketches with two origins, merged
        _, left = stream_eps_2d(X[:n // 2], eps)
        _, right = stream_eps_2d(X[n // 2:], eps)
        return left.merge(right).estimate

    assert_length_transforms(merged_halves, pairs)


@given(frames, st.integers(3, 15), st.integers(1, 3))
@example((0, 12.0, True, 8.0), 15, 3)
def test_barycentric_circumradius(frame, n, d):
    pairs, _ = moves(frame, n, d)
    assert_length_transforms(barycentric_circumradius, pairs)


@given(frames, st.integers(1, 10), st.integers(1, 4))
def test_dist_to_hull(frame, n, d):
    pairs, _ = moves(frame, n + 1, d)  # row 0 is the query point
    assert_length_transforms(lambda X: dist_to_hull(X[0], X[1:]), pairs)


@given(frames, st.integers(1, 25), st.integers(1, 4), st.integers(1, 5))
@example((0, -12.0, False, 8.0), 12, 3, 4)
@example((0, 12.0, True, 8.0), 12, 3, 4)
def test_nodim_caratheodory(frame, n, d, r):
    pairs, _ = moves(frame, n + 1, d)  # row 0 is the target
    r = min(r, n)
    for moved, reference, unit in pairs:
        got_idx, got = nodim_caratheodory(moved[1:], moved[0], r)
        want_idx, want = nodim_caratheodory(reference[1:], reference[0], r)
        assert np.array_equal(got_idx, want_idx)
        assert got == pytest.approx(unit * want, rel=REL)


@given(frames, st.integers(1, 40), st.integers(1, 4))
@example((0, -12.0, False, 8.0), 30, 3)
@example((0, 12.0, True, 8.0), 30, 3)
def test_caratheodory_reduce_support_size(frame, n, d):
    pairs, _ = moves(frame, n, d)

    def support(X):
        return len(caratheodory_reduce(X, make_combination(X, np.arange(n), np.full(n, 1.0 / n))).indices)

    for moved, reference, _ in pairs:
        assert support(moved) == support(reference)


@given(frames, st.integers(2, 3), st.sampled_from(["ball", "box"]), st.floats(0.5, 2.0))
@example((0, -12.0, False, 8.0), 2, "ball", 1.0)  # the ends of the scale range
@example((0, 12.0, True, 8.0), 3, "box", 1.0)
def test_one_s_tester_verdict(frame, d, shape, size):
    pairs, a = moves(frame, 40, d)

    def verdict(X, unit):
        body = BallBody(size * unit) if shape == "ball" else BoxBody(np.full(d, size * unit))
        v = one_s_tester(X, body, eps=0.5, delta=0.1, seed=3)
        return v.outcome, v.rounds_used

    for moved, reference, unit in pairs:
        assert verdict(moved, abs(a)) == verdict(reference, abs(a) / unit)


@given(frames, st.integers(1, 3), st.integers(1, 3), st.sampled_from(["ball", "box"]), st.floats(0.5, 2.0))
@example((0, 12.0, True, 8.0), 2, 2, "ball", 1.0)
def test_k_g_tester_verdict(frame, k, d, shape, size):
    pairs, a = moves(frame, 30, d)

    def verdict(X, unit):
        body = BallBody(size * unit) if shape == "ball" else BoxBody(np.full(d, size * unit))
        v = k_g_tester(X, body, k, c=0.2, delta=0.1, seed=5)
        return v.outcome, v.rounds_used

    for moved, reference, unit in pairs:
        assert verdict(moved, abs(a)) == verdict(reference, abs(a) / unit)


@given(frames, st.integers(3, 8), st.integers(1, 3), st.integers(2, 3), st.floats(0.3, 2.0), st.integers(2, 4),
       st.floats(0.3, 3.0))
@example((0, -12.0, False, 8.0), 8, 2, 2, 1.0, 3, 1.0)
@example((0, 12.0, True, 8.0), 8, 3, 3, 0.8, 2, 2.0)
def test_promise_label(frame, n, d, k1, eps, k2, delta):
    # eps and delta are lengths, so they scale with the input
    pairs, a = moves(frame, n, d)

    def label(X, scale):
        return promise_label(X, k1, eps * scale, k2, delta * scale)

    for moved, reference, unit in pairs:
        assert label(moved, abs(a)) == label(reference, abs(a) / unit)
