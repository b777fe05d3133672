import math

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from mebkit import diameter
from mebkit.diameter import (
    DirectionalSketch,
    TwoApproxSketch,
    diameter_bruteforce,
    diameter_calipers_2d,
    diameter_doublesweep,
    direction_count,
    stream_2approx,
    stream_eps_2d,
)
from mebkit.errors import GuardError
from mebkit.generators import regular_simplex
from mebkit.seeding import derive_rng

from oracles import diameter_rows_oracle, direction_count_oracle

SQUARE = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])


def regular_ngon(n, radius=1.0, phase=0.0):
    ang = phase + 2 * np.pi * np.arange(n) / n
    return radius * np.column_stack([np.cos(ang), np.sin(ang)])


def test_bruteforce_345():
    res = diameter_bruteforce(np.array([[0.0, 0.0], [3.0, 4.0]]))
    assert res.value == 5.0
    assert res.pair == (0, 1)
    assert res.exact


def test_bruteforce_square_two_diagonals():
    res = diameter_bruteforce(SQUARE)
    assert res.value == pytest.approx(math.sqrt(2))
    assert res.pairs_at_max == 2
    assert res.pair == (0, 3)  # lexicographically first of the tied pairs
    simplex = regular_simplex(4, side=3.0)  # all 10 pairs tied
    res = diameter_bruteforce(simplex)
    assert res.value == pytest.approx(3.0)
    assert (res.pair, res.pairs_at_max) == ((0, 1), 10)


@given(st.integers(0, 2**32 - 1), st.integers(2, 70), st.integers(1, 12),
       st.sampled_from(["random", "lattice", "collinear", "repeated"]), st.integers(-6, 6), st.booleans())
@example(0, 5, 130, "random", 0, False)     # above 128 coordinates numpy sums in two halves
@example(0, 40, 2, "repeated", 0, True)     # many pairs tied at the maximum, across blocks
def test_bruteforce_blocks_equal_the_row_scan(seed, n, d, shape, log_scale, small_blocks):
    rng = np.random.default_rng(seed)
    if shape == "lattice":
        P = rng.integers(-2, 3, size=(n, d)).astype(float)
    elif shape == "collinear":
        P = np.outer(rng.standard_normal(n), rng.standard_normal(d)) + rng.standard_normal(d)
    elif shape == "repeated":
        P = rng.standard_normal((3, d))[rng.integers(0, 3, size=n)]
    else:
        P = rng.standard_normal((n, d))
    P = P * 10.0 ** log_scale
    with pytest.MonkeyPatch.context() as mp:
        if small_blocks:  # several blocks, and one-row blocks, even for small n
            mp.setattr(diameter, "PAIR_BLOCK", 7)
        res = diameter_bruteforce(P)
    assert (res.value, res.pair, res.pairs_at_max) == diameter_rows_oracle(P)  # to the bit


def test_calipers_square():
    res = diameter_calipers_2d(SQUARE)
    assert res.value == pytest.approx(math.sqrt(2))
    assert res.pairs_at_max == 2


def test_calipers_collinear():
    P = np.array([[0.0, 0.0], [1.0, 1.0], [3.0, 3.0], [2.0, 2.0]])
    res = diameter_calipers_2d(P)
    assert res.value == pytest.approx(math.sqrt(18))
    assert res.pair == (0, 2)


def test_calipers_identical_points():
    P = np.zeros((4, 2))
    res = diameter_calipers_2d(P)
    assert res.value == 0.0
    assert res.exact


def test_calipers_matches_bruteforce():
    for trial in range(60):
        rng = derive_rng(trial, "diam")
        n = int(rng.integers(2, 120))
        P = rng.standard_normal((n, 2)) * float(rng.uniform(0.5, 20))
        a = diameter_bruteforce(P)
        b = diameter_calipers_2d(P)
        assert b.value == pytest.approx(a.value, rel=1e-12, abs=1e-12)
        assert b.pair == a.pair


def test_calipers_requires_2d():
    with pytest.raises(ValueError):
        diameter_calipers_2d(np.zeros((3, 3)))
    with pytest.raises(ValueError):
        diameter_calipers_2d(np.zeros((1, 2)))


def test_erdos_bound_on_regular_polygons():
    # even n-gon: n/2 diametral pairs; odd n-gon: n; both within the
    # at-most-n bound
    for n in (4, 6, 8, 12):
        res = diameter_calipers_2d(regular_ngon(n, phase=0.3))
        assert res.pairs_at_max == n // 2
    for n in (5, 7, 9):
        res = diameter_calipers_2d(regular_ngon(n, phase=0.3))
        assert res.pairs_at_max == n
    for n in range(3, 13):
        assert diameter_calipers_2d(regular_ngon(n)).pairs_at_max <= n


def test_doublesweep_two_points():
    res = diameter_doublesweep(np.array([[0.0, 1.0], [1.0, 5.0]]))
    assert res.value == pytest.approx(math.sqrt(17))
    assert not res.exact  # lower bound, not certified


def test_doublesweep_never_exceeds_diameter():
    # diagnostic, not a guarantee: on this fixture family the recorded
    # baseline is 197/200 exact matches
    hits = 0
    for trial in range(200):
        rng = derive_rng(trial, "sweep")
        P = rng.uniform(0, 1, (int(rng.integers(2, 30)), 2))
        truth = diameter_bruteforce(P).value
        got = diameter_doublesweep(P, seed=trial).value
        assert got <= truth + 1e-12
        hits += got == pytest.approx(truth, rel=1e-12)
    assert hits >= 190  # >= 95% of 200


def test_two_approx_contract():
    P = np.array([[0.0, 0.0], [1.0, 0.0]])
    estimate, _ = stream_2approx(P)
    assert estimate == pytest.approx(1.0)

    # anchored at one end of a segment: estimate is the full length
    seg = np.array([[0.0, 0.0], [3.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
    estimate, _ = stream_2approx(seg)
    assert estimate == pytest.approx(3.0)

    # anchored at the center of a symmetric set: estimate is the circumradius
    star = np.vstack([[0.0, 0.0], regular_ngon(8, radius=2.0)])
    estimate, _ = stream_2approx(star)
    assert estimate == pytest.approx(2.0)
    truth = diameter_bruteforce(star).value
    assert estimate <= truth <= 2 * estimate + 1e-12


def test_two_approx_monotone_updates():
    rng = derive_rng(1, "sketch")
    sk = TwoApproxSketch()
    last = 0.0
    for p in rng.standard_normal((50, 3)):
        sk.update(p)
        assert sk.estimate >= last
        last = sk.estimate


def test_direction_count_examples():
    assert direction_count(1.0) == 2
    assert direction_count(0.1) == 4  # cos(pi/8) = 0.9239 >= 1/1.1 = 0.9091
    for eps in (1.0, 0.5, 0.2, 0.1, 0.05, 0.01):
        m = direction_count(eps)
        assert math.cos(math.pi / (2 * m)) >= 1 / (1 + eps)
        assert m == 1 or math.cos(math.pi / (2 * (m - 1))) < 1 / (1 + eps)
    with pytest.raises(ValueError):
        direction_count(0.0)


def test_direction_count_closed_form_equals_the_count():
    for eps in np.logspace(math.log10(7.4e-8), 0.0, 2000):
        assert direction_count(float(eps)) == direction_count_oracle(float(eps))
    # at and beside each step of the count, where rounding decides the test
    for m in range(2, diameter.STREAM_BLOCK + 1, 7):
        edge = 1.0 / math.cos(math.pi / (2 * m)) - 1.0
        for eps in (math.nextafter(edge, 0.0), edge, math.nextafter(edge, 1.0)):
            assert direction_count(eps) == direction_count_oracle(eps)
    assert direction_count(0.01) == 12


def test_direction_count_refuses_more_than_a_block_of_directions():
    edge = 1.0 / math.cos(math.pi / (2 * diameter.STREAM_BLOCK)) - 1.0  # about 7.35e-8
    assert direction_count(edge * (1 + 1e-6)) == direction_count_oracle(edge * (1 + 1e-6)) == diameter.STREAM_BLOCK
    assert direction_count_oracle(edge * (1 - 1e-6)) == diameter.STREAM_BLOCK + 1
    for eps in (edge * (1 - 1e-6), 1e-12, 1e-16, 1e-300, 5e-324):
        with pytest.raises(GuardError, match="directions"):
            direction_count(eps)
    with pytest.raises(GuardError):
        stream_eps_2d(SQUARE, 1e-300)


def test_directional_sketch_axis_segment_exact():
    P = np.array([[0.0, 0.0], [7.0, 0.0], [3.0, 0.0]])
    estimate, _ = stream_eps_2d(P, 0.5)
    assert estimate == pytest.approx(7.0)  # one grid direction is the x axis


def test_directional_sketch_circle_fixture():
    # 64 evenly spaced points: antipodal pairs exist, so the diameter is 2
    ang = 2 * np.pi * np.arange(64) / 64
    P = np.column_stack([np.cos(ang), np.sin(ang)])
    estimate, _ = stream_eps_2d(P, 0.1)
    truth = diameter_bruteforce(P).value
    assert truth == pytest.approx(2.0)
    assert estimate <= 2.0 + 1e-12
    assert estimate >= 2.0 / 1.1 - 1e-12
    assert truth <= (1 + 0.1) * estimate + 1e-12


def test_directional_sketch_order_invariant():
    rng = derive_rng(4, "order")
    P = rng.standard_normal((30, 2))
    base, base_sk = stream_eps_2d(P, 0.2)
    for t in range(5):
        perm = derive_rng(t, "perm").permutation(30)
        est, _ = stream_eps_2d(P[perm], 0.2)
        assert est == pytest.approx(base, rel=1e-12)


def test_directional_sketch_merge_matches_whole():
    rng = derive_rng(6, "dmerge")
    P = rng.standard_normal((40, 2))
    whole, whole_sk = stream_eps_2d(P, 0.3)
    _, left = stream_eps_2d(P[:15], 0.3)
    _, right = stream_eps_2d(P[15:], 0.3)
    merged = left.merge(right)
    assert merged.estimate == pytest.approx(whole_sk.estimate, rel=1e-12)


def test_directional_sketch_merge_with_an_empty_sketch():
    P = derive_rng(7, "dmerge-empty").standard_normal((20, 2)) + 1e6
    _, full = stream_eps_2d(P, 0.1)
    for merged in (full.merge(DirectionalSketch(0.1)), DirectionalSketch(0.1).merge(full)):
        assert np.array_equal(merged.origin, P[0])
        assert np.array_equal(merged.lo, full.lo) and np.array_equal(merged.hi, full.hi)
        assert merged.count == 20
    assert DirectionalSketch(0.1).merge(DirectionalSketch(0.1)).origin is None


def test_directional_sketch_incompatible_grids():
    _, a = stream_eps_2d(SQUARE, 0.3)
    _, b = stream_eps_2d(SQUARE, 0.05)
    with pytest.raises(TypeError):
        a.merge(b)


def test_streaming_contracts_random():
    for trial in range(30):
        rng = derive_rng(trial, "contracts")
        P = rng.standard_normal((int(rng.integers(2, 80)), 2)) * 4
        truth = diameter_bruteforce(P).value
        e2, _ = stream_2approx(P)
        assert e2 <= truth + 1e-12 <= 2 * e2 + 1e-9
        for eps in (0.5, 0.1):
            ee, _ = stream_eps_2d(P, eps)
            assert ee <= truth + 1e-12 <= (1 + eps) * ee + 1e-9


def _fed_in_blocks(sketch, P, size):
    for start in range(0, len(P), size):
        sketch.extend(P[start:start + size])
    return sketch


@pytest.mark.parametrize("size", [1, 2, 7, 64, 1000])
def test_sketch_blocks_equal_points(size):
    # the block update and the point update agree exactly, for every block size
    rng = derive_rng(9, "blocks")
    for shift in (0.0, 1e3, -4e6):
        P = rng.standard_normal((250, 2)) * 3.0 + shift
        two, eps = TwoApproxSketch(), DirectionalSketch(0.05)
        for p in P:
            two.update(p)
            eps.update(p)
        two_b = _fed_in_blocks(TwoApproxSketch(), P, size)
        eps_b = _fed_in_blocks(DirectionalSketch(0.05), P, size)
        assert two_b.estimate == two.estimate
        assert np.array_equal(two_b.anchor, two.anchor)
        assert eps_b.estimate == eps.estimate
        assert np.array_equal(eps_b.lo, eps.lo) and np.array_equal(eps_b.hi, eps.hi)
        assert two_b.count == eps_b.count == two.count == len(P)
    P3 = rng.standard_normal((101, 3))
    two3 = TwoApproxSketch()
    for p in P3:
        two3.update(p)
    assert _fed_in_blocks(TwoApproxSketch(), P3, size).estimate == two3.estimate


def test_stream_helpers_equal_point_feeding():
    # stream_* feed slices of an array and chunks of any other iterable
    rng = derive_rng(10, "stream-blocks")
    P = rng.standard_normal((9_000, 2))  # more than two blocks
    two = TwoApproxSketch()
    eps = DirectionalSketch(0.01)
    for p in P:
        two.update(p)
        eps.update(p)
    for stream in (P, list(P), (tuple(p) for p in P.tolist())):
        assert stream_2approx(stream)[0] == two.estimate
    for stream in (P, P.tolist(), iter(P)):
        est, sk = stream_eps_2d(stream, 0.01)
        assert est == eps.estimate and sk.count == len(P)


def test_directional_merge_of_block_fed_halves():
    rng = derive_rng(11, "block-merge")
    P = rng.standard_normal((5_001, 2))
    _, whole = stream_eps_2d(P, 0.02)
    left = _fed_in_blocks(DirectionalSketch(0.02), P[:2_345], 100)
    right = _fed_in_blocks(DirectionalSketch(0.02), P[2_345:], 999)
    merged = left.merge(right)
    # the right half's extremes are shifted into the left half's frame, one
    # rounding each: the whole stream's estimate to a few ulps
    assert np.array_equal(merged.origin, whole.origin)
    assert merged.estimate == pytest.approx(whole.estimate, rel=1e-15)
    assert merged.count == whole.count == len(P)


def test_sketch_block_errors():
    good = np.zeros((5, 2))
    bad = good.copy()
    bad[3, 1] = np.nan
    for sketch in (TwoApproxSketch(), DirectionalSketch(0.1)):
        with pytest.raises(ValueError, match="finite"):
            sketch.extend(bad)
        assert sketch.count == 0  # a refused block changes nothing
    with pytest.raises(ValueError, match="finite"):
        stream_2approx(bad)
    with pytest.raises(ValueError, match="finite"):
        stream_eps_2d(bad, 0.1)
    # a width change inside a block of an iterable stream
    ragged = [[0.0, 0.0], [1.0, 0.0], [1.0, 2.0, 3.0], [4.0, 4.0]]
    with pytest.raises(ValueError, match="stream changed dimension"):
        stream_2approx(ragged)
    with pytest.raises(ValueError, match="planar only"):
        stream_eps_2d(ragged, 0.1)
    with pytest.raises(ValueError, match="planar only"):
        stream_eps_2d(np.zeros((4, 3)), 0.1)
    sketch = TwoApproxSketch()
    sketch.extend(good)
    with pytest.raises(ValueError, match="stream changed dimension"):
        sketch.extend(np.zeros((3, 3)))
    # an empty stream still has no estimate
    for stream in (np.zeros((0, 2)), [], iter(())):
        with pytest.raises(ValueError, match="empty stream"):
            stream_2approx(stream)
        with pytest.raises(ValueError, match="empty stream"):
            stream_eps_2d(stream, 0.1)
