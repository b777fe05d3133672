import itertools
import math
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mebkit import convexity
from mebkit.convexity import (
    AABox,
    ConvexCombination,
    _validate_combination,
    barycentric_circumradius,
    caratheodory_reduce,
    dist_to_hull,
    fractional_helly_beta,
    helly_check_boxes,
    jung_bound,
    make_combination,
    nodim_caratheodory,
    radon_partition,
)
from mebkit.errors import STEP_OPS, GuardError
from mebkit.generators import gen_instance, regular_simplex
from mebkit.geometry import geom_tol
from mebkit.meb import exact_meb
from mebkit.seeding import derive_rng

from oracles import diameter_oracle, hull_distance_oracle, nodim_greedy_oracle, nodim_oracle

SQUARE = np.array([[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]])


def random_cloud(seed, n, d, flat=False, repeats=False):
    """A seeded Gaussian n x d cloud; ``flat`` puts it in a hyperplane
    (d >= 2) and ``repeats`` makes its second half a copy of its first."""
    rng = np.random.default_rng(seed)
    k = d - 1 if flat and d >= 2 else d
    P = rng.standard_normal((n, k)) @ rng.standard_normal((k, d))
    if repeats:
        P[n // 2:] = P[:n - n // 2]
    return P


def random_combination(rng, n, d):
    P = rng.standard_normal((n, d))
    w = rng.uniform(0.1, 1.0, n)
    w /= w.sum()
    return P, make_combination(P, np.arange(n), w)


# ------------------------------------------------------- caratheodory


def test_combination_validation():
    P = SQUARE
    with pytest.raises(ValueError):
        make_combination(P, [0, 1], [0.7, 0.7])  # does not sum to 1
    with pytest.raises(ValueError):
        make_combination(P, [0, 1], [1.5, -0.5])  # negative weight
    with pytest.raises(ValueError):
        make_combination(P, [0, 9], [0.5, 0.5])  # index out of range


def test_reduce_square_to_diagonal():
    combo = make_combination(SQUARE, np.arange(4), np.full(4, 0.25))
    red = caratheodory_reduce(SQUARE, combo)
    assert len(red.indices) == 2
    a, b = SQUARE[red.indices]
    assert np.allclose(a, -b)  # a diagonal
    assert np.allclose(red.coefficients, [0.5, 0.5])
    assert np.allclose(red.coefficients @ SQUARE[red.indices], [0, 0], atol=1e-12)


def test_reduce_small_input_unchanged():
    combo = make_combination(SQUARE, [0, 1, 2], [0.2, 0.3, 0.5])
    red = caratheodory_reduce(SQUARE, combo)
    assert np.array_equal(red.indices, combo.indices)
    assert np.allclose(red.coefficients, combo.coefficients)


def test_reduce_vertex_singleton():
    combo = make_combination(SQUARE, [2], [1.0])
    red = caratheodory_reduce(SQUARE, combo)
    assert list(red.indices) == [2]
    assert red.coefficients[0] == pytest.approx(1.0)


def test_reduce_reconstruction_sweep():
    for trial in range(25):
        rng = derive_rng(trial, "cara")
        n = int(rng.integers(2, 15))
        d = int(rng.integers(1, 5))
        P, combo = random_combination(rng, n, d)
        red = caratheodory_reduce(P, combo)
        assert len(red.indices) <= d + 1
        assert np.all(red.coefficients >= 0)
        assert red.coefficients.sum() == pytest.approx(1.0, abs=1e-9)
        rebuilt = red.coefficients @ P[red.indices]
        assert np.linalg.norm(rebuilt - combo.target) <= 1e-7 * (1 + np.abs(P).max())


@pytest.mark.parametrize("shift", [0.0, 1e8])
def test_combination_target_compares_positions_far_out(shift):
    # the target's own rounding grows with |P|; a real offset does not pass with it
    for trial in range(100):
        rng = derive_rng(trial, "far-mean")
        m = int(rng.integers(5, 41))
        P = rng.standard_normal((m, 3)) + shift
        w = np.full(m, 1.0 / m)
        mean = P.mean(axis=0)
        assert len(caratheodory_reduce(P, ConvexCombination(np.arange(m), w, mean)).indices) <= 4
        spread = float(np.max(P.max(axis=0) - P.min(axis=0)))
        u = rng.standard_normal(3)
        off = mean + 1e-3 * spread * u / np.linalg.norm(u)
        with pytest.raises(ValueError, match="reproduce"):
            caratheodory_reduce(P, ConvexCombination(np.arange(m), w, off))


@given(st.integers(0, 2**32 - 1), st.integers(1, 60), st.integers(1, 5), st.booleans(), st.booleans(),
       st.sampled_from([0.0, 1e6]))
def test_reduce_window_gives_a_valid_small_combination(seed, n, d, flat, repeats, shift):
    P = random_cloud(seed, n, d, flat, repeats) + shift
    rng = np.random.default_rng(seed + 1)
    idx = rng.permutation(n)
    w = rng.dirichlet(np.ones(n)) * (rng.random(n) > 0.2)  # about a fifth of the weights are 0
    w[rng.integers(n)] += 0.5
    combo = make_combination(P, idx, w / w.sum())
    red = caratheodory_reduce(P, combo)
    _validate_combination(P, red)  # the target, reproduced; weights >= 0 summing to one
    assert len(red.indices) <= d + 1
    assert red.coefficients.min() >= 0.0
    assert red.coefficients.sum() == pytest.approx(1.0, abs=1e-12)
    assert set(red.indices.tolist()) <= set(combo.indices.tolist())
    assert np.array_equal(red.target, combo.target)


def test_reduce_work_is_linear_in_n():
    # the full-matrix SVD this replaced would build a 20,000 x 20,000 Vt (3.2 GB)
    P, _ = gen_instance("uniform-ball", 20_000, 3, seed=0)
    combo = make_combination(P, np.arange(len(P)), np.full(len(P), 1.0 / len(P)))
    start = time.perf_counter()
    red = caratheodory_reduce(P, combo)
    elapsed = time.perf_counter() - start
    _validate_combination(P, red)
    assert len(red.indices) <= 4
    assert elapsed < 1.0
    tracemalloc.start()
    caratheodory_reduce(P, combo)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert peak < 20 * P.nbytes


# ------------------------------------------------------- radon


def test_radon_square_diagonals():
    part = radon_partition(SQUARE)
    sides = {frozenset(part.left.tolist()), frozenset(part.right.tolist())}
    assert sides == {frozenset({0, 3}), frozenset({1, 2})}
    assert np.allclose(part.witness, [0, 0], atol=1e-9)


def test_radon_triangle_with_barycenter():
    tri = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 1.0]])
    P = np.vstack([tri, tri.mean(axis=0, keepdims=True)])
    part = radon_partition(P)
    singleton = part.left if len(part.left) == 1 else part.right
    assert list(singleton) == [3]
    assert np.allclose(part.witness, tri.mean(axis=0), atol=1e-9)


def test_radon_witness_in_both_hulls():
    for trial in range(20):
        rng = derive_rng(trial, "radon")
        P = rng.standard_normal((5, 3))
        part = radon_partition(P)
        assert set(part.left) | set(part.right) == set(range(5))
        assert not set(part.left) & set(part.right)
        assert dist_to_hull(part.witness, P[part.left]) <= 1e-8
        assert dist_to_hull(part.witness, P[part.right]) <= 1e-8


def test_radon_needs_d_plus_2():
    with pytest.raises(ValueError):
        radon_partition(SQUARE[:3])


# ------------------------------------------------------- helly boxes


def interval(lo, hi):
    return AABox([lo], [hi])


def test_helly_intervals_pairwise():
    fam = [interval(0, 2), interval(1, 3), interval(1.5, 5)]
    rep = helly_check_boxes(fam)
    assert rep.subfamilies_intersect and rep.family_intersects
    assert all(b.lower[0] - 1e-12 <= rep.common_point[0] <= b.upper[0] + 1e-12 for b in fam)


def test_helly_2d_common_point():
    fam = [
        AABox([0, 0], [2, 2]),
        AABox([1, 1], [3, 3]),
        AABox([0.5, 0.5], [1.5, 1.5]),
        AABox([1.0, 0.0], [1.4, 4.0]),
    ]
    rep = helly_check_boxes(fam)
    assert rep.family_intersects
    p = rep.common_point
    assert all(np.all(b.lower <= p + 1e-12) and np.all(p <= b.upper + 1e-12) for b in fam)


def test_helly_disjoint_pair_vacuous():
    fam = [interval(0, 1), interval(2, 3), interval(0, 3)]
    rep = helly_check_boxes(fam)
    assert not rep.subfamilies_intersect
    assert not rep.family_intersects
    assert rep.common_point is None


def test_helly_random_sweep_implication():
    for trial in range(30):
        rng = derive_rng(trial, "helly")
        d = int(rng.integers(1, 4))
        lows = rng.uniform(-2, 1, (6, d))
        fam = [AABox(lo, lo + rng.uniform(0.5, 3, d)) for lo in lows]
        rep = helly_check_boxes(fam)
        # Helly: if every (d+1)-subfamily meets, the whole family meets
        if rep.subfamilies_intersect:
            assert rep.family_intersects


def helly_by_enumeration(fam):
    """(every (d+1)-subfamily meets, the whole family meets), by listing every
    (d+1)-subfamily with the tolerance helly_check_boxes uses."""
    lows = np.array([b.lower for b in fam])
    ups = np.array([b.upper for b in fam])
    tol = geom_tol(np.vstack([lows, ups]))

    def meets(rows):
        return bool(np.all(lows[rows].max(axis=0) <= ups[rows].min(axis=0) + tol))

    d = lows.shape[1]
    small = all(meets(list(c)) for c in itertools.combinations(range(len(fam)), d + 1))
    return small, meets(list(range(len(fam))))


def test_helly_matches_subfamily_enumeration():
    outcomes = set()
    for trial in range(300):
        rng = derive_rng(trial, "helly-enum")
        d = int(rng.integers(1, 4))
        n = int(rng.integers(d + 1, 9))
        lows = rng.integers(-3, 3, (n, d)).astype(float)  # integer corners: boxes often touch
        ups = lows + rng.integers(0, 4, (n, d))
        if trial % 3 == 1:
            ups -= rng.uniform(0.0, 1e-10, (n, d))  # touching within the tolerance
        elif trial % 3 == 2:
            lows += rng.uniform(-0.5, 0.5, (n, d))
        fam = [AABox(lo, np.maximum(lo, up)) for lo, up in zip(lows, ups)]
        rep = helly_check_boxes(fam)
        want = helly_by_enumeration(fam)
        assert (rep.subfamilies_intersect, rep.family_intersects) == want
        assert (rep.common_point is not None) == want[1]
        outcomes.add(want)
    assert outcomes == {(True, True), (False, False)}


def test_helly_large_family_is_linear():
    rng = derive_rng(0, "helly-large")
    lows = rng.uniform(-1.0, 0.0, (100, 5))
    fam = [AABox(lo, lo + 1.5) for lo in lows]  # every box holds [0, 0.5]^5
    start = time.perf_counter()
    rep = helly_check_boxes(fam)
    assert time.perf_counter() - start < 1.0  # C(100, 6) = 1.19e9 subfamilies
    assert rep.subfamilies_intersect and rep.family_intersects
    assert np.all(rep.common_point >= 0.0) and np.all(rep.common_point <= 0.5)


def test_helly_requires_boxes_of_common_dimension():
    with pytest.raises(ValueError):
        helly_check_boxes([interval(0, 1), AABox([0, 0], [1, 1])])


# ------------------------------------------------------- scalar bounds


def test_fractional_helly_values():
    assert fractional_helly_beta(3, 1.0) == pytest.approx(1.0)
    assert fractional_helly_beta(1, 0.75) == pytest.approx(0.5)
    assert fractional_helly_beta(2, 1e-12) == pytest.approx(0.0, abs=1e-9)
    with pytest.raises(ValueError):
        fractional_helly_beta(2, 0.0)
    with pytest.raises(ValueError):
        fractional_helly_beta(0, 0.5)


def test_fractional_helly_monotone_in_alpha():
    betas = [fractional_helly_beta(3, a) for a in (0.1, 0.3, 0.5, 0.7, 0.9)]
    assert all(x < y for x, y in zip(betas, betas[1:]))


def test_jung_two_points():
    bound, tight = jung_bound(np.array([[0.0], [4.0]]))
    assert bound == pytest.approx(2.0)
    assert tight


def test_jung_regular_simplex_equality():
    for d in range(1, 7):
        S = regular_simplex(d, side=1.0)
        bound, tight = jung_bound(S)
        assert bound == pytest.approx(math.sqrt(d / (2 * (d + 1))), abs=1e-12)
        assert exact_meb(S).ball.radius == pytest.approx(bound, abs=1e-9)
        assert tight


def test_jung_random_never_violated():
    for trial in range(25):
        rng = derive_rng(trial, "jung")
        P = rng.standard_normal((int(rng.integers(2, 20)), int(rng.integers(1, 5))))
        bound, _ = jung_bound(P)
        assert exact_meb(P).ball.radius <= bound + 1e-9 * (1 + bound)


def test_jung_single_point_error():
    with pytest.raises(ValueError):
        jung_bound(np.array([[1.0, 2.0]]))


def test_bcir_two_points():
    assert barycentric_circumradius(np.array([[0.0], [3.0]])) == pytest.approx(1.5)


def test_bcir_equilateral():
    tri = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, math.sqrt(3) / 2]])
    assert barycentric_circumradius(tri) == pytest.approx(1 / math.sqrt(3), abs=1e-12)


def test_bcir_flat_triangle_beats_jung():
    P = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 0.1]])
    beta = barycentric_circumradius(P)
    jung, _ = jung_bound(P)
    rho = exact_meb(P).ball.radius
    assert min(beta, jung) == pytest.approx(0.5011, abs=5e-4)
    assert jung == pytest.approx(0.5774, abs=5e-4)
    assert beta < jung
    assert rho == pytest.approx(0.5, abs=1e-12)
    assert rho <= min(beta, jung) + 1e-9


def test_bcir_guard():
    assert barycentric_circumradius(np.zeros((17, 2))) == 0.0  # priced, no longer capped at 16 points
    started = time.perf_counter()
    with pytest.raises(GuardError, match="budget"):  # (C(700, 2) 2 + C(700, 3) 3) * 18 = 3.1e9
        barycentric_circumradius(np.zeros((700, 2)))
    assert time.perf_counter() - started < 1.0


def test_radius_bound_chain():
    for trial in range(15):
        rng = derive_rng(trial, "chain")
        P = rng.standard_normal((int(rng.integers(2, 13)), int(rng.integers(1, 4))))
        beta = barycentric_circumradius(P)
        jung, _ = jung_bound(P)
        rho = exact_meb(P).ball.radius
        assert rho <= min(beta, jung) + 1e-9 * (1 + rho)


# ------------------------------------------------------- hull distance


def test_dist_to_hull_interior_point():
    assert dist_to_hull([0.1, 0.1], SQUARE) == 0.0


def test_dist_to_hull_point_to_segment():
    assert dist_to_hull([2.0, 0.0], np.array([[0.0, -1.0], [0.0, 1.0]])) == pytest.approx(2.0)


def test_dist_to_hull_vertex_case():
    assert dist_to_hull([5.0, 0.0], SQUARE) == pytest.approx(4.0)


def test_dist_to_hull_matches_face_oracle():
    for trial in range(25):
        rng = derive_rng(trial, "hull")
        n = int(rng.integers(1, 9))
        d = int(rng.integers(1, 4))
        Q = rng.standard_normal((n, d))
        a = rng.standard_normal(d) * 1.5
        assert dist_to_hull(a, Q) == pytest.approx(hull_distance_oracle(a, Q), abs=1e-7)


# ------------------------------------------------------- no-dimension


def test_nodim_full_subset_reaches_target():
    rng = derive_rng(5, "nodim")
    P = rng.standard_normal((8, 3))
    w = rng.uniform(0.05, 1.0, 8)
    w /= w.sum()
    a = w @ P
    chosen, achieved = nodim_caratheodory(P, a, 8)
    assert achieved == pytest.approx(0.0, abs=1e-9)
    assert sorted(chosen) == list(range(8))


def test_nodim_square_diagonal():
    chosen, achieved = nodim_caratheodory(SQUARE, [0.0, 0.0], 2)
    assert achieved == pytest.approx(0.0, abs=1e-12)
    a, b = SQUARE[sorted(chosen)]
    assert np.allclose(a, -b)


def test_nodim_r_too_large():
    with pytest.raises(ValueError):
        nodim_caratheodory(SQUARE, [0.0, 0.0], 5)


@settings(max_examples=150)
@given(st.integers(0, 2**32 - 1), st.integers(1, 40), st.integers(1, 5), st.integers(1, 6),
       st.sampled_from(["barycenter", "combination", "outside", "member"]), st.booleans())
def test_nodim_matches_the_greedy_reference(seed, n, d, r, where, repeats):
    P = random_cloud(seed, n, d, repeats=repeats)
    rng = np.random.default_rng(seed + 1)
    a = {"barycenter": P.mean(axis=0),
         "combination": rng.dirichlet(np.ones(n)) @ P,
         "outside": 3.0 * rng.standard_normal(d),
         "member": P[rng.integers(n)]}[where]
    r = min(r, n)
    got_idx, got = nodim_caratheodory(P, a, r)
    want_idx, want = nodim_greedy_oracle(P, a, r)
    assert np.array_equal(got_idx, want_idx)
    assert got == pytest.approx(want, abs=1e-9)


def test_nodim_interior_target_reports_zero():
    rng = derive_rng(3, "nodim-inside")
    P = rng.standard_normal((200, 3))
    chosen, achieved = nodim_caratheodory(P, P.mean(axis=0), 6)
    assert achieved == 0.0
    assert len(set(chosen.tolist())) == 6


@pytest.mark.parametrize("power", [-900, -600, 600, 900])
def test_nodim_is_exact_under_power_of_two_scaling(power):
    # squared lengths at these scales leave the float range; the result must not
    P = derive_rng(2, "nodim-scale").standard_normal((30, 3))
    a = P.mean(axis=0) + 0.3
    chosen, achieved = nodim_caratheodory(P, a, 3)
    scaled, got = nodim_caratheodory(P * 2.0**power, a * 2.0**power, 3)
    assert np.array_equal(scaled, chosen)
    assert got == achieved * 2.0**power > 0.0


def test_nodim_face_budget_refuses_before_any_projection(monkeypatch):
    def forbidden(*args):
        raise AssertionError("a face was projected")

    monkeypatch.setattr(convexity, "_face_distances", forbidden)
    P = derive_rng(0, "nodim-budget").standard_normal((40, 5))
    # 40 * sum_{s <= 6} C(40, s) = 183,939,120 faces over the 40 steps
    with pytest.raises(GuardError, match="183939120 face projections"):
        nodim_caratheodory(P, P.mean(axis=0), 40)
    monkeypatch.setattr("mebkit.errors.WORK_BUDGET", STEP_OPS + 40 * 45 - 1)
    with pytest.raises(GuardError):
        nodim_caratheodory(P, P.mean(axis=0), 1)  # one face per candidate


def test_nodim_greedy_bound_and_existence():
    for trial in range(6):
        rng = derive_rng(trial, "nodim-sweep")
        P = rng.standard_normal((10, 4))
        w = rng.uniform(0.01, 1.0, 10)
        w /= w.sum()
        a = w @ P
        diam = diameter_oracle(P)
        for r in (2, 3, 5):
            chosen, achieved = nodim_caratheodory(P, a, r)
            assert len(chosen) == r
            assert achieved <= diam / math.sqrt(r) + 1e-9  # greedy guarantee
            assert achieved == pytest.approx(dist_to_hull(a, P[chosen]), abs=1e-9)
        # the stronger existence bound, via the exhaustive oracle
        assert nodim_oracle(P, a, 3) <= diam / math.sqrt(6) + 1e-9
