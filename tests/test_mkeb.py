import math
import time

import numpy as np
import pytest
from hypothesis import given, strategies as st

from mebkit import mkeb
from mebkit.errors import GuardError, IterationLimitError
from mebkit.generators import gen_instance
from mebkit.geometry import bbox_frame, subset_circumballs_work
from mebkit.meb import exact_meb
from mebkit.mkeb import exact_mkeb, outlier_meb_sample, outlier_sample_size
from mebkit.seeding import derive_rng

from oracles import mkeb_oracle


def outlier_fixture(seed=0):
    """99 points in a unit ball plus one at distance 50."""
    rng = derive_rng(seed, "outlier-fixture")
    dirs = rng.standard_normal((99, 2))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    inner = dirs * rng.uniform(0, 1, 99)[:, None]
    return np.vstack([inner, [[50.0, 0.0]]])


def test_k_equals_n_reduces_to_meb():
    rng = derive_rng(4, "mkeb")
    P = rng.standard_normal((15, 2))
    full = exact_mkeb(P, len(P))
    assert full.ball.radius == pytest.approx(exact_meb(P).ball.radius, rel=1e-9)


def test_k1_is_a_point_ball():
    P = np.array([[0.0, 0.0], [5.0, 0.0], [9.0, 1.0]])
    sol = exact_mkeb(P, 1)
    assert sol.ball.radius == 0.0
    assert len(sol.covered) >= 1


def test_collinear_three_points_k2():
    P = np.array([[0.0], [1.0], [10.0]])
    sol = exact_mkeb(P, 2)
    assert np.allclose(sol.ball.center, [0.5])
    assert sol.ball.radius == pytest.approx(0.5)
    assert list(sol.covered) == [0, 1]


def test_solution_invariants():
    rng = derive_rng(11, "mkeb-inv")
    P = rng.standard_normal((12, 3))
    for k in (1, 4, 9, 12):
        sol = exact_mkeb(P, k)
        assert len(sol.covered) >= k
        gaps = np.linalg.norm(P[sol.covered] - sol.ball.center, axis=1)
        assert gaps.max() <= sol.ball.radius + 1e-9 * (1 + sol.ball.radius)


def test_radius_monotone_in_k():
    rng = derive_rng(19, "mkeb-mono")
    P = rng.standard_normal((14, 2))
    radii = [exact_mkeb(P, k).ball.radius for k in range(1, 15)]
    assert all(a <= b + 1e-12 for a, b in zip(radii, radii[1:]))


def oracle_clouds():
    for trial in range(8):
        rng = derive_rng(trial, "mkeb-oracle")
        n = int(rng.integers(3, 12))
        d = int(rng.integers(1, 4))
        yield rng.standard_normal((n, d))
    # collinear and repeated points, at three scales
    base = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [2.0, 0.0, 0.0], [0.0, 0.0, 0.0],
                     [0.5, 1.0, 0.0], [0.3, 0.2, 1.0], [1.5, 0.5, 0.0]])
    for scale in (1e-7, 1.0, 1e7):
        yield scale * base


def test_matches_oracle_all_k():
    for P in oracle_clouds():
        n = len(P)
        for k in range(1, n + 1):
            _, r_star = mkeb_oracle(P, k)
            sol = exact_mkeb(P, k)
            assert sol.ball.radius == pytest.approx(r_star, rel=1e-9, abs=1e-12)


def test_k_out_of_range():
    P = np.zeros((3, 2))
    with pytest.raises(ValueError):
        exact_mkeb(P, 0)
    with pytest.raises(ValueError):
        exact_mkeb(P, 4)


def test_budget_guard_mentions_sampler():
    P = np.zeros((300, 2))
    with pytest.raises(GuardError, match="outlier_meb_sample"):
        exact_mkeb(P, 10)


@pytest.mark.parametrize("first_walk_capped", [True, False])
def test_capped_walk_carries_a_solution_in_the_callers_frame(monkeypatch, first_walk_capped):
    # 20 points far from the origin with z = 1 branch.  With every walk capped
    # at one solve, no ball is visited and the capped walk's own ball, which
    # covers every point, is carried; with only the 19-point walks capped,
    # the full set's ball is.
    P = derive_rng(3, "mkeb-cap").standard_normal((20, 2)) + 1e3
    monkeypatch.setattr(mkeb, "_hard_cap", lambda n, d: 1 if first_walk_capped or n < 20 else 10 * n * (d + 1))
    with pytest.raises(IterationLimitError) as err:
        exact_mkeb(P, 19)
    best = err.value.best
    assert isinstance(best, mkeb.MkebSolution) and best.k == 19
    assert np.array_equal(best.covered, np.arange(20))
    reach = np.linalg.norm(P - best.ball.center, axis=1).max()
    assert best.ball.radius == pytest.approx(reach, rel=1e-9)
    if not first_walk_capped:
        meb = exact_meb(P).ball
        assert best.ball.radius == pytest.approx(meb.radius, rel=1e-9)
        assert np.allclose(best.ball.center, meb.center, rtol=0.0, atol=1e-9)


def mkeb_cloud(seed, n, d, shape, move):
    rng = np.random.default_rng(seed)
    if shape == "lattice":
        P = rng.integers(-1, 2, size=(n, d)).astype(float)
    elif shape == "collinear":
        P = np.outer(rng.standard_normal(n), rng.standard_normal(d))
    elif shape == "duplicated":
        P = rng.standard_normal((max(1, n // 2), d))[rng.integers(0, max(1, n // 2), size=n)]
    else:
        P = rng.standard_normal((n, d))
    return {"none": P, "small": 1e-6 * P, "large": 1e6 * P, "shifted": P + 1e6}[move]


@given(st.integers(0, 2**32 - 1), st.integers(1, 10), st.integers(1, 3),
       st.sampled_from(["random", "lattice", "collinear", "duplicated"]),
       st.sampled_from(["none", "small", "large", "shifted"]), st.data())
def test_branching_and_enumeration_agree_with_the_oracle(seed, n, d, shape, move, data):
    P = mkeb_cloud(seed, n, d, shape, move)
    k = data.draw(st.integers(max(1, n - 4), n))
    framed, _, tol = bbox_frame(P)
    spread = float(np.max(P.max(axis=0) - P.min(axis=0)))
    r_branch, _ = mkeb._branch_mkeb(framed, k, tol)
    r_enum, _ = mkeb._enumerate_mkeb(framed, k, tol)
    _, r_star = mkeb_oracle(P - P.min(axis=0), k)  # an exact translation: coordinates near the origin
    assert abs(r_branch - r_enum) <= 1e-9 * spread
    assert abs(r_branch - r_star) <= 1e-9 * spread
    sol = exact_mkeb(P, k)
    assert sol.ball.radius in (r_branch, r_enum)
    assert len(sol.covered) >= k


def test_work_bounds_choose_the_cheaper_path(monkeypatch):
    assert subset_circumballs_work(36, 3) == (36 + 630 + 7140 + 58905) * 36 * 3 * 4
    P, _ = gen_instance("uniform-ball", 36, 3, seed=1)

    def refuse(*args):
        raise AssertionError("the other path was chosen")

    monkeypatch.setattr(mkeb, "_enumerate_mkeb", refuse)
    exact_mkeb(P, 32)  # 341 walks cost less than 66,711 candidates
    monkeypatch.undo()
    monkeypatch.setattr(mkeb, "_branch_mkeb", refuse)
    exact_mkeb(P, 3)  # 4**33 walks would not


def test_few_outliers_in_a_large_cloud_take_few_walks():
    # enumeration would score 2.6e13 candidates here; support branching at most 341 walks
    P, _ = gen_instance("gaussian", 5_000, 3, seed=0)
    start = time.perf_counter()
    sol = exact_mkeb(P, len(P) - 4)
    elapsed = time.perf_counter() - start
    assert len(sol.covered) >= len(P) - 4
    assert sol.ball.radius < exact_meb(P).ball.radius
    assert elapsed < 1.0


def test_warm_walks_give_the_cold_answer(monkeypatch):
    # the same branching with every walk started cold, and the starts it is given
    starts, walk = [], mkeb._walk

    def cold_or_warm(X, tol, cap, start=None):
        starts.append(start)
        return walk(X, tol, cap, start if warm else None)

    monkeypatch.setattr(mkeb, "_walk", cold_or_warm)
    clouds = [(mkeb_cloud(seed, 3, 1, "lattice", "none"), k) for seed in range(12) for k in (1, 2, 3)]
    clouds += [(mkeb_cloud(seed, n, d, shape, move), n - z)
               for seed, (n, d, z) in enumerate([(8, 1, 3), (10, 2, 4), (10, 3, 3), (30, 2, 4), (36, 3, 4)])
               for shape in ("random", "lattice", "collinear", "duplicated")
               for move in ("none", "shifted")]
    for P, k in clouds:
        framed, _, tol = bbox_frame(P)
        answers = []
        for warm in (False, True):
            r, center = mkeb._branch_mkeb(framed, k, tol)
            answers.append((r, int((np.linalg.norm(framed - center, axis=1) <= r + tol).sum())))
        (r_cold, covered_cold), (r_warm, covered_warm) = answers
        assert abs(r_warm - r_cold) <= 1e-12 * r_cold
        assert covered_warm == covered_cold >= k
    started = [start for start in starts if start is not None]
    assert any(len(T) == 0 for _, T in started) and any(len(T) > 0 for _, T in started)


def test_sample_size_formula():
    # eps = 1, delta = 1/e, d = 2 -> m = ceil(3 * 1 * 1) = 3
    assert outlier_sample_size(2, 1.0, 1 / math.e) == 3
    assert outlier_sample_size(1, 0.5, 0.5) == math.ceil(2 / 0.25 * math.log(2))
    assert outlier_sample_size(2, 0.1, 0.1) == math.ceil(3 / 0.1**3 * math.log(10))
    assert outlier_sample_size(3, 1.0, 1.0) == 1
    with pytest.raises(ValueError):
        outlier_sample_size(2, 0.0, 0.5)
    with pytest.raises(ValueError):
        outlier_sample_size(2, 0.5, 1.5)


@pytest.mark.parametrize("d, eps", [(2, 1e-300), (2000, 0.5), (1, 1e-160)])
def test_sample_size_beyond_float_range_is_a_guard_error(d, eps):
    with pytest.raises(GuardError, match="float range"):
        outlier_sample_size(d, eps, 0.1)


def test_sample_saturation_equals_exact():
    # m >= n forces the whole set: radius equals the full enclosing radius
    P = outlier_fixture()
    sol = outlier_meb_sample(P, 0.1, 0.1, seed=7)
    assert sol.ball.radius == exact_meb(P).ball.radius
    assert len(sol.covered) == len(P)


def test_sample_determinism():
    rng = derive_rng(2, "mkeb-det")
    P = rng.standard_normal((500, 2))
    a = outlier_meb_sample(P, 0.9, 0.5, seed=13)
    b = outlier_meb_sample(P, 0.9, 0.5, seed=13)
    assert np.array_equal(a.ball.center, b.ball.center)
    assert a.ball.radius == b.ball.radius
    assert np.array_equal(a.covered, b.covered)


def test_sample_radius_sandwich():
    # subsample radius never exceeds the full radius; when it covers the
    # target count it is also at least the exact outlier optimum
    rng = derive_rng(6, "mkeb-sand")
    P = rng.standard_normal((60, 2)) * 3
    eps, delta = 0.9, 0.9  # tiny m so the sampled path actually runs
    r_min = exact_meb(P).ball.radius
    k = math.ceil((1 - eps) * len(P))
    r_out = exact_mkeb(P, k).ball.radius
    for seed in range(25):
        sol = outlier_meb_sample(P, eps, delta, seed=seed)
        assert sol.ball.radius <= r_min + 1e-9
        if len(sol.covered) >= k:
            assert sol.ball.radius >= r_out - 1e-9


def test_sample_coverage_on_outlier_fixture():
    # saturated sample -> every trial covers at least (1-eps) n
    P = outlier_fixture()
    hits = 0
    for seed in range(60):
        sol = outlier_meb_sample(P, 0.1, 0.1, seed=seed)
        if len(sol.covered) >= math.ceil(0.9 * len(P)):
            hits += 1
    assert hits == 60
