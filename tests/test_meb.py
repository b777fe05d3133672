import math

import numpy as np
import pytest
from hypothesis import example, given, strategies as st
from scipy.optimize import nnls

from mebkit import errors, meb
from mebkit.convexity import _nnls
from mebkit.errors import STEP_OPS, ConvergenceError, GuardError
from mebkit.generators import gen_instance
from mebkit.geometry import Ball, geom_tol
from mebkit.meb import (
    _PRUNE,
    badoiu_clarkson,
    elzinga_hearn_dual,
    exact_meb,
    hopp_reeve_meb,
    kt_residuals,
)
from mebkit.seeding import derive_rng

from oracles import meb_oracle

EQUILATERAL = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, math.sqrt(3) / 2]])
SQUARE = np.array([[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]])

# frozen before the solver build: meb_oracle radius of the uniform fixture below
FROZEN_D3_RADIUS = 1.398588380760945


def uniform_d3_fixture():
    rng = derive_rng(150, "freeze")
    return rng.uniform(-1, 1, (20, 3))


def check_solution(P, sol, tol=1e-9):
    """Shared invariants: enclosure, support shape, boundary contact."""
    n, d = P.shape
    r = sol.ball.radius
    scale = tol * (1 + r)
    dists = np.linalg.norm(P - sol.ball.center, axis=1)
    assert dists.max() <= r + scale
    assert sol.s == pytest.approx(r * r, rel=1e-12, abs=1e-300)
    idx, lam = sol.support.indices, sol.support.multipliers
    assert len(idx) <= d + 1
    assert np.all(lam >= 0)
    assert lam.sum() == pytest.approx(1.0, abs=1e-9)
    assert np.all(np.abs(dists[idx] - r) <= 1e-7 * (1 + r))


def test_exact_meb_antipodal_pair():
    sol = exact_meb(np.array([[-1.0, 0.0], [1.0, 0.0]]))
    assert np.allclose(sol.ball.center, [0, 0])
    assert sol.ball.radius == pytest.approx(1.0)


def test_exact_meb_square():
    sol = exact_meb(SQUARE)
    assert np.allclose(sol.ball.center, [0, 0], atol=1e-12)
    assert sol.ball.radius == pytest.approx(math.sqrt(2))
    check_solution(SQUARE, sol)


def test_exact_meb_equilateral_support():
    sol = exact_meb(EQUILATERAL)
    assert sol.ball.radius == pytest.approx(1 / math.sqrt(3))
    assert list(sol.support.indices) == [0, 1, 2]
    assert np.allclose(sol.support.multipliers, [1 / 3] * 3, atol=1e-9)
    check_solution(EQUILATERAL, sol)


def test_exact_meb_interior_point_not_in_support():
    P = np.vstack([SQUARE, [[0.1, 0.2]]])
    sol = exact_meb(P)
    assert 4 not in sol.support.indices


def test_exact_meb_single_and_duplicate_points():
    sol = exact_meb(np.array([[2.0, 3.0]]))
    assert sol.ball.radius == 0.0
    dup = exact_meb(np.array([[1.0, 0.0], [1.0, 0.0], [1.0, 0.0]]))
    assert dup.ball.radius == 0.0
    assert np.allclose(dup.ball.center, [1, 0])


def test_exact_meb_frozen_oracle_value():
    sol = exact_meb(uniform_d3_fixture())
    assert sol.ball.radius == pytest.approx(FROZEN_D3_RADIUS, abs=1e-9)


def test_exact_meb_matches_oracle_sweep():
    for trial in range(30):
        rng = derive_rng(trial, "meb-sweep")
        n = int(rng.integers(2, 18))
        d = int(rng.integers(1, 5))
        P = rng.standard_normal((n, d)) * float(rng.uniform(0.1, 5))
        _, r_star = meb_oracle(P)
        sol = exact_meb(P)
        assert sol.ball.radius == pytest.approx(r_star, rel=1e-9, abs=1e-12)
        check_solution(P, sol)


def test_exact_meb_collinear():
    sol = exact_meb(np.array([[0.0, 0.0], [1.0, 0.0], [3.0, 0.0]]))
    assert np.allclose(sol.ball.center, [1.5, 0])
    assert sol.ball.radius == pytest.approx(1.5)


CLOUD_KINDS = ("gaussian", "repeated", "collinear", "cospherical", "grid")
# largest n per d for which meb_oracle enumerates at most ~20,000 subsets of each size
ORACLE_N = {1: 40, 2: 40, 3: 27, 4: 20}


def structured_cloud(kind, seed, n, d):
    """A seeded n x d cloud of one of ``CLOUD_KINDS``."""
    rng = np.random.default_rng(seed)
    if kind == "gaussian":
        return rng.standard_normal((n, d))
    if kind == "repeated":
        base = rng.standard_normal((max(1, n // 3), d))
        return base[rng.integers(0, len(base), n)]
    if kind == "collinear":
        return rng.standard_normal(d) + rng.standard_normal((n, 1)) * rng.standard_normal(d)
    if kind == "cospherical":
        X = rng.standard_normal((n, d))
        return X / np.linalg.norm(X, axis=1, keepdims=True)
    return rng.integers(-2, 3, (n, d)).astype(float)  # grid: repeats and exact ties


@given(st.sampled_from(CLOUD_KINDS), st.integers(0, 2**32 - 1), st.integers(1, 4), st.integers(1, 40))
@example("grid", 0, 4, 40)
@example("cospherical", 1, 2, 40)
@example("repeated", 2, 3, 1)
def test_exact_meb_matches_oracle_property(kind, seed, d, n):
    P = structured_cloud(kind, seed, min(n, ORACLE_N[d]), d)
    _, r_star = meb_oracle(P)
    for solver in (exact_meb, hopp_reeve_meb) if len(P) >= 2 else (exact_meb,):
        sol = solver(P)
        assert sol.ball.radius == pytest.approx(r_star, rel=1e-9, abs=1e-12)
        check_solution(P, sol)


@given(st.sampled_from(CLOUD_KINDS), st.integers(0, 2**32 - 1), st.integers(1, 60), st.integers(1, 6))
def test_exact_meb_ignores_input_order(kind, seed, n, d):
    P = structured_cloud(kind, seed, n, d)
    perm = np.random.default_rng(seed).permutation(n)
    a, b = exact_meb(P), exact_meb(P[perm])
    assert b.ball.radius == pytest.approx(a.ball.radius, rel=1e-12, abs=1e-15)
    assert np.linalg.norm(b.ball.center - a.ball.center) <= 1e-12 * max(a.ball.radius, 1e-3)


def test_exact_meb_work_tripwire():
    # the walk touches a few dozen supports; per-point move-to-front needs 300-800 solves here
    for seed in (0, 1, 2):
        P, _ = gen_instance("uniform-ball", 20_000, 3, seed=seed)
        assert exact_meb(P).iterations <= 200
    # move-to-front needs 8,215 solves at d = 30 and does not finish at d = 50;
    # the oracle cannot enumerate here, so the KT certificate stands in for it
    for d in (30, 50, 100):
        P = np.random.default_rng(d).standard_normal((1000, d))
        sol = exact_meb(P)
        assert sol.iterations <= 4 * (d + 1)
        lam = np.zeros(len(P))
        lam[sol.support.indices] = sol.support.multipliers
        assert kt_residuals(P, sol.ball, lam).worst <= 1e-9 * sol.s


def test_exact_meb_pivot_loop_is_capped(monkeypatch):
    P = derive_rng(3, "cap").standard_normal((12, 3))
    price = STEP_OPS + P.size  # each solve is charged before it runs
    calls = []

    def dependent(S):  # every blocker fails the independence test, so c never moves
        calls.append(S.shape[1])
        b, m, _ = S.shape
        return S[:, 0, :].copy(), np.zeros(b), np.zeros(b, dtype=bool), np.full((b, m), 1.0 / m)

    monkeypatch.setattr("mebkit.meb.circumballs", dependent)
    monkeypatch.setattr(errors, "WORK_BUDGET", 6 * price - 1)  # 5 solves, below the 11 blockers of the first leg
    with pytest.raises(GuardError, match="walk's circumball solves over 12 points: .* over the budget"):
        exact_meb(P)
    assert len(calls) == errors.WORK_BUDGET // price  # every solve counts, failed independence tests too


def kt_worst(P, sol):
    lam = np.zeros(len(P))
    lam[sol.support.indices] = sol.support.multipliers
    return kt_residuals(P, sol.ball, lam).worst


@pytest.mark.parametrize("p", [(1 + 1e-8, 1e-7), (1 + 1e-6, 2.8e-6)])
@pytest.mark.parametrize("solver", [exact_meb, hopp_reeve_meb])
def test_dependent_blocker_swaps_into_the_support(solver, p):
    # p nearly repeats (1, 0): the kernel calls {(-1, 0), (1, 0), p} dependent,
    # yet p ends 5e-9 to 5e-7 outside that pair's ball, so it must join
    P = np.array([(0.0, 0.5), (-1.0, 0.0), (1.0, 0.0), p])
    _, r_star = meb_oracle(P)
    sol = solver(P)
    assert sol.ball.radius == pytest.approx(r_star, rel=1e-12)
    assert list(sol.support.indices) == [1, 3]
    assert kt_worst(P, sol) <= 1e-12 * sol.s
    check_solution(P, sol)


def near_degenerate_cloud(kind, seed, delta):
    """Points within about delta of a circle in 3-d, a line, the unit sphere,
    or of each other (``pairs``)."""
    rng = np.random.default_rng([seed, round(-math.log10(delta))])
    if kind == "circle":
        plane = np.linalg.qr(rng.standard_normal((3, 2)))[0].T
        ang = rng.uniform(0, 2 * np.pi, 6)
        X = np.vstack([np.c_[np.cos(ang), np.sin(ang)] @ plane, rng.uniform(-0.5, 0.5, (3, 3))])
        return X + delta * rng.standard_normal(X.shape)
    if kind == "line":
        return rng.standard_normal((7, 1)) * rng.standard_normal(3) + delta * rng.standard_normal((7, 3))
    if kind == "sphere":
        X = rng.standard_normal((8, 3))
        return X / np.linalg.norm(X, axis=1, keepdims=True) * (1 + delta * rng.standard_normal((8, 1)))
    base = rng.standard_normal((4, 3))
    return np.vstack([base, base + delta * rng.standard_normal(base.shape)])


@pytest.mark.parametrize("delta", [1e-13, 1e-10, 1e-8, 1e-6, 1e-4])
@pytest.mark.parametrize("kind", ["circle", "line", "sphere", "pairs"])
def test_exact_walk_near_degenerate_within_geom_tol(kind, delta):
    # the oracle's radius encloses P, so it bounds the optimum from above
    for seed in range(10):
        P = near_degenerate_cloud(kind, seed, delta)
        _, r_star = meb_oracle(P)
        tol = geom_tol(P)
        for solver in (exact_meb, hopp_reeve_meb):
            sol = solver(P)
            assert sol.ball.radius <= r_star + tol
            assert kt_worst(P, sol) <= 4 * tol * (1 + sol.s)
            check_solution(P, sol)


def support_system(P, center, radius):
    """The NNLS system of the support multipliers, over the boundary points."""
    dist = np.linalg.norm(P - center, axis=1)
    cand = np.flatnonzero(dist >= radius - 1e-9 * (1 + np.abs(P).max()))
    A = np.vstack([(P[cand] - center).T / radius, np.ones(len(cand))])
    b = np.zeros(P.shape[1] + 1)
    b[-1] = 1.0
    return A, b


def regular_polygon(k, interior=0):
    ang = 2 * np.pi * np.arange(k) / k
    inside = derive_rng(k, "polygon").uniform(-0.5, 0.5, (interior, 2))
    return np.vstack([np.c_[np.cos(ang), np.sin(ang)], inside])


def nnls_cases():
    rng = derive_rng(0, "nnls")
    for d in (2, 3, 5, 10, 20):
        for n in (3, 10, 60):
            P = rng.standard_normal((n, d))
            sol = exact_meb(P)
            yield f"random d={d} n={n}", support_system(P, sol.ball.center, sol.ball.radius)
    for k in (5, 6, 8):
        yield f"{k}-gon", support_system(regular_polygon(k, interior=6), np.zeros(2), 1.0)
    yield "square", support_system(SQUARE, np.zeros(2), math.sqrt(2))
    yield "square, duplicated", support_system(
        np.vstack([SQUARE, SQUARE[[0, 3]]]), np.zeros(2), math.sqrt(2)
    )
    yield "hexagon, duplicated", support_system(
        np.vstack([regular_polygon(6), regular_polygon(6)[:2]]), np.zeros(2), 1.0
    )
    yield "+-e_i in 4-d", support_system(np.vstack([np.eye(4), -np.eye(4)]), np.zeros(4), 1.0)
    sphere = rng.standard_normal((3, 19))
    sphere /= np.linalg.norm(sphere, axis=1, keepdims=True)
    yield "19-d sphere, duplicated", support_system(
        np.vstack([sphere, sphere[:2]]), np.zeros(19), 1.0
    )
    # the first passive solve goes negative and must be cut back, not clipped
    yield "cut-back", (
        np.array([[3.0, 1.0, -3.0, 0.0], [1.0, 0.0, -2.0, -2.0], [-2.0, 0.0, 2.0, 2.0]]),
        np.array([2.0, 0.0, 2.0]),
    )
    for trial in range(5):
        A = rng.standard_normal((6, 2)) @ rng.standard_normal((2, 8))  # rank 2
        yield f"rank-deficient {trial}", (A, rng.standard_normal(6))


@pytest.mark.parametrize("name, system", list(nnls_cases()), ids=lambda v: v if isinstance(v, str) else "")
def test_nnls_matches_scipy(name, system):
    A, b = system
    want, _ = nnls(A, b)
    got = _nnls(A, b)
    assert np.array_equal(got > _PRUNE, want > _PRUNE)
    assert np.max(np.abs(got - want)) <= 1e-12


def test_nnls_ties_go_to_lowest_index():
    # equal columns tie exactly; the repeated boundary points come last
    rng = derive_rng(2, "repeated")
    for n in (3, 5, 6, 7):
        for d in range(2, 25):
            Q = rng.standard_normal((n, d))
            Q /= np.linalg.norm(Q, axis=1, keepdims=True)
            A, b = support_system(np.vstack([Q, Q]), np.zeros(d), 1.0)
            x = _nnls(A, b)
            assert np.all(np.flatnonzero(x > _PRUNE) < n)
    # a regular 17-gon has exact ties between distinct columns: any basic
    # optimum is a valid support, so only optimality is compared
    A, b = support_system(regular_polygon(17), np.zeros(2), 1.0)
    x = _nnls(A, b)
    assert x.min() >= 0.0
    assert np.count_nonzero(x > _PRUNE) <= 3
    assert np.linalg.norm(A @ x - b) <= 1e-12


def test_nnls_near_duplicate_columns_reach_the_optimum():
    # boundary points 1e-13 apart: which twin is kept depends on rounding, so
    # only the optimum is compared with scipy's
    rng = derive_rng(1, "near-duplicates")
    for d in (5, 9, 19):
        Q = rng.standard_normal((6, d))
        Q /= np.linalg.norm(Q, axis=1, keepdims=True)
        Q = np.vstack([Q, Q[:4] + 1e-13 * rng.standard_normal((4, d))])
        A, b = support_system(Q, np.zeros(d), 1.0)
        x = _nnls(A, b)
        assert x.min() >= 0.0
        assert np.count_nonzero(x) <= d + 1
        assert np.linalg.norm(A @ x - b) <= np.linalg.norm(A @ nnls(A, b)[0] - b) + 1e-12


def test_nnls_nearly_dependent_columns_terminate():
    # a column whose gradient entry is positive but which adds nothing to
    # the passive columns is skipped instead of cycling to the step cap
    for trial in range(12):
        rng = derive_rng(trial, "nearly-dependent")
        B = rng.standard_normal((4, 3))
        A = np.hstack([B, B @ rng.standard_normal((3, 4))]) + 1e-15 * rng.standard_normal((4, 7))
        b = 1e3 * rng.standard_normal(4)
        x = _nnls(A, b)
        assert x.min() >= 0.0
        assert np.linalg.norm(A @ x - b) <= np.linalg.norm(A @ nnls(A, b)[0] - b) + 1e-12 * 1e3


def test_exact_meb_certificate_on_repeated_and_cospherical_points():
    rng = derive_rng(5, "cospherical")
    sphere = rng.standard_normal((40, 3))
    sphere /= np.linalg.norm(sphere, axis=1, keepdims=True)
    for P in (
        np.vstack([SQUARE, SQUARE, [[0.1, 0.2]]]),
        regular_polygon(17, interior=10),
        np.vstack([regular_polygon(6, interior=4), regular_polygon(6)]),
        np.vstack([sphere, 0.5 * sphere[:10], sphere[:5]]),
        np.vstack([np.eye(4), -np.eye(4), np.eye(4)]),
    ):
        for sol in (exact_meb(P), hopp_reeve_meb(P)):
            check_solution(P, sol)
            lam = np.zeros(len(P))
            lam[sol.support.indices] = sol.support.multipliers
            assert kt_residuals(P, sol.ball, lam).worst <= 1e-9


def test_hopp_reeve_antipodal_pair():
    sol = hopp_reeve_meb(np.array([[-1.0, 0.0], [1.0, 0.0]]))
    assert np.allclose(sol.ball.center, [0, 0])
    assert sol.ball.radius == pytest.approx(1.0)
    assert sol.iterations <= math.comb(2, 2) + 1  # worst-case construction count, plus one


def test_hopp_reeve_matches_exact():
    rng = derive_rng(8, "hr")
    P = rng.standard_normal((30, 4))
    a = hopp_reeve_meb(P)
    b = exact_meb(P)
    assert a.ball.radius == pytest.approx(b.ball.radius, rel=1e-8)
    assert np.linalg.norm(a.ball.center - b.ball.center) <= 1e-7 * (1 + b.ball.radius)


def test_hopp_reeve_step_one_starts_warm(monkeypatch):
    # sphere-surface 2,000x30: 387 walk solves from the previous support, 2,558 from cold starts
    P, _ = gen_instance("sphere-surface", 2_000, 30, seed=1)
    kernel, solves = meb.circumballs, []
    monkeypatch.setattr(meb, "circumballs", lambda S: solves.append(len(S)) or kernel(S))
    sol = hopp_reeve_meb(P)
    assert len(solves) <= 500
    assert sol.ball.radius == pytest.approx(exact_meb(P).ball.radius, rel=1e-12)


def test_hopp_reeve_degenerate_fixtures():
    for P in (
        SQUARE,
        np.array([[1.0, 0.0], [1.0, 0.0], [-1.0, 0.0], [0.0, 0.5]]),
        np.array([[0.0, 0.0], [1.0, 0.0], [3.0, 0.0]]),
    ):
        got = hopp_reeve_meb(P).ball.radius
        want = exact_meb(P).ball.radius
        assert got == pytest.approx(want, rel=1e-9)
        check_solution(P, hopp_reeve_meb(P))


def test_badoiu_clarkson_hand_trace():
    P = np.array([[-1.0, 0.0], [1.0, 0.0]])
    sol, core = badoiu_clarkson(P, 2)
    # c1 = (-1,0); farthest is (1,0); c2 = midpoint
    assert core == [0, 1]
    assert np.allclose(sol.ball.center, [0, 0])
    assert sol.ball.radius == pytest.approx(1.0)


def test_badoiu_clarkson_k1_never_iterates():
    P = np.array([[0.0, 0.0], [3.0, 4.0], [1.0, 1.0]])
    sol, core = badoiu_clarkson(P, 1)
    assert core == [0]
    assert np.allclose(sol.ball.center, [0, 0])
    assert sol.ball.radius == pytest.approx(5.0)


def test_badoiu_clarkson_certificate_square():
    star = exact_meb(SQUARE)
    c_star, r_star = star.ball.center, star.ball.radius
    k = 100
    sol, core = badoiu_clarkson(SQUARE, k)
    # replay the iterate sequence from the core indices (identical arithmetic)
    c = SQUARE[core[0]].astype(float)
    assert np.linalg.norm(c_star - c) <= r_star / math.sqrt(1) + 1e-9
    for i in range(2, k + 1):
        c = c + (SQUARE[core[i - 1]] - c) / i
        assert np.linalg.norm(c_star - c) <= r_star / math.sqrt(i) + 1e-9
    assert np.allclose(c, sol.ball.center)
    assert sol.ball.radius <= r_star * (1 + 1 / math.sqrt(k)) + 1e-9


def test_badoiu_clarkson_encloses_and_seeded_start():
    rng = derive_rng(3, "bc")
    P = rng.standard_normal((40, 3))
    sol, core = badoiu_clarkson(P, 50, seed=9)
    assert np.linalg.norm(P - sol.ball.center, axis=1).max() <= sol.ball.radius + 1e-12
    again, core2 = badoiu_clarkson(P, 50, seed=9)
    assert core == core2 and np.allclose(sol.ball.center, again.ball.center)


def test_elzinga_hearn_two_points():
    P = np.array([[0.0, 0.0], [2.0, 0.0]])
    sol, lam = elzinga_hearn_dual(P)
    assert np.allclose(lam, [0.5, 0.5], atol=1e-9)
    assert np.allclose(sol.ball.center, [1, 0], atol=1e-12)
    assert sol.s == pytest.approx(1.0, abs=1e-12)


def test_elzinga_hearn_equilateral():
    sol, lam = elzinga_hearn_dual(EQUILATERAL, tol=1e-10)
    assert np.allclose(lam, [1 / 3] * 3, atol=1e-8)
    assert np.allclose(sol.ball.center, EQUILATERAL.mean(axis=0), atol=1e-9)
    assert sol.s == pytest.approx(1 / 3, abs=1e-10)


def test_elzinga_hearn_interior_multiplier_zero():
    P = np.vstack([SQUARE, [[0.05, -0.1]]])
    _, lam = elzinga_hearn_dual(P, tol=1e-9)
    assert lam[4] == 0.0


def test_elzinga_hearn_decides_a_uniform_cloud_within_the_default_max_iter():
    # the gap falls as about 1/k there: a polish at a power-of-two iteration closes it
    P, _ = gen_instance("uniform-ball", 20_000, 3, seed=1)
    sol, lam = elzinga_hearn_dual(P)
    assert sol.iterations <= 1_000
    assert sol.ball.radius == pytest.approx(exact_meb(P).ball.radius, rel=1e-12)
    assert kt_residuals(P, sol.ball, lam).worst <= 1e-12 * sol.s


def test_elzinga_hearn_matches_exact_center():
    for trial in range(10):
        rng = derive_rng(trial, "eh")
        P = rng.standard_normal((int(rng.integers(3, 40)), int(rng.integers(1, 5))))
        sol, lam = elzinga_hearn_dual(P, tol=1e-8)
        star = exact_meb(P)
        assert abs(sol.ball.radius - star.ball.radius) <= 1e-6 * (1 + star.ball.radius)
        assert np.linalg.norm(sol.ball.center - star.ball.center) <= 1e-6
        assert kt_residuals(P, sol.ball, lam).worst <= 1e-6


def test_elzinga_hearn_convergence_error_carries_gap():
    with pytest.raises(ConvergenceError) as info:
        elzinga_hearn_dual(SQUARE * 100, tol=1e-15, max_iter=1)
    assert info.value.gap > 0


def test_elzinga_hearn_stalled_polish_keeps_iterating(monkeypatch):
    tried = []

    def stalled(X, tol, charge, start=None):  # the first active point alone fails the gradient test
        tried.append(len(X))
        return X[0], [0], np.ones(1), 1

    P = uniform_d3_fixture()
    monkeypatch.setattr("mebkit.meb._walk", stalled)
    sol, lam = elzinga_hearn_dual(P, tol=1e-6, max_iter=2000)
    assert sol.ball.radius == pytest.approx(FROZEN_D3_RADIUS, rel=1e-5)
    assert lam.sum() == pytest.approx(1.0)
    assert len(tried) > 1 and np.count_nonzero(lam) > 1  # FW went on past rejected polishes


def test_elzinga_hearn_rejects_bad_parameters():
    with pytest.raises(ValueError):
        elzinga_hearn_dual(SQUARE, tol=0.0)
    with pytest.raises(ValueError):
        elzinga_hearn_dual(SQUARE, tol=float("nan"))
    with pytest.raises(ValueError):
        elzinga_hearn_dual(SQUARE, max_iter=0)


def test_kt_residuals_certificate_of_solver():
    rng = derive_rng(31, "kt")
    P = rng.standard_normal((25, 3))
    sol, lam = elzinga_hearn_dual(P, tol=1e-8)
    res = kt_residuals(P, sol.ball, lam)
    assert res.worst <= 1e-6


def test_kt_residuals_detect_perturbed_center():
    sol, lam = elzinga_hearn_dual(SQUARE, tol=1e-10)
    shifted = Ball(sol.ball.center + np.array([0.1, 0.0]), sol.ball.radius)
    res = kt_residuals(SQUARE, shifted, lam)
    assert max(res.stationarity, res.primal_infeasibility) > 0.01


def test_kt_residuals_zero_multipliers():
    res = kt_residuals(SQUARE, Ball(np.zeros(2), math.sqrt(2)), np.zeros(4))
    assert res.multiplier_sum == pytest.approx(1.0)


def test_kt_residuals_validates_shapes():
    with pytest.raises(ValueError):
        kt_residuals(SQUARE, Ball(np.zeros(2), 1.0), np.zeros(3))
    with pytest.raises(ValueError):
        kt_residuals(SQUARE, Ball(np.zeros(3), 1.0), np.zeros(4))
