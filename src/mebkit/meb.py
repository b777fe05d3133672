"""Minimum enclosing ball solvers and duality certificates.

Four routes to the same ball:

* ``exact_meb``: Gärtner's pivoting loop around Welzl's move-to-front
  recursion: one array scan finds the farthest violator, and the recursion
  runs only on it and the current support.
* ``hopp_reeve_meb``: geometric two-step construction that shrinks an
  enclosing ball toward the center of its current surface set.
* ``badoiu_clarkson``: core-set iteration stepping toward the farthest point.
* ``elzinga_hearn_dual``: simplex-constrained concave QP solved by
  away-step Frank-Wolfe, with primal recovery from the multipliers.

``kt_residuals`` scores any (ball, multipliers) pair against the
Kuhn-Tucker optimality system.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DegenerateInputError, IterationLimitError
from .geometry import Ball, as_points, bbox_frame, circumballs, geom_tol, subset_circumballs

_PRUNE = 1e-10         # multipliers below this are treated as inactive


@dataclass(frozen=True)
class SupportSet:
    """Boundary points whose convex combination reproduces the center."""

    indices: np.ndarray
    multipliers: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "indices", np.asarray(self.indices, dtype=int))
        object.__setattr__(self, "multipliers", np.asarray(self.multipliers, dtype=float))
        if self.indices.shape != self.multipliers.shape:
            raise ValueError("indices and multipliers must align")


@dataclass(frozen=True)
class MebSolution:
    """A solver's ball plus its certificate bookkeeping."""

    ball: Ball
    support: SupportSet
    s: float          # squared radius
    iterations: int
    algorithm: str


@dataclass(frozen=True)
class KtResiduals:
    """Max-norm residuals of the five Kuhn-Tucker optimality conditions."""

    multiplier_sum: float          # |sum(l) - 1|
    stationarity: float            # |sum(l_i (p_i - c))|
    complementary_slackness: float  # max_i |l_i (s - |p_i - c|^2)|
    negativity: float              # magnitude of the most negative multiplier
    primal_infeasibility: float    # max_i (|p_i - c|^2 - s), clamped at zero

    @property
    def worst(self) -> float:
        return max(
            self.multiplier_sum,
            self.stationarity,
            self.complementary_slackness,
            self.negativity,
            self.primal_infeasibility,
        )


def _small_meb(Q) -> Ball:
    """Exact enclosing ball of a handful of points: its smallest enclosing circumball.

    Fallback for degenerate boundary sets inside the recursion; Q never has
    more than d+2 points there, so the enumeration is trivial.
    """
    Q = np.asarray(Q, dtype=float)
    tol = geom_tol(Q)
    best = None
    for centers, radii in subset_circumballs(Q):
        dist = np.linalg.norm(Q[None, :, :] - centers[:, None, :], axis=2)
        enclosing = np.flatnonzero(np.all(dist <= radii[:, None] + tol, axis=1))
        if len(enclosing):
            j = enclosing[np.argmin(radii[enclosing])]
            if best is None or radii[j] < best.radius:
                best = Ball(centers[j], radii[j])
    if best is None:  # cannot happen: the optimum is an independent subset's circumball
        raise DegenerateInputError(range(len(Q)), "no enclosing candidate found")
    return best


def _boundary_ball(P, idxs):
    """(center, radius) of the ball through the pinned points, or of their
    smallest enclosing ball when they are affinely dependent."""
    S = P[idxs]
    centers, radii, ok = circumballs(S[None])
    if ok[0]:
        return centers[0], float(radii[0])
    ball = _small_meb(S)
    return ball.center, ball.radius


def _nnls(A, b) -> np.ndarray:
    """argmin |Ax - b| over x >= 0 (Lawson & Hanson, 1974, ch. 23).

    When A has full column rank and its least-squares solution is
    nonnegative, that solution is the unique optimum.  Otherwise the
    active-set loop runs: the free column with the largest gradient entry
    joins the passive set (or is skipped when it depends numerically on it),
    and a passive solve that leaves the feasible region is cut back along the
    segment from the current iterate until a passive variable reaches zero
    and leaves.  Cut steps are capped at 3n, as in scipy's ``nnls``.
    """
    m, n = A.shape
    x, _, rank, _ = np.linalg.lstsq(A, b, rcond=None)
    if rank == n and x.min() >= 0.0:
        return x
    tol = 10.0 * max(m, n) * np.finfo(float).eps

    def solve(passive):
        s = np.zeros(n)
        s[passive] = np.linalg.lstsq(A[:, passive], b, rcond=None)[0]
        return s

    def gradient(r):
        # row by row, so that equal columns get bit-equal entries and the
        # lowest index wins their tie
        return (A * r[:, None]).sum(axis=0)

    x = np.zeros(n)
    passive = np.zeros(n, dtype=bool)
    w = gradient(b)
    cuts = 0
    while True:
        free = np.where(passive, -np.inf, w)
        k = int(np.argmax(free))
        if free[k] <= tol:
            return x
        passive[k] = True
        s = solve(passive)
        if s[k] <= 0.0:  # column k adds nothing the passive columns lack
            passive[k] = False
            w[k] = -np.inf
            continue
        while (cut := passive & (s <= 0.0)).any():
            cuts += 1
            if cuts > 3 * n:
                raise ConvergenceError(f"NNLS needed more than {3 * n} cut steps")
            alpha = np.min(x[cut] / (x[cut] - s[cut]))
            x += alpha * (s - x)
            passive &= x > tol
            s = solve(passive)
        x = s
        w = gradient(b - A @ x)


def _support_set(P, c, r, dist, tol) -> SupportSet:
    """Recover boundary indices and convex multipliers for the optimal ball
    (c, r) of P, whose points lie at distances ``dist`` from c and are within
    ``tol`` of the boundary.

    Solves sum(l_i (p_i - c)) = 0, sum(l_i) = 1, l >= 0 restricted to points
    on the boundary.  NNLS returns a basic solution, so at most d+1
    multipliers come back strictly positive.
    """
    if r <= tol:
        return SupportSet(np.array([0]), np.array([1.0]))
    cand = np.flatnonzero(dist >= r - tol)
    rows = np.vstack([(P[cand] - c).T / r, np.ones(len(cand))])
    target = np.zeros(P.shape[1] + 1)
    target[-1] = 1.0
    weights = _nnls(rows, target)
    keep = weights > _PRUNE
    if not keep.any():
        far = int(np.argmax(dist))
        return SupportSet(np.array([far]), np.array([1.0]))
    idx = cand[keep]
    lam = weights[keep]
    lam = lam / lam.sum()
    order = np.argsort(idx)
    return SupportSet(idx[order], lam[order])


def _mtf_ball(P, order, boundary, tol, counter):
    """Move-to-front recursion: boundary points are pinned to the surface.

    Returns the (center, radius) of the smallest ball enclosing the points of
    ``order`` with every point of ``boundary`` on its surface.
    """
    d = P.shape[1]
    if len(boundary) == d + 1:
        counter[0] += 1
        return _boundary_ball(P, boundary)
    ball = None
    if boundary:
        counter[0] += 1
        ball = _boundary_ball(P, boundary)
    front: list[int] = []
    for idx in order:
        if ball is None or np.linalg.norm(P[idx] - ball[0]) > ball[1] + tol:
            ball = _mtf_ball(P, front, boundary + [idx], tol, counter)
            front.insert(0, idx)
        else:
            front.append(idx)
    if ball is None:  # empty order with empty boundary: single-point base case
        counter[0] += 1
        ball = _boundary_ball(P, boundary)
    return ball


def exact_meb(P) -> MebSolution:
    """Exact minimum enclosing ball by pivoting (Gärtner, ESA 1999).

    Keeps a support list: the points on the current ball's boundary.  Each
    step scans every point once for the farthest one.  If it lies more than
    ``geom_tol`` outside, it lies on the boundary of the ball of itself and
    the support, so the move-to-front recursion solves that list with it
    pinned, and the listed points on the new boundary become the support.
    Inputs of at most d+1 points start with all of them in the list, larger
    ones with the first point.  The argmax takes the lowest index on ties, so
    the output is deterministic.

    ``iterations`` counts circumball solves.  Steps are capped at
    ``_hard_cap(n, d)``, counting those whose radius does not grow (rounding
    stalls); past the cap, ``IterationLimitError`` carries the enclosing ball
    of the current center.  The loop runs in ``bbox_frame``.
    """
    P, mid = bbox_frame(as_points(P))
    n, d = P.shape
    tol = geom_tol(P)
    cap = _hard_cap(n, d)
    counter = [0]
    support = list(range(n if n <= d + 1 else 1))
    center, radius = _mtf_ball(P, support, [], tol, counter)
    steps = 0

    def solution(dist) -> MebSolution:
        r = float(dist.max())
        certificate = _support_set(P, center, r, dist, tol)
        return MebSolution(Ball(center + mid, r), certificate, r * r, counter[0], "welzl-mtf")

    while True:
        diff = P - center
        dist = np.sqrt(np.einsum("ij,ij->i", diff, diff))
        far = int(np.argmax(dist))
        if dist[far] <= radius + tol:
            return solution(dist)
        steps += 1
        if steps > cap:
            raise IterationLimitError(
                f"no convergence within the {cap}-step cap", best=solution(dist)
            )
        center, radius = _mtf_ball(P, support, [far], tol, counter)
        listed = [far] + support
        on_boundary = np.linalg.norm(P[listed] - center, axis=1) >= radius - tol
        support = [i for i, keep in zip(listed, on_boundary) if keep]


def iteration_bound(n: int, d: int) -> int:
    """Worst-case iteration count of the geometric construction.

    Sum of binomial(n, i) for i = 2 .. min(n, d+1), computed exactly.
    """
    if n < 2 or d < 1:
        raise ValueError("need n >= 2 and d >= 1")
    return sum(math.comb(n, i) for i in range(2, min(n, d + 1) + 1))


def _hard_cap(n: int, d: int) -> int:
    # theoretical bound, saturated at a finite-precision safety cap
    return min(iteration_bound(max(n, 2), d), 10 * n * (d + 1))


def hopp_reeve_meb(P) -> MebSolution:
    """Minimum enclosing ball by the two-step shrinking construction.

    Keeps an enclosing ball centered at ``c`` with a surface set ``Q``.
    Step 1 finds the center ``t`` of the exact enclosing ball of ``Q`` and
    drops members that do not constrain it.  Step 2 moves ``c`` toward ``t``,
    which keeps all of ``Q`` on the shrinking surface; the first interior
    point to touch the surface joins ``Q``.  Stops when ``Q`` reaches d+1
    points or the center arrives at ``t`` untouched.

    Rounding can stall the walk, so iterations are capped; exceeding the cap
    raises ``IterationLimitError`` carrying the best ball found.  The walk
    runs in ``bbox_frame``.
    """
    P, mid = bbox_frame(as_points(P))
    n, d = P.shape
    if n < 2:
        raise ValueError("need at least two points")
    tol = geom_tol(P)
    cap = _hard_cap(n, d)

    c = P[0].copy()
    dist = np.linalg.norm(P - c, axis=1)
    far = int(np.argmax(dist))
    Q = [far]
    iterations = 0

    def finish(center) -> MebSolution:
        dist = np.linalg.norm(P - center, axis=1)
        radius = float(dist.max())
        support = _support_set(P, center, radius, dist, tol)
        return MebSolution(Ball(center + mid, radius), support, radius * radius, iterations, "hopp-reeve")

    if dist[far] <= tol:  # all points coincide
        return finish(c)

    while True:
        iterations += 1
        if iterations > cap + 1:  # + 1: the terminal pass moves nothing
            raise IterationLimitError(
                f"no convergence within the {cap}-iteration cap", best=finish(c)
            )

        # Step 1: target is the center of the exact ball of Q; prune members
        # whose multiplier is numerically zero (they do not constrain it).
        sub = exact_meb(P[Q])
        t = sub.ball.center
        lam = np.zeros(len(Q))
        lam[sub.support.indices] = sub.support.multipliers
        Q = [q for q, l in zip(Q, lam) if l > _PRUNE]

        # Step 2: slide c toward t; all of Q stays on the shrinking surface.
        v = t - c
        if np.linalg.norm(v) <= tol:
            return finish(t)
        q0 = P[Q[0]]
        r2 = float((c - q0) @ (c - q0))
        outside = np.setdiff1d(np.arange(n), Q, assume_unique=False)
        gaps = np.einsum("ij,ij->i", P[outside] - c, P[outside] - c) - r2
        slopes = 2.0 * (P[outside] - q0) @ v
        # a point touches where gap + s * 2 v . (q0 - p) = 0, i.e. at
        # s = gap / slope; interior points (gap < 0) can only touch if their
        # boundary margin shrinks (slope < 0)
        with np.errstate(divide="ignore", invalid="ignore"):
            s_vals = gaps / slopes
        hits = slopes < -tol * tol
        s_vals = np.where(hits, s_vals, np.inf)
        # already on the surface: |p - c| > r - tol, to first order in tol
        touching = (s_vals < 0.0) & (gaps > -2.0 * tol * math.sqrt(r2))
        s_vals = np.where(touching, 0.0, s_vals)
        s_vals = np.where(s_vals < 0.0, np.inf, s_vals)
        s_star = float(s_vals.min()) if len(s_vals) else np.inf
        if s_star > 1.0:
            return finish(t)  # reached the target with no contact
        c = c + s_star * v
        contact = outside[s_vals <= s_star + 1e-12]  # s is a fraction of the step
        Q.extend(int(i) for i in contact)


def badoiu_clarkson(P, k: int, seed: int | None = None):
    """Core-set approximation: k steps toward the current farthest point.

    Starts at the first point (or a seeded random one) and updates
    ``c_i = c_{i-1} + (p_i - c_{i-1}) / i`` with ``p_i`` the farthest point
    from the current center, ties broken by lowest index.  Returns the
    resulting solution (radius is the exact maximum distance, so the ball
    encloses the input by construction) and the visited core indices.  The
    iteration runs in ``bbox_frame``.
    """
    P, mid = bbox_frame(as_points(P))
    n, _ = P.shape
    if k < 1:
        raise ValueError("k must be at least 1")
    if seed is None:
        start = 0
    else:
        start = int(np.random.default_rng(seed).integers(n))
    c = P[start].copy()
    core = [start]
    for i in range(2, k + 1):
        far = int(np.argmax(np.linalg.norm(P - c, axis=1)))
        c = c + (P[far] - c) / i
        core.append(far)
    dist = np.linalg.norm(P - c, axis=1)
    far = int(np.argmax(dist))
    radius = float(dist[far])
    ball = Ball(c + mid, radius)
    # the farthest point is the one contact certificate; not a full KT certificate
    support = SupportSet(np.array([far]), np.array([1.0]))
    solution = MebSolution(ball, support, radius * radius, k, "badoiu-clarkson")
    return solution, core


def _polish(Pc, sq, active):
    """Solve the equal-distance stationarity system on an active set.

    Enforces sum(l) = 1 and equal squared distance from the recovered center
    to every active point, dropping the most negative multiplier until the
    solution is a valid convex combination.  Returns (indices, multipliers)
    or None when the active set collapses.
    """
    S = list(active)
    while S:
        m = len(S)
        A = np.zeros((m, m))
        b = np.zeros(m)
        A[0, :] = 1.0
        b[0] = 1.0
        p0 = Pc[S[0]]
        for row, i in enumerate(S[1:], start=1):
            A[row, :] = 2.0 * (p0 - Pc[i]) @ Pc[S].T
            b[row] = sq[S[0]] - sq[i]
        sol, *_ = np.linalg.lstsq(A, b, rcond=None)
        if sol.min() >= -1e-12:
            lam = np.clip(sol, 0.0, None)
            total = lam.sum()
            if total <= 0.0:
                return None
            return S, lam / total
        S.pop(int(np.argmin(sol)))
    return None


def elzinga_hearn_dual(P, tol: float = 1e-6, max_iter: int = 100_000):
    """Dual quadratic program route to the minimum enclosing ball.

    Maximizes ``f(l) = sum(l_i |p_i|^2) - |sum(l_i p_i)|^2`` over the unit
    simplex by away-step Frank-Wolfe with exact line search.  The pairwise
    gap bounds both the duality gap and the worst Kuhn-Tucker residual, and
    once it is small an active-set polish solves the stationarity system
    exactly.  The center is ``sum(l_i p_i)`` and the squared radius is
    ``sum(l_i |p_i - c|^2)``; points strictly inside the optimal ball end
    with multiplier zero.

    Returns the solution and the full multiplier vector.  Raises
    ``ConvergenceError`` (carrying the residual gap) if ``max_iter`` passes
    without reaching ``tol``.
    """
    P = as_points(P)
    n, _ = P.shape
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1")
    shift = P.mean(axis=0)
    Pc = P - shift  # centering keeps the quadratic terms well conditioned
    sq = np.einsum("ij,ij->i", Pc, Pc)
    scale = float(sq.max())  # gaps are squared lengths: relative to the largest

    lam = np.zeros(n)
    lam[int(np.argmax(sq))] = 1.0
    target = tol * scale
    floor = 1e-13 * scale
    polished = None
    gap = np.inf
    iterations = 0

    for iterations in range(1, max_iter + 1):
        c = lam @ Pc
        grad = sq - 2.0 * (Pc @ c)
        j_fw = int(np.argmax(grad))
        fw_gap = float(grad[j_fw] - grad @ lam)
        active = np.flatnonzero(lam > 0.0)
        j_aw = int(active[np.argmin(grad[active])])
        aw_gap = float(grad @ lam - grad[j_aw])
        gap = max(fw_gap, aw_gap)

        if gap <= target:
            result = _polish(Pc, sq, [i for i in active if lam[i] > _PRUNE])
            if result is not None:
                S, w = result
                trial = np.zeros(n)
                trial[S] = w
                c_t = trial @ Pc
                grad_t = sq - 2.0 * (Pc @ c_t)
                pair_gap = float(grad_t.max() - grad_t[S].min())
                if pair_gap <= 1e-12 * scale:
                    lam = trial
                    polished = True
                    break
            if target <= floor:
                break  # tolerance met; polish did not improve further
            target = max(target / 1000.0, floor)

        if fw_gap >= aw_gap:
            direction = -lam.copy()
            direction[j_fw] += 1.0
            step_max = 1.0
            slope = fw_gap
        else:
            direction = lam.copy()
            direction[j_aw] -= 1.0
            l_aw = lam[j_aw]
            if l_aw >= 1.0 - 1e-15:
                break  # single-atom iterate is already optimal for its face
            step_max = l_aw / (1.0 - l_aw)
            slope = aw_gap
        Ad = Pc.T @ direction
        curv = 2.0 * float(Ad @ Ad)
        step = step_max if curv <= 0.0 else min(step_max, slope / curv)
        lam = lam + step * direction
        lam[lam < 1e-15] = 0.0
        lam = lam / lam.sum()
    else:
        if gap > tol * scale:
            raise ConvergenceError(
                f"duality gap {gap:.3e} after {max_iter} iterations (target {tol:.1e})",
                gap=gap,
            )

    if not polished and gap > tol * scale:
        raise ConvergenceError(
            f"duality gap {gap:.3e} after {iterations} iterations (target {tol:.1e})",
            gap=gap,
        )

    c = lam @ Pc
    s = float(lam @ np.einsum("ij,ij->i", Pc - c, Pc - c))
    s = max(s, 0.0)
    radius = math.sqrt(s)
    ball = Ball(c + shift, radius)
    keep = lam > _PRUNE
    idx = np.flatnonzero(keep)
    mult = lam[keep]
    support = SupportSet(idx, mult / mult.sum())
    solution = MebSolution(ball, support, radius * radius, iterations, "elzinga-hearn")
    return solution, lam


def kt_residuals(P, ball: Ball, multipliers) -> KtResiduals:
    """Score a candidate (ball, multipliers) pair against the optimality system.

    The five conditions: multipliers sum to one, the weighted point offsets
    from the center cancel, each multiplier vanishes unless its point is on
    the boundary, multipliers are nonnegative, and every point is inside.
    All residuals are reported as nonnegative max-norm values.
    """
    P = as_points(P)
    lam = np.asarray(multipliers, dtype=float)
    if lam.shape != (P.shape[0],):
        raise ValueError(
            f"multiplier vector length {lam.shape} must match the point count {P.shape[0]}"
        )
    c = ball.center
    if c.size != P.shape[1]:
        raise ValueError("ball dimension must match the point set")
    s = ball.radius**2
    offsets = P - c
    dist2 = np.einsum("ij,ij->i", offsets, offsets)
    return KtResiduals(
        multiplier_sum=abs(float(lam.sum()) - 1.0),
        stationarity=float(np.linalg.norm(lam @ offsets)),
        complementary_slackness=float(np.max(np.abs(lam * (s - dist2)))),
        negativity=max(0.0, -float(lam.min())),
        primal_infeasibility=max(0.0, float(dist2.max()) - s),
    )
