"""Minimum enclosing ball solvers and duality certificates.

Four routes to the same ball:

* ``exact_meb``: the walk of Fischer, Gärtner and Kutz, which moves the
  center of an enclosing ball toward the circumcenter of its support.  The
  same walk is the exact core of the other two exact routes.
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

from .errors import ConvergenceError, IterationLimitError, check_work
from .geometry import Ball, as_points, bbox_frame, circumballs, distances, geom_tol

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
        return max(vars(self).values())


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


def _support(indices, lam) -> SupportSet:
    """The entries of ``lam`` above ``_PRUNE`` on their ``indices``,
    renormalised to sum to one and ordered by index."""
    indices, lam = np.asarray(indices), np.asarray(lam)
    keep = lam > _PRUNE
    idx, w = indices[keep], lam[keep]
    order = np.argsort(idx)
    return SupportSet(idx[order], w[order] / w.sum())


def _hits(X, sq, T, c, t, rt, tol):
    """Where each point of X reaches the boundary as the center moves from
    c to t: ``(hit, rate)`` with ``hit`` in [0, 1) for blockers, else inf.

    The points of X[T] lie on the boundary of the ball around c, on the
    sphere of radius ``rt`` around t, and on every sphere between; ``sq``
    holds the squared norms of X.  Along c(s) = c + s (t - c),
    |p - c(s)|^2 - |q - c(s)|^2 is linear in s, from gap (clamped at 0 for
    points already on the boundary) at c to end = |p - t|^2 - rt^2 at t, so
    p reaches the boundary at s = -gap / (end - gap).  ``rate`` = end - gap
    is larger for steeper points.  A point blocks only if it ends more than
    ``tol`` outside at t.  Both come from |p|^2 - 2 p.x + |x|^2 (two
    products over X); end values within its rounding of the threshold are
    recomputed from differences, so a point repeating t does not block.
    """
    end = X @ (-2.0 * t)
    end += sq
    gap = end + 2.0 * (X @ (t - c))
    gap -= gap[T[0]]
    end += t @ t - rt * rt
    thr = tol * (2.0 * rt + tol)
    round_off = 4.0 * (X.shape[1] + 4) * np.finfo(float).eps * (sq.max() + t @ t)
    near = (np.abs(end - thr) <= round_off).nonzero()[0]
    E = X[near] - t
    end[near] = np.einsum("ij,ij->i", E, E) - rt * rt
    blocks = end > thr
    blocks[T] = False
    np.minimum(gap, 0.0, out=gap)
    rate = np.maximum(end, thr) - gap
    return np.divide(-gap, rate, out=np.full(len(X), np.inf), where=blocks), rate


def _walk(X, tol, cap, start=None):
    """Exact minimum enclosing ball of X by the walk of Fischer, Gärtner and
    Kutz (ESA 2003).  Returns ``(center, T, coords, solves)``.

    Keeps a center c and an affinely independent support T, a list of row
    indices whose points lie on the boundary of a ball around c enclosing X.
    While c is away from the circumcenter t of T, c moves toward t until the
    first point to reach the shrinking boundary joins T (``_hits``).  A
    point blocks only if it would end more than ``tol`` outside at t; if
    none does, c jumps to t.  Points that reach the boundary within ``tol``
    of each other along the leg are tied, and the steepest of them, then the
    lowest index, joins; a tied point that reached it earlier may then be
    outside, so after such a late join, c rescans X before it returns at t.
    A blocker that fails the kernel's independence test together with T
    lies numerically in aff(T) and replaces the member chosen by
    ``_leaving``; only when that set fails too is it passed over for the
    leg.  At t the walk returns when every affine coordinate of t in T is
    nonnegative, and otherwise drops the point with the most negative one.

    Starts at X[0] with its farthest point as T, or warm from ``start`` =
    (c, T): a center whose ball encloses X with the rows T on its boundary,
    affinely independent, such as a parent ball's center and support less a
    removed point.  An empty T starts cold.  ``t`` and its coordinates come
    from ``circumballs``; ``solves`` counts its calls, and the call that
    exceeds ``cap`` raises ``IterationLimitError`` whose ``best`` is the
    walk's state ``(c, T, coords, solves)``.
    """
    sq = np.einsum("ij,ij->i", X, X)
    solves = 0
    late = False  # the last point to join reached the boundary after a tied one

    def solve(S):
        nonlocal solves
        centers, radii, ok, coords = circumballs(X[S][None])
        solves += 1
        if solves > cap:
            raise IterationLimitError(f"no convergence within the {cap}-solve cap", best=(c, T, lam, solves))
        return centers[0], float(radii[0]), bool(ok[0]), coords[0]

    if start is not None and len(start[1]):
        c, T, lam = start[0], [int(i) for i in start[1]], None  # lam comes with the first solve
        t, rt, _, lam = solve(T)
    else:
        c = X[0]
        D = X - c
        T = [int(np.einsum("ij,ij->i", D, D).argmax())]
        t, rt, lam = X[T[0]], 0.0, np.ones(1)

    while True:
        v = t - c
        step = math.sqrt(v @ v)
        # at t, only the tied points passed over by a late join can be outside
        if step > tol or (late and lam.min() >= 0.0):
            hit, rate = _hits(X, sq, T, c, t, rt, tol)
            window = tol / step if step > tol else 1.0  # at t, all blockers tie
            while (h := hit.min()) <= 1.0:
                tied = (hit <= h + window).nonzero()[0]
                if len(tied) > 1:  # keep the steepest, lowest index first
                    r = rate[tied]
                    tied = tied[r >= r.max() - 2.0 * tol * step]
                k = int(tied[0])
                S = T + [k]
                t_new, rt_new, ok, lam_new = solve(S)
                if not ok and len(T) > 1:
                    j = _leaving(X, T, lam, k)
                    S = T[:j] + T[j + 1:] + [k]
                    t_new, rt_new, ok, lam_new = solve(S)
                if ok:
                    break
                hit[k] = np.inf
            if h <= 1.0:
                c = c + hit[k] * v
                T, t, rt, lam = S, t_new, rt_new, lam_new
                late = hit[k] > h
                continue
            late = False
        c = t  # nothing blocks
        if lam.min() >= 0.0:
            return c, T, lam, solves
        j = int(lam.argmin())
        t, rt, _, lam = solve(T[:j] + T[j + 1:])
        del T[j]


def _leaving(X, T, lam, k) -> int:
    """Position in T of the member that X[k] replaces when X[k] lies
    numerically in aff(X[T]) (a pivot, as in the simplex method).

    With X[k] = sum a_i X[T_i] (affine coordinates, by least squares), the
    ratio test takes the smallest lam_i / a_i over a_i > 0, where ``lam``
    are the coordinates of the target t in T: the swap keeps t an affine
    combination of the new set with every coefficient that was nonnegative
    still nonnegative, and the new member's coefficient is that ratio.
    """
    base = X[T[0]]
    a = np.linalg.lstsq((X[T[1:]] - base).T, X[k] - base, rcond=None)[0]
    a = np.concatenate([[1.0 - a.sum()], a])
    pos = a > 0.0  # never empty: the coordinates sum to one
    return int(np.argmin(np.where(pos, lam / np.where(pos, a, 1.0), np.inf)))


def exact_meb(P) -> MebSolution:
    """Exact minimum enclosing ball by the walk of Fischer, Gärtner and Kutz.

    Runs ``_walk`` in ``bbox_frame``: its support and affine coordinates
    are the certificate, and ``iterations`` counts its circumball solves.
    The walk starts at the first point and breaks ties by the lowest index
    or the steepest approach, so the output is deterministic.  Solves are
    capped at ``_hard_cap(n, d)``; past the cap, ``IterationLimitError``
    carries the enclosing ball of the current center.
    """
    P, mid, tol = bbox_frame(as_points(P))
    n, d = P.shape

    def solution(c, T, lam, solves) -> MebSolution:
        diff = P - c
        r = math.sqrt(float(np.einsum("ij,ij->i", diff, diff).max()))
        return MebSolution(Ball(c + mid, r), _support(T, lam), r * r, solves, "fgk-walk")

    try:
        return solution(*_walk(P, tol, _hard_cap(n, d)))
    except IterationLimitError as err:
        raise IterationLimitError(str(err), best=solution(*err.best)) from None


def _hard_cap(n: int, d: int) -> int:
    # a finite-precision safety cap, polynomial in n and d
    return 10 * n * (d + 1)


def hopp_reeve_meb(P) -> MebSolution:
    """Minimum enclosing ball by the two-step shrinking construction.

    Keeps an enclosing ball centered at ``c`` with a surface set ``Q``.
    Step 1 walks to the center ``t`` of the exact enclosing ball of ``Q``
    and drops members whose multiplier vanishes; the rest, with their
    multipliers, are the support.  Step 2 moves ``c`` toward ``t``, which
    keeps all of ``Q`` on the shrinking surface; the first interior points
    to touch the surface join ``Q``, by the blocking rule of ``_walk``.
    Stops when the center arrives at ``t`` untouched.

    Rounding can stall the construction, so iterations are capped; exceeding
    the cap raises ``IterationLimitError`` carrying the best ball found.  It
    runs in ``bbox_frame``.
    """
    P, mid, tol = bbox_frame(as_points(P))
    n, d = P.shape
    if n < 2:
        raise ValueError("need at least two points")
    cap = _hard_cap(n, d)

    sq = np.einsum("ij,ij->i", P, P)
    c = P[0].copy()
    dist = np.linalg.norm(P - c, axis=1)
    far = int(np.argmax(dist))
    Q = [far]
    support = SupportSet([far], [1.0])
    iterations = 0

    def finish(center) -> MebSolution:
        radius = float(np.linalg.norm(P - center, axis=1).max())
        return MebSolution(Ball(center + mid, radius), support, radius * radius, iterations, "hopp-reeve")

    if dist[far] <= tol:  # all points coincide
        return finish(c)

    while True:
        iterations += 1
        if iterations > cap + 1:  # + 1: the terminal pass moves nothing
            raise IterationLimitError(
                f"no convergence within the {cap}-iteration cap", best=finish(c)
            )

        # Step 1: walk to the center t of the exact ball of Q; members whose
        # multiplier is numerically zero do not constrain it and leave.
        try:
            t, T, lam, _ = _walk(P[Q], tol, _hard_cap(len(Q), d))
        except IterationLimitError as err:
            raise IterationLimitError(str(err), best=finish(c)) from None
        support = _support(np.asarray(Q)[T], lam)
        Q = support.indices.tolist()

        # Step 2: slide c toward t; all of Q stays on the shrinking surface,
        # and the first points to reach it join Q.
        v = t - c
        step = math.sqrt(v @ v)
        if step <= tol:
            return finish(t)
        e = P[Q[0]] - t
        hit, _ = _hits(P, sq, Q, c, t, math.sqrt(e @ e), tol)
        s = hit.min()
        if s > 1.0:
            return finish(t)  # reached the target with no contact
        c = c + s * v
        Q.extend((hit <= s + tol / step).nonzero()[0].tolist())


def badoiu_clarkson(P, k: int, seed: int | None = None):
    """Core-set approximation: k steps toward the current farthest point.

    Starts at the first point (or a seeded random one) and updates
    ``c_i = c_{i-1} + (p_i - c_{i-1}) / i`` with ``p_i`` the farthest point
    from the current center, ties broken by lowest index.  Returns the
    resulting solution (radius is the exact maximum distance, so the ball
    encloses the input by construction) and the visited core indices.  The
    iteration runs in ``bbox_frame``.  Work estimate (``check_work``): k * n * d.
    """
    P, mid, _ = bbox_frame(as_points(P))
    n, d = P.shape
    if k < 1:
        raise ValueError("k must be at least 1")
    check_work(k * n * d, f"badoiu_clarkson's {k} steps", "lower k")
    if seed is None:
        start = 0
    else:
        start = int(np.random.default_rng(seed).integers(n))
    c = P[start].copy()
    core = [start]
    diff, dist = np.empty_like(P), np.empty(n)
    for i in range(2, k + 1):
        far = int(np.argmax(distances(P, c, diff, dist)))
        c = c + (P[far] - c) / i
        core.append(far)
    distances(P, c, diff, dist)
    far = int(np.argmax(dist))
    radius = float(dist[far])
    ball = Ball(c + mid, radius)
    # the farthest point is the one contact certificate; not a full KT certificate
    support = SupportSet(np.array([far]), np.array([1.0]))
    solution = MebSolution(ball, support, radius * radius, k, "badoiu-clarkson")
    return solution, core


def elzinga_hearn_dual(P, tol: float = 1e-6, max_iter: int = 100_000):
    """Dual quadratic program route to the minimum enclosing ball.

    Maximizes ``f(l) = sum(l_i |p_i|^2) - |sum(l_i p_i)|^2`` over the unit
    simplex by away-step Frank-Wolfe with exact line search.  The pairwise
    gap bounds both the duality gap and the worst Kuhn-Tucker residual, and
    once it is small a polish walks the active set (``_walk``) to its exact
    ball and keeps those multipliers when they close the gap.  The center is
    ``sum(l_i p_i)`` and the squared radius is ``sum(l_i |p_i - c|^2)``;
    points strictly inside the optimal ball end with multiplier zero.

    Returns the solution and the full multiplier vector.  Raises
    ``ConvergenceError`` (carrying the residual gap) if ``max_iter`` passes
    without reaching ``tol``.
    """
    P = as_points(P)
    n, d = P.shape
    if not tol > 0.0:
        raise ValueError("tol must be positive")
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1")
    shift = P.mean(axis=0)
    Pc = P - shift  # centering keeps the quadratic terms well conditioned
    sq = np.einsum("ij,ij->i", Pc, Pc)
    scale = float(sq.max())  # gaps are squared lengths: relative to the largest
    slack = geom_tol(Pc)

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
            S = active[lam[active] > _PRUNE]
            try:
                _, T, w, _ = _walk(Pc[S], slack, _hard_cap(len(S), d))
            except IterationLimitError:
                pass  # a stalled polish does not improve
            else:
                S = S[T]
                trial = np.zeros(n)
                trial[S] = w
                grad_t = sq - 2.0 * (Pc @ (trial @ Pc))
                if grad_t.max() - grad_t[S].min() <= 1e-12 * scale:
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
    solution = MebSolution(ball, _support(np.arange(n), lam), radius * radius, iterations, "elzinga-hearn")
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
