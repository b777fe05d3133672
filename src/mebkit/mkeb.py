r"""Minimum k-enclosing ball: cover at least k of n points with the smallest ball.

``exact_mkeb`` has two exact paths, for z = n - k allowed outliers:

* Enumeration scores the circumball of every affinely independent subset of
  1..d+1 points (the optimum is the circumball of at most d+1 boundary points
  of its covered subset) against all n points: sum_{s <= d+1} C(n, s)
  candidates from ``geometry.subset_circumballs``, cheap when n is small
  whatever k is; ``promise_label`` decides k-clusterability over them too.
* Support branching (Matousek, "On geometric optimization with few violated
  constraints", 1995) solves the enclosing ball of P \ R by the walk of
  ``meb`` for removed sets R grown one support point at a time, each walk
  started from its parent's ball: at most sum_{j <= z} (d+1)^j walks, cheap
  when z is small whatever n is.

``exact_mkeb`` prices both paths in scalar operations, runs the cheaper
one, and refuses up front (``check_work``) when that one is over budget.
``outlier_meb_sample`` is the sampled variant that tolerates an
eps-fraction of outliers with confidence 1 - delta.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import STEP_OPS, GuardError, check_work, meter
from .geometry import Ball, as_points, bbox_frame, distances, subset_circumballs, subset_circumballs_work
from .meb import _walk, exact_meb


@dataclass(frozen=True)
class MkebSolution:
    """A covering ball, the indices it covers, and the coverage target."""

    ball: Ball
    covered: np.ndarray
    k: int

    def __post_init__(self):
        object.__setattr__(self, "covered", np.asarray(self.covered, dtype=int))
        object.__setattr__(self, "k", int(self.k))


def exact_mkeb(P, k: int) -> MkebSolution:
    """Smallest ball covering at least k points.

    Ties are broken by (radius, lexicographic center), on either path.
    Enumeration costs ``subset_circumballs_work`` scalar operations and
    branching walks * (6 STEP_OPS + (d+1) n d) (steps and scans of a walk,
    fitted to cold walks at 30..200,000 points), for walks = sum_{j <= z}
    (d+1)^j, z capped at 64; the cheaper path runs.  Warm-started walks take
    2.1..6.4 circumball solves each on uniform, gaussian and sphere clouds
    of 30..200,000 points in 2..10 dimensions, against 3.2..37 cold, and
    branching visits 17..327 sets where the formula counts 21..1,365.  Work estimate (``check_work``): its cost;
    larger instances should use ``outlier_meb_sample``.  Both paths work in
    ``bbox_frame`` and count a point as covered within its tolerance.  The
    branching path's walks share one meter (``errors.meter``), which refuses
    a walk that rounding stalls past the budget.
    """
    P, mid, tol = bbox_frame(as_points(P))
    n, d = P.shape
    if not 1 <= k <= n:
        raise ValueError(f"k must be in 1..{n}, got {k}")
    walks = ((d + 1) ** (min(n - k, 64) + 1) - 1) // d
    enumerate_ops, branch_ops = subset_circumballs_work(n, d), walks * (6 * STEP_OPS + (d + 1) * n * d)
    check_work(min(enumerate_ops, branch_ops), f"the exact {k}-enclosing ball of {n} points",
               "use outlier_meb_sample for large instances")
    path = _branch_mkeb if branch_ops < enumerate_ops else _enumerate_mkeb
    radius, center = path(P, k, tol)
    covered = np.flatnonzero(distances(P.T, center) <= radius + tol)
    return MkebSolution(Ball(center + mid, radius), covered, k)


def _enumerate_mkeb(P, k: int, tol: float) -> tuple[float, np.ndarray]:
    """(radius, center) of the least (radius, lexicographic center) circumball
    of a subset of 1..d+1 points of the framed P that covers k points."""
    d = P.shape[1]
    C, best = np.ascontiguousarray(P.T), None  # best: (radius, center-as-tuple)
    for centers, radii in subset_circumballs(P):
        dist = distances(C, centers)
        eligible = np.flatnonzero((dist <= radii[:, None] + tol).sum(axis=1) >= k)
        if not len(eligible):
            continue
        rmin = radii[eligible].min()
        tied = eligible[radii[eligible] == rmin]
        order = np.lexsort(tuple(centers[tied, col] for col in range(d - 1, -1, -1)))
        cand = (float(rmin), tuple(centers[tied[order[0]]]))
        if best is None or cand < best:
            best = cand
    if best is None:  # k >= 1 and singleton balls always cover one point
        raise RuntimeError("enumeration produced no covering candidate")
    return best[0], np.array(best[1])


def _branch_mkeb(P, k: int, tol: float) -> tuple[float, np.ndarray]:
    r"""(radius, center) of the least (radius, lexicographic center) enclosing
    ball of P \ R over the removed sets R of at most z = n - k points of the
    framed P that support branching reaches.

    The sets are visited breadth first from R = {}, each level in sorted
    order.  Each is solved once by ``_walk`` (with the full set's tolerance
    ``tol``, every walk on one meter), and its children are R + {s} for each
    point s of the walk's support T, at most d+1 of them, so at most
    sum_{j <= z} (d+1)^j sets are solved.  Each ball covers n - |R| >= k points.  A child's walk starts
    warm from its first parent's center and T less s: the parent's ball
    encloses the child's points and T less s lies on its boundary.  When T
    less s is empty the walk starts cold.

    Exactness.  Let B* be an optimal ball, of radius r*, and O* the at most
    z points outside it.  B* is the enclosing ball of P \ O*, since a
    smaller one would cover the same k or more points.  Take a visited R within O* whose ball B is not B*
    (R = {} is one, unless B* is the ball of P).  B covers P \ R, which holds
    P \ O*, so r(B) >= r*.  If the support T of B lay inside B*, then B*
    would enclose T with a radius no larger than r(B), and B* would be B,
    the unique smallest ball enclosing T.  So some s in T lies outside B*,
    in O*.  R is a proper subset of O*, as its ball is not B*, so |R| < z
    and the child R + {s}, still within O*, is visited.  From R = {}, at
    most |O*| such steps reach a visited set whose ball is B*.  So every
    optimal ball is the ball of a visited set, and the least (radius,
    center) over the visited sets is the least over the optimal balls, the
    enumeration's answer.
    """
    n = len(P)
    z = n - k
    charge, best = meter(), None  # best: (radius, center-as-tuple)
    level = {(): None}  # removed set -> its first parent's (center, support less the removed point)
    for size in range(z + 1):
        children = {}
        for removed in sorted(level):
            keep = np.ones(n, dtype=bool)
            keep[list(removed)] = False
            rows = np.flatnonzero(keep)
            X = P[rows]
            start = level[removed]
            if start is not None:
                start = (start[0], np.searchsorted(rows, start[1]))
            center, T, _, _ = _walk(X, tol, charge, start)
            diff = X[T] - center
            cand = (math.sqrt(float(np.einsum("ij,ij->i", diff, diff).max())), tuple(center))
            if best is None or cand < best:
                best = cand
            if size < z:
                support = rows[T]
                for s in support:
                    children.setdefault(tuple(sorted(removed + (int(s),))), (center, support[support != s]))
        level = children
    return best[0], np.array(best[1])


def outlier_sample_size(d: int, eps: float, delta: float) -> int:
    """Sample size ceil((d+1)/eps**(d+1) * ln(1/delta)), at least 1.  A size
    beyond float range is refused with ``GuardError``."""
    if d < 1:
        raise ValueError("d must be at least 1")
    if not 0.0 < eps <= 1.0:
        raise ValueError("eps must lie in (0, 1]")
    if not 0.0 < delta <= 1.0:
        raise ValueError("delta must lie in (0, 1]")
    if delta == 1.0:
        return 1
    power = eps ** (d + 1)  # underflows to 0.0 for a small eps or a large d
    need = (d + 1) / power * math.log(1.0 / delta) if power else math.inf
    if need == math.inf:
        raise GuardError(f"the sample size for d = {d}, eps = {eps}, delta = {delta} is beyond "
                         "float range; raise eps or delta")
    return max(1, math.ceil(need))


def outlier_sample_work(n: int, d: int, eps: float, delta: float) -> int:
    """Work estimate of one ``outlier_meb_sample`` call: 25 STEP_OPS + (40
    min(m, n) + 5 n) d, for the walk over its sample and its passes over P."""
    return 25 * STEP_OPS + (40 * min(outlier_sample_size(d, eps, delta), n) + 5 * n) * d


def outlier_meb_sample(P, eps: float, delta: float, seed: int | None = None) -> MkebSolution:
    """Outlier-tolerant enclosing ball from a uniform sample.

    Draws m = ceil((d+1)/eps**(d+1) * ln(1/delta)) points uniformly with
    replacement and returns the exact enclosing ball of the sample; when m
    reaches n the whole set is used and the result degenerates to the exact
    enclosing ball.  The radius never exceeds the full enclosing radius, and
    with probability at least 1 - delta the ball covers (1-eps)n points.

    The reported target k is ceil((1-eps) * n); ``covered`` holds whatever
    the sampled ball actually covers, which can fall short with probability
    at most delta.  Coverage is counted in ``bbox_frame``.
    """
    P, mid, tol = bbox_frame(as_points(P))
    n, d = P.shape
    m = outlier_sample_size(d, eps, delta)
    k_target = max(0, math.ceil((1.0 - eps) * n))
    if m >= n:
        solution = exact_meb(P)
    else:
        rng = np.random.default_rng(seed)
        draw = rng.integers(0, n, size=m)
        solution = exact_meb(P[draw])
    c, r = solution.ball.center, solution.ball.radius
    covered = np.flatnonzero(distances(P.T, c) <= r + tol)
    return MkebSolution(Ball(c + mid, r), covered, k_target)
