"""Minimum k-enclosing ball: cover at least k of n points with the smallest ball.

``exact_mkeb`` enumerates candidate balls exhaustively (the optimum is the
circumball of at most d+1 boundary points of its covered subset, so circumballs
of all affinely independent subsets of size 1..d+1 are a complete candidate
family).  ``outlier_meb_sample`` is the sampled variant that tolerates an
eps-fraction of outliers with confidence 1 - delta.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import GuardError
from .geometry import Ball, as_points, bbox_frame, subset_circumballs
from .meb import exact_meb

CANDIDATE_BUDGET = 10_000_000  # guard: n**(d+1) enumeration ceiling


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
    """Smallest ball covering at least k points, by exhaustive enumeration.

    Ties are broken by (radius, lexicographic center), so the result does not
    depend on enumeration order.  Guarded to n**(d+1) <= 10**7 candidates;
    larger instances should use ``outlier_meb_sample``.  Candidates are
    enumerated in ``bbox_frame``.
    """
    P, mid, tol = bbox_frame(as_points(P))
    n, d = P.shape
    if not 1 <= k <= n:
        raise ValueError(f"k must be in 1..{n}, got {k}")
    if float(n) ** (d + 1) > CANDIDATE_BUDGET:
        raise GuardError(
            f"n**(d+1) = {float(n) ** (d + 1):.2e} exceeds the exact enumeration "
            f"budget {CANDIDATE_BUDGET:.0e}; use outlier_meb_sample for large instances"
        )
    best = None  # (radius, center-as-tuple)
    for centers, radii in subset_circumballs(P):
        diff = P[None, :, :] - centers[:, None, :]
        diff *= diff  # squared in place: one (batch, n, d) array, same sums as a norm
        counts = (np.sqrt(diff.sum(axis=2)) <= radii[:, None] + tol).sum(axis=1)
        del diff  # freed before the next batch is built, which lowers peak memory
        eligible = np.flatnonzero(counts >= k)
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
    radius, center = best
    center = np.array(center)
    covered = np.flatnonzero(np.linalg.norm(P - center, axis=1) <= radius + tol)
    return MkebSolution(Ball(center + mid, radius), covered, k)


def outlier_sample_size(d: int, eps: float, delta: float) -> int:
    """Sample size ceil((d+1)/eps**(d+1) * ln(1/delta)), at least 1."""
    if d < 1:
        raise ValueError("d must be at least 1")
    if not 0.0 < eps <= 1.0:
        raise ValueError("eps must lie in (0, 1]")
    if not 0.0 < delta <= 1.0:
        raise ValueError("delta must lie in (0, 1]")
    if delta == 1.0:
        return 1
    return max(1, math.ceil((d + 1) / eps ** (d + 1) * math.log(1.0 / delta)))


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
    covered = np.flatnonzero(np.linalg.norm(P - c, axis=1) <= r + tol)
    return MkebSolution(Ball(c + mid, r), covered, k_target)
