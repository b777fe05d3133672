"""Constructive convexity routines: combination reduction, Radon splits,
box intersection checks, circumradius bounds, and hull distances.

Everything here is deterministic and desk-scale exact, with bounded work.
``dist_to_hull`` finds the hull's nearest point with an active-set
nonnegative least-squares solve.  ``nodim_caratheodory`` does not call
it: a greedy step scores all n candidates with one batched Gram solve per
subset of the chosen points; it and ``barycentric_circumradius`` price
their subset enumerations up front (``check_work``).  ``caratheodory_reduce``
eliminates through windows of d+2 points, O(n d^3) work in (d+1) x (d+2) SVDs.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import STEP_OPS, check_work
from .geometry import _subset_blocks, as_point, as_points, bbox_frame, geom_tol


@dataclass(frozen=True)
class ConvexCombination:
    """Indices into a point set, nonnegative coefficients summing to one,
    and the point they reproduce."""

    indices: np.ndarray
    coefficients: np.ndarray
    target: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "indices", np.asarray(self.indices, dtype=int))
        object.__setattr__(self, "coefficients", np.asarray(self.coefficients, dtype=float))
        object.__setattr__(self, "target", as_point(self.target))
        if self.indices.shape != self.coefficients.shape:
            raise ValueError("indices and coefficients must align")


def make_combination(points, indices, coefficients) -> ConvexCombination:
    """Build a combination, computing its target from the weights."""
    P = as_points(points)
    idx = np.asarray(indices, dtype=int)
    coef = np.asarray(coefficients, dtype=float)
    if idx.size and (idx.min() < 0 or idx.max() >= len(P)):
        raise ValueError("combination indices out of range")
    combo = ConvexCombination(idx, coef, coef @ P[idx])
    _validate_combination(P, combo)
    return combo


def _validate_combination(P, combo: ConvexCombination):
    if combo.indices.size == 0:
        raise ValueError("a combination needs at least one point")
    if combo.indices.min() < 0 or combo.indices.max() >= len(P):
        raise ValueError("combination indices out of range")
    if combo.coefficients.min() < -1e-12:
        raise ValueError("combination coefficients must be nonnegative")
    if abs(combo.coefficients.sum() - 1.0) > 1e-9:
        raise ValueError("combination coefficients must sum to one")
    Q = P[combo.indices]
    rebuilt = combo.coefficients @ Q
    # positions, not lengths: a weighted sum of m points rounds by up to about
    # m eps max|q| per coordinate, once in the target and once in the rebuild
    m, d = Q.shape
    rounding = 2.0 * math.sqrt(d) * m * np.finfo(float).eps * float(np.abs(Q).max())
    if np.linalg.norm(rebuilt - combo.target) > geom_tol(P) + rounding:
        raise ValueError("combination does not reproduce its target")


def _affine_dependence(Q) -> np.ndarray:
    """A nontrivial vector with sum zero and zero weighted point sum, for one
    (m, d) point array or for each of a stack of them."""
    m = Q.shape[-2]
    ones = np.ones(Q.shape[:-2] + (1, m))
    _, _, Vt = np.linalg.svd(np.concatenate([np.swapaxes(Q, -1, -2), ones], axis=-2))
    return Vt[..., -1, :]


def caratheodory_reduce(points, combo: ConvexCombination) -> ConvexCombination:
    """Rewrite a convex combination on at most d+1 points with the same target.

    Each round cuts the weighted points, in order, into windows of d+2 and
    shifts every window's weight along that window's affine dependence
    until one coefficient reaches zero, all windows in one batched
    (d+1) x (d+2) SVD.  A round of m points drops at least floor(m / (d+2))
    of them, so the work is O(n d^3) and no array outgrows n x (d+2).
    Inputs already at d+1 or fewer points come back unchanged.
    """
    P = as_points(points)
    _validate_combination(P, combo)
    d = P.shape[1]
    if len(combo.indices) <= d + 1:
        return combo
    active = combo.coefficients > 0.0
    idx = combo.indices[active]
    w = combo.coefficients[active] / combo.coefficients[active].sum()
    # the dependence of centred, unit-scaled points: an SVD's null vector is
    # exact to eps of the largest entry, which the row of ones must not outgrow
    X = P[idx] - combo.target
    X /= float(np.abs(X).max()) or 1.0
    while len(idx) > d + 1:
        g = len(idx) // (d + 2)
        cut = g * (d + 2)
        alpha = _affine_dependence(X[:cut].reshape(g, d + 2, d))
        W = w[:cut].reshape(g, d + 2)
        pos = alpha > 1e-14
        steps = np.divide(W, alpha, out=np.full_like(W, np.inf), where=pos)
        rows, lim = np.arange(g), steps.argmin(axis=1)
        W = W - steps[rows, lim][:, None] * alpha
        W[rows, lim] = 0.0
        w = np.concatenate([W.ravel(), w[cut:]])
        keep = w >= 1e-15
        idx, w, X = idx[keep], w[keep], X[keep]
    return ConvexCombination(idx, w / w.sum(), combo.target)


@dataclass(frozen=True)
class RadonPartition:
    left: np.ndarray
    right: np.ndarray
    witness: np.ndarray


def radon_partition(points) -> RadonPartition:
    """Split d+2 points into two groups whose hulls share a witness point.

    The affine dependence of d+2 points yields signed weights; the positive
    side and the nonpositive side each reproduce the same witness.  Zero
    coefficients land on the right side.
    """
    P = as_points(points)
    n, d = P.shape
    if n != d + 2:
        raise ValueError(f"need exactly d+2 = {d + 2} points, got {n}")
    alpha = _affine_dependence(P)
    if alpha[int(np.argmax(np.abs(alpha)))] < 0.0:
        alpha = -alpha
    pos = alpha > 0.0
    weight = alpha[pos].sum()
    witness = (alpha[pos] @ P[pos]) / weight
    return RadonPartition(np.flatnonzero(pos), np.flatnonzero(~pos), witness)


@dataclass(frozen=True)
class AABox:
    """Axis-aligned box [lower, upper]."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "lower", as_point(self.lower))
        object.__setattr__(self, "upper", as_point(self.upper))
        if self.lower.size != self.upper.size:
            raise ValueError("box corners must share a dimension")
        if np.any(self.lower > self.upper):
            raise ValueError("box lower corner must not exceed the upper corner")

    @property
    def dim(self) -> int:
        return self.lower.size


@dataclass(frozen=True)
class HellyReport:
    subfamilies_intersect: bool   # every (d+1)-subfamily has a common point
    family_intersects: bool       # the whole family has a common point
    common_point: np.ndarray | None


def helly_check_boxes(family) -> HellyReport:
    """Check the box Helly property: (d+1)-wise intersection implies global.

    Reports both findings and a common point when one exists.  Both are
    decided by one O(n*d) test on the largest lower and smallest upper
    corner.
    """
    boxes = list(family)
    if not boxes:
        raise ValueError("need at least one box")
    d = boxes[0].dim
    if any(b.dim != d for b in boxes):
        raise ValueError("boxes must share a dimension")
    if len(boxes) < d + 1:
        raise ValueError(f"need at least d+1 = {d + 1} boxes, got {len(boxes)}")
    lows = np.array([b.lower for b in boxes])
    ups = np.array([b.upper for b in boxes])
    tol = geom_tol(np.vstack([lows, ups]))
    low, up = lows.max(axis=0), ups.min(axis=0)
    # Per axis, intervals meet iff every two do, and every pair lies in some
    # (d+1)-subfamily (n >= d+1 >= 2): with the same tol the two tests agree.
    whole = bool(np.all(low <= up + tol))
    common = (low + up) / 2.0 if whole else None
    return HellyReport(whole, whole, common)


def fractional_helly_beta(d: int, alpha: float) -> float:
    """Fraction of a box family pierced by one point when an alpha fraction
    of its (d+1)-subfamilies intersect: 1 - (1 - alpha)**(1/(d+1))."""
    if d < 1:
        raise ValueError("d must be at least 1")
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"alpha must lie in (0, 1], got {alpha}")
    return 1.0 - (1.0 - alpha) ** (1.0 / (d + 1))


def jung_bound(points, radius=None):
    """Circumradius bound sqrt(d / (2(d+1))) times the diameter.

    Returns (bound, tight) where ``tight`` reports whether the exact
    enclosing radius attains the bound within tolerance, as the regular
    d-simplex does.  ``radius`` is that radius when the caller has it;
    otherwise ``exact_meb`` solves it.
    """
    from .diameter import diameter_bruteforce
    from .meb import exact_meb

    P = as_points(points)
    n, d = P.shape
    if n < 2:
        raise ValueError("need at least two points")
    if radius is None:
        radius = exact_meb(P).ball.radius
    bound = math.sqrt(d / (2.0 * (d + 1))) * diameter_bruteforce(P).value
    return bound, bool(abs(bound - radius) <= geom_tol(P))


def barycentric_circumradius(points) -> float:
    """Largest distance from a subset's mean to that subset's farthest member,
    over all subsets of size 2..d+1.

    Combined with the diameter bound this caps the exact enclosing radius:
    rho <= min(barycentric_circumradius, jung_bound).  Computed in
    ``bbox_frame``, over the index blocks of ``geometry._subset_blocks``.  Work estimate
    (``check_work``): sum_{s=2}^{d+1} C(n, s) s (d + 16).
    """
    P, _, _ = bbox_frame(as_points(points))
    n, d = P.shape
    if n < 2:
        raise ValueError("need at least two points")
    sizes = range(2, min(n, d + 1) + 1)
    check_work(sum(math.comb(n, s) * s * (d + 16) for s in sizes), f"{n} points' subsets", "use fewer points")
    best = 0.0
    for size in sizes:
        for block in _subset_blocks(n, size):
            sub = P[block]
            centers = sub.mean(axis=1)
            radii = np.linalg.norm(sub - centers[:, None, :], axis=2).max(axis=1)
            best = max(best, float(radii.max()))
    return best


def dist_to_hull(a, points) -> float:
    """Euclidean distance from a point to the convex hull of a point set.

    Let U = Q - a, s its largest absolute entry and V = U^T / s.  The
    nonnegative least-squares solution u of min |V u|^2 + (sum(u) - 1)^2
    (``meb._nnls``) gives the distance s |V u| / sum(u).  Writing u = t w
    with w on the unit simplex, the objective is t^2 |V w|^2 + (t - 1)^2,
    whose minimum over t is |V w|^2 / (1 + |V w|^2); that increases with
    |V w|, so w is the weight vector of the hull's nearest point (Lawson &
    Hanson, 1974).  A point whose squared distance in the unit frame is
    within 1e-12 of zero, relative to the farthest hull point, counts as
    inside and gets 0.
    """
    from .meb import _nnls

    Q = as_points(points)
    x0 = as_point(a)
    if Q.shape[1] != x0.size:
        raise ValueError(f"dimension mismatch: point is {x0.size}-d, hull points are {Q.shape[1]}-d")
    U = Q - x0
    s = float(np.abs(U).max())
    if s == 0.0:  # every point of Q is a
        return 0.0
    V = U.T / s
    b = np.zeros(len(V) + 1)
    b[-1] = 1.0
    u = _nnls(np.vstack([V, np.ones(len(Q))]), b)
    dist = float(np.linalg.norm(V @ u)) / float(u.sum())
    # the old clamp, in units of s: here the farthest point of Q is at least
    # 1 from a, so the 1 is relative to the data as well
    inside = dist * dist <= 1e-12 * (1.0 + float(np.einsum("ij,ij->j", V, V).max()))
    return 0.0 if inside else s * dist


def _face_distances(U, chosen: list[int]) -> np.ndarray:
    """Per candidate i (row of U, points less the target), the least distance
    from the origin to a projection onto aff(T and i) over the subsets T of
    ``chosen`` with |T| <= d whose projection has nonnegative barycentric
    weights and whose face is non-degenerate; T empty is the point itself.

    One batched (n, |T|, |T|) Gram solve per T.  Every counted projection is
    a point of the hull, and the hull's nearest point lies on such a face
    or on a face without i.
    """
    d = U.shape[1]
    best = np.sqrt(np.einsum("ij,ij->i", U, U))
    for size in range(1, min(len(chosen), d) + 1):
        for T in itertools.combinations(chosen, size):
            E = U[list(T)][None, :, :] - U[:, None, :]  # (n, |T|, d) edges from i
            G = E @ E.transpose(0, 2, 1)
            # scale to a unit diagonal: det is then the face's volume relative
            # to its edge lengths, in [0, 1], and below eps the face is flat
            norm = np.sqrt(np.einsum("njj->nj", G))
            norm[norm == 0.0] = 1.0
            C = G / (norm[:, :, None] * norm[:, None, :])
            flat = ~(np.linalg.det(C) > np.finfo(float).eps)
            C[flat] = np.eye(size)
            rhs = -np.einsum("njd,nd->nj", E, U) / norm
            y = np.linalg.solve(C, rhs[..., None])[..., 0] / norm  # weights of T; i gets 1 - sum
            R = U + np.einsum("nj,njd->nd", y, E)
            counts = ~flat & (y.min(axis=1) >= 0.0) & (y.sum(axis=1) <= 1.0)
            np.minimum(best, np.where(counts, np.sqrt(np.einsum("nd,nd->n", R, R)), np.inf), out=best)
    return best


def nodim_caratheodory(points, a, r: int):
    """Greedy r-point hull approximation of an interior point.

    Each step adds the point whose inclusion minimizes the distance from
    ``a`` to the hull of the chosen subset.  For a point of the hull the
    result satisfies achieved <= diam(P) / sqrt(r); an even smaller subset
    within diam(P) / sqrt(2r) always exists.  Membership of ``a`` in the
    hull is the caller's responsibility.

    A step with k points chosen scores all n candidates at once: the hull
    distance with candidate i is the smaller of the previous ``achieved``
    and the distances of ``_face_distances``, clamped to 0 as in
    ``dist_to_hull``.  Ties within ``geom_tol`` go to the lower index.  The
    steps batch n projections per subset, C(r, s) of size s - 1 in all, so
    work estimate (``check_work``): sum_{s <= d+1} C(r, s) (STEP_OPS + n s (d + 40)).

    Returns (indices, achieved).
    """
    P = as_points(points)
    target = as_point(a)
    n, d = P.shape
    if target.size != d:
        raise ValueError(f"dimension mismatch: point is {target.size}-d, points are {d}-d")
    if not 1 <= r <= n:
        raise ValueError(f"r must be in 1..{n}, got {r}")
    subsets = {s: math.comb(r, s) for s in range(1, min(r, d + 1) + 1)}
    check_work(sum(m * (STEP_OPS + n * s * (d + 40)) for s, m in subsets.items()),
               f"nodim_caratheodory's {n * sum(subsets.values())} face projections", "lower r")
    U = P - target
    # a power-of-two unit at most the largest |coordinate| rescales exactly
    # and keeps the squared lengths of the Gram systems inside the float range
    unit = math.ldexp(1.0, math.frexp(float(np.abs(U).max()))[1] - 1)
    U /= unit
    tol = geom_tol(P) / unit
    far = np.abs(U).max(axis=1)
    sq = np.einsum("ij,ij->i", U, U)
    chosen: list[int] = []
    achieved = math.inf
    for _ in range(r):
        cand = np.minimum(_face_distances(U, chosen), achieved)
        # dist_to_hull's inside clamp, with its s and largest squared length
        # taken over the candidate's hull
        s = np.maximum(far, far[chosen].max(initial=0.0))
        m = np.maximum(sq, sq[chosen].max(initial=0.0))
        cand[cand * cand <= 1e-12 * (s * s + m)] = 0.0
        cand[chosen] = np.inf
        best_i, best_d = -1, math.inf
        for i, c in enumerate(cand.tolist()):
            if c < best_d - tol:
                best_i, best_d = i, c
        chosen.append(best_i)
        achieved = best_d
    return np.array(chosen), float(achieved) * unit
