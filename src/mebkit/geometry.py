"""Core geometric types and exact small-instance primitives.

Coordinates are 64-bit floats throughout.  Every length comparison (is a
point inside a ball, on its boundary, are two distances tied) allows the
slack ``geom_tol(P, *lengths)``: ``TOL_BASE`` times the larger of the
longest side of P's bounding box and the lengths being compared.  The slack
ignores where the points sit and scales with their units, so translating or
rescaling an input translates or rescales the answer.

Solvers that build centers from coordinates work in one frame: they
subtract the midpoint of P's bounding box (``bbox_frame``), solve, and add
the midpoint back to the center.  Far from the origin the subtraction is
exact, so rounding is relative to the spread of the points and not to
their distance from the origin.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInputError

TOL_BASE = 1e-9      # comparison slack per unit of spread
PIVOT_EPS = 1e-12    # smallest unit-edge Gram eigenvalue of an affinely independent subset
SUBSET_BATCH = 2048  # subsets per circumballs batch in subset_circumballs and small_meb_radii
SMALL_MEB_MAX = 8    # most points per row that small_meb_radii enumerates; larger rows use exact_meb


def geom_tol(P, *lengths) -> float:
    """Slack for comparing lengths measured on the point set ``P``.

    Returns ``TOL_BASE`` times the larger of the longest side of P's
    bounding box and the magnitudes of ``lengths`` (radii, distances, half
    extents).  It is invariant under translation and linear in scale; it is
    zero only for a single repeated point with no positive length.
    """
    P = np.asarray(P, dtype=float)
    scale = float((P.max(axis=0) - P.min(axis=0)).max())
    for length in lengths:
        scale = max(scale, abs(float(length)))
    return TOL_BASE * scale


def bbox_frame(P) -> tuple[np.ndarray, np.ndarray, float]:
    """``(P - m, m, tol)`` with ``m`` the midpoint of P's bounding box: the
    frame in which solvers compute centers before adding ``m`` back.

    ``tol`` is ``geom_tol(P - m)`` from the one bounding box: subtracting
    ``m`` rounds monotonically, so the framed box is ``[lo - m, hi - m]``
    to the bit.
    """
    hi, lo = P.max(axis=0), P.min(axis=0)
    mid = (hi + lo) / 2.0
    return P - mid, mid, TOL_BASE * float(((hi - mid) - (lo - mid)).max())


def distances(P, c, diff, out) -> np.ndarray:
    """``np.linalg.norm(P - c, axis=-1)``, to the bit, worked in the (n, d)
    buffer ``diff`` and written to the n-vector ``out``: a loop that measures
    from many centers allocates nothing per step.  A (b, 1, d) block of
    centers gives a (b, n) table in (b, n, d) and (b, n) buffers, each row
    the one its center gives alone."""
    np.subtract(P, c, out=diff)
    np.multiply(diff, diff, out=diff)
    return np.sqrt(np.add.reduce(diff, axis=-1, out=out), out=out)


def as_point(p) -> np.ndarray:
    """Coerce to a finite 1-d float vector."""
    arr = np.asarray(p, dtype=float)
    if arr.ndim != 1 or arr.size < 1:
        raise ValueError(f"expected a 1-d coordinate vector, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("point coordinates must be finite")
    return arr


def as_points(P) -> np.ndarray:
    """Coerce to a finite (n, d) float array with n >= 1 and d >= 1."""
    arr = np.asarray(P, dtype=float)
    if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
        raise ValueError(
            f"expected an (n, d) point array with n >= 1, d >= 1, got shape {arr.shape}"
        )
    if not np.all(np.isfinite(arr)):
        raise ValueError("point coordinates must be finite")
    return arr


@dataclass(frozen=True)
class Ball:
    """Closed Euclidean ball."""

    center: np.ndarray
    radius: float

    def __post_init__(self):
        object.__setattr__(self, "center", as_point(self.center))
        object.__setattr__(self, "radius", float(self.radius))
        if self.radius < 0.0:
            raise ValueError("ball radius must be nonnegative")

    @property
    def dim(self) -> int:
        return self.center.size

    def contains(self, points, tol: float | None = None) -> bool:
        """True when every point lies within ``radius + tol`` of the center."""
        arr = np.atleast_2d(np.asarray(points, dtype=float))
        if arr.shape[1] != self.dim:
            raise ValueError(f"dimension mismatch: ball is {self.dim}-d, points are {arr.shape[1]}-d")
        if tol is None:
            tol = geom_tol(arr, self.radius)
        return bool(np.all(np.linalg.norm(arr - self.center, axis=1) <= self.radius + tol))


@dataclass(frozen=True)
class BallBody:
    """Symmetric convex body: a Euclidean ball of fixed radius, any dimension."""

    radius: float

    def __post_init__(self):
        object.__setattr__(self, "radius", float(self.radius))
        if not self.radius > 0.0:
            raise ValueError("body radius must be positive")


@dataclass(frozen=True)
class BoxBody:
    """Symmetric convex body: an axis-aligned box given by per-axis half extents."""

    half_extents: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "half_extents", as_point(self.half_extents))
        if not np.all(self.half_extents > 0.0):
            raise ValueError("box half extents must be positive")

    @property
    def dim(self) -> int:
        return self.half_extents.size


def barycenter(points) -> np.ndarray:
    """Arithmetic mean of a nonempty point set."""
    return as_points(points).mean(axis=0)


def circumballs(S):
    """Circumballs of a batch of equal-size point subsets.

    ``S`` has shape (b, m, d): b subsets of m <= d+1 points each.  Returns
    ``(centers, radii, ok, coords)`` with shapes (b, d), (b,), (b,) and
    (b, m).  ``coords`` are the affine coordinates of each center in its
    subset: they sum to one and ``coords[k] @ S[k]`` is ``centers[k]``.  A
    subset is affinely independent (``ok``) when the smallest eigenvalue of
    the Gram matrix of its unit-normalised edges p_i - p_0 exceeds
    ``PIVOT_EPS``, a test of the subset's shape that ignores its position and
    scale.  Rows that are not ok carry meaningless centers, radii and coords.

    One point is its own ball and two points use the exact midpoint; larger
    subsets solve the equal-distance system in the unit-edge frame and take
    the largest distance from the center to a subset point as the radius.
    """
    S = np.asarray(S, dtype=float)
    b, m, d = S.shape
    if m == 1:
        return S[:, 0, :].copy(), np.zeros(b), np.ones(b, dtype=bool), np.ones((b, 1))
    if m == 2:
        centers = (S[:, 0, :] + S[:, 1, :]) / 2.0  # exact midpoint for the diametral pair
        radii = np.linalg.norm(S[:, 0, :] - centers, axis=1)
        # the unit-edge Gram matrix is [[1]], or [[0]] for a repeated point
        return centers, radii, radii > 0.0, np.full((b, 2), 0.5)
    U = S[:, 1:, :] - S[:, :1, :]
    lens = np.sqrt(np.einsum("bid,bid->bi", U, U))
    lens = np.where(lens > 0.0, lens, 1.0)  # zero edges stay zero and fail
    Un = U / lens[..., None]
    Gn = Un @ Un.transpose(0, 2, 1)
    ok = np.linalg.eigvalsh(Gn)[:, 0] > PIVOT_EPS
    if not ok.all():
        Gn[~ok] = np.eye(m - 1)  # keeps the batched solve nonsingular
    # c = p_0 + sum_j y_j u_j/|u_j| is equidistant from p_0 and p_i exactly
    # when (Gn y)_i = |u_i|/2; w = y/|u| weighs the edges themselves
    w = np.linalg.solve(Gn, 0.5 * lens[..., None])[..., 0] / lens
    centers = S[:, 0, :] + np.einsum("bi,bid->bd", w, U)
    R = S - centers[:, None, :]
    radii = np.sqrt(np.einsum("bmd,bmd->bm", R, R).max(axis=1))
    coords = np.concatenate([1.0 - w.sum(axis=1, keepdims=True), w], axis=1)
    return centers, radii, ok, coords


def _subset_blocks(n: int, size: int):
    """Yield the size-subsets of range(n), in order, as index arrays of at most ``SUBSET_BATCH`` rows."""
    flat = itertools.chain.from_iterable(itertools.combinations(range(n), size))
    while (block := np.fromiter(itertools.islice(flat, SUBSET_BATCH * size), dtype=np.intp)).size:
        yield block.reshape(-1, size)


def subset_circumballs_work(n: int, d: int) -> int:
    """``subset_circumballs``' work estimate: sum_{s <= d+1} C(n, s) n d (d+1), a ball and row a subset."""
    return sum(math.comb(n, s) for s in range(1, min(n, d + 1) + 1)) * n * d * (d + 1)


def subset_circumballs(P):
    """Yield (centers, radii, dist) of the circumballs of every affinely
    independent subset of P of size 1..d+1, in size-then-lexicographic
    order, at most ``SUBSET_BATCH`` subsets per batch, with the (b, n) table
    ``dist`` from each center to every point of P.

    Dependent subsets are skipped; their limiting balls come from smaller
    subsets, so the family stays complete for enclosing-ball searches.
    """
    n, d = P.shape
    for size in range(1, min(n, d + 1) + 1):
        for block in _subset_blocks(n, size):
            centers, radii, ok, _ = circumballs(P[block])
            diff = P[None, :, :] - centers[ok, None, :]
            diff *= diff  # squared in place: one (batch, n, d) array, same sums as a norm
            dist = np.sqrt(diff.sum(axis=2))
            del diff  # freed before the next batch is built, which lowers peak memory
            yield centers[ok], radii[ok], dist


def circumball(points) -> Ball:
    """Unique ball through <= d+1 affinely independent points.

    The center lies in the affine hull of the inputs and every input lies on
    the boundary.  Computed by ``circumballs``; a subset that fails its
    independence test raises ``DegenerateInputError`` naming the whole subset.
    """
    P = as_points(points)
    m, d = P.shape
    if m > d + 1:
        raise DegenerateInputError(
            range(m), f"{m} points in {d} dimensions cannot be affinely independent"
        )
    centers, radii, ok, _ = circumballs(P[None])
    if not ok[0]:
        raise DegenerateInputError(range(m))
    return Ball(centers[0], radii[0])


def small_meb_radii(S) -> np.ndarray:
    """Minimum enclosing radius of each row of a (b, m, d) batch of point sets.

    Rows of at most ``SMALL_MEB_MAX`` points are solved together, each in its
    bounding-box frame: a row's radius is the smallest, over the row's
    affinely independent subsets of size 1..min(m, d+1) (``circumballs``),
    of the largest distance from the subset's circumcenter to the row's
    points.  That is the enclosing radius exactly: the optimal center is the
    circumcenter of its support, and every other center lies farther from
    some point, so no feasibility test is needed.  The rows go through
    ``circumballs`` in blocks of at most ``SUBSET_BATCH`` subsets.  Larger
    rows, whose 2**m subsets are too many, are solved one by one by
    ``exact_meb``.
    """
    S = np.asarray(S, dtype=float)
    b, m, d = S.shape
    if m > SMALL_MEB_MAX:
        from .meb import exact_meb  # deferred import: solvers build on this module

        return np.array([exact_meb(row).ball.radius for row in S])
    F = S - ((S.max(axis=1) + S.min(axis=1)) / 2.0)[:, None, :]
    subsets = [np.array(list(itertools.combinations(range(m), size)))
               for size in range(1, min(m, d + 1) + 1)]
    rows = max(1, SUBSET_BATCH // sum(map(len, subsets)))
    far2 = np.full(b, np.inf)
    for lo in range(0, b, rows):
        block = F[lo:lo + rows]
        for combos in subsets:
            count, size = combos.shape
            centers, _, ok, _ = circumballs(block[:, combos].reshape(-1, size, d))
            R = block[:, None, :, :] - centers.reshape(-1, count, 1, d)
            far = np.einsum("bcmd,bcmd->bcm", R, R).max(axis=2)
            far[~ok.reshape(-1, count)] = np.inf
            np.minimum(far2[lo:lo + rows], far.min(axis=1), out=far2[lo:lo + rows])
    return np.sqrt(far2)


def fits_in_translates(body, S) -> np.ndarray:
    """For each row of a (b, m, d) batch of point sets, whether some translate
    of the body contains every point of the row.

    For a ball body the check is whether the row's ``small_meb_radii`` is
    at most the body radius; for a box body it is a per-axis extent
    comparison.  Each row allows ``TOL_BASE`` times the larger of its longest
    bounding-box side and the body size: the ``geom_tol`` of the row alone.
    """
    S = np.asarray(S, dtype=float)
    if S.ndim != 3 or S.shape[1] < 1 or S.shape[2] < 1:
        raise ValueError(f"expected a (b, m, d) batch of point sets with m, d >= 1, got shape {S.shape}")
    if not np.all(np.isfinite(S)):
        raise ValueError("point coordinates must be finite")
    span = S.max(axis=1) - S.min(axis=1)
    side = span.max(axis=1)
    if isinstance(body, BoxBody):
        if body.dim != S.shape[2]:
            raise ValueError(
                f"dimension mismatch: box is {body.dim}-d, points are {S.shape[2]}-d"
            )
        tol = TOL_BASE * np.maximum(side, body.half_extents.max())
        return np.all(span / 2.0 <= body.half_extents + tol[:, None], axis=1)
    if isinstance(body, BallBody):
        tol = TOL_BASE * np.maximum(side, body.radius)
        return small_meb_radii(S) <= body.radius + tol
    raise TypeError(f"unsupported body type: {type(body).__name__}")


def fits_in_translate(body, W) -> bool:
    """True when some translate of the body contains every point of ``W``:
    the one-row case of ``fits_in_translates``."""
    return bool(fits_in_translates(body, as_points(W)[None])[0])
