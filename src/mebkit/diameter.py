"""Diameter of a point set: exact, heuristic, and streaming estimates.

Exact routes are the quadratic pair scan and, in the plane, rotating
calipers over the convex hull (the hull has the same diameter as the set,
so only antipodal hull pairs need checking).  ``diameter_doublesweep`` is a
fast certified lower bound.  The streaming sketches hold at most one
block of the stream: each takes a block of points in one array pass
(``extend``), and ``update`` is its one-point case, so a sketch fed point
by point and one fed in blocks of any size agree exactly; ``_feed`` and
the pair scan size their blocks from ``geometry.BLOCK``.  The anchored
sketch guarantees E <= diam <= 2E, and the directional-grid sketch
guarantees E <= diam <= (1+eps)E with the grid resolution chosen from
eps.  Exact diameter computation in the plane costs at least n log n in
the algebraic decision model, which is why the sketches exist.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice

import numpy as np

from . import geometry
from .errors import GuardError, check_work
from .geometry import as_point, as_points, distances, geom_tol
from .seeding import derive_rng

MAX_DIRECTIONS = 4096  # most grid directions direction_count admits: more are refused
_SWEEP_RESTARTS = 3  # seeded starts of diameter_doublesweep


@dataclass(frozen=True)
class DiameterResult:
    value: float
    pair: tuple[int, int] | None
    exact: bool
    pairs_at_max: int


def diameter_bruteforce(P) -> DiameterResult:
    """Largest pairwise distance by scanning all pairs.

    Reports the lowest lexicographic achieving pair and the number of pairs
    within tolerance of the maximum (in the plane that count never exceeds n,
    the classical bound on how often a maximum distance can repeat).  The
    pairs are scanned in blocks of consecutive rows, each row against every
    later point (``distances`` of the pair form, with j <= i read as -inf), with
    max(1, BLOCK // n) rows of n values per block, so memory stays within a
    block.  Each block counts its pairs near the maximum so far; a block that
    a later one outgrew is scanned again only when its own maximum is near
    the final one.  Work estimate (``check_work``): n (n - 1) / 2 * d.
    """
    P = as_points(P)
    n, d = P.shape
    if n < 2:
        raise ValueError("need at least two points")
    check_work(n * (n - 1) // 2 * d, f"the pair scan of {n} points", "use diameter_doublesweep")
    tol = geom_tol(P)
    rows = max(1, geometry.BLOCK // n)
    blocks = [(lo, min(lo + rows, n - 1)) for lo in range(0, n - 1, rows)]
    C = np.ascontiguousarray(P.T)  # one coordinate per row: each coordinate pass reads memory in order

    def later_pairs(lo, hi):
        D = distances(C[:, lo + 1:], C[:, lo:hi].T)
        D[np.tril_indices(hi - lo, -1, n - lo - 1)] = -np.inf
        return D

    value, pair, scanned = -1.0, (0, 1), []
    for lo, hi in blocks:
        D = later_pairs(lo, hi)
        i, j = divmod(int(np.argmax(D)), D.shape[1])  # row-major: the lowest row, then column
        if D[i, j] > value:
            value, pair = float(D[i, j]), (lo + i, lo + 1 + j)
        scanned.append((D[i, j], value, int(np.count_nonzero(D >= value - tol))))
    at_max = 0
    for (lo, hi), (top, seen, count) in zip(blocks, scanned):
        if seen == value:
            at_max += count
        elif top >= value - tol:
            at_max += int(np.count_nonzero(later_pairs(lo, hi) >= value - tol))
    return DiameterResult(value, pair, True, at_max)


def _hull_chains(P):
    """Upper and lower hull chains (original indices, lexicographic order).

    Strict turns only, so collinear interior points are dropped; they can
    never end a diameter pair.
    """
    order = np.lexsort((P[:, 1], P[:, 0]))

    def cross(o, a, b):
        return (P[a][0] - P[o][0]) * (P[b][1] - P[o][1]) - (P[a][1] - P[o][1]) * (P[b][0] - P[o][0])

    lower: list[int] = []
    for idx in order:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], idx) <= 0.0:
            lower.pop()
        lower.append(int(idx))
    upper: list[int] = []
    for idx in order[::-1]:
        while len(upper) >= 2 and cross(upper[-2], upper[-1], idx) <= 0.0:
            upper.pop()
        upper.append(int(idx))
    # deduplicate shared endpoints; keep both chains in increasing x order
    return upper[::-1], lower


def _antipodal_pairs(P, upper, lower):
    """Candidate diameter pairs from rotating calipers over the two chains."""
    i, j = 0, len(lower) - 1
    while i < len(upper) - 1 or j > 0:
        yield upper[i], lower[j]
        if i == len(upper) - 1:
            j -= 1
        elif j == 0:
            i += 1
        else:
            du = P[upper[i + 1]] - P[upper[i]]
            dl = P[lower[j]] - P[lower[j - 1]]
            if du[1] * dl[0] > dl[1] * du[0]:
                i += 1
            else:
                j -= 1
    yield upper[-1], lower[0]


def diameter_calipers_2d(P) -> DiameterResult:
    """Exact planar diameter via rotating calipers on the convex hull.

    Matches the pair scan on every input; ``pairs_at_max`` counts antipodal
    hull pairs within tolerance of the maximum.
    """
    P = as_points(P)
    n, d = P.shape
    if d != 2:
        raise ValueError(f"rotating calipers needs d = 2, got d = {d}")
    if n < 2:
        raise ValueError("need at least two points")
    tol = geom_tol(P)
    upper, lower = _hull_chains(P)
    if len(set(upper) | set(lower)) == 1:
        return DiameterResult(0.0, (0, 1), True, n * (n - 1) // 2)
    seen = set()
    candidates = []
    for a, b in _antipodal_pairs(P, upper, lower):
        key = (min(a, b), max(a, b))
        if a == b or key in seen:
            continue
        seen.add(key)
        candidates.append((float(np.linalg.norm(P[a] - P[b])), key))
    value = max(gap for gap, _ in candidates)
    at_max = sum(1 for gap, _ in candidates if gap >= value - tol)
    pair = min(key for gap, key in candidates if gap == value)
    return DiameterResult(value, pair, True, at_max)


def diameter_doublesweep(P, seed: int = 0) -> DiameterResult:
    """Iterated farthest-point sweeps: a fast certified lower bound.

    From a seeded start, walk to the farthest point and repeat while the
    reached distance improves; three restarts keep the estimate honest.  The
    reported value is a realized pair distance, so it never exceeds the true
    diameter (``exact=False``).
    """
    P = as_points(P)
    n = len(P)
    if n < 2:
        raise ValueError("need at least two points")
    value = -1.0
    pair = (0, 1)
    C, gaps = np.ascontiguousarray(P.T), np.empty(n)
    for run in range(_SWEEP_RESTARTS):
        current = int(derive_rng(seed, "doublesweep", run).integers(n))
        reached = -1.0
        while True:
            distances(C, C[:, current], gaps)
            far = int(np.argmax(gaps))
            best = float(gaps[far])
            if best > value:
                value = best
                pair = (min(current, far), max(current, far))
            if best <= reached:
                break
            reached = best
            current = far
    return DiameterResult(value, pair, False, 1)


class TwoApproxSketch:
    """One-pass anchored sketch: E <= diam <= 2E by the triangle inequality.

    The anchor is the first streamed point and E is the largest distance
    seen from it.  ``extend`` takes a block of points in one array pass;
    ``update`` is its one-point case.  Anchored sketches from different
    streams cannot be merged.
    """

    def __init__(self):
        self.anchor = None
        self.max_dist = 0.0
        self.count = 0

    def extend(self, block):
        B = as_points(block)
        if self.anchor is None:
            self.anchor, self.width = B[0].copy(), B.shape[1]  # width: a point's values in B - anchor
        elif B.shape[1] != self.anchor.size:
            raise ValueError("stream changed dimension")
        self.max_dist = max(self.max_dist, float(distances(B.T, self.anchor).max()))
        self.count += len(B)

    def update(self, point):
        self.extend(as_point(point)[None, :])

    @property
    def estimate(self) -> float:
        if self.count == 0:
            raise ValueError("empty stream has no diameter estimate")
        return self.max_dist


def direction_count(eps: float) -> int:
    """Smallest m with cos(pi / (2m)) >= 1 / (1 + eps): the closed form
    ceil(pi / (2 acos(1 / (1 + eps)))), moved by one where rounding puts it
    beside that test.  More than ``MAX_DIRECTIONS`` directions (eps below
    about 7.35e-8) raise ``GuardError``, a grid no sketch is built for."""
    if not 0.0 < eps <= 1.0:
        raise ValueError(f"eps must lie in (0, 1], got {eps}")
    target = 1.0 / (1.0 + eps)
    angle = math.acos(target)  # zero where 1 + eps rounds to one
    too_many = angle * (MAX_DIRECTIONS + 1) < math.pi / 2.0  # refused below, without dividing by zero
    m = MAX_DIRECTIONS + 1 if too_many else math.ceil(math.pi / (2.0 * angle))
    if m > 1 and math.cos(math.pi / (2.0 * (m - 1))) >= target:
        m -= 1
    elif math.cos(math.pi / (2.0 * m)) < target:
        m += 1
    if m > MAX_DIRECTIONS:
        raise GuardError(f"eps = {eps} needs more than {MAX_DIRECTIONS} sketch directions; raise eps")
    return m


class DirectionalSketch:
    """Planar extent sketch over a grid of m directions: E <= diam <= (1+eps)E.

    Every direction is within pi/(2m) of a grid direction, so the widest
    projected extent under-reports the diameter by at most the factor
    cos(pi/(2m)) >= 1/(1+eps).  Extremes are projected relative to the
    first streamed point, the sketch's ``origin``, so rounding follows the
    spread of the stream and not its distance from the origin.  Sketches
    with the same grid merge by taking per-direction extremes, the other
    sketch's shifted by its origin's offset projected on the grid.
    """

    def __init__(self, eps: float):
        self.eps = float(eps)
        self.m = direction_count(eps)
        angles = np.arange(self.m) * math.pi / self.m
        self.directions = np.column_stack([np.cos(angles), np.sin(angles)])
        self.lo = np.full(self.m, np.inf)
        self.hi = np.full(self.m, -np.inf)
        self.origin = None
        self.count = 0
        self.width = self.m  # a point's projections in a block's (b, m) table

    def _project(self, R):
        # two explicit products per direction, not a matmul: the same
        # rounding for every block size
        return R[:, :1] * self.directions[:, 0] + R[:, 1:] * self.directions[:, 1]

    def extend(self, block):
        B = as_points(block)
        if B.shape[1] != 2:
            raise ValueError("directional sketch is planar only")
        if self.origin is None:
            self.origin = B[0].copy()
        proj = self._project(B - self.origin)
        np.minimum(self.lo, proj.min(axis=0), out=self.lo)
        np.maximum(self.hi, proj.max(axis=0), out=self.hi)
        self.count += len(B)

    def update(self, point):
        self.extend(as_point(point)[None, :])

    @property
    def estimate(self) -> float:
        if self.count == 0:
            raise ValueError("empty stream has no diameter estimate")
        return float(np.max(self.hi - self.lo))

    def merge(self, other: "DirectionalSketch") -> "DirectionalSketch":
        if not isinstance(other, DirectionalSketch) or other.m != self.m:
            raise TypeError("can only merge directional sketches over the same grid")
        merged = DirectionalSketch(self.eps)
        merged.origin = other.origin if self.origin is None else self.origin
        for sketch in (self, other):
            if sketch.origin is not None:
                shift = self._project((sketch.origin - merged.origin)[None])[0]
                np.minimum(merged.lo, sketch.lo + shift, out=merged.lo)
                np.maximum(merged.hi, sketch.hi + shift, out=merged.hi)
        merged.count = self.count + other.count
        return merged


def _feed(sketch, stream):
    """Feed ``stream`` to ``sketch`` a block at a time: row slices of an
    (n, d) array, chunks of any other iterable.  The first block is one
    point, which fixes the sketch's ``width``, the values one point adds to
    its block temporary; each later block is max(1, BLOCK // width) points.

    ``extend`` changes no state when it refuses a block, so a refused block
    is fed point by point: the error is the one a point-by-point stream
    raises, at the same point.
    """
    array, points, start = isinstance(stream, np.ndarray) and stream.ndim == 2, iter(stream), 0
    while True:
        size = max(1, geometry.BLOCK // sketch.width) if sketch.count else 1
        block = stream[start:start + size] if array else list(islice(points, size))
        start += size
        if not len(block):
            return sketch
        try:
            sketch.extend(block)
        except (TypeError, ValueError):
            for point in block:
                sketch.update(point)


def stream_2approx(stream):
    """Feed a stream of points into an anchored sketch, in blocks.

    Returns (estimate, sketch); the true diameter lies in [estimate, 2 * estimate].
    """
    sketch = _feed(TwoApproxSketch(), stream)
    return sketch.estimate, sketch


def stream_eps_2d(stream, eps: float):
    """Feed a planar stream into a directional sketch, in blocks.

    Returns (estimate, sketch); the true diameter lies in
    [estimate, (1 + eps) * estimate].
    """
    sketch = _feed(DirectionalSketch(eps), stream)
    return sketch.estimate, sketch
