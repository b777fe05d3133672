"""Sampled clusterability testers and exact promise-instance labeling.

The testers answer "does every point fit one translate of a body" and "do the
points fit k translates" by sampling tiny witnesses instead of scanning the
whole set.  Coverable inputs are never rejected; far-from-coverable inputs are
rejected with probability at least 1 - delta.  Rejections always carry a
re-checkable witness sample.

A trial draws every round's sample from one stream (seed, tag), round r
from its r-th block of draws, and tests the rounds in chunks of 1, 2, 4, ...
rounds, at most ``geometry.BLOCK`` values a chunk: one call of the batched
kernel ``geometry.fits_in_translates`` checks a chunk's samples, and the
first refused sample of the first chunk that has one is the witness.  The
growing chunks keep an early rejection as cheap as a round-by-round loop,
and the verdict, ``rounds_used`` and witness are the ones that loop gives.
The k-translate tester checks the pairs of each sample in the same call:
k+1 points split into at most k groups that fit iff some pair of them fits
(see ``k_g_tester``).  Both testers price their rounds up front.

``promise_label`` and ``scattered_points`` decide promise instances exactly:
clusterable over the balls of ``geometry.subset_circumballs``, and scattered
by one bitset search for mutually far points (``_far_set``).  Both exact
searches keep their sets as bitsets and charge STEP_OPS / 40 a node on one
meter a call (``errors.meter``), which refuses through ``check_work``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import geometry
from .errors import STEP_OPS, check_work, meter
from .geometry import (SMALL_MEB_MAX, BoxBody, as_points, bbox_frame, distances, fits_in_translates,
                       geom_tol, small_meb_radii, subset_circumballs, subset_circumballs_work)
from .seeding import derive_rng

ACCEPT = "accept"
REJECT = "reject"

_SCATTER_EXACT_LIMIT = 60   # branch-and-bound ceiling for the public decider
_LABELS = {(True, True): "BOTH", (True, False): "YES", (False, True): "NO", (False, False): "VIOLATES"}


@dataclass(frozen=True)
class TestVerdict:
    outcome: str
    witness: np.ndarray | None       # sampled points that failed containment
    witness_indices: np.ndarray | None
    rounds_used: int
    seed: int

    @property
    def accepted(self) -> bool:
        return self.outcome == ACCEPT


@dataclass(frozen=True)
class PromiseLabel:
    yes_holds: bool
    no_holds: bool
    label: str  # YES | NO | BOTH | VIOLATES


@dataclass(frozen=True)
class ScatteredSet:
    count: int
    indices: np.ndarray
    exact: bool  # False when the greedy lower bound was used

    def __post_init__(self):
        object.__setattr__(self, "indices", np.asarray(self.indices, dtype=int))


def _check_unit(**values):
    for name, value in values.items():
        if not 0.0 < value <= 1.0:
            raise ValueError(f"{name} must lie in (0, 1], got {value}")


def _rounds(rate: float, delta: float):
    """ceil((1/rate) * ln(1/delta)) sampling rounds (inf past float range);
    delta = 1 gives zero rounds (vacuous accept)."""
    if delta == 1.0:
        return 0
    need = (1.0 / rate) * math.log(1.0 / delta) if rate > 0.0 else math.inf
    return math.ceil(need) if need < math.inf else need


def one_s_work(body, d: int, eps: float, delta: float):
    """``one_s_tester``'s work estimate for ``body``: max(rounds, 1) (STEP_OPS
    + a round's check).  A box checks a round's d+1 points by one extent
    comparison, (d+1) d.  A ball checks them by 2^(d+1) (d+1)^2 d for
    ``small_meb_radii``'s subsets when d+1 <= SMALL_MEB_MAX, and otherwise by
    one ``exact_meb`` walk, (5 + 3 (d+1) / 4) STEP_OPS: a call, and up to
    (d+1) / 4 solves.  Validates eps and delta."""
    _check_unit(eps=eps, delta=delta)
    if isinstance(body, BoxBody):
        round_ops = (d + 1) * d
    elif d + 1 <= SMALL_MEB_MAX:
        round_ops = 2 ** (d + 1) * (d + 1) ** 2 * d
    else:
        round_ops = (20 + 3 * (d + 1)) * STEP_OPS // 4
    return max(_rounds(eps ** (d + 1), delta), 1) * (STEP_OPS + round_ops)


def k_g_work(d: int, k: int, c: float, delta: float):
    """``k_g_tester``'s work estimate: max(rounds, 1) (STEP_OPS + 40 d C(k+1, 2)),
    for the batched kernel's check of a round's pairs.  Validates c and delta."""
    _check_unit(c=c, delta=delta)
    return max(_rounds(c, delta), 1) * (STEP_OPS + 40 * d * math.comb(k + 1, 2))


def _sampled_test(P, size: int, rounds: int, tag: str, seed: int, fits, width: int) -> TestVerdict:
    """Up to ``rounds`` rounds, each drawing ``size`` distinct points.  One
    stream (seed, tag) serves the trial: round r reads its r-th block of
    ``size`` draws, uniform on [0, n - size + 1), ..., [0, n), and keeps them
    by Floyd's algorithm (a draw already taken becomes its bound - 1).
    ``fits`` maps a (b, size, d) batch of samples to a bool per sample; it
    sees chunks of 1, 2, 4, ... rounds, at most max(1, BLOCK // width) for
    the ``width`` values a round gathers, and the first sample it refuses is
    the witness."""
    rng = derive_rng(seed, tag)
    bounds = np.arange(len(P) - size + 1, len(P) + 1)
    start, chunk, most = 0, 1, max(1, geometry.BLOCK // width)
    while start < rounds:
        stop = min(start + chunk, rounds)
        idx = rng.integers(0, bounds, size=(stop - start, size))
        for j in range(1, size):  # one column of every round at a time
            idx[(idx[:, :j] == idx[:, j:j + 1]).any(axis=1), j] = bounds[j] - 1
        idx.sort(axis=1)
        refused = np.flatnonzero(~fits(P[idx]))
        if refused.size:
            j = int(refused[0])
            return TestVerdict(REJECT, P[idx[j]], idx[j], start + j + 1, seed)
        start, chunk = stop, min(2 * chunk, most)
    return TestVerdict(ACCEPT, None, None, rounds, seed)


def one_s_tester(P, body, eps: float, delta: float, seed: int = 0) -> TestVerdict:
    """Sampled test of "all points fit one translate of the body".

    Runs ceil(eps**-(d+1) * ln(1/delta)) rounds; each round draws d+1
    distinct points and rejects with that sample as witness if no translate
    contains it.  Inputs that fit a translate are always accepted.  When the
    input has fewer than d+1 points the check is run directly on the whole
    set, deterministically.  Work estimate (``check_work``): ``one_s_work``.
    """
    P = as_points(P)
    n, d = P.shape
    ops = one_s_work(body, d, eps, delta)  # validates eps and delta, whatever n is
    if n < d + 1:
        if fits_in_translates(body, P[None])[0]:
            return TestVerdict(ACCEPT, None, None, 0, seed)
        return TestVerdict(REJECT, P.copy(), np.arange(n), 0, seed)
    rounds = _rounds(eps ** (d + 1), delta)
    check_work(ops, f"one_s_tester's {rounds:.3g} sampling rounds", "raise eps or delta")
    return _sampled_test(P, d + 1, rounds, "one-s-round", seed, partial(fits_in_translates, body), (d + 1) * d)


def k_g_tester(P, body, k: int, c: float = 0.01, delta: float = 0.1, seed: int = 0) -> TestVerdict:
    """Sampled test of "the points fit k translates of the body".

    Runs ceil((1/c) * ln(1/delta)) rounds; each round draws k+1 distinct
    points and rejects if they do not split into at most k groups that each
    fit a translate of the body.  That holds iff some pair of them fits: a
    split into k groups puts two of the k+1 points in one group, and a
    subset of a fitting group fits; conversely a fitting pair and k-1
    singletons are such a split.  So a rejected sample is k+1 pairwise-far
    points.  The witness-density constant ``c`` depends on the body shape
    and is supplied by the caller.  Work estimate (``check_work``):
    ``k_g_work``.
    """
    P = as_points(P)
    n, d = P.shape
    if k < 1:
        raise ValueError("k must be at least 1")
    if n < k + 1:
        raise ValueError(f"need at least k+1 = {k + 1} points, got {n}")
    ops = k_g_work(d, k, c, delta)
    rounds = _rounds(c, delta)
    check_work(ops, f"k_g_tester's {rounds:.3g} sampling rounds", "raise c or delta")
    pairs = np.column_stack(np.triu_indices(k + 1, 1))

    def fits(samples) -> np.ndarray:
        return fits_in_translates(body, samples[:, pairs].reshape(-1, 2, d)).reshape(len(samples), -1).any(axis=1)

    return _sampled_test(P, k + 1, rounds, "k-g-round", seed, fits, len(pairs) * 2 * d)


def _farthest_first(P):
    """Farthest-first traversal (Gonzalez): yields (index, distance to the
    points before it) from P[0], ties to the lowest index.  Visited points are
    marked -inf, so each point comes once and repeated points come last."""
    C, dist = np.ascontiguousarray(P.T), np.full(len(P), np.inf)
    i, gap = 0, math.inf
    for _ in range(len(P)):
        yield i, gap
        np.minimum(dist, distances(C, C[:, i]), out=dist)
        dist[i] = -np.inf
        i = int(np.argmax(dist))
        gap = float(dist[i])


def _far_rows(P, delta: float) -> list[int]:
    """Per point, the bitset of the points at least delta - geom_tol(P, delta)
    away from it, one ``distances`` pair block and one ``np.packbits`` per
    max(1, BLOCK // n) rows.  Work estimate (``check_work``): n^2 d."""
    n, d = P.shape
    check_work(n * n * d, f"the far rows of {n} points", "use fewer points")
    cut, step, rows = delta - geom_tol(P, delta), max(1, geometry.BLOCK // n), []
    C = np.ascontiguousarray(P.T)
    for lo in range(0, n, step):
        far = np.packbits(distances(C, C[:, lo:lo + step].T) >= cut, axis=1, bitorder="little")
        rows += [int.from_bytes(row.tobytes(), "little") for row in far]
    return rows


def _far_set(far: list[int], need: int, charge) -> list[int] | None:
    """The first ``need`` mutually far points in depth-first index order, or
    None: a branch stops once its candidates are fewer than it still needs.
    Each point chosen is a node, charged STEP_OPS / 40 on the caller's meter
    ``charge`` (``errors.meter``): no usable bound on the nodes is known up front."""
    what = f"the search for {need} mutually far points of {len(far)}"
    stack, chosen, left = [(1 << len(far)) - 1], [], need  # the untried candidates of each depth, deepest last
    while left:
        cand = stack.pop()
        if cand.bit_count() < left:
            if not chosen:
                return None
            chosen.pop()
            left += 1
            continue
        charge(STEP_OPS // 40, what, "raise delta or use fewer points")
        low = cand & -cand
        cand ^= low
        chosen.append(low.bit_length() - 1)
        stack += (cand, cand & far[chosen[-1]])
        left -= 1
    return chosen


def scattered_points(P, delta: float) -> ScatteredSet:
    """Largest subset with pairwise distances at least delta.

    Exact for n <= 60: ``_far_set`` is asked for 1, 2, ... points until it
    finds none, and the last set found is returned (``_far_rows`` states the
    work, and the searches share one meter).  Beyond that, a greedy
    farthest-first pass gives a lower bound flagged with ``exact=False``.
    """
    P = as_points(P)
    n = len(P)
    if not 0.0 < delta < math.inf:
        raise ValueError(f"delta must be positive and finite, got {delta}")
    if n <= _SCATTER_EXACT_LIMIT:
        far, charge, chosen = _far_rows(P, delta), meter(), []
        while (found := _far_set(far, len(chosen) + 1, charge)) is not None:
            chosen = found
        return ScatteredSet(len(chosen), chosen, True)
    tol = geom_tol(P, delta)
    chosen = []
    for i, gap in _farthest_first(P):
        if gap < delta - tol:
            break
        chosen.append(i)
    return ScatteredSet(len(chosen), sorted(chosen), False)


def _coverable(P, k1: int, eps: float, tol: float, charge) -> bool:
    """Whether the n > k1 points of P split into k1 groups of enclosing radius <= eps + tol.

    A group fits iff it lies within eps + tol of its enclosing ball's center,
    the circumcenter of at most d+1 of its points.  So the covers are the
    points within eps + tol of each ``subset_circumballs`` center of radius
    <= eps + tol, kept as bitsets when no other contains them, and a search
    branches over the kept covers of the first point not yet covered, to
    depth k1.  Work estimates (``check_work``), each before its phase:
    ``subset_circumballs_work``; 8 u (c_u + n) for u distinct covers, up to
    c_u on a point.  Each state it pops is a node, charged STEP_OPS / 40 on
    ``charge`` (``errors.meter``).
    """
    n, d = P.shape
    what = f"exact {k1}-clustering of {n} points"
    check_work(subset_circumballs_work(n, d), what, "use fewer points")
    C = np.ascontiguousarray(P.T)
    near = (distances(C, centers[radii <= eps + tol]) <= eps + tol for centers, radii in subset_circumballs(P))
    packed = np.unique(np.vstack([np.packbits(r, axis=1, bitorder="little") for r in near]), axis=0)
    members = np.unpackbits(packed, axis=1, count=n, bitorder="little")
    check_work(8 * len(packed) * (int(members.sum(axis=0).max()) + n), what, "lower eps or use fewer points")
    by_point: list[list[int]] = [[] for _ in range(n)]
    for i in np.argsort(-members.sum(axis=1), kind="stable"):  # largest first: supersets come earlier
        cover = int.from_bytes(packed[i].tobytes(), "little")
        if all(cover | other != other for other in by_point[(cover & -cover).bit_length() - 1]):
            for point in np.flatnonzero(members[i]):
                by_point[point].append(cover)
    stack = [((1 << n) - 1, k1)]  # (points not yet covered, covers left)
    while stack:
        free, left = stack.pop()
        charge(STEP_OPS // 40, what, "lower k1 or use fewer points")
        if not free:
            return True
        if left:
            first = by_point[(free & -free).bit_length() - 1]
            stack.extend((free & ~cover, left - 1) for cover in reversed(first))
    return False


def promise_label(P, k1: int, eps: float, k2: int, delta: float) -> PromiseLabel:
    """Exact classification of a promise instance.

    ``yes_holds``: the points split into k1 groups of enclosing radius <= eps
    (decided by the exact enclosing ball for k1 = 1, and for k1 >= 2 by the
    search of ``_coverable`` over ``subset_circumballs``, in ``bbox_frame``).
    ``no_holds``: at least k2 points are pairwise at least delta apart
    (decided for 2 <= k2 <= n by ``_far_set`` over the ``_far_rows``, which
    are priced at n^2 d before either side runs; both searches count their
    nodes on one meter).  BOTH: both sides hold; VIOLATES: neither does.
    """
    P = as_points(P)
    n = len(P)
    if k1 < 1 or k2 < 1:
        raise ValueError("k1 and k2 must be at least 1")
    if not (0.0 < eps < math.inf and 0.0 < delta < math.inf):
        raise ValueError(f"eps and delta must be positive and finite, got {eps} and {delta}")
    far, charge = _far_rows(P, delta) if 2 <= k2 <= n else None, meter()
    tol = geom_tol(P, eps)
    if k1 == 1:
        yes = bool(small_meb_radii(P[None])[0] <= eps + tol)
    else:  # singletons always fit when k1 >= n
        yes = k1 >= n or _coverable(bbox_frame(P)[0], k1, eps, tol, charge)
    # a single point is vacuously scattered, and more than n points are not
    no = k2 == 1 if far is None else _far_set(far, k2, charge) is not None
    return PromiseLabel(yes, no, _LABELS[yes, no])
