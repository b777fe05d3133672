"""Sampled clusterability testers and exact promise-instance labeling.

The testers answer "does every point fit one translate of a body" and "do the
points fit k translates" by sampling tiny witnesses instead of scanning the
whole set.  Coverable inputs are never rejected; far-from-coverable inputs are
rejected with probability at least 1 - delta.  Rejections always carry a
re-checkable witness sample.

Round r draws its sample from its own stream (seed, tag, r), but rounds are
tested in chunks of 1, 2, 4, ... up to ``_CHUNK_MAX`` rounds: one call of the
batched kernel ``geometry.fits_in_translates`` checks every sample of a chunk,
and the first refused sample of the first chunk that has one is the witness.
The growing chunks keep an early rejection as cheap as a round-by-round loop,
and the verdict, ``rounds_used`` and witness are the ones that loop gives.
The k-translate tester checks the pairs of each sample of a chunk in the same
way: k+1 points split into at most k groups that fit iff some pair of them
fits (see ``k_g_tester``).

``promise_label`` and ``scattered_points`` are the exact desk-scale deciders
used to classify promise instances (clusterable vs pairwise-scattered).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import GuardError
from .geometry import as_points, fits_in_translate, fits_in_translates, geom_tol, small_meb_radii
from .seeding import derive_rng

ACCEPT = "accept"
REJECT = "reject"

_SCATTER_EXACT_LIMIT = 60   # branch-and-bound ceiling for the public decider
_PROMISE_GUARD = 200        # exact clustering guard for k1 >= 2
_SCATTER_GUARD = 1_000      # most points promise_label builds the n x n x d gap array for
_ROUND_BUDGET = 1_000_000   # most sampling rounds a tester runs before refusing the input
_CHUNK_MAX = 256            # most rounds a tester checks in one batch


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


def _check_unit(value, name):
    if not 0.0 < value <= 1.0:
        raise ValueError(f"{name} must lie in (0, 1], got {value}")


def _rounds(rate: float, delta: float) -> int:
    """ceil((1/rate) * ln(1/delta)) sampling rounds; delta = 1 gives zero
    rounds (vacuous accept).  Raises ``GuardError`` when the count exceeds
    ``_ROUND_BUDGET``, before any round runs."""
    if delta == 1.0:
        return 0
    need = (1.0 / rate) * math.log(1.0 / delta) if rate > 0.0 else math.inf
    if need > _ROUND_BUDGET:
        raise GuardError(
            f"{need:.3g} sampling rounds exceed the budget of {_ROUND_BUDGET}; "
            "raise eps, c or delta"
        )
    return math.ceil(need)


def _sampled_test(P, size: int, rounds: int, tag: str, seed: int, fits) -> TestVerdict:
    """Up to ``rounds`` rounds, each drawing ``size`` distinct points from the
    stream (seed, tag, round).  ``fits`` maps a (b, size, d) batch of samples
    to a bool per sample; it sees chunks of 1, 2, 4, ... rounds, at most
    ``_CHUNK_MAX``, and the first sample it refuses is the witness."""
    start, chunk = 0, 1
    while start < rounds:
        stop = min(start + chunk, rounds)
        idx = np.array([np.sort(derive_rng(seed, tag, rnd).choice(len(P), size, replace=False))
                        for rnd in range(start, stop)])
        refused = np.flatnonzero(~fits(P[idx]))
        if refused.size:
            j = int(refused[0])
            return TestVerdict(REJECT, P[idx[j]], idx[j], start + j + 1, seed)
        start, chunk = stop, min(2 * chunk, _CHUNK_MAX)
    return TestVerdict(ACCEPT, None, None, rounds, seed)


def one_s_tester(P, body, eps: float, delta: float, seed: int = 0) -> TestVerdict:
    """Sampled test of "all points fit one translate of the body".

    Runs ceil(eps**-(d+1) * ln(1/delta)) rounds; each round draws d+1
    distinct points and rejects with that sample as witness if no translate
    contains it.  Inputs that fit a translate are always accepted.  When the
    input has fewer than d+1 points the check is run directly on the whole
    set, deterministically.  More than ``_ROUND_BUDGET`` rounds raise
    ``GuardError`` before the first one.
    """
    P = as_points(P)
    n, d = P.shape
    _check_unit(eps, "eps")
    _check_unit(delta, "delta")
    if n < d + 1:
        ok = fits_in_translate(body, P)
        if ok:
            return TestVerdict(ACCEPT, None, None, 0, seed)
        return TestVerdict(REJECT, P.copy(), np.arange(n), 0, seed)
    rounds = _rounds(eps ** (d + 1), delta)
    return _sampled_test(P, d + 1, rounds, "one-s-round", seed, partial(fits_in_translates, body))


def _partition(order, k: int, fits) -> bool:
    """Exhaustive search for a split of the items into <= k groups.

    Items are placed in ``order``; each one tries every existing group that
    ``fits(members, item)`` accepts, then a new group while fewer than k are
    open.
    """
    groups: list[list[int]] = []

    def place(i: int) -> bool:
        if i == len(order):
            return True
        item = order[i]
        for members in groups:
            if fits(members, item):
                members.append(item)
                if place(i + 1):
                    return True
                members.pop()
        if len(groups) < k:
            groups.append([item])
            if place(i + 1):
                return True
            groups.pop()
        return False

    return place(0)


def k_g_tester(P, body, k: int, c: float = 0.01, delta: float = 0.1, seed: int = 0) -> TestVerdict:
    """Sampled test of "the points fit k translates of the body".

    Runs ceil((1/c) * ln(1/delta)) rounds; each round draws k+1 distinct
    points and rejects if they do not split into at most k groups that each
    fit a translate of the body.  That holds iff some pair of them fits: a
    split into k groups puts two of the k+1 points in one group, and a
    subset of a fitting group fits; conversely a fitting pair and k-1
    singletons are such a split.  So a rejected sample is k+1 pairwise-far
    points.  The witness-density constant ``c`` depends on the body shape
    and is supplied by the caller.  More than ``_ROUND_BUDGET`` rounds raise
    ``GuardError`` before the first one.
    """
    P = as_points(P)
    n, d = P.shape
    if k < 1:
        raise ValueError("k must be at least 1")
    if k > 8:
        raise GuardError(f"the k-translate tester is guarded to k <= 8, got k = {k}")
    if n < k + 1:
        raise ValueError(f"need at least k+1 = {k + 1} points, got {n}")
    _check_unit(c, "c")
    _check_unit(delta, "delta")
    rounds = _rounds(c, delta)
    pairs = np.column_stack(np.triu_indices(k + 1, 1))

    def fits(samples) -> np.ndarray:
        pair_fits = fits_in_translates(body, samples[:, pairs].reshape(-1, 2, d))
        return pair_fits.reshape(len(samples), -1).any(axis=1)

    return _sampled_test(P, k + 1, rounds, "k-g-round", seed, fits)


def _farthest_first(P):
    """Farthest-first traversal (Gonzalez): yields (index, distance to the
    points before it) from P[0], ties to the lowest index.  Visited points are
    marked -inf, so each point comes once and repeated points come last."""
    dist = np.full(len(P), np.inf)
    i, gap = 0, math.inf
    for _ in range(len(P)):
        yield i, gap
        np.minimum(dist, np.linalg.norm(P - P[i], axis=1), out=dist)
        dist[i] = -np.inf
        i = int(np.argmax(dist))
        gap = float(dist[i])


def _scattered(ok, target: int | None = None) -> list[int]:
    """Largest subset of mutually compatible items (branch and bound).

    With a target, the search stops at the first subset of that size and
    prunes branches that cannot reach it, so a shorter result means that no
    such subset exists.
    """
    floor = 0 if target is None else target - 1
    best: list[int] = []

    def grow(candidates: list[int], chosen: list[int]) -> bool:
        nonlocal best
        if len(chosen) > len(best):
            best = list(chosen)
        if target is not None and len(best) >= target:
            return True
        for pos, v in enumerate(candidates):
            if len(chosen) + len(candidates) - pos <= max(len(best), floor):
                return False
            chosen.append(v)
            if grow([u for u in candidates[pos + 1:] if ok[v, u]], chosen):
                return True
            chosen.pop()
        return False

    grow(list(range(ok.shape[0])), [])
    return best


def _compat_matrix(P, delta: float) -> np.ndarray:
    gap = np.linalg.norm(P[:, None, :] - P[None, :, :], axis=2)
    ok = gap >= delta - geom_tol(P, delta)
    np.fill_diagonal(ok, False)
    return ok


def scattered_points(P, delta: float) -> ScatteredSet:
    """Largest subset with pairwise distances at least delta.

    Exact by branch and bound for n <= 60; beyond that, a greedy
    farthest-first pass gives a lower bound flagged with ``exact=False``.
    """
    P = as_points(P)
    n = len(P)
    if not 0.0 < delta < math.inf:
        raise ValueError(f"delta must be positive and finite, got {delta}")
    if n <= _SCATTER_EXACT_LIMIT:
        chosen = _scattered(_compat_matrix(P, delta))
        return ScatteredSet(len(chosen), sorted(chosen), True)
    tol = geom_tol(P, delta)
    chosen = []
    for i, gap in _farthest_first(P):
        if gap < delta - tol:
            break
        chosen.append(i)
    return ScatteredSet(len(chosen), sorted(chosen), False)


def _label(yes: bool, no: bool) -> str:
    if yes and no:
        return "BOTH"
    if yes:
        return "YES"
    if no:
        return "NO"
    return "VIOLATES"


def promise_label(P, k1: int, eps: float, k2: int, delta: float) -> PromiseLabel:
    """Exact classification of a promise instance.

    ``yes_holds``: the points split into k1 groups of enclosing radius <= eps
    (decided by the exact enclosing ball for k1 = 1, by exhaustive clustering
    with branch-and-bound pruning for k1 >= 2, guarded to n <= 200).
    ``no_holds``: at least k2 points are pairwise at least delta apart
    (decided exactly with an early-exit subset search over the n x n table
    of pairwise gaps, guarded to n <= 1000 when 2 <= k2 <= n).  The label
    is BOTH when both sides hold and VIOLATES when neither does.
    """
    P = as_points(P)
    n = len(P)
    if k1 < 1 or k2 < 1:
        raise ValueError("k1 and k2 must be at least 1")
    if not (0.0 < eps < math.inf and 0.0 < delta < math.inf):
        raise ValueError(f"eps and delta must be positive and finite, got {eps} and {delta}")
    if k1 >= 2 and n > _PROMISE_GUARD:
        raise GuardError(f"exact {k1}-clustering is guarded to n <= {_PROMISE_GUARD}, got n = {n}")
    if 2 <= k2 <= n and n > _SCATTER_GUARD:
        raise GuardError(f"the exact scattered-set check is guarded to n <= {_SCATTER_GUARD}, got n = {n}")
    tol = geom_tol(P, eps)
    if k1 == 1:
        yes = bool(small_meb_radii(P[None])[0] <= eps + tol)
    elif k1 >= n:
        yes = True  # singletons always fit
    else:

        def fits(members: list[int], i: int) -> bool:
            if np.linalg.norm(P[members] - P[i], axis=1).max() > 2.0 * eps + tol:
                return False  # two members further than a diameter apart
            return small_meb_radii(P[members + [i]][None])[0] <= eps + tol

        # a spread-out prefix makes the pruning bite early
        yes = _partition([i for i, _ in _farthest_first(P)], k1, fits)
    if k2 > n:
        no = False
    elif k2 == 1:
        no = True  # a single point is vacuously scattered
    else:
        no = len(_scattered(_compat_matrix(P, delta), k2)) >= k2
    return PromiseLabel(yes, no, _label(yes, no))
