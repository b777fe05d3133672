"""Independent brute-force oracles the fast implementations are tested against.

Everything here favors obviousness over speed: candidate enumeration with
plain linear algebra, order statistics for coverage radii, LP feasibility
plus face enumeration for hull distances, the greedy hull approximation
with one hull-distance solve per candidate, the row-at-a-time diameter
pair scan, the one-point-at-a-time
parsers that the block parsers of ``mebkit.pointio`` must agree with, and
the round-by-round loop that the batched testers must agree with.
Nothing imports solver internals.
"""

import itertools
import json
import math

import numpy as np
from scipy.optimize import linprog

from mebkit.convexity import dist_to_hull
from mebkit.errors import ParseError
from mebkit.geometry import geom_tol
from mebkit.seeding import derive_rng


def candidate_centers(P):
    """Circumcenters of every affinely independent subset of size 1..d+1.

    The minimax objective (and its k-th order-statistic variant) always
    attains its optimum at one of these, so enumerating them needs no
    tolerance knobs downstream.
    """
    P = np.asarray(P, dtype=float)
    n, d = P.shape
    centers = [P.copy()]
    for size in range(2, min(n, d + 1) + 1):
        combos = np.array(list(itertools.combinations(range(n), size)))
        S = P[combos]                      # (k, size, d)
        B = S[:, 1:, :] - S[:, :1, :]      # edge vectors from the first vertex
        G = B @ B.transpose(0, 2, 1)
        rhs = 0.5 * np.einsum("kij,kij->ki", B, B)
        det = np.linalg.det(G)
        scale = np.einsum("kii->k", G) / (size - 1) + 1e-300
        ok = np.abs(det) > 1e-12 * scale ** (size - 1)
        if not np.any(ok):
            continue
        y = np.linalg.solve(G[ok], rhs[ok][..., None])[..., 0]
        centers.append(S[ok, 0, :] + np.einsum("ki,kid->kd", y, B[ok]))
    return np.vstack(centers)


def meb_oracle(P):
    """(center, radius) minimizing the farthest-point distance."""
    P = np.asarray(P, dtype=float)
    C = candidate_centers(P)
    far = np.sqrt(((P[None, :, :] - C[:, None, :]) ** 2).sum(axis=2)).max(axis=1)
    best = int(np.argmin(far))
    return C[best], float(far[best])


def mkeb_oracle(P, k):
    """(center, radius) minimizing the k-th smallest distance to the set."""
    P = np.asarray(P, dtype=float)
    C = candidate_centers(P)
    dist = np.sqrt(((P[None, :, :] - C[:, None, :]) ** 2).sum(axis=2))
    kth = np.partition(dist, k - 1, axis=1)[:, k - 1]
    best = int(np.argmin(kth))
    return C[best], float(kth[best])


def _face_distance(a, Q):
    """Distance from a to conv(Q) by projecting onto every face.

    Complete on its own: any nearest hull point lies in some simplex of at
    most d+1 vertices with nonnegative barycentric weights.
    """
    n, d = Q.shape
    best = np.inf
    for size in range(1, min(n, d + 1) + 1):
        for combo in itertools.combinations(range(n), size):
            S = Q[list(combo)]
            if size == 1:
                proj = S[0]
            else:
                B = S[1:] - S[0]
                G = B @ B.T
                try:
                    y = np.linalg.solve(G, B @ (a - S[0]))
                except np.linalg.LinAlgError:
                    continue
                w = np.concatenate([[1.0 - y.sum()], y])
                if np.any(w < -1e-9):      # projection leaves the face
                    continue
                proj = S[0] + B.T @ y
            best = min(best, float(np.linalg.norm(a - proj)))
    return best


def hull_distance_oracle(a, Q):
    """Distance from a to conv(Q): LP membership, then face enumeration."""
    a = np.asarray(a, dtype=float)
    Q = np.asarray(Q, dtype=float)
    n, d = Q.shape
    # feasibility of  Q^T w = a, sum w = 1, w >= 0
    A_eq = np.vstack([Q.T, np.ones(n)])
    b_eq = np.concatenate([a, [1.0]])
    lp = linprog(np.zeros(n), A_eq=A_eq, b_eq=b_eq, bounds=[(0, None)] * n, method="highs")
    if lp.status == 0:
        return 0.0
    return _face_distance(a, Q)


def nodim_oracle(P, a, r):
    """Smallest hull distance achievable by any r-subset."""
    P = np.asarray(P, dtype=float)
    a = np.asarray(a, dtype=float)
    n = len(P)
    return min(
        _face_distance(a, P[list(combo)])
        for combo in itertools.combinations(range(n), min(r, n))
    )


def nodim_greedy_oracle(P, a, r):
    """(indices, achieved) of the greedy r-point hull approximation, one
    ``dist_to_hull`` solve per candidate and step: a candidate must beat the
    best so far by more than ``geom_tol(P)``, so ties go to the lower index."""
    P = np.asarray(P, dtype=float)
    tol = geom_tol(P)
    chosen: list[int] = []
    achieved = math.inf
    for _ in range(r):
        best_i, best_d = -1, math.inf
        for i in range(len(P)):
            if i in chosen:
                continue
            cand = dist_to_hull(a, P[chosen + [i]])
            if cand < best_d - tol:
                best_i, best_d = i, cand
        chosen.append(best_i)
        achieved = best_d
    return np.array(chosen), float(achieved)


def scattered_oracle(P, delta):
    """Maximum number of points with pairwise distances >= delta (exact).

    Subset DP on the conflict graph (edges join pairs closer than delta):
    take the lowest vertex or skip it.
    """
    P = np.asarray(P, dtype=float)
    n = len(P)
    if n > 22:
        raise ValueError("oracle is exponential; keep n <= 22")
    gap = np.linalg.norm(P[:, None, :] - P[None, :, :], axis=2)
    ok = gap >= delta - 1e-9 * (1.0 + float(np.abs(P).max()))
    conflict = [0] * n
    for i in range(n):
        for j in range(n):
            if i != j and not ok[i, j]:
                conflict[i] |= 1 << j
    dp = [0] * (1 << n)
    for mask in range(1, 1 << n):
        v = (mask & -mask).bit_length() - 1
        without = dp[mask & (mask - 1)]
        with_v = 1 + dp[mask & ~(conflict[v] | 1 << v)]
        dp[mask] = max(without, with_v)
    return dp[(1 << n) - 1]


def diameter_oracle(P):
    P = np.asarray(P, dtype=float)
    return float(np.linalg.norm(P[:, None, :] - P[None, :, :], axis=2).max())


def diameter_rows_oracle(P):
    """(value, pair, pairs_at_max) of the pair scan one row at a time: row i
    against every later point, the first strictly larger gap taking the
    pair, and the gaps within ``geom_tol(P)`` of the final maximum counted."""
    P = np.asarray(P, dtype=float)
    tol = geom_tol(P)
    value, pair, near = -1.0, (0, 1), []
    for i in range(len(P) - 1):
        gaps = np.linalg.norm(P[i + 1:] - P[i], axis=1)
        j = int(np.argmax(gaps))
        if gaps[j] > value:
            value, pair = float(gaps[j]), (i, i + 1 + j)
        near.append(gaps[gaps >= value - tol])
    return value, pair, int(np.count_nonzero(np.concatenate(near) >= value - tol))


def direction_count_oracle(eps):
    """Smallest m with cos(pi / (2m)) >= 1 / (1 + eps), counting up from 1."""
    m = 1
    while math.cos(math.pi / (2.0 * m)) < 1.0 / (1.0 + eps):
        m += 1
    return m


def coverable_oracle(P, k, fits):
    """Can P be split into at most k groups that each pass ``fits``?  Exact,
    tiny n only.

    fits: callable taking the points of one group.
    """
    P = np.asarray(P, dtype=float)
    n = len(P)
    groups: list[list[int]] = []

    def place(i):
        if i == n:
            return True
        for g in groups:
            g.append(i)
            if fits(P[g]):
                if place(i + 1):
                    return True
            g.pop()
        if len(groups) < k:
            groups.append([i])
            if place(i + 1):
                return True
            groups.pop()
        return False

    return place(0)


def kth_radius(P, center, k):
    d = np.linalg.norm(np.asarray(P, float) - np.asarray(center, float), axis=1)
    return float(np.partition(d, k - 1)[k - 1])


def csv_parse_oracle(text):
    """Parse CSV text one line at a time: strip, skip blanks and ``#``
    comments, ``float`` every stripped field, and raise ``ParseError`` at
    the first line that is not a number, is not finite or changes width."""
    rows = []
    width = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = [f.strip() for f in line.split(",")]
        try:
            row = [float(f) for f in fields]
        except ValueError:
            raise ParseError(lineno, f"not a number in {line!r}") from None
        if any(not np.isfinite(v) for v in row):
            raise ParseError(lineno, "non-finite coordinate")
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise ParseError(lineno, f"expected {width} coordinates, got {len(row)}")
        rows.append(row)
    if not rows:
        raise ParseError(1, "no points found")
    return np.array(rows, dtype=float)


def json_parse_oracle(text):
    """Parse a ``{"points": [...]}`` document by walking its rows: each must
    be a list of ints and floats (not booleans) of the first row's width."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(exc.lineno, exc.msg) from None
    if not isinstance(doc, dict) or "points" not in doc:
        raise ParseError(1, 'expected an object with a "points" key')
    pts = doc["points"]
    if not isinstance(pts, list) or not pts:
        raise ParseError(1, '"points" must be a non-empty list')
    width = None
    for i, row in enumerate(pts):
        if not (isinstance(row, list) and all(
                isinstance(v, (int, float)) and not isinstance(v, bool) for v in row)):
            raise ParseError(1, f"point {i} is not a list of numbers")
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise ParseError(1, f"point {i}: expected {width} coordinates, got {len(row)}")
    arr = np.array(pts, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ParseError(1, "non-finite coordinate")
    return arr


def sampled_tester_oracle(P, size, rounds, tag, seed, fits):
    """(outcome, rounds used, witness indices) of a sampled tester run one
    round at a time from one stream (seed, tag): each round takes ``size``
    scalar draws, uniform below n - size + 1, ..., n, and keeps them by
    Floyd's algorithm (a draw already taken becomes its bound - 1); the first
    sample that ``fits`` refuses ends the run."""
    n = len(P)
    rng = derive_rng(seed, tag)
    for rnd in range(rounds):
        chosen = []
        for bound in range(n - size + 1, n + 1):
            draw = int(rng.integers(bound))
            chosen.append(bound - 1 if draw in chosen else draw)
        idx = np.sort(chosen)
        if not fits(P[idx]):
            return "reject", rnd + 1, idx
    return "accept", rounds, None
