"""Seeded instance generators for experiments, tests, and the CLI.

Every kind is deterministic for a fixed (kind, n, d, seed, params) tuple.
The promise-instance kinds also return a certificate describing why the
instance satisfies its side of the promise.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import check_work
from .geometry import as_points, distances
from .seeding import derive_rng

KINDS = ("uniform-ball", "sphere-surface", "gaussian", "clustered", "clusterable", "far")


def regular_simplex(d: int, side: float = 1.0) -> np.ndarray:
    """Vertices of a regular d-simplex with the given side length, in R^d.

    The standard corner construction in R^(d+1) is centered and projected
    onto an orthonormal basis of its span.
    """
    if d < 1:
        raise ValueError("d must be at least 1")
    E = np.eye(d + 1) - 1.0 / (d + 1)
    _, _, Vt = np.linalg.svd(E)
    vertices = E @ Vt[:d].T
    return vertices * (side / math.sqrt(2.0))


def _unit_vectors(rng, n, d):
    v = rng.standard_normal((n, d))
    norms = distances(v.T, np.zeros(d))
    norms[norms == 0.0] = 1.0
    return np.divide(v, norms[:, None], out=v)


def _spread_anchors(rng, count, d, gap):
    """Points with pairwise distances at least ``gap`` (rejection sampling).
    A gap too large to sample at in float range is a ``ValueError``.  Work
    estimate (``check_work``): 250 count^2, for its numpy call per check."""
    check_work(250 * count * count, f"{count} anchors", "lower the anchor count")
    anchors = []
    radius = gap * max(2.0, count)
    attempts = 0
    while len(anchors) < count:
        if not 2.0 * radius < math.inf:
            raise ValueError(f"anchor gap {gap} is too large to place {count} anchors in float range")
        candidate = rng.uniform(-radius, radius, size=d)
        if all(np.linalg.norm(candidate - a) >= gap for a in anchors):
            anchors.append(candidate)
        attempts += 1
        if attempts > 1000 * count:
            radius *= 2.0  # widen and keep going; terminates quickly in practice
            attempts = 0
    return np.array(anchors)


def _require_length(name: str, value: float) -> None:
    if not 0.0 < value < math.inf:
        raise ValueError(f"{name} must be positive and finite, got {value}")


def gen_instance(kind: str, n: int, d: int, seed: int | None = None, **params):
    """Generate a named instance kind.  Returns (points, labels).

    Kinds: uniform-ball, sphere-surface, gaussian, clustered(k, separation),
    clusterable(k1, eps), far(k2, delta).  The last two include certificates
    in the labels dict.  Work estimate (``check_work``): 8 n d.
    """
    if kind not in KINDS:
        raise ValueError(f"unknown kind {kind!r}; expected one of {', '.join(KINDS)}")
    if n < 1 or d < 1:
        raise ValueError("need n >= 1 and d >= 1")
    check_work(8 * n * d, f"{n} x {d} coordinates", "lower n or d")
    rng = derive_rng(seed, f"gen:{kind}")
    labels: dict = {"kind": kind}

    if kind == "uniform-ball":
        radius = float(params.get("radius", 1.0))
        _require_length("radius", radius)
        dirs = _unit_vectors(rng, n, d)
        radii = radius * rng.uniform(0.0, 1.0, size=n) ** (1.0 / d)
        points = np.multiply(dirs, radii[:, None], out=dirs)
    elif kind == "sphere-surface":
        radius = float(params.get("radius", 1.0))
        _require_length("radius", radius)
        points = radius * _unit_vectors(rng, n, d)
    elif kind == "gaussian":
        sigma = float(params.get("sigma", 1.0))
        _require_length("sigma", sigma)
        points = sigma * rng.standard_normal((n, d))
    elif kind == "clustered":
        k = int(params.get("k", 3))
        separation = float(params.get("separation", 10.0))
        if k < 1:
            raise ValueError("k must be at least 1")
        _require_length("separation", separation)
        centers = _spread_anchors(rng, k, d, separation)
        assignment = rng.integers(0, k, size=n)
        points = centers[assignment] + (separation / 10.0) * rng.standard_normal((n, d))
        labels["centers"] = centers
        labels["assignment"] = assignment
    elif kind == "clusterable":
        k1 = int(params.get("k1", 2))
        eps = float(params.get("eps", 1.0))
        if k1 < 1:
            raise ValueError("k1 must be at least 1")
        _require_length("eps", eps)
        centers = _spread_anchors(rng, k1, d, 4.0 * eps)
        assignment = rng.integers(0, k1, size=n)
        dirs = _unit_vectors(rng, n, d)
        radii = 0.999 * eps * rng.uniform(0.0, 1.0, size=n) ** (1.0 / d)
        points = centers[assignment] + dirs * radii[:, None]
        labels["certificate"] = {"centers": centers, "radius": eps, "assignment": assignment}
    else:  # far
        k2 = int(params.get("k2", 3))
        delta = float(params.get("delta", 10.0))
        if k2 < 2:
            raise ValueError("k2 must be at least 2")
        if k2 > n:
            raise ValueError("k2 cannot exceed n")
        _require_length("delta", delta)
        anchors = _spread_anchors(rng, k2, d, 1.05 * delta)
        extra = anchors[rng.integers(0, k2, size=n - k2)] + 0.01 * delta * rng.standard_normal(
            (n - k2, d)
        ) if n > k2 else np.empty((0, d))
        points = np.vstack([anchors, extra])
        labels["certificate"] = {"indices": list(range(k2)), "delta": delta}

    return as_points(points), labels
