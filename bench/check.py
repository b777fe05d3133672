"""Independent checks of every report a workload call returns.

A check returns a list of problems; an empty list means the report is right.
References (certified enclosing balls, exact diameters, oracle radii) are
computed once per instance set, before timing starts, and never by the solver
the call under test ran unless an optimality certificate confirms them.
"""

from __future__ import annotations

import importlib.util
import itertools
import json
import math
import os

import numpy as np
from scipy.spatial import ConvexHull
from scipy.spatial.distance import pdist

from mebkit import elzinga_hearn_dual, exact_meb, gen_instance
from mebkit.errors import ConvergenceError, DegenerateInputError, IterationLimitError

REL = 1e-9   # relative tolerance for radii, boundary distances and certificates


class BenchError(RuntimeError):
    """The benchmark itself is broken: an input or reference it relies on is wrong."""


def load_oracles(root: str):
    """tests/oracles.py of the checkout under test, imported read-only."""
    path = os.path.join(root, "tests", "oracles.py")
    spec = importlib.util.spec_from_file_location("bench_oracles", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def kt_problems(P, center, radius, indices, multipliers) -> list[str]:
    """Kuhn-Tucker certificate of an enclosing ball, tolerances relative to its radius.

    The ball encloses P, the multipliers are a convex combination of support
    points on the boundary, and that combination reproduces the centre.  The
    stationarity test uses sum(l_i (p_i - c)) so it does not depend on where
    the points sit.
    """
    c = np.asarray(center, dtype=float)
    r = float(radius)
    idx = np.asarray(indices, dtype=int)
    lam = np.asarray(multipliers, dtype=float)
    if c.shape != (P.shape[1],) or idx.ndim != 1 or idx.shape != lam.shape or idx.size == 0:
        return ["malformed centre or support"]
    if idx.min() < 0 or idx.max() >= len(P) or len(set(idx.tolist())) != idx.size:
        return ["support indices out of range or repeated"]
    tol = REL * r
    dist = np.linalg.norm(P - c, axis=1)
    problems = []
    if dist.max() > r + tol:
        problems.append(f"a point lies {(dist.max() - r) / r:.2e} r outside the ball")
    if lam.min() < 0.0 or abs(lam.sum() - 1.0) > REL:
        problems.append("multipliers are not a convex combination")
    gap = float(np.abs(dist[idx] - r).max())
    if gap > tol:
        problems.append(f"a support point lies {gap / r:.2e} r off the boundary")
    stat = float(np.linalg.norm(lam @ (P[idx] - c)))
    if stat > tol * lam.sum():
        problems.append(f"the centre is {stat / r:.2e} r from the support combination")
    return problems


def _hull_candidates(P) -> np.ndarray:
    n, d = P.shape
    if d <= 3 and n > 4 * (d + 1):
        return np.unique(ConvexHull(P).vertices)
    return np.arange(n)


def certified_meb(P):
    """(centre, radius) of the minimum enclosing ball, confirmed by kt_problems.

    In low dimension only the convex hull's vertices can be support points,
    so the solvers run on those; the certificate is checked on all of P.
    """
    cand = _hull_candidates(P)
    Q = P[cand]

    def dual(X):
        return elzinga_hearn_dual(X, tol=1e-10)[0]

    solvers = (exact_meb, dual) if P.shape[1] <= 3 else (dual, exact_meb)
    for solve in solvers:
        try:
            sol = solve(Q)
        except (ConvergenceError, IterationLimitError, DegenerateInputError):
            continue
        c, r = sol.ball.center, sol.ball.radius
        if not kt_problems(P, c, r, cand[sol.support.indices], sol.support.multipliers):
            return c, r
    raise BenchError("no solver produced a certified reference ball")


def exact_diameter(P) -> float:
    return float(pdist(P[_hull_candidates(P)]).max())


class References:
    """Per-instance references, computed on first use and kept for the run."""

    def __init__(self, built: dict, oracles):
        self.built = built
        self.oracles = oracles
        self._cache: dict = {}

    def _memo(self, key, compute):
        if key not in self._cache:
            self._cache[key] = compute()
        return self._cache[key]

    def points(self, name: str) -> np.ndarray:
        return self.built[name].points

    def meb(self, name: str):
        spec = self.built[name].spec
        if spec.source is not None:
            c, r = self.meb(spec.source)
            return c * spec.scale + spec.shift, r * abs(spec.scale)
        return self._memo(("meb", name), lambda: certified_meb(self.points(name)))

    def diameter(self, name: str) -> float:
        return self._memo(("diam", name), lambda: exact_diameter(self.points(name)))

    def generated(self, n: int, d: int, seed: int) -> np.ndarray:
        return self._memo(("gen", n, d, seed), lambda: gen_instance("uniform-ball", n, d, seed=seed)[0])

    def mkeb(self, name: str, k: int) -> float:
        return self._memo(("mkeb", name, k), lambda: self.oracles.mkeb_oracle(self.points(name), k)[1])

    def fits(self, name: str, body: str, size: float):
        """Confirm from the generator's certificate that the input fits the body."""
        cert = self.built[name].labels["certificate"]
        P = self.points(name)
        centres = np.asarray(cert["centers"])[np.asarray(cert["assignment"])]
        spread = float(np.linalg.norm(P - centres, axis=1).max())
        # a ball of radius `size` fits inside the box of half-extent `size` as well
        if not (spread <= cert["radius"] <= size):
            raise BenchError(f"{name} does not fit a {body} of size {size} by its certificate")


# ---------------------------------------------------------------- helpers

def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(b), 1e-300)


def _coverage_problems(P, centre, radius, covered, k) -> list[str]:
    """`covered` lists the points in the ball, up to a thin band at its boundary."""
    dist = np.linalg.norm(P - np.asarray(centre, dtype=float), axis=1)
    band = 1e-8 * (1.0 + radius + float(np.abs(P).max()))
    cov = np.zeros(len(P), dtype=bool)
    cov[np.asarray(covered, dtype=int)] = True
    problems = []
    if np.any(cov & (dist > radius + band)) or np.any(~cov & (dist < radius - band)):
        problems.append("covered indices disagree with the reported ball")
    if cov.sum() < k:
        problems.append(f"covers {int(cov.sum())} points, fewer than k = {k}")
    return problems


def _verdicts(res) -> list[dict]:
    return res["trials"] if "trials" in res else [res]


# ---------------------------------------------------------------- checks

def check_meb(call, res, refs, argv):
    P = refs.points(call.instance)
    sup = res["support"]
    problems = kt_problems(P, res["center"], res["radius"], sup["indices"], sup["multipliers"])
    _, r_ref = refs.meb(call.instance)
    if _rel(res["radius"], r_ref) > REL:
        problems.append(f"radius is {_rel(res['radius'], r_ref):.2e} relative off the certified radius")
    return problems


def check_meb_bc(call, res, refs, argv):
    P = refs.points(call.instance)
    k = call.expect["k"]
    r = res["radius"]
    _, r_ref = refs.meb(call.instance)
    problems = []
    if _rel(float(np.linalg.norm(P - np.asarray(res["center"]), axis=1).max()), r) > REL:
        problems.append("radius is not the farthest distance from the centre")
    if r < r_ref * (1.0 - REL) or r > (1.0 + 1.0 / math.sqrt(k)) * r_ref * (1.0 + REL):
        problems.append(f"radius {r} outside [r*, (1 + 1/sqrt(k)) r*] for r* = {r_ref}")
    core = res["core"]
    if len(core) != k or min(core) < 0 or max(core) >= len(P):
        problems.append("core is not k valid indices")
    return problems


def check_diameter_pair(call, res, refs, argv):
    P = refs.points(call.instance)
    i, j = res["pair"]
    value = res["value"]
    problems = []
    if i == j or _rel(float(np.linalg.norm(P[i] - P[j])), value) > REL:
        problems.append("value is not the distance of the reported pair")
    if value > refs.diameter(call.instance) * (1.0 + REL):
        problems.append("value exceeds the exact diameter")
    return problems


def check_sketch(call, res, refs, argv):
    D = refs.diameter(call.instance)
    est, upper = res["estimate"], res["upper_bound"]
    problems = []
    if _rel(upper, call.expect["factor"] * est) > REL:
        problems.append("upper bound is not the stated factor times the estimate")
    if not est * (1.0 - REL) <= D <= upper * (1.0 + REL):
        problems.append(f"diameter {D} outside the bracket [{est}, {upper}]")
    return problems


def check_gen(call, res, refs, argv):
    n, d = call.expect["n"], call.expect["d"]
    seed = int(argv[argv.index("--seed") + 1])
    if "points_path" in res:
        pts = np.loadtxt(res["points_path"], delimiter=",", ndmin=2)
    else:
        pts = np.asarray(res["points"], dtype=float)
    problems = []
    if (res["n"], res["d"]) != (n, d) or pts.shape != (n, d):
        return [f"expected {n} points in {d} dimensions"]
    if not np.array_equal(pts, refs.generated(n, d, seed)):
        problems.append("points differ from the seeded generator's")
    if np.linalg.norm(pts, axis=1).max() > 1.0 + REL:
        problems.append("a point lies outside the unit ball")
    return problems


def _check_jung(P, res, r_ref, D) -> list[str]:
    d = P.shape[1]
    bound = math.sqrt(d / (2.0 * (d + 1))) * D
    problems = []
    if _rel(res["jung_bound"], bound) > REL:
        problems.append("jung_bound is not sqrt(d / (2(d+1))) times the diameter")
    if _rel(res["meb_radius"], r_ref) > REL:
        problems.append("meb_radius differs from the reference radius")
    if res["holds"] is not True:
        problems.append("the bound is reported not to hold")
    return problems


def check_jung(call, res, refs, argv):
    P = refs.points(call.instance)
    _, r_ref = refs.meb(call.instance)
    problems = _check_jung(P, res, r_ref, refs.diameter(call.instance))
    if res["tight"] and res["jung_bound"] - r_ref > 1e-6 * r_ref:
        problems.append("reported tight, but the radius is well below the bound")
    return problems


def check_variant(call, res, refs, argv):
    P = refs.points(call.instance)
    n, d = P.shape
    _, r_ref = refs.oracles.meb_oracle(P)
    problems = _check_jung(P, res, r_ref, refs.diameter(call.instance))
    beta = 0.0
    for size in range(2, min(n, d + 1) + 1):
        for combo in itertools.combinations(range(n), size):
            sub = P[list(combo)]
            beta = max(beta, float(np.linalg.norm(sub - sub.mean(axis=0), axis=1).max()))
    if _rel(res["barycentric_circumradius"], beta) > REL:
        problems.append("barycentric_circumradius differs from the enumeration")
    if res["combined_bound"] != min(res["barycentric_circumradius"], res["jung_bound"]):
        problems.append("combined_bound is not the smaller bound")
    return problems


def check_mkeb_sample(call, res, refs, argv):
    P = refs.points(call.instance)
    k = math.ceil((1.0 - call.expect["eps"]) * len(P))
    _, r_ref = refs.meb(call.instance)
    problems = _coverage_problems(P, res["center"], res["radius"], res["covered"], k)
    if res["k"] != k:
        problems.append(f"k is {res['k']}, expected ceil((1 - eps) n) = {k}")
    if res["radius"] > r_ref * (1.0 + REL):
        problems.append("sampled radius exceeds the full enclosing radius")
    return problems


def check_outliers(call, res, refs, argv):
    trials = res["trials"]
    if len(trials) != call.expect["trials"]:
        return ["wrong number of trials"]
    problems = []
    for trial in trials:
        problems += check_mkeb_sample(call, trial, refs, argv)
    return problems


def check_mkeb_exact(call, res, refs, argv):
    P = refs.points(call.instance)
    k = len(P) - call.expect["z"]
    r_ref = refs.mkeb(call.instance, k)
    problems = _coverage_problems(P, res["center"], res["radius"], res["covered"], k)
    if res["k"] != k:
        problems.append(f"k is {res['k']}, expected n - z = {k}")
    if _rel(res["radius"], r_ref) > REL:
        problems.append(f"radius is {_rel(res['radius'], r_ref):.2e} relative off the oracle's")
    return problems


def check_tester_accept(call, res, refs, argv):
    e = call.expect
    refs.fits(call.instance, e["body"], e["size"])
    trials = _verdicts(res)
    problems = []
    if len(trials) != e["trials"] or res.get("accept_count", 1) != e["trials"]:
        problems.append("wrong number of trials or accepts")
    for v in trials:
        if v["outcome"] != "accept" or v["witness"] is not None:
            problems.append("an input that fits the body by certificate was rejected")
        if v["rounds_used"] != e["rounds"]:
            problems.append(f"ran {v['rounds_used']} rounds, expected {e['rounds']}")
    return problems


def check_tester_reject(call, res, refs, argv):
    P = refs.points(call.instance)
    e = call.expect
    cert = refs.built[call.instance].labels["certificate"]
    if pdist(P[cert["indices"]]).min() < 2.0 * e["size"] * (1.0 + REL):
        raise BenchError(f"{call.instance} is not far from fitting by its certificate")
    problems = []
    for v in _verdicts(res):
        if v["outcome"] != "reject":
            problems.append("a far input was accepted")
            continue
        idx = np.asarray(v["witness_indices"], dtype=int)
        W = np.asarray(v["witness"], dtype=float)
        size = (P.shape[1] + 1) if e["k"] == 1 else e["k"] + 1
        if idx.size != size or not np.array_equal(W, P[idx]):
            problems.append("witness is not the sampled points it names")
        elif e["body"] == "ball" and refs.oracles.meb_oracle(W)[1] <= e["size"] * (1.0 + REL):
            problems.append("witness fits the body")
    return problems


def check_nodim(call, res, refs, argv):
    P = refs.points(call.instance)
    r = call.expect["r"]
    a = P.mean(axis=0)
    D = refs.diameter(call.instance)
    idx = np.asarray(res["indices"], dtype=int)
    problems = []
    if not np.allclose(res["point"], a, rtol=0.0, atol=REL * D):
        problems.append("point is not the barycenter")
    if idx.size != r or len(set(idx.tolist())) != r or idx.min() < 0 or idx.max() >= len(P):
        return problems + ["indices are not r distinct points"]
    achieved = refs.oracles.hull_distance_oracle(a, P[idx])
    if abs(res["achieved"] - achieved) > REL * D:
        problems.append("achieved is not the hull distance of the chosen points")
    if res["achieved"] > D / math.sqrt(r) * (1.0 + REL):
        problems.append("achieved exceeds diam / sqrt(r)")
    if _rel(res["bound"], D / math.sqrt(2.0 * r)) > REL:
        problems.append("bound is not diam / sqrt(2r)")
    if res["hull_distance"] > REL * D:
        problems.append("the barycenter is reported outside the hull")
    return problems


def check_caratheodory(call, res, refs, argv):
    P = refs.points(call.instance)
    d = P.shape[1]
    idx = np.asarray(res["indices"], dtype=int)
    coef = np.asarray(res["coefficients"], dtype=float)
    scale = 1.0 + float(np.abs(P).max())
    problems = []
    if not np.allclose(res["target"], P.mean(axis=0), rtol=0.0, atol=REL * scale):
        problems.append("target is not the barycenter")
    if idx.size > d + 1 or idx.size != res["support_size"] or idx.shape != coef.shape:
        return problems + ["support is larger than d + 1 or malformed"]
    if coef.min() < 0.0 or abs(coef.sum() - 1.0) > REL:
        problems.append("coefficients are not a convex combination")
    if np.linalg.norm(coef @ P[idx] - np.asarray(res["target"])) > REL * scale:
        problems.append("the combination does not reproduce the target")
    return problems


def check_helly(call, res, refs, argv):
    alpha, d = res["alpha"], res["d"]
    return [] if _rel(res["beta"], 1.0 - (1.0 - alpha) ** (1.0 / (d + 1))) <= REL else ["wrong beta"]


CHECKS = {
    "meb": check_meb,
    "meb_bc": check_meb_bc,
    "diameter_pair": check_diameter_pair,
    "sketch": check_sketch,
    "gen": check_gen,
    "jung": check_jung,
    "variant": check_variant,
    "mkeb_sample": check_mkeb_sample,
    "mkeb_exact": check_mkeb_exact,
    "outliers": check_outliers,
    "tester_accept": check_tester_accept,
    "tester_reject": check_tester_reject,
    "nodim": check_nodim,
    "caratheodory": check_caratheodory,
    "helly": check_helly,
}


def check_report(call, text: str, code: int, refs, argv) -> list[str]:
    """Problems with one call's output: exit code, report shape, then the call's check."""
    try:
        report = json.loads(text)
    except ValueError:
        return [f"exit code {code}; the report does not parse"]
    res = report.get("result") if isinstance(report, dict) else None
    if code != 0 or not isinstance(res, dict) or "error" in res:
        err = res.get("error") if isinstance(res, dict) else None
        return [f"exit code {code}: {err}"]
    try:
        return CHECKS[call.check](call, res, refs, argv)
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        return [f"report is malformed: {type(exc).__name__}: {exc}"]
