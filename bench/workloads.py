"""The benchmark's workloads: the instances each one needs and its fixed list of CLI calls.

Every instance is a fixed base cloud, drawn by ``gen_instance`` from a seed
that depends only on the instance name, then turned by a rotation drawn from
the workload seed.  The solvers' work depends on the geometry of the cloud,
which a rotation keeps: the move-to-front solver runs the same number of
circumball solves on every rotation of a cloud, while two random clouds of
the same size and kind can differ by 9x in run time.  So the seed changes
every coordinate the program reads without changing the work it does, and
the figures of two seeds can be compared.

Argument templates name instances as ``{instance}``; ``{seed}`` is the
workload seed and ``{out}`` an output file in the run's directory.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

WORKLOADS = ("ingest", "exact", "kernel")

WHY = {
    "ingest": "linear-time calls on large files: parsing, rendering, writing and "
              "streaming do the work, the solver core little",
    "exact": "exact MEB solvers on mid-size files: the move-to-front solver and "
             "circumball solves do the work; two frame-shifted copies probe the "
             "tolerance defect",
    "kernel": "thousands of tiny exact subproblems from the testers and convexity "
              "routines: per-call overhead and small solves dominate",
}


@dataclass(frozen=True)
class Instance:
    """A point file written before timing starts."""

    name: str
    kind: str
    n: int
    d: int
    params: dict = field(default_factory=dict)   # gen_instance keyword parameters
    fmt: str = "csv"
    source: str | None = None   # reuse this instance's points instead of generating
    shift: float = 0.0          # added to every coordinate of the source points
    scale: float = 1.0          # multiplies every coordinate of the source points


@dataclass(frozen=True)
class Call:
    """One CLI call of a workload and how its report is checked."""

    name: str
    argv: tuple
    check: str                  # checker name in check.CHECKS
    instance: str | None = None
    expect: dict = field(default_factory=dict)
    known_defect: str | None = None   # why the call fails at the parent commit


def tester_rounds(mode: str, d: int, eps: float = 0.1, delta: float = 0.1, c: float = 0.01) -> int:
    """Rounds an accepting tester runs, from the formulas in the testers' docstrings."""
    rate = eps ** (d + 1) if mode == "1s" else c
    return math.ceil((1.0 / rate) * math.log(1.0 / delta))


def _ingest(small: bool):
    n = 2_000 if small else 50_000
    instances = [
        Instance("cloud3", "uniform-ball", n, 3),
        Instance("cloud3_json", "uniform-ball", n, 3, fmt="json", source="cloud3"),
        Instance("plane", "uniform-ball", n, 2),
    ]
    gen = ("gen", "--kind", "uniform-ball", "--n", str(n), "--d", "3", "--seed", "{seed}")
    calls = [
        Call("meb-bc-csv", ("meb", "--algo", "bc", "--k", "30", "--input", "{cloud3}", "--seed", "{seed}"),
             "meb_bc", "cloud3", {"k": 30}),
        Call("meb-bc-json", ("meb", "--algo", "bc", "--k", "30", "--input", "{cloud3_json}", "--seed", "{seed}"),
             "meb_bc", "cloud3_json", {"k": 30}),
        Call("diameter-sweep", ("diameter", "--algo", "sweep", "--input", "{plane}", "--seed", "{seed}"),
             "diameter_pair", "plane"),
        Call("diameter-streameps", ("diameter", "--algo", "streameps", "--eps", "0.01", "--input", "{plane}"),
             "sketch", "plane", {"factor": 1.01}),
        Call("diameter-stream2", ("diameter", "--algo", "stream2", "--input", "{plane}"),
             "sketch", "plane", {"factor": 2.0}),
        Call("gen-inline", gen, "gen", expect={"n": n, "d": 3}),
        Call("gen-points-out", gen + ("--points-out", "{out}"), "gen", expect={"n": n, "d": 3}),
    ]
    return instances, calls


def _exact(small: bool):
    big3, mid10, high20, eh20, jung10, frame3 = (
        (500, 100, 30, 100, 100, 500) if small else (20_000, 1_000, 64, 1_000, 700, 20_000)
    )
    defect = ("geom_tol is absolute, so the solver's answer depends on where the "
              "points sit and on their units")
    instances = [
        Instance("big3", "uniform-ball", big3, 3),
        Instance("mid10", "gaussian", mid10, 10),
        Instance("high20", "gaussian", high20, 20),
        Instance("eh20", "gaussian", eh20, 20),
        Instance("jung10", "gaussian", jung10, 10),
        Instance("frame3", "uniform-ball", frame3, 3),
        Instance("frame3_shift", "uniform-ball", frame3, 3, source="frame3", shift=1e6),
        Instance("frame3_tiny", "uniform-ball", frame3, 3, source="frame3", scale=1e-6),
    ]
    calls = [
        Call("meb-big3", ("meb", "--input", "{big3}"), "meb", "big3"),
        Call("meb-mid10", ("meb", "--input", "{mid10}"), "meb", "mid10"),
        Call("meb-high20", ("meb", "--input", "{high20}"), "meb", "high20"),
        Call("meb-hr-mid10", ("meb", "--algo", "hr", "--input", "{mid10}"), "meb", "mid10"),
        Call("meb-eh-eh20", ("meb", "--algo", "eh", "--input", "{eh20}"), "meb", "eh20"),
        Call("bounds-jung", ("bounds", "jung", "--input", "{jung10}"), "jung", "jung10"),
        Call("mkeb-sample", ("mkeb", "--sample", "--eps", "0.2", "--delta", "0.1",
                             "--input", "{frame3}", "--seed", "{seed}"),
             "mkeb_sample", "frame3", {"eps": 0.2}),
        Call("meb-shifted", ("meb", "--input", "{frame3_shift}"), "meb", "frame3_shift",
             known_defect=defect),
        Call("meb-tiny", ("meb", "--input", "{frame3_tiny}"), "meb", "frame3_tiny",
             known_defect=defect),
    ]
    return instances, calls


def _kernel(small: bool):
    fit_n, nodim_n, cara_n, mkeb_n = (200, 200, 100, 12) if small else (2_000, 1_000, 400, 36)
    eps_1s, trials_1s, trials_kg = (0.5, 2, 2) if small else (0.25, 2, 3)
    one_s = tester_rounds("1s", 3, eps=eps_1s)
    instances = [
        Instance("fit1", "clusterable", fit_n, 3, {"k1": 1, "eps": 1.0}),
        Instance("fit3", "clusterable", fit_n, 3, {"k1": 3, "eps": 1.0}),
        Instance("far", "far", fit_n, 3, {"k2": 3, "delta": 10.0}),
        Instance("mkeb", "uniform-ball", mkeb_n, 3),
        Instance("nodim", "uniform-ball", nodim_n, 3),
        Instance("cara", "uniform-ball", cara_n, 3),
        Instance("variant", "uniform-ball", 14, 3),
        Instance("outliers", "uniform-ball", fit_n, 3),
    ]
    tc = ("test-cluster", "--seed", "{seed}")
    calls = [
        Call("1s-ball-accept", tc + ("--mode", "1s", "--eps", str(eps_1s), "--trials", str(trials_1s),
                                     "--input", "{fit1}"),
             "tester_accept", "fit1", {"body": "ball", "size": 1.0, "trials": trials_1s, "rounds": one_s}),
        Call("1s-box-accept", tc + ("--mode", "1s", "--eps", str(eps_1s), "--trials", str(trials_1s),
                                    "--body", "box", "--input", "{fit1}"),
             "tester_accept", "fit1", {"body": "box", "size": 1.0, "trials": trials_1s, "rounds": one_s}),
        Call("1s-far-reject", tc + ("--mode", "1s", "--eps", str(eps_1s), "--input", "{far}"),
             "tester_reject", "far", {"body": "ball", "size": 1.0, "k": 1}),
        Call("kg-accept", tc + ("--mode", "kg", "--k", "3", "--trials", str(trials_kg), "--input", "{fit3}"),
             "tester_accept", "fit3",
             {"body": "ball", "size": 1.0, "trials": trials_kg, "rounds": tester_rounds("kg", 3)}),
        Call("mkeb-exact", ("mkeb", "--z", "4", "--input", "{mkeb}"), "mkeb_exact", "mkeb", {"z": 4}),
        Call("convexity-nodim", ("convexity", "nodim", "--input", "{nodim}"), "nodim", "nodim", {"r": 4}),
        Call("convexity-caratheodory", ("convexity", "caratheodory", "--input", "{cara}"),
             "caratheodory", "cara"),
        Call("bounds-variant", ("bounds", "variant", "--input", "{variant}"), "variant", "variant"),
        Call("outliers", tc + ("--mode", "outliers", "--eps", "0.4", "--delta", "0.1", "--trials", "10",
                               "--input", "{outliers}"),
             "outliers", "outliers", {"eps": 0.4, "trials": 10}),
    ]
    return instances, calls


_WORKLOADS = {"ingest": _ingest, "exact": _exact, "kernel": _kernel}


def workload(name: str, small: bool = False):
    """(instances, calls) of a workload; ``small`` gives the smoke-test sizes."""
    return _WORKLOADS[name](small)


# The cheapest call: it reads and writes no file, so its wall time is the
# interpreter start and imports that every CLI call pays.
SETUP_ARGV = ("bounds", "fractional-helly", "--alpha", "0.5", "--d", "3")
