"""Command-line interface: solver dispatch, instance generation, JSON reports.

One invocation produces exactly one RunReport (JSON) on stdout or --output.
Exit codes: 0 ok, 1 usage, 2 input, 3 computation guard / convergence.
Errors still emit a full report whose result payload is {"error": ...}.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import sys
import time
from itertools import chain

import numpy as np

# Every call loads these modules: argument parsing needs generators.KINDS, and
# reading and reporting need pointio, which loads geometry.  Each handler
# imports the solver modules it runs (convexity, diameter, meb, mkeb, testers)
# in its own body, so a call loads no other solver module.
from . import __version__
from .errors import (ConvergenceError, DegenerateInputError, GuardError, IterationLimitError, ParseError,
                     check_work)
from .generators import KINDS, gen_instance
from .geometry import BallBody, BoxBody, barycenter, geom_tol
from .pointio import float_array, is_number_list, json_chunks, load_json, read_points, write_points
from .seeding import derive_seed

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INPUT = 2
EXIT_COMPUTE = 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse that raises instead of calling sys.exit."""

    def error(self, message):
        raise _UsageError(f"{self.prog}: {message}")


@dataclasses.dataclass
class RunReport:
    command: str
    parameters: dict
    result: dict
    seed: int
    timing_ms: float
    tool_version: str


def render_report(report: RunReport) -> str:
    return "".join(json_chunks(vars(report))) + "\n"


def _ball_payload(sol) -> dict:
    return {
        "center": sol.ball.center,
        "radius": sol.ball.radius,
        "support": {
            "indices": sol.support.indices,
            "multipliers": sol.support.multipliers,
        },
        "iterations": sol.iterations,
        "algorithm": sol.algorithm,
    }


def _mkeb_payload(sol) -> dict:
    return {
        "center": sol.ball.center,
        "radius": sol.ball.radius,
        "covered": sol.covered,
        "k": sol.k,
    }


def _load_points(args) -> np.ndarray:
    if args.input is None:
        raise _UsageError(f"{args.command}: --input is required")
    return read_points(args.input, args.format)


# ---------------------------------------------------------------- handlers

def _run_meb(args) -> dict:
    from .meb import badoiu_clarkson, elzinga_hearn_dual, exact_meb, hopp_reeve_meb, kt_residuals

    P = _load_points(args)
    if args.algo == "exact":
        sol = exact_meb(P)
    elif args.algo == "hr":
        sol = hopp_reeve_meb(P)
    elif args.algo == "bc":
        sol, core = badoiu_clarkson(P, args.k, seed=args.seed)
        payload = _ball_payload(sol)
        payload["core"] = core
        return payload
    else:  # eh
        sol, lam = elzinga_hearn_dual(P, tol=args.tol, max_iter=args.max_iter)
        payload = _ball_payload(sol)
        payload["squared_radius"] = sol.s
        res = kt_residuals(P, sol.ball, lam)
        payload["kt_residuals"] = dataclasses.asdict(res)
        return payload
    return _ball_payload(sol)


def _run_mkeb(args) -> dict:
    from .mkeb import exact_mkeb, outlier_meb_sample

    P = _load_points(args)
    n = len(P)
    if args.sample:
        if args.eps is None or args.delta is None:
            raise _UsageError("mkeb --sample: --eps and --delta are required")
        sol = outlier_meb_sample(P, args.eps, args.delta, seed=args.seed)
    else:
        if (args.k is None) == (args.z is None):
            raise _UsageError("mkeb: pass exactly one of --k or --z")
        k = args.k if args.k is not None else n - args.z
        sol = exact_mkeb(P, k)
    return _mkeb_payload(sol)


def _run_diameter(args) -> dict:
    from .diameter import (diameter_bruteforce, diameter_calipers_2d, diameter_doublesweep, stream_2approx,
                           stream_eps_2d)

    P = _load_points(args)
    if args.algo == "brute":
        res = diameter_bruteforce(P)
    elif args.algo == "calipers":
        res = diameter_calipers_2d(P)
    elif args.algo == "sweep":
        res = diameter_doublesweep(P, seed=args.seed)
    elif args.algo == "stream2":
        estimate, _ = stream_2approx(P)
        return {"estimate": estimate, "upper_bound": 2.0 * estimate}
    else:  # streameps
        estimate, sketch = stream_eps_2d(P, args.eps)
        return {
            "estimate": estimate,
            "upper_bound": (1.0 + args.eps) * estimate,
            "directions": sketch.m,
        }
    return dataclasses.asdict(res)


def _run_test_cluster(args) -> dict:
    if args.mode == "outliers":
        from .mkeb import outlier_meb_sample, outlier_sample_work
    else:
        from .testers import k_g_tester, k_g_work, one_s_tester, one_s_work

    P = _load_points(args)
    d = P.shape[1]
    body = BallBody(args.radius) if args.body == "ball" else BoxBody(np.full(d, args.half_extent))

    def one_trial(trial_seed: int) -> dict:
        if args.mode == "1s":
            return dataclasses.asdict(one_s_tester(P, body, args.eps, args.delta, seed=trial_seed))
        if args.mode == "kg":
            return dataclasses.asdict(
                k_g_tester(P, body, args.k, c=args.c, delta=args.delta, seed=trial_seed)
            )
        return _mkeb_payload(outlier_meb_sample(P, args.eps, args.delta, seed=trial_seed))

    if args.trials == 1:
        return one_trial(args.seed)
    trial_ops = (one_s_work(body, d, args.eps, args.delta) if args.mode == "1s" else
                 k_g_work(d, args.k, args.c, args.delta) if args.mode == "kg" else
                 outlier_sample_work(len(P), d, args.eps, args.delta))
    check_work(args.trials * trial_ops, f"{args.trials} trials", "lower --trials")
    trials = [one_trial(derive_seed(args.seed, "cli-trial", t)) for t in range(args.trials)]
    payload: dict = {"trials": trials}
    if args.mode in ("1s", "kg"):
        payload["accept_count"] = sum(1 for t in trials if t["outcome"] == "accept")
    return payload


def _run_bounds(args) -> dict:
    from .convexity import barycentric_circumradius, fractional_helly_beta, jung_bound

    if args.which == "fractional-helly":
        if args.alpha is None:
            raise _UsageError("bounds fractional-helly: --alpha is required")
        if args.d is not None:
            d = args.d
        else:
            d = _load_points(args).shape[1]
        return {"alpha": args.alpha, "d": d, "beta": fractional_helly_beta(d, args.alpha)}
    from .meb import exact_meb

    P = _load_points(args)
    r = exact_meb(P).ball.radius
    bound, tight = jung_bound(P, r)
    if args.which == "jung":
        limit = bound
        payload = {"jung_bound": bound, "tight": tight}
    else:
        beta = barycentric_circumradius(P)
        limit = min(beta, bound)
        payload = {
            "barycentric_circumradius": beta,
            "jung_bound": bound,
            "combined_bound": limit,
        }
    payload["meb_radius"] = r
    payload["holds"] = bool(r <= limit + geom_tol(P, limit))
    return payload


def _read_boxes(args) -> list[AABox]:
    from .convexity import AABox

    if args.input is None:
        raise _UsageError("convexity helly-boxes: --input is required")
    with open(args.input, "r", encoding="utf-8") as fh:
        doc = load_json(fh.read())
    if not isinstance(doc, dict) or not isinstance(doc.get("boxes"), list) or not doc["boxes"]:
        raise ParseError(1, 'expected an object with a non-empty "boxes" list')
    boxes = []
    for i, entry in enumerate(doc["boxes"]):
        if not isinstance(entry, dict) or not all(is_number_list(entry.get(k)) for k in ("lower", "upper")):
            raise ParseError(1, f'box {i}: expected "lower" and "upper" lists of numbers')
        boxes.append(AABox(float_array(entry["lower"]), float_array(entry["upper"])))
    return boxes


def _run_convexity(args) -> dict:
    from .convexity import (caratheodory_reduce, dist_to_hull, helly_check_boxes, make_combination,
                            nodim_caratheodory, radon_partition)

    if args.which == "helly-boxes":
        return dataclasses.asdict(helly_check_boxes(_read_boxes(args)))
    P = _load_points(args)
    n = len(P)
    if args.which == "radon":
        return dataclasses.asdict(radon_partition(P))
    if args.which == "caratheodory":
        combo = make_combination(P, np.arange(n), np.full(n, 1.0 / n))
        reduced = caratheodory_reduce(P, combo)
        return {
            "target": combo.target,
            "indices": reduced.indices,
            "coefficients": reduced.coefficients,
            "support_size": len(reduced.indices),
        }
    # nodim
    from .diameter import diameter_bruteforce
    from .meb import exact_meb

    a = barycenter(P)
    chosen, achieved = nodim_caratheodory(P, a, args.r)
    diam = diameter_bruteforce(P).value if n <= 2048 else 2.0 * exact_meb(P).ball.radius
    return {
        "point": a,
        "r": args.r,
        "indices": chosen,
        "achieved": achieved,
        "bound": diam / np.sqrt(2.0 * args.r),
        "hull_distance": dist_to_hull(a, P),
    }


# gen's per-kind parameters, passed to gen_instance when given
_GEN_PARAMS = {"radius": float, "sigma": float, "k": int, "separation": float,
               "k1": int, "eps": float, "k2": int, "delta": float}


def _run_gen(args) -> dict:
    params = {name: getattr(args, name) for name in _GEN_PARAMS if getattr(args, name) is not None}
    points, labels = gen_instance(args.kind, args.n, args.d, seed=args.seed, **params)
    payload: dict = {"kind": args.kind, "n": len(points), "d": points.shape[1], "labels": labels}
    if args.points_out:
        write_points(args.points_out, points, args.points_format)
        payload["points_path"] = args.points_out
    else:
        payload["points"] = points
    return payload


_HANDLERS = {
    "meb": _run_meb,
    "mkeb": _run_mkeb,
    "diameter": _run_diameter,
    "test-cluster": _run_test_cluster,
    "bounds": _run_bounds,
    "convexity": _run_convexity,
    "gen": _run_gen,
}


# ---------------------------------------------------------------- parser

def _positive(kind, zero: bool = False):
    """argparse type: a finite ``kind`` value above zero (or at least zero,
    with ``zero``), else a usage error."""

    def parse(text: str):
        value = kind(text)
        if not ((value >= 0 if zero else value > 0) and value < math.inf):
            sign = "nonnegative" if zero else "positive"
            raise argparse.ArgumentTypeError(f"expected a {sign} finite number, got {text!r}")
        return value

    parse.__name__ = kind.__name__  # argparse names the type in "invalid float value"
    return parse


def build_parser() -> _Parser:
    common = _Parser(add_help=False)
    common.add_argument("--input", help="point-set file (csv or json)")
    common.add_argument("--format", choices=("csv", "json"), help="input format override")
    common.add_argument("--seed", type=_positive(int, zero=True), default=0, help="master seed (default 0)")
    common.add_argument("--output", help="write the report here instead of stdout")

    top = _Parser(prog="mebkit", description=__doc__)
    top.add_argument("--version", action="version", version=f"mebkit {__version__}")
    sub = top.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("meb", parents=[common], help="minimum enclosing ball")
    p.add_argument("--algo", choices=("exact", "bc", "eh", "hr"), default="exact")
    p.add_argument("--k", type=_positive(int), default=100, help="iterations for --algo bc")
    p.add_argument("--tol", type=_positive(float), default=1e-6,
                   help="duality-gap tolerance for --algo eh")
    p.add_argument("--max-iter", type=_positive(int), default=100_000)

    p = sub.add_parser("mkeb", parents=[common], help="minimum k-enclosing ball")
    p.add_argument("--k", type=_positive(int), help="coverage target")
    p.add_argument("--z", type=_positive(int, zero=True), help="outlier count (k = n - z)")
    p.add_argument("--sample", action="store_true", help="sampled outlier variant")
    p.add_argument("--eps", type=_positive(float), help="outlier fraction for --sample")
    p.add_argument("--delta", type=_positive(float), help="failure probability for --sample")

    p = sub.add_parser("diameter", parents=[common], help="diameter of a point set")
    p.add_argument("--algo", choices=("brute", "calipers", "sweep", "stream2", "streameps"),
                   default="brute")
    p.add_argument("--eps", type=_positive(float), default=0.1, help="accuracy for --algo streameps")

    p = sub.add_parser("test-cluster", parents=[common], help="sampled clusterability testers")
    p.add_argument("--mode", choices=("1s", "kg", "outliers"), required=True)
    p.add_argument("--body", choices=("ball", "box"), default="ball")
    p.add_argument("--radius", type=_positive(float), default=1.0, help="ball body radius")
    p.add_argument("--half-extent", type=_positive(float), default=1.0, help="box body half side")
    p.add_argument("--eps", type=_positive(float), default=0.1)
    p.add_argument("--delta", type=_positive(float), default=0.1)
    p.add_argument("--k", type=_positive(int), default=2, help="cluster count for --mode kg")
    p.add_argument("--c", type=_positive(float), default=0.01, help="far-fraction rate for --mode kg")
    p.add_argument("--trials", type=_positive(int), default=1)

    p = sub.add_parser("bounds", parents=[common], help="enclosing-radius bounds")
    p.add_argument("which", choices=("jung", "variant", "fractional-helly"))
    p.add_argument("--alpha", type=_positive(float), help="intersection fraction for fractional-helly")
    p.add_argument("--d", type=_positive(int), help="dimension for fractional-helly without --input")

    p = sub.add_parser("convexity", parents=[common], help="constructive convexity routines")
    p.add_argument("which", choices=("radon", "caratheodory", "helly-boxes", "nodim"))
    p.add_argument("--r", type=_positive(int), default=4, help="subset size for nodim")

    p = sub.add_parser("gen", parents=[common], help="generate a named instance")
    p.add_argument("--kind", choices=KINDS, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--points-out", help="write generated points to this file")
    p.add_argument("--points-format", choices=("csv", "json"))
    for name, kind in _GEN_PARAMS.items():
        p.add_argument(f"--{name}", type=kind)

    return top


def _parameters(args) -> dict:
    """The parsed options, as the report echoes them.  Only gen's per-kind
    lengths reach here non-finite, and gen_instance refuses them; JSON has
    no NaN or infinity, so such a value is echoed as its repr."""
    skip = {"command", "output"}
    return {k: repr(v) if isinstance(v, float) and not math.isfinite(v) else v
            for k, v in sorted(vars(args).items()) if k not in skip and v is not None}


def _run(argv) -> tuple[RunReport, int, str | None]:
    """Run one subcommand; return (report, exit code, parsed --output)."""
    started = time.perf_counter()
    command = "unknown"
    parameters: dict = {}
    seed = 0
    output = None
    try:
        args = build_parser().parse_args(argv)
        command = args.command
        seed = args.seed
        output = args.output
        parameters = _parameters(args)
        result = _HANDLERS[command](args)
        code = EXIT_OK
    except _UsageError as exc:
        result = {"error": {"kind": "usage", "message": str(exc)}}
        code = EXIT_USAGE
    except (ParseError, DegenerateInputError, FileNotFoundError, OSError, ValueError) as exc:
        result = {"error": {"kind": "input", "message": str(exc)}}
        code = EXIT_INPUT
    except (GuardError, ConvergenceError, IterationLimitError) as exc:
        result = {"error": {"kind": "computation", "message": str(exc)}}
        code = EXIT_COMPUTE
    timing_ms = 1000.0 * (time.perf_counter() - started)
    report = RunReport(
        command=command,
        parameters=parameters,
        result=result,
        seed=seed,
        timing_ms=timing_ms,
        tool_version=__version__,
    )
    return report, code, output


def dispatch(argv) -> tuple[RunReport, int]:
    """Run one subcommand and return (report, exit code) without writing."""
    report, code, _ = _run(argv)
    return report, code


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    report, code, output = _run(argv)
    chunks = json_chunks(vars(report))
    # the first chunk encodes the whole report but its arrays: a failure writes nothing
    text = chain([next(chunks)], chunks, ["\n"])
    if output and code != EXIT_USAGE:
        with open(output, "w", encoding="utf-8") as fh:
            fh.writelines(text)
    else:
        sys.stdout.writelines(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
