"""mebkit benchmark: real CLI calls on seeded instance files, or a traced in-process run.

Run from the root of a checkout:

    python3 bench/run.py --workload ingest|exact|kernel --seed N --seconds S --trace 0|1
    python3 bench/run.py [--seed N --seconds S --trace 0|1]    # every workload in turn
    python3 bench/run.py --smoke

With ``--trace 0`` each call of the workload's list is a fresh
``python -m mebkit.cli`` process (through ``launch.py``, which reads the
child's peak memory).  Calls run in a closed loop: one client, one call at a
time.  The list is repeated for S seconds and every figure is a median over
the repeats.  The end-to-end metrics are

* ``setup_s``: median wall time of a fresh interpreter running the cheapest
  call, which reads and writes no file: the start-up every call pays;
* ``wall_s``: the list's wall time, the sum of each call's median;
* ``call_s_max``: the slowest call's median;
* ``peak_rss_mb``: the largest peak resident memory (VmHWM) of any call;
* ``ok_frac``: calls whose report passed its independent check, over calls
  attempted.

The three times are given at a reference speed of the host.  On a shared
2-vCPU host the same call list runs up to 25% slower for minutes at a time,
and even a pure Python loop shows a 14% spread, so raw times of two runs
differ by more than any change worth finding.  Before every call the
benchmark times a fixed piece of Python and numpy work that no change to
mebkit can affect (``calibrate``); each time is multiplied by
REFERENCE_CAL_S over the run's median calibration.  The raw times and the
factor are in the record.

With ``--trace 1`` the same list runs in this process through
``mebkit.cli.dispatch`` and ``render_report``, alternating untraced passes
with passes in which every public function of the package records a span
(see tracing.py).  The per-layer metrics are medians over the traced passes;
``trace.overhead_s`` is the median difference in wall time between a
traced pass and the untraced pass before it.

Every call's report is checked (check.py).  The two frame-shifted calls of
``exact`` fail at the parent commit because of a known defect; they count in
``ok_frac`` and are listed, but not in ``failed``, so that a run is correct
when every other call passes.  The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics; a fuller record,
with the environment, is written to .bench_work/.

``--smoke`` runs every workload at tiny sizes in both modes, checks that
every metric named in BENCHMARK.json is reported, and confirms the checker
counts a deliberately wrong report as failed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
import traceback

from workloads import WORKLOADS

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_RUNS = 5        # fresh interpreters timed for setup_s, at least
CALL_TIMEOUT = 30.0   # seconds; a call that takes longer is killed and counts as failed
RUN_LIMIT = 150.0     # seconds; calls due after this are not started and count as failed
# calibrate()'s reference time: a run whose calibrations have this median
# reports its raw times.  On the 2-vCPU host the benchmark was defined on
# (Python 3.11, numpy 2.4) run medians ranged from 0.011 s to 0.017 s.
REFERENCE_CAL_S = 0.011

END_TO_END = (("wall_s", "s"), ("call_s_max", "s"), ("setup_s", "s"),
              ("peak_rss_mb", "MB"), ("ok_frac", "ratio"))


class Setup(Exception):
    """The checkout cannot be benchmarked."""


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def cap_blas_threads() -> None:
    """No process of the run gets more BLAS threads than there are cores.

    Set before numpy loads in this process; children inherit it.
    """
    cores = nproc()
    for var in THREAD_VARS:
        raw = os.environ.get(var, "")
        os.environ[var] = str(min(int(raw), cores)) if raw.isdigit() and int(raw) > 0 else str(cores)


def import_checkout():
    """Import mebkit from this checkout's src/, and nothing else."""
    if not os.path.isfile(os.path.join(SRC, "mebkit", "cli.py")):
        raise Setup(f"no mebkit sources under {SRC}")
    if not os.path.isfile(os.path.join(ROOT, "tests", "oracles.py")):
        raise Setup("no tests/oracles.py in the checkout")
    sys.path.insert(0, SRC)
    os.environ["PYTHONPATH"] = SRC
    import mebkit

    if os.path.dirname(os.path.abspath(mebkit.__file__)) != os.path.join(SRC, "mebkit"):
        raise Setup(f"mebkit imported from {mebkit.__file__}, not from {SRC}")


def environment() -> dict:
    import numpy
    import scipy

    commit = None
    if os.path.exists(os.path.join(ROOT, ".git")):  # a checkout may not be a repository
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                  text=True, timeout=10)
            commit = proc.stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()  # identifies the sources where there is no commit
    package = os.path.join(SRC, "mebkit")
    for name in sorted(f for f in os.listdir(package) if f.endswith(".py")):
        with open(os.path.join(package, name), "rb") as fh:
            digest.update(name.encode() + b"\0" + fh.read())
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = None
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": {var: os.environ[var] for var in THREAD_VARS},
        "nproc": nproc(),
        "machine": platform.machine(),
    }


class Outcomes:
    """Checked call outcomes: attempted, failed, and the known-defect failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.list_attempted = 0
        self.list_passed = 0
        self.problems: dict[str, list[str]] = {}

    def add(self, call, problems: list[str], in_list: bool = True) -> None:
        self.attempted += 1
        if in_list:
            self.list_attempted += 1
            self.list_passed += not problems
        if problems:
            self.failed += call.known_defect is None
            self.problems.setdefault(call.name, problems)


def calibrate() -> float:
    """Wall time of fixed Python and numpy work: how fast the host runs right now."""
    import numpy as np

    points = np.linspace(0.0, 1.0, 60_000).reshape(20_000, 3)
    start = time.perf_counter()
    total = 0
    for i in range(150_000):
        total += i * i
    np.linalg.norm(points - points[0], axis=1).argmax()
    return time.perf_counter() - start


def resolve(call, built: dict, seed: int, directory: str) -> list[str]:
    subs = {name: b.path for name, b in built.items()}
    subs["seed"] = str(seed)
    subs["out"] = os.path.join(directory, "points-out.csv")
    return [arg.format(**subs) for arg in call.argv]


def run_child(args: list[str], hwm_path: str | None, deadline: float,
              cal: list[float]) -> tuple[str, int, float, float]:
    """(stdout, exit code, wall seconds, VmHWM in MB) of one fresh CLI process.

    A calibration is appended to ``cal`` first.  The process is killed at
    ``deadline`` (a perf_counter value) or after CALL_TIMEOUT seconds,
    whichever comes first.
    """
    cal.append(calibrate())
    timeout = min(CALL_TIMEOUT, deadline - time.perf_counter())
    if timeout <= 0.0:
        return "", -1, 0.0, 0.0
    if hwm_path is None:
        cmd = [sys.executable, "-m", "mebkit.cli", *args]
    else:
        cmd = [sys.executable, os.path.join(BENCH_DIR, "launch.py"), hwm_path, *args]
    if hwm_path is not None and os.path.exists(hwm_path):
        os.remove(hwm_path)
    start = time.perf_counter()
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              cwd=ROOT, timeout=timeout)
    except subprocess.TimeoutExpired:
        return "", -1, time.perf_counter() - start, 0.0
    seconds = time.perf_counter() - start
    hwm = 0.0
    if hwm_path is not None and os.path.exists(hwm_path):
        with open(hwm_path, encoding="ascii") as fh:
            hwm = int(fh.read()) / 1024.0
    return proc.stdout.decode("utf-8", "replace"), proc.returncode, seconds, hwm


def setup_calls(outcomes: Outcomes, refs, count: int, deadline: float, cal: list[float]) -> list[float]:
    """Wall times of ``count`` fresh interpreters running the cheapest call."""
    from check import check_report
    from workloads import SETUP_ARGV, Call

    call = Call("setup", SETUP_ARGV, "helly")
    times = []
    for _ in range(count):
        text, code, seconds, _ = run_child(list(SETUP_ARGV), None, deadline, cal)
        outcomes.add(call, check_report(call, text, code, refs, SETUP_ARGV), in_list=False)
        times.append(seconds)
    return times


def run_untraced(resolved, refs, outcomes: Outcomes, seconds: float, directory: str):
    from check import check_report

    deadline = time.perf_counter() + RUN_LIMIT
    cal: list[float] = []
    setup_calls(outcomes, refs, 2, deadline, [])  # warm-up: byte-compiles and pages in the libraries
    # set-up samples are spread over the run, so that a slow spell of the host
    # does not meet all of them
    setup = setup_calls(outcomes, refs, 2, deadline, cal)
    hwm_path = os.path.join(directory, "vmhwm")
    times = {call.name: [] for call, _ in resolved}
    hwms = {call.name: [] for call, _ in resolved}
    busy, passes = 0.0, 0
    while passes == 0 or (busy * (1.0 + 1.0 / passes) <= seconds and time.perf_counter() < deadline):
        for call, args in resolved:
            text, code, secs, hwm = run_child(args, hwm_path, deadline, cal)
            busy += secs
            times[call.name].append(secs)
            hwms[call.name].append(hwm)
            outcomes.add(call, check_report(call, text, code, refs, args))
        passes += 1
        setup += setup_calls(outcomes, refs, 1, deadline, cal)
    setup += setup_calls(outcomes, refs, SETUP_RUNS - len(setup), deadline, cal)
    medians = {name: statistics.median(v) for name, v in times.items()}
    raw = {"wall_s": sum(medians.values()), "call_s_max": max(medians.values()),
           "setup_s": statistics.median(setup)}
    speed = REFERENCE_CAL_S / statistics.median(cal)
    metrics = {name: value * speed for name, value in raw.items()}
    metrics["peak_rss_mb"] = max(statistics.median(v) for v in hwms.values())
    metrics["ok_frac"] = outcomes.list_passed / outcomes.list_attempted
    detail = {"passes": passes, "raw": raw, "speed_factor": speed, "calibration_s": cal,
              "setup_s": setup, "call_s": times, "vmhwm_mb": hwms}
    return metrics, detail


def inprocess_pass(resolved, tracer=None):
    """(wall seconds, [(call, args, report text, exit code)]) of one pass in this process."""
    import mebkit.cli as cli

    outputs = []
    start = time.perf_counter()
    for i, (call, args) in enumerate(resolved):
        if tracer is not None:
            tracer.call_id = i
        try:
            report, code = cli.dispatch(list(args))
            text = cli.render_report(report)
        except Exception:  # a crash is a failed call, not the end of the run
            text, code = traceback.format_exc(), -1
        outputs.append((call, args, text, code))
    return time.perf_counter() - start, outputs


def run_traced(resolved, refs, outcomes: Outcomes, seconds: float, directory: str):
    from check import check_report
    from tracing import PER_LAYER, Tracer, patched

    def checked(outputs):
        for call, args, text, code in outputs:
            outcomes.add(call, check_report(call, text, code, refs, args))
        return sum(len(text.encode("utf-8")) for _, _, text, _ in outputs)

    checked(inprocess_pass(resolved)[1])  # warm-up
    plain, traced, layers, tracer = [], [], [], None
    while not traced or sum(plain + traced) * (1.0 + 1.0 / len(traced)) <= seconds:
        wall, outputs = inprocess_pass(resolved)
        plain.append(wall)
        checked(outputs)
        tracer = Tracer()
        with patched(tracer):
            wall, outputs = inprocess_pass(resolved, tracer)
        traced.append(wall)
        values = tracer.metrics()
        values["cli.report_bytes"] = checked(outputs)
        layers.append(values)
    tracer.write(os.path.join(directory, "spans.jsonl"))
    metrics = {name: statistics.median(v.get(name, 0.0) for v in layers)
               for name, _ in PER_LAYER if name != "trace.overhead_s"}
    # each traced pass is paired with the untraced pass just before it, so a
    # slow spell of the host falls on both sides of a difference
    metrics["trace.overhead_s"] = statistics.median(t - p for p, t in zip(plain, traced))
    return metrics, {"passes": len(traced), "untraced_s": plain, "traced_s": traced}


def run(workload: str, seed: int, seconds: float, trace: bool, smoke: bool = False) -> dict:
    """One benchmark run; returns the result object printed as the last line."""
    import shutil

    from check import References, load_oracles
    from instances import build
    from tracing import PER_LAYER
    from workloads import workload as make_workload

    directory = os.path.join(WORK, workload)
    shutil.rmtree(directory, ignore_errors=True)
    instances, calls = make_workload(workload, small=smoke)
    built = build(instances, seed, directory)
    refs = References(built, load_oracles(ROOT))
    resolved = [(call, resolve(call, built, seed, directory)) for call in calls]
    outcomes = Outcomes()
    if trace:
        metrics, detail = run_traced(resolved, refs, outcomes, seconds, directory)
        units = dict(PER_LAYER)
    else:
        metrics, detail = run_untraced(resolved, refs, outcomes, seconds, directory)
        units = dict(END_TO_END)
    result = {
        "correct": outcomes.failed == 0,
        "attempted": outcomes.attempted,
        "failed": outcomes.failed,
        "metrics": {name: {"value": float(value), "unit": units[name]} for name, value in metrics.items()},
    }
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "environment": environment(), "instances": [b.record() for b in built.values()],
        "problems": outcomes.problems,
        "known_defects": {c.name: c.known_defect for c in calls if c.known_defect},
        "detail": detail, "result": result,
    }
    with open(os.path.join(WORK, f"{workload}-trace{int(trace)}.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    for name, problems in outcomes.problems.items():
        tag = "known defect" if any(c.name == name and c.known_defect for c in calls) else "FAILED"
        print(f"{tag}: {name}: {'; '.join(problems)}")
    return result


def smoke() -> int:
    """Tiny sizes, every workload, both modes; returns an exit code."""
    from check import References, check_report, load_oracles
    from instances import build
    from workloads import workload as make_workload

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    errors = []
    for name in WORKLOADS:
        for trace, key in ((False, "end_to_end"), (True, "per_layer")):
            result = run(name, seed=1, seconds=0.0, trace=trace, smoke=True)
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {m: v["unit"] for m, v in result["metrics"].items()}
            if got != want:
                errors.append(f"{name} trace={int(trace)}: metrics {sorted(got)} != {sorted(want)}")
            if not result["correct"]:
                errors.append(f"{name} trace={int(trace)}: {result['failed']} calls failed")
    # a deliberately wrong report must be counted as failed
    instances, calls = make_workload("exact", small=True)
    directory = os.path.join(WORK, "smoke-wrong")
    built = build(instances, 1, directory)
    refs = References(built, load_oracles(ROOT))
    call = calls[0]
    args = resolve(call, built, 1, directory)
    [(_, _, text, code)] = inprocess_pass([(call, args)])[1]
    report = json.loads(text)
    report["result"]["radius"] *= 1.001
    outcomes = Outcomes()
    outcomes.add(call, check_report(call, text, code, refs, args))
    outcomes.add(call, check_report(call, json.dumps(report), code, refs, args))
    if (outcomes.attempted, outcomes.failed) != (2, 1):
        errors.append("the checker did not count exactly the wrong report (radius 0.1% large) as failed")
    for err in errors:
        print(f"smoke: {err}")
    print("smoke: ok" if not errors else f"smoke: {len(errors)} errors")
    return 0 if not errors else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, help="default: every workload in turn")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    # The order matters: BLAS threads are capped before numpy loads, and the
    # benchmark's own modules, which import mebkit, load after src/ is checked.
    cap_blas_threads()
    try:
        import_checkout()
    except Setup as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    os.makedirs(WORK, exist_ok=True)
    if args.smoke:
        return smoke()
    if args.workload is not None:
        print(json.dumps(run(args.workload, args.seed, args.seconds, bool(args.trace))))
        return 0
    for name in WORKLOADS:
        result = run(name, args.seed, args.seconds, bool(args.trace))
        print(f"{name}: " + ", ".join(f"{m} = {v['value']:.6g} {v['unit']}" for m, v in result["metrics"].items()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
