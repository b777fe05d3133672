"""The benchmark's own tests.  Run from the root of a checkout:

    python -m pytest -q bench/test_bench.py
"""

import json
import os
import re
import subprocess
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
sys.path[:0] = [BENCH_DIR, SRC]

import run  # noqa: E402
from check import References, check_report, load_oracles  # noqa: E402
from instances import build  # noqa: E402
from workloads import workload  # noqa: E402


def _without_timing(text: str) -> str:
    return re.sub(r'"timing_ms": [^,\n]+', '"timing_ms": 0', text)


@pytest.mark.parametrize("args", [
    ["bounds", "fractional-helly", "--alpha", "0.5", "--d", "3"],
    ["meb", "--input", "no-such-file.csv"],
    ["meb", "--no-such-flag"],
])
def test_launcher_matches_direct_cli(tmp_path, args):
    env = dict(os.environ, PYTHONPATH=SRC)
    direct = subprocess.run([sys.executable, "-m", "mebkit.cli", *args], capture_output=True,
                            env=env, cwd=tmp_path, timeout=60)
    hwm = tmp_path / "hwm"
    launched = subprocess.run([sys.executable, os.path.join(BENCH_DIR, "launch.py"), str(hwm), *args],
                              capture_output=True, env=env, cwd=tmp_path, timeout=60)
    assert launched.returncode == direct.returncode
    assert _without_timing(launched.stdout.decode()) == _without_timing(direct.stdout.decode())
    assert int(hwm.read_text()) > 0


def test_checker_counts_a_wrong_report(tmp_path):
    instances, calls = workload("exact", small=True)
    built = build(instances, 3, str(tmp_path))
    refs = References(built, load_oracles(ROOT))
    call = calls[0]
    args = run.resolve(call, built, 3, str(tmp_path))
    _, [(_, _, text, code)] = run.inprocess_pass([(call, args)])
    assert code == 0 and check_report(call, text, code, refs, args) == []

    report = json.loads(text)
    report["result"]["radius"] *= 1.001
    assert check_report(call, json.dumps(report), 0, refs, args)

    report = json.loads(text)
    report["result"]["support"]["multipliers"][0] += 1e-6
    assert check_report(call, json.dumps(report), 0, refs, args)

    assert check_report(call, "not json", 0, refs, args)
    assert check_report(call, text, 2, refs, args)


def test_outcomes_keep_known_defects_out_of_failed():
    _, calls = workload("exact", small=True)
    probe = next(c for c in calls if c.known_defect)
    outcomes = run.Outcomes()
    outcomes.add(calls[0], [])
    outcomes.add(probe, ["radius off"])
    outcomes.add(calls[1], ["radius off"])
    assert (outcomes.attempted, outcomes.failed) == (3, 1)
    assert outcomes.list_passed / outcomes.list_attempted == pytest.approx(1 / 3)


def test_seed_rotates_the_same_cloud(tmp_path):
    instances, _ = workload("kernel", small=True)
    a = build(instances, 1, str(tmp_path / "a"))
    b = build(instances, 2, str(tmp_path / "b"))
    again = build(instances, 1, str(tmp_path / "c"))
    for name in a:
        pa, pb = a[name].points, b[name].points
        assert (pa == again[name].points).all()
        assert not (pa == pb).all()
        gram_a, gram_b = pa @ pa.T, pb @ pb.T
        assert abs(gram_a - gram_b).max() <= 1e-9 * (1.0 + abs(gram_a).max())


def test_smoke_reports_every_metric():
    proc = subprocess.run([sys.executable, os.path.join(BENCH_DIR, "run.py"), "--smoke"],
                          capture_output=True, text=True, cwd=ROOT, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == "smoke: ok"
