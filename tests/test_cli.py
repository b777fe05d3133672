import json
import math
import os
import subprocess
import sys
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import mebkit
from mebkit.cli import RunReport, dispatch, main, render_report
from mebkit.errors import STEP_OPS
from mebkit.generators import KINDS, gen_instance
from mebkit.pointio import read_points, write_points

SQUARE = np.array([[-1.0, -1.0], [1.0, -1.0], [-1.0, 1.0], [1.0, 1.0]])


def strict_json(text):
    """``json.loads`` refusing NaN and Infinity, which RFC 8259 JSON lacks."""

    def refuse(name):
        raise ValueError(f"{name} is not JSON")

    return json.loads(text, parse_constant=refuse)


def run_cli(argv, capsys):
    code = main(argv)
    out = capsys.readouterr().out
    return (strict_json(out) if out else None), code


@pytest.fixture
def square_csv(tmp_path):
    path = tmp_path / "square.csv"
    write_points(str(path), SQUARE)
    return str(path)


@pytest.fixture
def cloud_csv(tmp_path):
    P, _ = gen_instance("uniform-ball", 30, 3, seed=5)
    path = tmp_path / "cloud.csv"
    write_points(str(path), P)
    return str(path)


def test_meb_exact_square(square_csv, capsys):
    report, code = run_cli(["meb", "--algo", "exact", "--input", square_csv], capsys)
    assert code == 0
    assert sorted(report) == ["command", "parameters", "result", "seed", "timing_ms", "tool_version"]
    assert report["command"] == "meb"
    assert report["tool_version"] == mebkit.__version__
    assert report["parameters"]["algo"] == "exact"
    result = report["result"]
    assert result["radius"] == pytest.approx(math.sqrt(2))
    assert result["center"] == pytest.approx([0.0, 0.0], abs=1e-9)
    assert set(result["support"]) == {"indices", "multipliers"}
    assert sum(result["support"]["multipliers"]) == pytest.approx(1.0)


def test_meb_bc_within_certificate_of_exact(cloud_csv, capsys):
    exact, code = run_cli(["meb", "--input", cloud_csv], capsys)
    assert code == 0
    bc, code = run_cli(["meb", "--algo", "bc", "--k", "100", "--input", cloud_csv], capsys)
    assert code == 0
    r_exact = exact["result"]["radius"]
    r_bc = bc["result"]["radius"]
    assert abs(r_bc - r_exact) <= r_exact / math.sqrt(100) + 1e-9
    assert len(bc["result"]["core"]) <= 100


def test_meb_eh_payload(cloud_csv, capsys):
    report, code = run_cli(["meb", "--algo", "eh", "--input", cloud_csv], capsys)
    assert code == 0
    result = report["result"]
    assert result["squared_radius"] == pytest.approx(result["radius"] ** 2, rel=1e-9)
    kt = result["kt_residuals"]
    assert set(kt) >= {"stationarity", "multiplier_sum", "primal_infeasibility"}
    assert all(abs(v) <= 1e-6 for v in kt.values())


def test_meb_hr_matches_exact(square_csv, capsys):
    report, code = run_cli(["meb", "--algo", "hr", "--input", square_csv], capsys)
    assert code == 0
    assert report["result"]["radius"] == pytest.approx(math.sqrt(2))


def test_mkeb_k_and_z_are_exclusive(square_csv, capsys):
    report, code = run_cli(["mkeb", "--input", square_csv], capsys)
    assert code == 1
    assert report["result"]["error"]["kind"] == "usage"
    report, code = run_cli(["mkeb", "--k", "3", "--z", "1", "--input", square_csv], capsys)
    assert code == 1


def test_mkeb_z_means_n_minus_k(square_csv, capsys):
    by_k, _ = run_cli(["mkeb", "--k", "3", "--input", square_csv], capsys)
    by_z, _ = run_cli(["mkeb", "--z", "1", "--input", square_csv], capsys)
    assert by_k["result"] == by_z["result"]
    assert by_k["result"]["k"] == 3
    assert len(by_k["result"]["covered"]) >= 3


def test_mkeb_guard_is_a_compute_error(tmp_path, capsys):
    P, _ = gen_instance("gaussian", 300, 2, seed=1)
    path = tmp_path / "big.csv"
    write_points(str(path), P)
    report, code = run_cli(["mkeb", "--k", "250", "--input", str(path)], capsys)
    assert code == 3
    assert report["result"]["error"]["kind"] == "computation"
    assert "outlier_meb_sample" in report["result"]["error"]["message"]


def test_mkeb_sample_requires_eps_delta(square_csv, capsys):
    report, code = run_cli(["mkeb", "--sample", "--input", square_csv], capsys)
    assert code == 1
    report, code = run_cli(
        ["mkeb", "--sample", "--eps", "0.5", "--delta", "0.5", "--input", square_csv], capsys
    )
    assert code == 0
    assert report["result"]["radius"] > 0.0


def test_diameter_algos(square_csv, capsys):
    brute, _ = run_cli(["diameter", "--input", square_csv], capsys)
    calipers, _ = run_cli(["diameter", "--algo", "calipers", "--input", square_csv], capsys)
    assert brute["result"]["value"] == pytest.approx(math.sqrt(8))
    assert calipers["result"]["value"] == pytest.approx(math.sqrt(8))
    assert brute["result"]["pairs_at_max"] == 2

    sweep, _ = run_cli(["diameter", "--algo", "sweep", "--input", square_csv], capsys)
    assert sweep["result"]["value"] <= math.sqrt(8) + 1e-12
    assert sweep["result"]["exact"] is False

    s2, _ = run_cli(["diameter", "--algo", "stream2", "--input", square_csv], capsys)
    assert s2["result"]["upper_bound"] == pytest.approx(2 * s2["result"]["estimate"])
    assert s2["result"]["estimate"] <= math.sqrt(8) + 1e-12 <= s2["result"]["upper_bound"] + 1e-9

    se, _ = run_cli(["diameter", "--algo", "streameps", "--eps", "0.1", "--input", square_csv], capsys)
    assert se["result"]["directions"] == 4
    assert se["result"]["estimate"] <= math.sqrt(8) + 1e-12 <= se["result"]["upper_bound"] + 1e-9


def test_test_cluster_outliers_deterministic(tmp_path, capsys):
    P, _ = gen_instance("uniform-ball", 60, 2, seed=11)
    path = tmp_path / "pts.csv"
    write_points(str(path), P)
    argv = ["test-cluster", "--mode", "outliers", "--eps", "0.1", "--delta", "0.1",
            "--seed", "7", "--input", str(path)]
    first, code1 = run_cli(argv, capsys)
    second, code2 = run_cli(argv, capsys)
    assert code1 == code2 == 0
    assert json.dumps(first["result"], sort_keys=True) == json.dumps(second["result"], sort_keys=True)


def test_test_cluster_one_s_accepts_clusterable(tmp_path, capsys):
    P, _ = gen_instance("clusterable", 40, 2, seed=2, k1=1, eps=1.0)
    path = tmp_path / "pts.csv"
    write_points(str(path), P)
    report, code = run_cli(
        ["test-cluster", "--mode", "1s", "--eps", "0.3", "--delta", "0.2", "--input", str(path)],
        capsys,
    )
    assert code == 0
    assert report["result"]["outcome"] == "accept"
    assert report["result"]["witness"] is None


def test_test_cluster_trials_aggregate(tmp_path, capsys):
    P, _ = gen_instance("clusterable", 30, 2, seed=3, k1=2, eps=1.0)
    path = tmp_path / "pts.csv"
    write_points(str(path), P)
    report, code = run_cli(
        ["test-cluster", "--mode", "kg", "--k", "2", "--trials", "5", "--input", str(path)],
        capsys,
    )
    assert code == 0
    assert len(report["result"]["trials"]) == 5
    assert report["result"]["accept_count"] == 5


def test_test_cluster_kg_guard(tmp_path, capsys):
    P, _ = gen_instance("gaussian", 400, 2, seed=4)
    path = tmp_path / "pts.csv"
    write_points(str(path), P)
    report, code = run_cli(["test-cluster", "--mode", "kg", "--k", "9", "--input", str(path)], capsys)
    assert code == 0  # k is priced, not capped at 8
    # 231 rounds of C(400, 2) pairs: about 1.5e9 scalar operations
    report, code = run_cli(["test-cluster", "--mode", "kg", "--k", "399", "--input", str(path)], capsys)
    assert code == 3
    assert report["result"]["error"]["kind"] == "computation"
    assert "budget" in report["result"]["error"]["message"]


def test_streameps_direction_budget_is_a_compute_error(square_csv, capsys):
    # about 1e150 directions by the old one-by-one count; refused up front now
    started = time.perf_counter()
    report, code = run_cli(["diameter", "--algo", "streameps", "--eps", "1e-300", "--input", square_csv], capsys)
    assert time.perf_counter() - started < 5.0
    assert code == 3
    assert report["result"]["error"]["kind"] == "computation"
    assert "directions" in report["result"]["error"]["message"]


def test_test_cluster_round_budget_is_a_compute_error(tmp_path, capsys):
    P, _ = gen_instance("gaussian", 40, 10, seed=6)
    path = tmp_path / "d10.csv"
    write_points(str(path), P)
    for extra in ([], ["--trials", "3"]):
        code = main(["test-cluster", "--mode", "1s", "--eps", "0.1", "--input", str(path)] + extra)
        out = capsys.readouterr().out
        report = json.loads(out)  # exactly one JSON document
        assert code == 3
        assert report["result"]["error"]["kind"] == "computation"
        assert "budget" in report["result"]["error"]["message"]


FIVE = np.vstack([SQUARE, [[0.5, 0.25]]])


@pytest.mark.parametrize("argv", [
    ["meb", "--algo", "bc", "--k", "1000000000000"],
    ["test-cluster", "--mode", "1s", "--trials", "1000000000"],
    ["test-cluster", "--mode", "kg", "--trials", "1000000000"],
    ["test-cluster", "--mode", "outliers", "--trials", "1000000000"],
    ["gen", "--kind", "clustered", "--n", "5", "--d", "2", "--k", "1000000"],
    ["gen", "--kind", "clusterable", "--n", "5", "--d", "2", "--k1", "1000000"],
    ["gen", "--kind", "gaussian", "--n", str(10**12), "--d", "3"],
], ids=["bc-steps", "1s-trials", "kg-trials", "outliers-trials", "gen-k", "gen-k1", "gen-n"])
def test_work_counts_over_budget_are_refused_up_front(tmp_path, capsys, argv):
    # each ran past 20 s on five points before it was priced
    path = tmp_path / "five.csv"
    write_points(str(path), FIVE)
    started = time.perf_counter()
    code = main(argv + ["--input", str(path)])
    assert time.perf_counter() - started < 1.0
    report = json.loads(capsys.readouterr().out)  # exactly one JSON document
    assert code == 3
    assert report["result"]["error"]["kind"] == "computation"
    assert "budget" in report["result"]["error"]["message"]


def test_cli_start_up_and_meb_runs_never_import_scipy(square_csv):
    # and load only the mebkit modules they run: a solver module loads with its handler
    script = (
        "import json, sys\n"
        "import mebkit.cli as cli\n"
        "def loaded(package):\n"
        "    return sorted(m for m in sys.modules if m == package or m.startswith(package + '.'))\n"
        "seen = [[loaded('scipy'), loaded('mebkit')]]\n"
        "for argv in (['meb', '--input', sys.argv[1]], ['meb', '--algo', 'hr', '--input', sys.argv[1]]):\n"
        "    report, code = cli.dispatch(argv)\n"
        "    assert code == 0, report.result\n"
        "    seen.append([loaded('scipy'), loaded('mebkit')])\n"
        "print(json.dumps(seen))\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(mebkit.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", script, square_csv], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout)
    assert [scipy for scipy, _ in seen] == [[], [], []]
    solvers = {f"mebkit.{name}" for name in ("convexity", "diameter", "meb", "mkeb", "testers")}
    start_up, *after_meb = (set(mebkit_modules) for _, mebkit_modules in seen)
    assert "mebkit.cli" in start_up and not start_up & solvers
    for modules in after_meb:
        assert modules & solvers == {"mebkit.meb"}


def test_bounds_jung(square_csv, capsys):
    report, code = run_cli(["bounds", "jung", "--input", square_csv], capsys)
    assert code == 0
    result = report["result"]
    assert result["holds"] is True
    assert result["meb_radius"] <= result["jung_bound"] + 1e-9


def test_bounds_variant(square_csv, capsys):
    report, code = run_cli(["bounds", "variant", "--input", square_csv], capsys)
    assert code == 0
    result = report["result"]
    assert result["combined_bound"] == pytest.approx(
        min(result["barycentric_circumradius"], result["jung_bound"])
    )
    assert result["holds"] is True


@pytest.mark.parametrize("which", ["jung", "variant"])
def test_bounds_solves_the_meb_once(which, square_csv, capsys, monkeypatch):
    calls = []
    exact = mebkit.meb.exact_meb  # the handler imports exact_meb from its home module when it runs

    def counted(P):
        calls.append(len(P))
        return exact(P)

    monkeypatch.setattr("mebkit.meb.exact_meb", counted)
    report, code = run_cli(["bounds", which, "--input", square_csv], capsys)
    assert code == 0
    assert calls == [4]
    assert report["result"]["meb_radius"] == pytest.approx(math.sqrt(2))


def test_bounds_fractional_helly(capsys):
    report, code = run_cli(["bounds", "fractional-helly", "--alpha", "0.75", "--d", "1"], capsys)
    assert code == 0
    assert report["result"]["beta"] == pytest.approx(0.5)
    report, code = run_cli(["bounds", "fractional-helly", "--d", "1"], capsys)
    assert code == 1  # --alpha is required


def test_convexity_radon(square_csv, capsys):
    report, code = run_cli(["convexity", "radon", "--input", square_csv], capsys)
    assert code == 0
    result = report["result"]
    parts = {frozenset(result["left"]), frozenset(result["right"])}
    assert parts == {frozenset({0, 3}), frozenset({1, 2})}
    assert result["witness"] == pytest.approx([0.0, 0.0], abs=1e-9)


def test_convexity_caratheodory(square_csv, capsys):
    report, code = run_cli(["convexity", "caratheodory", "--input", square_csv], capsys)
    assert code == 0
    result = report["result"]
    assert result["support_size"] == len(result["indices"]) <= 3
    assert sum(result["coefficients"]) == pytest.approx(1.0)
    rebuilt = sum(
        c * SQUARE[i] for i, c in zip(result["indices"], result["coefficients"])
    )
    assert rebuilt == pytest.approx(result["target"], abs=1e-9)


def test_convexity_helly_boxes(tmp_path, capsys):
    path = tmp_path / "boxes.json"
    path.write_text(json.dumps({"boxes": [
        {"lower": [0, 0], "upper": [2, 2]},
        {"lower": [1, 1], "upper": [3, 3]},
        {"lower": [0.5, 0.5], "upper": [1.5, 2.5]},
    ]}))
    report, code = run_cli(["convexity", "helly-boxes", "--input", str(path)], capsys)
    assert code == 0
    result = report["result"]
    assert result["subfamilies_intersect"] is True
    assert result["family_intersects"] is True
    x, y = result["common_point"]
    assert 1.0 <= x <= 1.5 and 1.0 <= y <= 2.0


def test_convexity_helly_boxes_bad_file(tmp_path, capsys):
    path = tmp_path / "boxes.json"
    path.write_text('{"boxes": "nope"}')
    report, code = run_cli(["convexity", "helly-boxes", "--input", str(path)], capsys)
    assert code == 2
    assert report["result"]["error"]["kind"] == "input"


@pytest.mark.parametrize("upper", [{"x": 1}, [1, True], "12", None])
def test_convexity_helly_boxes_malformed_box(tmp_path, capsys, upper):
    path = tmp_path / "boxes.json"
    path.write_text(json.dumps({"boxes": [
        {"lower": [0, 0], "upper": [2, 2]},
        {"lower": [1, 1], "upper": upper},
    ]}))
    report, code = run_cli(["convexity", "helly-boxes", "--input", str(path)], capsys)
    assert code == 2
    assert report["result"]["error"]["kind"] == "input"
    assert "box 1" in report["result"]["error"]["message"]


def test_convexity_nodim(square_csv, capsys):
    report, code = run_cli(["convexity", "nodim", "--r", "2", "--input", square_csv], capsys)
    assert code == 0
    result = report["result"]
    assert len(result["indices"]) == 2
    assert result["achieved"] <= math.sqrt(8) / math.sqrt(2) + 1e-9
    assert result["hull_distance"] == pytest.approx(0.0, abs=1e-9)


def test_convexity_nodim_bound_above_2048_points_is_the_ball_diameter(tmp_path, capsys):
    # above 2,048 points the enclosing ball's diameter stands in for the point
    # set's: a weaker bound than diam / sqrt(2r), never a smaller one
    from mebkit.diameter import diameter_bruteforce
    from mebkit.meb import exact_meb

    P, _ = gen_instance("uniform-ball", 2049, 3, seed=5)
    path = tmp_path / "cloud.csv"
    write_points(str(path), P)
    report, code = run_cli(["convexity", "nodim", "--r", "4", "--input", str(path)], capsys)
    assert code == 0
    bound = report["result"]["bound"]
    assert bound == 2.0 * exact_meb(P).ball.radius / np.sqrt(8.0)
    assert bound >= diameter_bruteforce(P).value / np.sqrt(8.0)


def test_convexity_nodim_face_budget_is_a_compute_error(cloud_csv, capsys, monkeypatch):
    # 30 points, r = 3 in 3-d: 30 * (3 + 3 + 1) faces, priced at
    # sum_s C(3, s) * (STEP_OPS + 30 * s * (3 + 40)) scalar operations
    ops = sum(math.comb(3, s) * (STEP_OPS + 30 * s * 43) for s in (1, 2, 3))
    monkeypatch.setattr("mebkit.errors.WORK_BUDGET", ops - 1)
    report, code = run_cli(["convexity", "nodim", "--r", "3", "--input", cloud_csv], capsys)
    assert code == 3
    assert report["result"]["error"]["kind"] == "computation"
    assert "210 face projections" in report["result"]["error"]["message"]
    monkeypatch.setattr("mebkit.errors.WORK_BUDGET", ops)
    report, code = run_cli(["convexity", "nodim", "--r", "3", "--input", cloud_csv], capsys)
    assert code == 0


def test_gen_inline_points(capsys):
    report, code = run_cli(["gen", "--kind", "gaussian", "--n", "8", "--d", "3"], capsys)
    assert code == 0
    result = report["result"]
    assert result["n"] == 8 and result["d"] == 3
    assert len(result["points"]) == 8
    assert all(len(row) == 3 for row in result["points"])


def test_gen_inline_report_is_streamed(monkeypatch):
    # joined into one string first, this report (5.1 MB) peaked at 11.6 MB traced
    argv = ["gen", "--kind", "uniform-ball", "--n", "50000", "--d", "3", "--seed", "1"]
    size = len(render_report(dispatch(argv)[0]))
    with open(os.devnull, "w", encoding="utf-8") as sink:
        monkeypatch.setattr(sys, "stdout", sink)
        tracemalloc.start()
        try:
            assert main(argv) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak < size


def test_gen_points_out_round_trip(tmp_path, capsys):
    out = tmp_path / "inst.json"
    report, code = run_cli(
        ["gen", "--kind", "clusterable", "--n", "20", "--d", "2", "--k1", "1",
         "--eps", "1.0", "--seed", "6", "--points-out", str(out)],
        capsys,
    )
    assert code == 0
    assert report["result"]["points_path"] == str(out)
    P = read_points(str(out))
    assert P.shape == (20, 2)
    direct, _ = gen_instance("clusterable", 20, 2, seed=6, k1=1, eps=1.0)
    assert np.array_equal(P, direct)
    solve, code = run_cli(["meb", "--input", str(out)], capsys)
    assert code == 0
    assert solve["result"]["radius"] <= 1.0 + 1e-9


def test_gen_unknown_kind_is_usage_error(capsys):
    report, code = run_cli(["gen", "--kind", "torus", "--n", "5", "--d", "2"], capsys)
    assert code == 1
    assert report["result"]["error"]["kind"] == "usage"


def test_missing_input_file_is_input_error(tmp_path, capsys):
    report, code = run_cli(["meb", "--input", str(tmp_path / "absent.csv")], capsys)
    assert code == 2
    assert report["result"]["error"]["kind"] == "input"


def test_parse_error_is_input_error(tmp_path, capsys):
    path = tmp_path / "bad.csv"
    path.write_text("1,2\n3\n")
    report, code = run_cli(["meb", "--input", str(path)], capsys)
    assert code == 2
    assert "line 2" in report["result"]["error"]["message"]


HUGE = "1" + "0" * 400                  # an integer beyond float range
DEEP = "[" * 100_000 + "]" * 100_000    # deeper than the JSON decoder recurses


@pytest.mark.parametrize("command, text", [
    (["meb"], '{"points": [[%s, 0]]}' % HUGE),
    (["meb"], '{"points": %s}' % DEEP),
    (["convexity", "helly-boxes"], '{"boxes": [{"lower": [%s, 0], "upper": [1, 1]}]}' % HUGE),
    (["convexity", "helly-boxes"], '{"boxes": %s}' % DEEP),
], ids=["points-overflow", "points-deep", "boxes-overflow", "boxes-deep"])
def test_json_overflow_and_deep_nesting_are_input_errors(tmp_path, capsys, command, text):
    path = tmp_path / "doc.json"
    path.write_text(text)
    report, code = run_cli(command + ["--input", str(path)], capsys)  # exactly one report
    assert code == 2
    assert report["result"]["error"]["kind"] == "input"


@pytest.mark.parametrize("argv", [
    ["test-cluster", "--mode", "1s", "--radius", "nan"],
    ["test-cluster", "--mode", "1s", "--body", "box", "--half-extent", "-1"],
    ["test-cluster", "--mode", "kg", "--trials", "-3"],
    ["test-cluster", "--mode", "1s", "--trials", "0"],
    ["meb", "--algo", "eh", "--tol", "nan"],
    ["convexity", "nodim", "--r", "0"],
    ["meb", "--algo", "bc", "--k", "0"],
    ["meb", "--algo", "eh", "--max-iter", "-5"],
    ["mkeb", "--k", "0"],
    ["mkeb", "--z", "-1"],
    ["mkeb", "--sample", "--eps", "nan", "--delta", "0.1"],
    ["mkeb", "--sample", "--eps", "0.1", "--delta", "0"],
    ["test-cluster", "--mode", "1s", "--eps", "-0.5"],
    ["test-cluster", "--mode", "outliers", "--delta", "inf"],
    ["diameter", "--algo", "streameps", "--eps", "nan"],
    ["diameter", "--eps", "inf"],
    ["test-cluster", "--mode", "kg", "--c", "nan"],
    ["test-cluster", "--mode", "kg", "--c", "inf"],
    ["test-cluster", "--mode", "kg", "--k", "0"],
    ["bounds", "fractional-helly", "--alpha", "nan", "--d", "2"],
    ["bounds", "fractional-helly", "--alpha", "0.5", "--d", "0"],
    ["meb", "--algo", "bc", "--k", "3", "--seed", "-5"],
    ["gen", "--kind", "gaussian", "--n", "3", "--d", "2", "--seed", "-1"],
], ids=["radius-nan", "half-extent-negative", "trials-negative", "trials-zero", "tol-nan", "nodim-r-zero",
        "bc-k-zero", "max-iter-negative", "mkeb-k-zero", "mkeb-z-negative", "mkeb-eps-nan", "mkeb-delta-zero",
        "tester-eps-negative", "tester-delta-inf", "diameter-eps-nan", "diameter-eps-inf", "kg-c-nan",
        "kg-c-inf", "kg-k-zero", "alpha-nan", "bounds-d-zero", "bc-seed-negative", "gen-seed-negative"])
def test_invalid_parameters_are_usage_errors(square_csv, capsys, argv):
    report, code = run_cli(argv + ["--input", square_csv], capsys)
    assert code == 1
    assert report["result"]["error"]["kind"] == "usage"


@pytest.mark.parametrize("kind, flag", [
    ("far", "--delta"), ("clusterable", "--eps"), ("clustered", "--separation"),
    ("uniform-ball", "--radius"), ("sphere-surface", "--radius"), ("gaussian", "--sigma"),
])
@pytest.mark.parametrize("value", ["nan", "inf", "0", "-1"])
def test_gen_bad_lengths_are_input_errors(capsys, kind, flag, value):
    report, code = run_cli(["gen", "--kind", kind, "--n", "20", "--d", "2", flag, value], capsys)
    assert code == 2
    assert report["result"]["error"]["kind"] == "input"
    assert flag[2:] in report["result"]["error"]["message"]


def test_mkeb_z_zero_is_the_enclosing_ball(square_csv, capsys):
    report, code = run_cli(["mkeb", "--z", "0", "--input", square_csv], capsys)
    assert code == 0
    assert report["result"]["radius"] == pytest.approx(math.sqrt(2))


def test_unknown_flag_is_usage_error(square_csv, capsys):
    report, code = run_cli(["meb", "--input", square_csv, "--frobnicate"], capsys)
    assert code == 1
    assert report["result"]["error"]["kind"] == "usage"
    report, code = run_cli(["meb", "--algo", "nope", "--input", square_csv], capsys)
    assert code == 1


def test_missing_input_flag_is_usage_error(capsys):
    report, code = run_cli(["meb"], capsys)
    assert code == 1
    assert report["result"]["error"]["kind"] == "usage"


def test_output_file(square_csv, tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(["meb", "--input", square_csv, "--output", str(out)])
    assert code == 0
    assert capsys.readouterr().out == ""
    report = json.loads(out.read_text())
    assert report["result"]["radius"] == pytest.approx(math.sqrt(2))


def test_output_flag_abbreviation(square_csv, tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(["meb", "--input", square_csv, "--out", str(out)])
    assert code == 0
    assert capsys.readouterr().out == ""
    report = json.loads(out.read_text())
    assert report["result"]["radius"] == pytest.approx(math.sqrt(2))
    assert "output" not in report["parameters"]


def test_usage_error_skips_output_file(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(["meb", "--algo", "nope", "--output", str(out)])
    assert code == 1
    assert not out.exists()
    assert "usage" in capsys.readouterr().out


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert mebkit.__version__ in capsys.readouterr().out


def test_render_report_bytes_with_numpy_values():
    report = RunReport(
        command="meb",
        parameters={"k": np.int64(3), "tol": 1e-06},
        result={
            "center": np.array([0.5, -0.25]),
            "indices": np.array([0, 2], dtype=np.int64),
            "flags": np.array([True, False]),
            "exact": np.bool_(True),
            "count": np.int64(7),
            "radius": np.float64(0.1),
            "pair": (1, np.int32(2)),
            "witness": None,
        },
        seed=0,
        timing_ms=1.5,
        tool_version="0.1.0",
    )
    assert render_report(report) == (
        '{\n  "command": "meb",\n  "parameters": {\n    "k": 3,\n    "tol": 1e-06\n  },\n'
        '  "result": {\n    "center": [\n      0.5,\n      -0.25\n    ],\n    "count": 7,\n'
        '    "exact": true,\n    "flags": [\n      true,\n      false\n    ],\n'
        '    "indices": [\n      0,\n      2\n    ],\n    "pair": [\n      1,\n      2\n    ],\n'
        '    "radius": 0.1,\n    "witness": null\n  },\n  "seed": 0,\n  "timing_ms": 1.5,\n'
        '  "tool_version": "0.1.0"\n}\n'
    )


# --- fuzzing dispatch -------------------------------------------------------

# Option values that parse, huge ones among them, and BAD values that a
# parser or a library refuses: non-finite, negative, zero and malformed.
# Each argv spoils at most one option with a BAD value, so that most calls
# get past the parser.  Counts that set how much work a call asks for
# (iterations, trials, instance size, anchor count) are small or far over
# the work budget, up to 2**63 - 1: the budget refuses those up front.
FLOATS = ["0.25", "1", "3", "1e308"]
COUNTS = ["1", "2", "3", "9", str(10**30)]
WORK = ["1", "3", str(2**31), str(2**63 - 1)]
BAD = ["nan", "inf", "-1", "0", "1.5", "x"]
INPUTS = ["cloud.csv", "cloud.json", "line.csv", "one.csv", "boxes.json", "bad.csv", "bad.json",
          "missing.csv", "."]
OPTIONS = {
    "meb": {"--algo": ["exact", "bc", "eh", "hr"], "--k": WORK, "--tol": FLOATS, "--max-iter": WORK},
    "mkeb": {"--k": COUNTS, "--z": COUNTS, "--sample": None, "--eps": FLOATS, "--delta": FLOATS},
    "diameter": {"--algo": ["brute", "calipers", "sweep", "stream2", "streameps"], "--eps": FLOATS},
    "test-cluster": {"--mode": ["1s", "kg", "outliers"], "--body": ["ball", "box"], "--radius": FLOATS,
                     "--half-extent": FLOATS, "--eps": FLOATS, "--delta": FLOATS, "--k": COUNTS,
                     "--c": FLOATS, "--trials": WORK},
    "bounds": {"--alpha": FLOATS, "--d": COUNTS},
    "convexity": {"--r": COUNTS},
    "gen": {"--kind": list(KINDS) + ["torus"], "--n": WORK, "--d": WORK,
            "--points-out": ["out.csv", "out.json", "no-such-dir/out.csv"], "--points-format": ["csv", "json"],
            "--radius": FLOATS, "--sigma": FLOATS, "--k": WORK, "--separation": FLOATS, "--k1": WORK,
            "--eps": FLOATS, "--k2": WORK, "--delta": FLOATS},
}
POSITIONAL = {"bounds": ["jung", "variant", "fractional-helly", "x"],
              "convexity": ["radon", "caratheodory", "helly-boxes", "nodim", "x"]}
REQUIRED = {"gen": ["--kind", "--n", "--d"], "test-cluster": ["--mode"]}
KIND_PARAMS = {"uniform-ball": ["--radius"], "sphere-surface": ["--radius"], "gaussian": ["--sigma"],
               "clustered": ["--k", "--separation"], "clusterable": ["--k1", "--eps"], "far": ["--k2", "--delta"]}
COMMON = {"--input": INPUTS, "--format": ["csv", "json"], "--seed": COUNTS}


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    cloud = np.vstack([SQUARE, [[0.5, 0.25], [-0.25, 0.5]]])
    write_points(str(root / "cloud.csv"), cloud)
    write_points(str(root / "cloud.json"), cloud)
    write_points(str(root / "line.csv"), np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0], [3.0, 3.0]]))
    write_points(str(root / "one.csv"), np.array([[1.0, 2.0]]))
    (root / "boxes.json").write_text(json.dumps({"boxes": [{"lower": [0, 0], "upper": [2, 2]},
                                                           {"lower": [1, 1], "upper": [3, 3]}]}))
    (root / "bad.csv").write_text("1,2\n3\n")
    (root / "bad.json").write_text('{"points": [[1, 2],')
    return root


@st.composite
def argvs(draw, root, command):
    """An argv for ``command`` (None: no subcommand or an unknown one): its
    required options, mostly ``--input``, and a few others, each once, with
    paths resolved under ``root``."""
    if command is None:
        return draw(st.sampled_from([[], ["nope"], ["--seed", "1"]]))
    argv = [command]
    if command in POSITIONAL:
        argv.append(draw(st.sampled_from(POSITIONAL[command])))
    options = {**COMMON, **OPTIONS.get(command, {})}
    flags = REQUIRED.get(command, []) + (["--input"] if draw(st.integers(0, 3)) else [])
    flags += draw(st.lists(st.sampled_from(sorted(set(options) - set(flags))), unique=True, max_size=4))
    values = {}
    if command == "gen":  # the kind's own parameters, each most of the time
        values["--kind"] = draw(st.sampled_from(options["--kind"]))
        flags += [f for f in KIND_PARAMS.get(values["--kind"], []) if f not in flags and draw(st.integers(0, 3))]
    spoiled = draw(st.sampled_from([None] + flags))
    for flag in flags:
        if options[flag] is None:
            argv.append(flag)
            continue
        value = values.get(flag) or draw(st.sampled_from(options[flag] + (BAD if flag == spoiled else [])))
        argv += [flag, str(root / value) if flag in ("--input", "--points-out") else value]
    return argv


@pytest.mark.parametrize("command", sorted(OPTIONS) + [None])
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_dispatch_always_ends_in_one_strict_report(fuzz_dir, command, data):
    argv = data.draw(argvs(fuzz_dir, command))
    started = time.perf_counter()
    report, code = dispatch(argv)
    assert time.perf_counter() - started < 5.0
    assert code in (0, 1, 2, 3)
    doc = strict_json(render_report(report))
    assert sorted(doc) == ["command", "parameters", "result", "seed", "timing_ms", "tool_version"]
    assert ("error" in doc["result"]) == (code != 0)
