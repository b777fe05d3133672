"""Every batched kernel sizes its blocks from ``geometry.BLOCK``: one item a
block gives the bits of the default blocks."""

import ast
import pathlib

import numpy as np

import mebkit
from mebkit import geometry
from mebkit.convexity import barycentric_circumradius
from mebkit.diameter import diameter_bruteforce, stream_2approx, stream_eps_2d
from mebkit.geometry import BallBody, BoxBody
from mebkit.mkeb import exact_mkeb
from mebkit.seeding import derive_rng
from mebkit.testers import _far_rows, k_g_tester, one_s_tester, promise_label


def verdict(v):
    return v.outcome, v.rounds_used, None if v.witness is None else (v.witness.tobytes(), v.witness_indices.tolist())


def blocked_results():
    rng = derive_rng(0, "one-block-budget")
    plane, space, wide = rng.standard_normal((300, 2)), rng.standard_normal((12, 3)), rng.standard_normal((30, 140))
    strays = np.vstack([rng.uniform(-0.5, 0.5, (40, 2)), rng.uniform(4.0, 6.0, (2, 2))])
    groups = np.vstack([rng.uniform(-0.5, 0.5, (20, 2)) + [6.0 * g, 0.0] for g in range(4)])
    eps_est, eps_sketch = stream_eps_2d(list(plane), 0.001)
    two_est, two_sketch = stream_2approx(wide)
    diam = diameter_bruteforce(wide)
    mkeb = exact_mkeb(space[:10, :2], 4)  # enumeration: C(10, <= 3) balls against 6 outliers' branching
    return [
        (eps_est, eps_sketch.lo.tobytes(), eps_sketch.hi.tobytes(), eps_sketch.count),
        (two_est, two_sketch.count),
        (diam.value, diam.pair, diam.pairs_at_max),
        _far_rows(wide, 16.0),
        barycentric_circumradius(space[:9]),
        (mkeb.ball.center.tobytes(), mkeb.ball.radius, mkeb.covered.tolist()),
        promise_label(space, 2, 1.0, 3, 2.0),
        promise_label(space, 1, 1.5, 12, 0.5),
        verdict(one_s_tester(strays, BallBody(1.0), 0.5, 0.1, seed=1)),
        verdict(one_s_tester(strays, BoxBody([0.75, 0.75]), 0.5, 0.1, seed=3)),
        verdict(one_s_tester(strays[:40], BallBody(1.0), 0.5, 0.1, seed=0)),
        verdict(k_g_tester(groups, BallBody(1.0), 3, c=0.1, delta=0.1, seed=2)),
        verdict(k_g_tester(groups, BallBody(1.0), 4, c=0.1, delta=0.1, seed=2)),
    ]


def test_one_item_a_block_gives_the_default_bits(monkeypatch):
    default = blocked_results()
    assert [r[0] for r in default[-5:]] == ["reject", "reject", "accept", "reject", "accept"]
    monkeypatch.setattr(geometry, "BLOCK", 1)
    assert blocked_results() == default


# Norms along an axis that measure each subset's own points from that subset's
# center: a (b, m) gap table, not a point set measured from centers.
SUBSET_NORMS = {("geometry", "circumballs"), ("convexity", "barycentric_circumradius")}


def sites(matches):
    """(module, enclosing function) of every node of the package that ``matches``."""
    found = set()

    def visit(node, module, where):
        if isinstance(node, ast.FunctionDef):
            where = node.name
        if matches(node):
            found.add((module, where))
        for child in ast.iter_child_nodes(node):
            visit(child, module, where)

    for path in sorted(pathlib.Path(mebkit.__file__).parent.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path.stem, None)
    return found


def row_scan(node) -> bool:
    """An ``np.linalg.norm(..., axis=...)`` or an ``np.add.reduce(..., axis=-1)``."""
    if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
        return False
    name = ast.unparse(node.func)
    axes = [ast.unparse(k.value) for k in node.keywords if k.arg == "axis"] + [ast.unparse(a) for a in node.args[1:2]]
    return (name == "np.linalg.norm" and bool(axes)) or (name == "np.add.reduce" and "-1" in axes)


def test_points_are_measured_only_by_the_distance_kernel():
    # a scan of (n, d) rows reduces over an axis d wide: geometry.distances sums whole coordinates
    assert sites(row_scan) == SUBSET_NORMS


def test_processes_are_forked_only_by_the_split_formatter():
    # a forked child must leave through os._exit and be reaped, whatever its consumer does:
    # one helper owns that
    def process_call(node):
        return isinstance(node, ast.Attribute) and ast.unparse(node) in {"os.fork", "os.kill", "os.waitpid", "os._exit"}

    assert sites(process_call) == {("pointio", "_split_rows")}
