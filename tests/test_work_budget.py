"""The one work budget: ``errors.check_work`` is the only place that refuses
a priced routine, and it refuses before any work."""

import ast
import collections
import importlib
import math
import pathlib

import pytest

import mebkit
from mebkit.errors import WORK_BUDGET, GuardError, check_work

# (module, function): number of ``raise GuardError`` sites, for the refusals
# that no up-front estimate replaces: a sketch grid of more than
# MAX_DIRECTIONS directions, which eps alone decides and no work count
# prices, and a sample size past float range.  The promise searches and the
# walks of the exact solvers are metered as they run by errors.meter, which
# refuses through check_work.
UNPRICED = {
    ("errors", "check_work"): 1,
    ("diameter", "direction_count"): 1,
    ("mkeb", "outlier_sample_size"): 1,
}


def guard_sites(error="GuardError"):
    """Number of ``raise error`` sites per (module, enclosing function) of the package."""
    sites = collections.Counter()
    for path in sorted(pathlib.Path(mebkit.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for func in ast.walk(tree):
            if not isinstance(func, ast.FunctionDef):
                continue
            for node in ast.walk(func):
                if isinstance(node, ast.Raise) and node.exc is not None:
                    call = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                    if isinstance(call, ast.Name) and call.id == error:
                        sites[path.stem, func.name] += 1
    return sites


def test_guard_errors_are_raised_only_through_check_work():
    assert guard_sites() == UNPRICED


def test_exact_searches_keep_no_cap_of_their_own():
    # the one meter bounds every walk: no solve cap, and no cap's IterationLimitError
    defs = {node.name for path in pathlib.Path(mebkit.__file__).parent.glob("*.py")
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))) if isinstance(node, ast.FunctionDef)}
    assert "_hard_cap" not in defs
    assert not guard_sites("IterationLimitError")


def budget_reads():
    """(module, innermost enclosing function) of every read or import of
    ``WORK_BUDGET`` in the package."""
    reads = set()

    def visit(node, module, where):
        if isinstance(node, ast.FunctionDef):
            where = node.name
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        else:
            name = node.name if isinstance(node, ast.alias) else None
        if name == "WORK_BUDGET":
            reads.add((module, where))
        for child in ast.iter_child_nodes(node):
            visit(child, module, where)

    for path in sorted(pathlib.Path(mebkit.__file__).parent.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path.stem, None)
    return reads


def test_work_budget_is_read_only_by_check_work_and_the_node_meter():
    # a search that grows its own limit would read the budget itself
    assert budget_reads() == {("errors", "check_work"), ("errors", "charge")}


@pytest.mark.parametrize("ops", [WORK_BUDGET + 1, 10**400, math.inf, math.nan])
def test_check_work_refuses_over_budget_infinite_and_nan(ops):
    with pytest.raises(GuardError, match="over the budget"):
        check_work(ops, "a test", "lower it")


def test_check_work_admits_the_budget_itself():
    check_work(WORK_BUDGET, "a test", "lower it")
    check_work(0, "a test", "lower it")


# (module, name): value of every module-level integer constant of the package.
# Batched kernels size their temporaries from geometry.BLOCK alone, so a new
# block size, limit or count fails test_integer_constants_are_declared until
# it is declared here.
INTEGER_CONSTANTS = {
    ("cli", "EXIT_OK"): 0,
    ("cli", "EXIT_USAGE"): 1,
    ("cli", "EXIT_INPUT"): 2,
    ("cli", "EXIT_COMPUTE"): 3,
    ("diameter", "MAX_DIRECTIONS"): 4096,      # a refusal: more sketch directions are not built
    ("diameter", "_SWEEP_RESTARTS"): 3,
    ("errors", "STEP_OPS"): 4000,
    ("geometry", "BLOCK"): 1 << 14,            # the one block budget, in float64 values
    ("geometry", "SMALL_MEB_MAX"): 8,          # switches algorithms, sizes no block
    ("pointio", "BLOCK_VALUES"): 4096,         # text parsing holds Python objects per value
    ("seeding", "_MASK"): (1 << 64) - 1,
    ("testers", "_SCATTER_EXACT_LIMIT"): 60,   # switches to the greedy pass
}


def integer_constants():
    """(module, name): value of each module-level assignment of the package that binds an int."""
    found = {}
    for path in sorted(pathlib.Path(mebkit.__file__).parent.glob("*.py")):
        module = importlib.import_module("mebkit" if path.stem == "__init__" else f"mebkit.{path.stem}")
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
            for target in targets:
                if isinstance(target, ast.Name):
                    value = getattr(module, target.id)
                    if isinstance(value, int) and not isinstance(value, bool):
                        found[path.stem, target.id] = value
    return found


def test_integer_constants_are_declared():
    assert integer_constants() == INTEGER_CONSTANTS
