"""The one work budget: ``errors.check_work`` is the only place that refuses
a priced routine, and it refuses before any work."""

import ast
import collections
import math
import pathlib

import pytest

import mebkit
from mebkit.errors import WORK_BUDGET, GuardError, check_work

# (module, function): number of ``raise GuardError`` sites, for the refusals
# that no up-front estimate replaces: the sketch-block memory cap and a sample
# size past float range.  Both sides of promise_label refuse through
# check_work; its far-set search is metered as it runs.
UNPRICED = {
    ("errors", "check_work"): 1,
    ("diameter", "direction_count"): 1,
    ("mkeb", "outlier_sample_size"): 1,
}


def guard_sites():
    """Number of ``raise GuardError`` sites per (module, enclosing function) of the package."""
    sites = collections.Counter()
    for path in sorted(pathlib.Path(mebkit.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for func in ast.walk(tree):
            if not isinstance(func, ast.FunctionDef):
                continue
            for node in ast.walk(func):
                if isinstance(node, ast.Raise) and node.exc is not None:
                    call = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                    if isinstance(call, ast.Name) and call.id == "GuardError":
                        sites[path.stem, func.name] += 1
    return sites


def test_guard_errors_are_raised_only_through_check_work():
    assert guard_sites() == UNPRICED


@pytest.mark.parametrize("ops", [WORK_BUDGET + 1, 10**400, math.inf, math.nan])
def test_check_work_refuses_over_budget_infinite_and_nan(ops):
    with pytest.raises(GuardError, match="over the budget"):
        check_work(ops, "a test", "lower it")


def test_check_work_admits_the_budget_itself():
    check_work(WORK_BUDGET, "a test", "lower it")
    check_work(0, "a test", "lower it")
