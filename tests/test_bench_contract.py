"""The names the benchmark reads from mebkit exist.

``bench/tracing.py`` looks up every traced function by name and reads two
result fields, and the other bench modules import from the package.  The
test suite runs neither ``bench/run.py --trace 1`` nor ``--smoke``, so a
name deleted from ``src/`` would otherwise break the benchmark unseen.  The
bench files are read, never edited.
"""

import ast
import collections
import dataclasses
import importlib
import importlib.util
import pathlib

import numpy as np
import pytest

from mebkit import cli, testers
from mebkit.meb import MebSolution
from mebkit.pointio import write_points

BENCH = pathlib.Path(__file__).resolve().parents[1] / "bench"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", BENCH / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)  # imports only the standard library
    return module


def test_every_traced_name_is_callable():
    for module_name, names in load_tracing().TRACED.items():
        module = importlib.import_module(f"mebkit.{module_name}")
        for name in names:
            assert callable(getattr(module, name, None)), f"mebkit.{module_name}.{name}"


def test_counted_fields_exist():
    tracing = load_tracing()
    traced = {f"{module}.{name}" for module, names in tracing.TRACED.items() for name in names}
    assert set(tracing._COUNTS) <= traced
    assert "iterations" in {field.name for field in dataclasses.fields(MebSolution)}
    assert "rounds_used" in {field.name for field in dataclasses.fields(testers.TestVerdict)}


@pytest.mark.parametrize("path", sorted(BENCH.glob("*.py")), ids=lambda path: path.name)
def test_bench_imports_from_mebkit_exist(path):
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and node.module and node.module.split(".")[0] == "mebkit":
            module = importlib.import_module(node.module)
            for alias in node.names:
                assert hasattr(module, alias.name), f"{path.name}: {node.module}.{alias.name}"


def test_traced_spans_reach_the_handlers_imports(tmp_path):
    # each handler imports its solvers when it runs, and must get the wrapped ones
    tracing = load_tracing()
    path = str(tmp_path / "cloud.csv")
    write_points(path, np.random.default_rng(0).standard_normal((12, 3)))
    tracer = tracing.Tracer()
    with tracing.patched(tracer):
        for argv in (["meb", "--input", path], ["bounds", "variant", "--input", path]):
            report, code = cli.dispatch(argv)
            assert code == 0, report.result
    spans = collections.Counter(span[0] for span in tracer.spans)
    expected = {"cli.dispatch": 2, "meb.exact_meb": 2, "diameter.diameter_bruteforce": 1,
                "convexity.barycentric_circumradius": 1}
    assert {name: spans[name] for name in expected} == expected
