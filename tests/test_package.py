"""The package's public names load on first use, from their home modules."""

import importlib
import json
import os
import subprocess
import sys

import pytest

import mebkit


def test_every_public_name_resolves_to_its_home_module():
    for name in mebkit.__all__:
        value = getattr(mebkit, name)
        home = importlib.import_module(f"mebkit.{mebkit._HOMES[name]}")
        assert value is getattr(home, name), name


def test_star_import_binds_every_public_name():
    namespace: dict = {}
    exec("from mebkit import *", namespace)
    assert set(mebkit.__all__) <= set(namespace)
    assert all(namespace[name] is getattr(mebkit, name) for name in mebkit.__all__)


def test_dir_lists_every_public_name():
    assert set(mebkit.__all__) <= set(dir(mebkit))
    assert "__version__" in dir(mebkit)


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        mebkit.no_such_name
    assert not hasattr(mebkit, "exact_mebb")
    with pytest.raises(ImportError):
        exec("from mebkit import no_such_name", {})


def test_import_loads_no_submodule_and_a_name_loads_its_home_alone():
    script = (
        "import json, sys\n"
        "def loaded():\n"
        "    return sorted(m for m in sys.modules if m.startswith('mebkit.'))\n"
        "import mebkit\n"
        "seen = [loaded()]\n"
        "mebkit.derive_seed\n"
        "seen.append(loaded())\n"
        "from mebkit import exact_meb\n"
        "seen.append(loaded())\n"
        "print(json.dumps(seen))\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(mebkit.__file__)))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src), timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [
        [],
        ["mebkit.seeding"],
        ["mebkit.errors", "mebkit.geometry", "mebkit.meb", "mebkit.seeding"],
    ]


def test_closed_form_and_caratheodory_calls_load_no_solver_module(tmp_path):
    # convexity imports the diameter and meb solvers inside the routines that run them
    path = tmp_path / "cloud.csv"
    path.write_text("0,0\n1,0\n0,1\n0.25,0.25\n", encoding="utf-8")
    script = (
        "import json, sys\n"
        "from mebkit import cli\n"
        "argv = [['bounds', 'fractional-helly', '--alpha', '0.5', '--d', '3'],\n"
        "        ['convexity', 'caratheodory', '--input', sys.argv[1]]]\n"
        "for args in argv:\n"
        "    report, code = cli.dispatch(args)\n"
        "    assert code == 0, report.result\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.startswith('mebkit.'))))\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(mebkit.__file__)))
    proc = subprocess.run([sys.executable, "-c", script, str(path)], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src), timeout=120)
    assert proc.returncode == 0, proc.stderr
    loaded = set(json.loads(proc.stdout))
    assert "mebkit.convexity" in loaded
    assert not loaded & {"mebkit.diameter", "mebkit.meb"}


def test_nodim_on_at_most_2048_points_loads_no_meb_module(tmp_path):
    # the pair scan gives the diameter there; only larger clouds bound it by the enclosing ball
    path = tmp_path / "cloud.csv"
    rows = "\n".join(f"{i % 7},{(i * 3) % 11}" for i in range(2048))
    path.write_text(rows + "\n", encoding="utf-8")
    script = (
        "import json, sys\n"
        "from mebkit import cli\n"
        "report, code = cli.dispatch(['convexity', 'nodim', '--input', sys.argv[1]])\n"
        "assert code == 0, report.result\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.startswith('mebkit.'))))\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(mebkit.__file__)))
    proc = subprocess.run([sys.executable, "-c", script, str(path)], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src), timeout=120)
    assert proc.returncode == 0, proc.stderr
    loaded = set(json.loads(proc.stdout))
    assert {"mebkit.convexity", "mebkit.diameter"} <= loaded
    assert "mebkit.meb" not in loaded
