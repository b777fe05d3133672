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
