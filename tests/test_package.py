import os
import subprocess
import sys
from pathlib import Path

import pytest

import coincalc

ROOT = Path(__file__).resolve().parents[1]


def run_python(*args):
    env = os.environ.copy()
    # the child imports coincalc from this checkout, as pytest does
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, env=env, timeout=120)


def test_every_public_name_resolves():
    for name in coincalc.__all__:
        # the module __getattr__ itself, whether or not the name is cached
        assert coincalc.__getattr__(name) is getattr(coincalc, name)


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from coincalc import *", namespace)
    for name in coincalc.__all__:
        assert namespace[name] is getattr(coincalc, name)


def test_dir_lists_the_public_names():
    assert set(coincalc.__all__) <= set(dir(coincalc))
    assert "__version__" in dir(coincalc)


def test_unknown_attribute_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        coincalc.no_such_name
    assert not hasattr(coincalc, "no_such_name")


def test_package_import_loads_no_submodule():
    result = run_python("-c", "import sys, coincalc; print(sorted("
                        "m for m in sys.modules if m.startswith('coincalc')))")
    assert result.returncode == 0, result.stderr
    assert result.stdout == "['coincalc']\n"


@pytest.mark.parametrize("demo", sorted((ROOT / "demos").glob("*.py")),
                         ids=lambda path: path.name)
def test_demo_runs(demo):
    result = run_python(str(demo))
    assert result.returncode == 0, result.stderr
