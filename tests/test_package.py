"""Package surface: every exported name resolves."""

import importlib
import inspect
import pkgutil

import pytest

import sideshap

MODULES = ["sideshap"] + [f"sideshap.{m.name}" for m in pkgutil.iter_modules(sideshap.__path__)]


@pytest.mark.parametrize("module_name", MODULES)
def test_all_names_resolve(module_name):
    module = importlib.import_module(module_name)
    missing = [name for name in getattr(module, "__all__", ())
               if not hasattr(module, name)]
    assert missing == []


def test_autodiff_exports_every_public_definition():
    """The reverse direction: no public function or class of the module hides outside __all__."""
    import sideshap.autodiff as module

    defined = {name for name, obj in vars(module).items()
               if not name.startswith("_") and (inspect.isfunction(obj) or inspect.isclass(obj))
               and obj.__module__ == module.__name__}
    assert sorted(defined - set(module.__all__)) == []


def test_runtime_imports_no_scipy():
    """A fresh interpreter: importing sideshap and running check-bounds loads no scipy.

    It must be a fresh process, because other tests import scipy as their oracle.
    """
    import os
    import subprocess
    import sys

    code = ("import sys, contextlib, io, sideshap; from sideshap import cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    assert cli.main(['check-bounds']) == 0\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True).stdout
    assert out.strip() == "[]"


def test_numpy_is_the_only_runtime_dependency():
    tomllib = pytest.importorskip("tomllib")
    from pathlib import Path

    with open(Path(__file__).parents[1] / "pyproject.toml", "rb") as f:
        project = tomllib.load(f)["project"]
    assert [d.split(">")[0] for d in project["dependencies"]] == ["numpy"]
    assert any(d.split(">")[0] == "scipy" for d in project["optional-dependencies"]["test"])
