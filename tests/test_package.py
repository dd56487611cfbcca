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
