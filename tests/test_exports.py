import importlib
import pkgutil

import pytest

import lagmin

_MODULES = sorted(m.name for m in pkgutil.iter_modules(lagmin.__path__))


def test_modules_found():
    assert {"fd", "geomcheck", "immersions", "model_spaces", "profiles"} <= set(_MODULES)


@pytest.mark.parametrize("name", _MODULES)
def test_every_export_resolves(name):
    # a deletion cannot leave a stale name in __all__
    module = importlib.import_module(f"lagmin.{name}")
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported)
    assert [n for n in exported if not hasattr(module, n)] == []
