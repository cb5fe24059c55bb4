"""Cohomogeneity-one minimal Lagrangian submanifolds of CH^n, CP^n and C^n:
construction of the families and numerical verification of their geometry.

``import lagmin`` loads no numpy.  The four geometry layers are registered
as lazy modules: ``lagmin.profiles`` and the others are in ``sys.modules``
and are attributes of the package at once, but their code runs, numpy
with it, on the first attribute read or import of each.  Tools that wrap
a layer's functions from outside (``perfbench/spans.py``) find them there.
"""

import importlib.util
import sys

__version__ = "0.1.0"


def _lazy(name: str):
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


geomcheck, immersions, model_spaces, profiles = map(
    _lazy, ("geomcheck", "immersions", "model_spaces", "profiles"))
