import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

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


_SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"

# in a fresh interpreter, as the traced benchmark does: import lagmin, load
# perfbench/spans.py by path, then read every hook it binds from sys.modules
# in SPANS order (lagmin.fd is there only once immersions has loaded it)
_HOOKS = """
import importlib.util, sys
import lagmin, lagmin.serialization
spec = importlib.util.spec_from_file_location("perfbench_spans", sys.argv[1])
spans = importlib.util.module_from_spec(spec)
spec.loader.exec_module(spans)
hooks = [(m, a) for m, a, _ in spans.SPANS]
hooks += [("lagmin.profiles", "solve_ivp"), ("lagmin.profiles", "quad")]
missing = [f"{m}.{a}" for m, a in hooks
           if m not in sys.modules or not callable(getattr(sys.modules[m], a, None))]
from lagmin.immersions import SampledImmersion
if not callable(getattr(SampledImmersion, "evaluate_xi", None)):
    missing.append("lagmin.immersions.SampledImmersion.evaluate_xi")
print(len(hooks), missing)
"""


def test_benchmark_span_hooks_resolve():
    # a simplification must not delete or move a function the traced
    # benchmark wraps by name
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join([src] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run([sys.executable, "-c", _HOOKS, str(_SPANS)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    count, missing = proc.stdout.split(" ", 1)
    assert int(count) >= 20
    assert missing.strip() == "[]"
