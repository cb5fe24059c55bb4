"""Spans and counters around lagmin's public functions, installed from outside.

``install()`` rebinds module attributes of the loaded ``lagmin`` modules to
thin wrappers: every module that imported a wrapped function by name (for
example ``lagmin.cli.build_immersion`` or ``lagmin.geomcheck.herm_form``)
gets the wrapper too, so calls are seen whichever module makes them.
Wrappers pass arguments and results through unchanged.

Spans (name, start, end, parent) are kept in memory; ``Tracer.take()``
turns them into per-name call counts and self times (a span's duration
minus the durations of its direct children) and clears them.  Only the
standard library is imported here, so the launcher can time
``import lagmin.cli`` before installing.
"""

from __future__ import annotations

import functools
import sys
import time

# (module, attribute, span name): timed spans
SPANS = (
    ("lagmin.profiles", "solve_profile", "profiles.solve_profile"),
    ("lagmin.profiles", "phase_integrals", "profiles.phase_integrals"),
    ("lagmin.profiles", "energy_residual", "profiles.energy_residual"),
    ("lagmin.profiles", "embedding_phase_sup", "profiles.embedding_phase_sup"),
    ("lagmin.profiles", "sigma_integral_thm1", "profiles.sigma_integral_thm1"),
    ("lagmin.profiles", "detect_period", "profiles.detect_period"),
    ("lagmin.immersions", "build_immersion", "immersions.build_immersion"),
    ("lagmin.immersions", "assemble_immersion", "immersions.assemble_immersion"),
    ("lagmin.fd", "jet_partials", "fd.jet_partials"),
    ("lagmin.fd", "first_partials", "fd.first_partials"),
    ("lagmin.geomcheck", "jet", "geomcheck.jet"),
    ("lagmin.geomcheck", "second_fundamental_form", "geomcheck.second_fundamental_form"),
    ("lagmin.geomcheck", "run_checks", "geomcheck.run_checks"),
    ("lagmin.geomcheck", "invariance_residual", "geomcheck.invariance_residual"),
    ("lagmin.geomcheck", "curvature_field", "geomcheck.curvature_field"),
    ("lagmin.model_spaces", "herm_form", "model_spaces.herm_form"),
    ("lagmin.serialization", "immersion_to_dict", "serialization.immersion_to_dict"),
    ("lagmin.serialization", "dumps", "serialization.dumps"),
    ("lagmin.serialization", "immersion_from_dict", "serialization.immersion_from_dict"),
    ("lagmin.serialization", "profile_from_dict", "serialization.profile_from_dict"),
)


class Tracer:
    """In-memory span recorder plus named counters (single-threaded)."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.stack = []
        self.counters = {}

    def count(self, name: str, amount=1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def span(self, name: str, fn, after=None):
        """Wrap ``fn`` in a span; ``after(args, result)`` may add counters."""
        spans, stack = self.spans, self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()
            if after is not None:
                after(args, out)
            return out

        return wrapper

    def counted(self, fn, after):
        """Wrap ``fn`` without a span: only ``after(args, result)`` runs."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            after(args, out)
            return out

        return wrapper

    def take(self) -> dict:
        """Per-name {"calls", "self_ms"} and the counters; clears both."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {}
        for (name, start, end, _), inner in zip(self.spans, child):
            rec = out.setdefault(name, {"calls": 0, "self_ms": 0.0})
            rec["calls"] += 1
            rec["self_ms"] += (end - start - inner) * 1e3
        counters = dict(self.counters)
        self.spans.clear()  # in place: the wrappers hold these objects
        self.counters.clear()
        return {"spans": out, "counters": counters}


def _rebind(original, wrapper) -> None:
    """Point every loaded lagmin module attribute bound to ``original`` at
    ``wrapper``."""
    for modname, mod in list(sys.modules.items()):
        if mod is None or not (modname == "lagmin" or modname.startswith("lagmin.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, wrapper)


def install(tracer: Tracer) -> None:
    """Wrap the public functions of every lagmin layer (call once per process)."""
    import numpy as np

    import lagmin  # noqa: F401  (loads profiles, immersions, geomcheck, model_spaces)
    import lagmin.serialization  # noqa: F401

    def shape_rows(x) -> int:
        return int(np.atleast_2d(np.asarray(x)).shape[0])

    def fd_after(args, _out):
        tracer.count("fd.base_points", shape_rows(args[1]))

    def checks_after(_args, report):
        tracer.count("geomcheck.run_checks.failed", 0 if report.verdict else 1)
        worst = max((c["residual"] / c["tol"] for c in report.checks), default=0.0)
        tracer.counters["geomcheck.worst_tol_ratio"] = max(
            tracer.counters.get("geomcheck.worst_tol_ratio", 0.0), worst)

    after = {"fd.jet_partials": fd_after, "fd.first_partials": fd_after,
             "geomcheck.run_checks": checks_after}
    for modname, attr, name in SPANS:
        original = getattr(sys.modules[modname], attr)
        _rebind(original, tracer.span(name, original, after.get(name)))

    # fd.evals_per_point needs the points evaluated inside fd calls: count
    # every evaluate_xi point, and separately those under an fd span
    from lagmin.immersions import SampledImmersion

    def xi_after(args, _out):
        rows = shape_rows(args[1])
        tracer.count("immersions.evaluate_xi.points", rows)
        if any(tracer.spans[i][0].startswith("fd.") for i in tracer.stack):
            tracer.count("fd.evaluated_points", rows)

    SampledImmersion.evaluate_xi = tracer.span(
        "immersions.evaluate_xi", SampledImmersion.evaluate_xi, xi_after)

    profiles = sys.modules["lagmin.profiles"]

    def ivp_after(_args, sol):
        tracer.count("profiles.ode_rhs_evals", int(sol.nfev))

    _rebind(profiles.solve_ivp, tracer.counted(profiles.solve_ivp, ivp_after))
    _rebind(profiles.quad, tracer.counted(
        profiles.quad, lambda _a, _o: tracer.count("profiles.quad.calls")))
