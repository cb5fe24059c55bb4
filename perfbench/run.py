"""lagmin benchmark: one workload per invocation, closed loop, one client.

    python3 perfbench/run.py --workload verify-matrix --seed 1 --seconds 30 --trace 0

Run from the root of a lagmin checkout (the package is imported from
``src``, nothing needs installing).  ``--trace 0`` measures the end-to-end
metrics of BENCHMARK.json; ``--trace 1`` is a separate run that wraps
lagmin's public functions (spans.py) and reports the per-layer metrics.
The seed permutes the order of operations inside each pass.  End-to-end
times are scaled by a machine speed factor (SpeedIndex).  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
``--tiny`` shrinks every workload to a few small inputs (smoke.py uses it).
NOTES.md explains the workloads, the metrics and the known failures.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import workloads
from spans import Tracer, install

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("verify-matrix", "cli-pipeline", "profile-claims")

# one BLAS/OpenMP thread for this process and every child: set before numpy loads
THREAD_PINS = {k: "1" for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
                                "NUMEXPR_NUM_THREADS")}
SETUP_IMPORTS = 5
STAGES = ("build", "verify", "sigma")
PROBE_EVERY_S = 0.5
# median probe time on the 2-vCPU Xeon box the bounds were tuned on
REF_PROBE_S = 0.007


def center(values) -> float:
    """Mean after dropping the n // 8 smallest and largest values.

    Repeats of one op (and probe times) on a shared host mix a fast and a
    slow mode in proportions that change from run to run; a median jumps
    between the modes, a mean follows the mix smoothly, and the trimming
    keeps a single stall from moving it.
    """
    xs = sorted(values)
    k = len(xs) // 8
    return statistics.fmean(xs[k:len(xs) - k])


def percentile(values, q: float) -> float:
    """Linear interpolation between closest ranks (numpy's default)."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def environment(args) -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "tiny": args.tiny,
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"), "scipy": metadata.version("scipy"),
        "nproc": os.cpu_count(), "cpu_affinity": sorted(os.sched_getaffinity(0)), "cpu": cpu,
        "thread_pins": THREAD_PINS,
    }


def setup_seconds(module: str, env: dict, cwd: Path, count: int) -> float:
    """Median wall time of fresh interpreters that only import ``module``."""
    times = []
    for _ in range(count):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", f"import {module}"], env=env, cwd=cwd,
                       check=True, timeout=120)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


class SpeedIndex:
    """How fast the machine runs during this run, from a fixed probe that
    does not touch lagmin: a Python loop of scalar math plus small numpy
    ufuncs and an einsum, timed every PROBE_EVERY_S between ops.

    Shared hosts drift between speed regimes (on the tuning box 1.6-1.8x
    apart, each lasting a minute or more) that slow Python and numpy work
    alike, so a whole run lands in one regime.  ``factor`` is the typical
    (``center``) probe time over REF_PROBE_S; end-to-end times except
    setup_s are divided by it (rates multiplied) so runs in different
    regimes compare.  The raw figures are printed beside the scaled ones.
    The process is pinned to one CPU so the probe and the ops, children
    included, share a core.
    """

    def __init__(self):
        import numpy as np  # after the thread pins

        self.np, self.x = np, np.linspace(0.1, 2.0, 2048)
        self.samples, self.spent, self.last = [], 0.0, 0.0
        for _ in range(4):  # the first warms up and is dropped
            self.probe()
        del self.samples[0]

    def probe(self) -> None:
        np, x = self.np, self.x
        t0 = time.perf_counter()
        acc = 0.0
        for i in range(6000):
            acc += math.tanh(i * 1e-3) + (i % 7)
        for _ in range(60):
            y = np.sinh(x) * np.exp(1j * x)
            acc += float(np.einsum("i,i->", y, np.conj(y)).real)
        self.last = time.perf_counter()
        self.samples.append(self.last - t0)
        self.spent += self.last - t0

    def maybe_probe(self) -> None:
        if time.perf_counter() - self.last >= PROBE_EVERY_S:
            self.probe()

    @property
    def factor(self) -> float:
        return center(self.samples) / REF_PROBE_S


def measure(wl, seconds: float, rng, end_pass, speed: SpeedIndex) -> dict:
    """Closed loop over whole seeded passes.

    A run always ends on a pass boundary: after ``wl.min_passes`` passes it
    starts another only if one more pass of the mean length so far fits in
    ``seconds``.  So every op of every run belongs to a whole pass, every
    run times the same mix of ops, and the failed share is the same in
    every run.  A repeated op must reproduce its output digest.  Probe
    time is left out of ``elapsed``.
    """
    runs, digests = [], {}
    t_start, probed = time.perf_counter(), speed.spent
    passes, elapsed = 0, 0.0
    while passes < wl.min_passes or elapsed * (passes + 1) / passes <= seconds:
        for op in wl.one_pass(rng):
            speed.maybe_probe()
            t0 = time.perf_counter()
            try:
                out = op.run()
            except Exception as exc:  # an op that raises is a failed op
                out = workloads.Outcome({"error": time.perf_counter() - t0},
                                        error=f"{type(exc).__name__}: {exc}")
            if out.error in (None, op.known):
                first = digests.setdefault(op.name, out.digest)
                if first != out.digest:
                    out.error = "output differs from an earlier run of this op"
            runs.append((op, out))
        passes += 1
        elapsed = time.perf_counter() - t_start - (speed.spent - probed)
        end_pass()
    return {"runs": runs, "elapsed": elapsed, "passes": passes}


def summarize(result: dict, factor: float) -> tuple[dict, dict]:
    """End-to-end values over the run's passes, and the notes printed beside
    them (with the unscaled values).

    Each op's latency (and stage time) is its ``center`` over the run's
    passes; percentiles are then taken over the ops of a pass.  Times are
    divided by the speed factor.
    """
    runs, elapsed = result["runs"], result["elapsed"]
    per_op, per_stage = {}, {}
    for op, out in runs:
        per_op.setdefault(op.name, []).append(sum(out.stages.values()) * 1e3)
        for stage, t in out.stages.items():
            per_stage.setdefault(stage, {}).setdefault(op.name, []).append(t * 1e3)
    lat = [center(v) for v in per_op.values()]
    count = f"{len(per_op)} ops x {result['passes']} passes"
    raw = {
        "ops_per_s": len(runs) / elapsed,
        "op_p50_ms": statistics.median(lat),
        "op_p90_ms": percentile(lat, 90),
    }
    notes = {
        "ops_per_s": f"{len(runs)} ops in {elapsed:.2f} s",
        "op_p50_ms": count,
        "op_p90_ms": count,
    }
    for stage in STAGES:
        xs = [center(v) for v in per_stage[stage].values()]
        raw[f"{stage}_p50_ms"] = statistics.median(xs)
        notes[f"{stage}_p50_ms"] = f"{len(xs)} ops x {result['passes']} passes"
    values = {k: v * factor if k == "ops_per_s" else v / factor for k, v in raw.items()}
    for k, v in raw.items():
        notes[k] += f"; raw {v:.6g}"
    failed_ops = {op.name for op, out in runs if out.error}
    failures = sum(1 for _, out in runs if out.error)
    values["pass_ratio"] = (len(per_op) - len(failed_ops)) / len(per_op)
    notes["pass_ratio"] = (f"{len(per_op) - len(failed_ops)} of {len(per_op)} ops passed every "
                           f"run; fail_ratio {failures}/{len(runs)} = "
                           f"{failures / len(runs):.4f}")
    return values, notes


COUNT_SUFFIXES = (".calls", ".points", ".failed", "ode_rhs_evals", "bytes_written",
                  "bytes_read", "exit_nonzero", "base_points", "evaluated_points")


def layer_pass(summaries: list) -> dict:
    """Fold span summaries of one pass into per-layer totals."""
    tot = {}
    for s in summaries:
        for name, rec in s["spans"].items():
            tot[f"{name}.calls"] = tot.get(f"{name}.calls", 0) + rec["calls"]
            tot[f"{name}.self_ms"] = tot.get(f"{name}.self_ms", 0.0) + rec["self_ms"]
        for name, v in s["counters"].items():
            if name == "geomcheck.worst_tol_ratio":
                tot[name] = max(tot.get(name, 0.0), v)
            else:
                tot[name] = tot.get(name, 0) + v
        for key in ("bytes_written", "bytes_read"):
            if key in s:
                tot[f"serialization.{key}"] = tot.get(f"serialization.{key}", 0) + s[key]
        if "code" in s:
            tot["cli.exit_nonzero"] = tot.get("cli.exit_nonzero", 0) + (s["code"] != 0)
    return tot


def per_layer(passes: list, cli_records: list, wanted: list) -> tuple[dict, list]:
    """Per-pass means of the layer totals, plus the count names that differ
    between passes (they must not)."""
    keys = set().union(*passes) if passes else set()
    unstable = sorted(k for k in keys if k.endswith(COUNT_SUFFIXES)
                      and len({p.get(k, 0) for p in passes}) > 1)
    values = {k: sum(p.get(k, 0) for p in passes) / len(passes) for k in keys}
    base = values.get("fd.base_points", 0)
    values["fd.evals_per_point"] = values.get("fd.evaluated_points", 0) / base if base else 0.0
    values["geomcheck.worst_tol_ratio"] = max((p.get("geomcheck.worst_tol_ratio", 0.0)
                                               for p in passes), default=0.0)
    imports = [r["import_ms"] for r in cli_records]
    values["cli.import_ms"] = statistics.median(imports) if imports else 0.0
    for cmd in ("build", "verify", "export", "sigma-integral"):
        xs = [r["inproc_ms"] for r in cli_records if r["command"] == cmd]
        values[f"cli.{cmd}.inproc_ms"] = statistics.median(xs) if xs else 0.0
    return {k: values.get(k, 0) for k in wanted}, unstable


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="a few small inputs (smoke test)")
    args = p.parse_args(argv)

    if not (SRC / "lagmin" / "__init__.py").is_file():
        print(f"error: no lagmin sources under {SRC}; run from a lagmin checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    kind = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[kind]}

    os.environ.update(THREAD_PINS)
    # one CPU for this process and its children, so the speed probe and the
    # ops it scales run on the same core
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    child_env = dict(os.environ)
    child_env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else []))
    env_info = environment(args)
    work = HERE / ".work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        return run(args, units, child_env, env_info, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def run(args, units: dict, child_env: dict, env_info: dict, work: Path) -> int:
    rng = random.Random(args.seed)
    in_process = args.workload != "cli-pipeline"
    speed = SpeedIndex()
    values, notes = {}, {}
    if not args.trace:
        module = "lagmin" if in_process else "lagmin.cli"
        count = 1 if args.tiny else SETUP_IMPORTS
        # not scaled: imports (file reads, dynamic loading) do not follow the probe
        values["setup_s"] = setup_seconds(module, child_env, work, count)
        notes["setup_s"] = f"median of {count} fresh interpreters importing {module}"

    tracer = Tracer()
    runner = None
    if in_process:
        sys.path.insert(0, str(SRC))
        build = {"verify-matrix": workloads.verify_matrix,
                 "profile-claims": workloads.profile_claims}[args.workload]
        wl = build(args.tiny)
        if args.trace:
            install(tracer)
        wl.ops[0].run()  # warm caches and lazy imports; not measured
        tracer.take()
    else:
        runner = workloads.CliRunner(work, child_env, bool(args.trace))
        wl = workloads.cli_pipeline(args.tiny, runner)

    layer_passes, cli_records = [], []

    def end_pass():
        if not args.trace:
            return
        summaries = [tracer.take()]
        if runner is not None:
            summaries = runner.records
            cli_records.extend(runner.records)
            runner.records = []
        layer_passes.append(layer_pass(summaries))

    result = measure(wl, args.seconds, rng, end_pass, speed)
    e2e, e2e_notes = summarize(result, speed.factor)
    runs = result["runs"]
    errors = [f"{op.name}: {out.error}" for op, out in runs
              if out.error and out.error != op.known]

    if args.trace:
        values, unstable = per_layer(layer_passes, cli_records, list(units))
        values["trace.ops_per_s"] = e2e["ops_per_s"]
        values["trace.op_p50_ms"] = e2e["op_p50_ms"]
        if unstable:
            errors.append("per-layer counts differ between passes: " + ", ".join(unstable))
        notes = {k: f"per pass, mean of {len(layer_passes)} passes" for k in values
                 if units[k].endswith("/pass")}
    else:
        values.update(e2e)
        notes.update(e2e_notes)
        who = resource.RUSAGE_SELF if in_process else resource.RUSAGE_CHILDREN
        values["peak_rss_mb"] = resource.getrusage(who).ru_maxrss / 1024.0
        notes["peak_rss_mb"] = "benchmark process" if in_process else "largest child"

    print(f"perfbench {args.workload}: seed {args.seed}, {args.seconds:g} s, "
          f"trace {args.trace}, one client, closed loop")
    print("env " + json.dumps(env_info, sort_keys=True))
    print(f"speed factor {speed.factor:.4f}: {len(speed.samples)} probes, typical "
          f"{center(speed.samples) * 1e3:.3f} ms / reference "
          f"{REF_PROBE_S * 1e3:g} ms; scaled times are divided by it")
    for name, unit in units.items():
        print(f"  {name:<44} {values[name]:>14.6g} {unit:<12} {notes.get(name, '')}")
    known = sorted({f"{op.name}: {out.error}" for op, out in runs
                    if out.error and out.error == op.known})
    for line in known:
        print(f"  known failure  {line}")
    for line in errors[:20]:
        print(f"  FAILED  {line}")

    last = HERE / ".work" / f"last-{args.workload}{'-tiny' * args.tiny}-untraced.json"
    if args.trace and last.exists():
        base = json.loads(last.read_text())
        print(f"  tracing overhead: ops_per_s {e2e['ops_per_s'] - base['ops_per_s']:+.4g} "
              f"1/s, op_p50_ms {e2e['op_p50_ms'] - base['op_p50_ms']:+.4g} ms "
              "(scaled, traced minus the last untraced run)")
    elif not args.trace:
        last.write_text(json.dumps({k: e2e[k] for k in ("ops_per_s", "op_p50_ms")}))

    failed = sum(1 for _, out in runs if out.error)
    print(json.dumps({
        "correct": not errors,
        "attempted": len(runs),
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
