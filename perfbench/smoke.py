"""Smoke test of the benchmark itself, about a minute:

    python3 perfbench/smoke.py

Runs every workload at a tiny size, untraced once and traced twice, and
checks that the last line carries exactly the keys and metrics that
BENCHMARK.json names, each with its unit, that no op failed unexpectedly,
and that the per-layer counts repeat exactly between the two traced runs.
Also checks that the benchmark refuses to run without the lagmin sources.
Exits non-zero on the first failed check.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TIMED_UNITS = ("ms", "ms/pass", "1/s")


def run(workload: str, trace: int, seed: int, cwd: Path = ROOT):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def result(workload: str, trace: int, seed: int, spec: dict) -> dict:
    proc = run(workload, trace, seed)
    assert proc.returncode == 0, f"{workload} trace {trace}: exit {proc.returncode}\n{proc.stderr}"
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}, last.keys()
    assert last["correct"] is True, proc.stdout
    assert isinstance(last["attempted"], int) and last["attempted"] >= 1
    assert isinstance(last["failed"], int)
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = last["metrics"]
    assert set(got) == set(wanted), set(got) ^ set(wanted)
    for name, unit in wanted.items():
        assert got[name]["unit"] == unit, (name, got[name])
        assert isinstance(got[name]["value"], (int, float)), (name, got[name])
    return got


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for wl in spec["workloads"]:
        name = wl["name"]
        e2e = result(name, 0, 1, spec)
        assert all(v["value"] > 0 for v in e2e.values()), e2e
        first = result(name, 1, 2, spec)
        second = result(name, 1, 3, spec)
        for metric, v in first.items():
            if v["unit"] not in TIMED_UNITS:  # counts, sizes and ratios repeat exactly
                assert v["value"] == second[metric]["value"], (name, metric)
        print(f"ok  {name}")

    bare = HERE / ".work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns(".work"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = run(spec["workloads"][0]["name"], 0, 1, cwd=bare)
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0 and not proc.stdout.strip(), proc.stdout
    print("ok  refuses to run without the lagmin sources")
    return 0


if __name__ == "__main__":
    sys.exit(main())
