"""The three workloads: their operations, inputs and correctness checks.

An operation ("op") runs the program on one generated input and returns an
``Outcome``: wall seconds per stage (``build``, ``verify``, ``sigma`` or
``export``; an op's latency is their sum), a digest of its outputs (a
repeated op must reproduce it exactly) and an error string or None.  An op
whose ``known`` string equals its error is a documented defect of the
program at the seed: it counts as failed, but does not make the run
incorrect.  Why each workload exists is written down in NOTES.md.
"""

from __future__ import annotations

import hashlib
import json
import math
import subprocess
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

# Total curvature integral of the thm1 / ch_sphere family at rho = 1, from
# the hyperelliptic t-form evaluated with mpmath at 30 digits.
SIGMA_REF = {2: 31.931593048837654, 3: 442.18722260570937, 4: 7226.6407107813487}

# The sff check of thm1 fails on correct geometry where finite differences
# of cosh-sized lifts lose the exponentially small curvature (ROADMAP item 1).
SFF_DEFECT = "failed checks: sff"


@dataclass
class Outcome:
    stages: dict = field(default_factory=dict)
    digest: str = ""
    error: str | None = None


@dataclass
class Op:
    name: str
    run: object  # () -> Outcome
    known: str | None = None


@dataclass
class Workload:
    """``sequences`` are runs of ops that keep their order; a pass shuffles
    the sequences with the seeded generator and appends ``tail``.  A run
    makes at least ``min_passes`` passes: two, so that every op repeats and
    its output is checked against the first run of it, unless the pass
    repeats ops itself."""

    sequences: list
    tail: list = field(default_factory=list)
    min_passes: int = 2

    @property
    def ops(self) -> list:
        return [op for seq in self.sequences for op in seq] + self.tail

    def one_pass(self, rng) -> list:
        seqs = list(self.sequences)
        rng.shuffle(seqs)
        return [op for seq in seqs for op in seq] + self.tail


class Stages:
    def __init__(self):
        self.out = Outcome()

    @contextmanager
    def __call__(self, name):
        t0 = time.perf_counter()
        try:
            yield
        finally:
            dt = time.perf_counter() - t0
            self.out.stages[name] = self.out.stages.get(name, 0.0) + dt


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(p if isinstance(p, bytes) else repr(p).encode())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# verify-matrix: build_immersion + run_checks in-process


def verify_matrix(tiny: bool) -> Workload:
    import lagmin.geomcheck as gc
    import lagmin.immersions as im
    import lagmin.profiles as pr

    if tiny:
        cases = [("thm1", 2, None), ("thm2", 2, None)]
        grid, field_grid = (16, 16), (129, 32)
    else:
        # prop3a over clifford_cp starts at n = 3: the seed needs dim >= 2
        cases = [(f, n, None) for f in ("thm1", "thm2", "thm3") for n in (2, 3, 4)]
        cases += [("prop3a", 3, "clifford_cp"), ("prop3a", 4, "clifford_cp"),
                  ("prop3a", 2, "tg_sphere_cp")]
        grid, field_grid = (64, 64), (513, 64)

    def case_op(fam, n, seed):
        def run():
            st = Stages()
            with st("build"):
                imm = im.build_immersion(im.ImmersionFamilySpec(fam, n, 1.0, seed_kind=seed),
                                         grid=grid)
            with st("verify"):
                report = gc.run_checks(imm)
            failing = [c["name"] for c in report.checks if not c["pass"]]
            if failing:
                st.out.error = "failed checks: " + ",".join(failing)
            st.out.digest = _digest(imm.samples.tobytes(),
                                    [(c["name"], c["residual"]) for c in report.checks])
            return st.out

        known = SFF_DEFECT if (fam, n) == ("thm1", 4) else None
        tag = f"{fam} n={n}" + (f" {seed}" if seed else "")
        return Op(tag, run, known)

    def field_op():
        st = Stages()
        with st("build"):
            imm = im.build_immersion(im.ImmersionFamilySpec("thm1", 2, 1.0),
                                     grid=field_grid, s_window=(-5.0, 5.0))
        with st("sigma"):
            f = gc.curvature_field(imm)
            value = pr.sigma_integral_numeric(f["s_values"], f["sigma_norms"],
                                              f["sqrt_det_g"], f["chart_weights"], 2)
        rel = abs(value - SIGMA_REF[2]) / SIGMA_REF[2]
        if not rel <= 1e-2:  # acceptance test 07
            st.out.error = f"grid curvature integral off the t-form by {rel:.2e}"
        st.out.digest = _digest(value)
        return st.out

    ops = [case_op(*c) for c in cases]
    ops.append(Op(f"thm1 n=2 curvature field {field_grid[0]}x{field_grid[1]}", field_op))
    return Workload([[op] for op in ops])


# ---------------------------------------------------------------------------
# profile-claims: profile ODEs, phases and the paper's integral claims


def profile_claims(tiny: bool) -> Workload:
    import numpy as np

    import lagmin.profiles as pr

    if tiny:
        cases = [("ch_sphere", 2, 1.0), ("ch_tube", 2, 1.0), ("cp_sphere", 2, 0.6),
                 ("ch_horo", 2, 1.0)]
    else:
        cases = [(t, n, r) for t in ("ch_sphere", "ch_tube") for n in (2, 3, 4)
                 for r in (0.5, 1.0, 2.0)]
        cases += [("cp_sphere", n, r) for n in (2, 3) for r in (0.3, 0.6, 1.2)]
        cases += [("ch_horo", n, r) for n in (2, 3, 5) for r in (0.5, 1.0, 2.0)]

    def case_op(tag, n, rho):
        def run():
            st = Stages()
            errors = []
            fam = pr.ProfileFamily(tag, n, rho)
            with st("build"):
                sol = pr.solve_profile(fam, 5.0 if tag == "ch_horo" else 8.0)
            with st("verify"):
                energy = pr.energy_residual(sol)
                ph = pr.phase_integrals(sol)
                probe = np.linspace(-sol.s_max / 2, sol.s_max / 2, 9)
                phases = np.concatenate([ph.a_of_s(probe), ph.b_of_s(probe)])
            e_tol = 1e-10 if tag == "ch_horo" else 1e-8  # acceptance 02 / 01
            if not energy <= e_tol:
                errors.append(f"energy residual {energy:.2e} > {e_tol:.0e}")
            if not np.all(np.isfinite(phases)):
                errors.append("non-finite phase integral")
            results = [energy, phases.tobytes()]
            if tag == "ch_sphere":
                with st("build"):
                    sol12 = pr.solve_profile(fam, 12.0)
                with st("verify"):
                    sup = pr.embedding_phase_sup(sol12)
                with st("sigma"):
                    vs = pr.sigma_integral_thm1(pr.SigmaIntegralSpec(n, rho, method="s"))
                    vt = pr.sigma_integral_thm1(pr.SigmaIntegralSpec(n, rho, method="t"))
                rel = abs(vs - vt) / abs(vt)
                if not sup < math.pi - 0.01:  # acceptance 08
                    errors.append(f"embedding phase sup {sup:.6f} >= pi - 0.01")
                if not rel <= 1e-4:  # acceptance 07
                    errors.append(f"s/t forms differ by {rel:.2e}")
                results += [sup, vs, vt]
            if tag == "cp_sphere":
                with st("verify"):
                    period = pr.detect_period(n, rho)
                if not period.closure_residual <= 1e-8:  # acceptance 09
                    errors.append(f"period closure {period.closure_residual:.2e}")
                results += [period.period, period.closure_residual]
            st.out.error = "; ".join(errors) or None
            st.out.digest = _digest(*results)
            return st.out

        return Op(f"{tag} n={n} rho={rho:g}", run)

    return Workload([[case_op(*c)] for c in cases])


# ---------------------------------------------------------------------------
# cli-pipeline: one lagmin command per fresh interpreter


# what the installed `lagmin` console script runs
CLI_ENTRY = "import sys; from lagmin.cli import main; sys.exit(main())"


class CliRunner:
    """Runs one lagmin command at a time in ``work`` and collects what the
    traced launcher reports (``records``) and the files read and written."""

    def __init__(self, work: Path, env: dict, traced: bool):
        self.work, self.env, self.traced = work, env, traced
        self.records = []  # traced: per-command launcher summaries

    def __call__(self, argv, reads=(), writes=()):
        if self.traced:
            summary = self.work / "launch-summary.json"
            cmd = [sys.executable, str(Path(__file__).with_name("launch.py")), str(summary)]
        else:
            cmd = [sys.executable, "-c", CLI_ENTRY]
        for name in writes:
            (self.work / name).unlink(missing_ok=True)
        if self.traced:
            summary.unlink(missing_ok=True)
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(cmd + list(argv), cwd=self.work, env=self.env,
                                  stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                                  timeout=150)
        except subprocess.TimeoutExpired:
            return time.perf_counter() - t0, None, "timed out after 150 s"
        wall = time.perf_counter() - t0
        if self.traced:
            if not summary.exists():
                return wall, proc.returncode, f"exit {proc.returncode} without a trace summary"
            rec = json.loads(summary.read_text())
            rec["command"] = argv[0]
            rec["bytes_read"] = sum((self.work / f).stat().st_size for f in reads)
            rec["bytes_written"] = sum((self.work / f).stat().st_size for f in writes
                                       if (self.work / f).exists())
            self.records.append(rec)
        err = None
        if proc.returncode not in (0, 3):
            tail = proc.stderr.decode(errors="replace").strip().splitlines()[-1:]
            err = f"exit {proc.returncode}: {' '.join(tail)}"
        return wall, proc.returncode, err


def cli_pipeline(tiny: bool, runner: CliRunner) -> Workload:
    if tiny:
        cases = [("thm1", 2, None, "33x16")]
        both_n = 2
    else:
        cases = [("thm1", 2, None, "64x64"), ("thm2", 3, None, "64x64"),
                 ("thm3", 3, None, "64x64"), ("prop3a", 3, "clifford-cp", "64x64"),
                 ("thm1", 4, None, "64x64"), ("thm1", 3, None, "256x64")]
        both_n = 3
    work = runner.work

    def file_digest(name) -> str:
        return hashlib.sha256((work / name).read_bytes()).hexdigest()

    def op(name, stage, argv, check, reads=(), writes=(), known=None):
        def run():
            wall, code, err = runner(argv, reads, writes)
            out = Outcome({stage: wall}, error=err)
            if err is None:
                out.error = check(code)
            if out.error is None or out.error == known:
                out.digest = _digest(*(file_digest(w) for w in writes))
            return out

        return Op(name, run, known)

    sequences = []
    for fam, n, seed, grid in cases:
        tag = f"{fam}_n{n}_{grid}"
        imm, rep, csv, sig = (f"{tag}.json", f"{tag}.report.json", f"{tag}.csv",
                              f"{tag}.sigma.json")
        S, M = (int(v) for v in grid.split("x"))
        label = f"{fam} n={n} {grid}"
        build_argv = ["build", "--family", fam, "--n", str(n), "--rho", "1",
                      "--grid", grid, "--out", imm]
        if seed:
            build_argv += ["--seed", seed]

        def check_build(code, imm=imm):
            if code != 0:
                return f"exit {code}"
            return None if (work / imm).stat().st_size > 0 else "empty output"

        def check_verify(code, rep=rep):
            report = json.loads((work / rep).read_text())
            if report["pass"] != (code == 0):
                return f"exit {code} disagrees with the report verdict"
            failing = [c["name"] for c in report["checks"] if not c["pass"]]
            return "failed checks: " + ",".join(failing) if failing else None

        def check_export(code, csv=csv, rows=S * M):
            if code != 0:
                return f"exit {code}"
            lines = (work / csv).read_bytes().count(b"\n")
            return None if lines == rows + 1 else f"{lines} CSV lines, expected {rows + 1}"

        def check_sigma(code, sig=sig, n=n):
            if code != 0:
                return f"exit {code}"
            value = float(json.loads((work / sig).read_text())["value"])
            ref = SIGMA_REF[n]
            if n == 2:  # the window holds all but ~3e-6 of the integral
                ok = abs(value - ref) / ref <= 1e-2
            else:  # coarse transverse grids under-integrate; never above the whole
                ok = 0.0 < value <= ref * (1 + 1e-2)
            return None if ok else f"numeric integral {value:.10g} vs t-form {ref:.10g}"

        known = SFF_DEFECT if (fam, n, grid) in (("thm1", 4, "64x64"),
                                                 ("thm1", 3, "256x64")) else None
        seq = [
            op(f"build {label}", "build", build_argv, check_build, writes=[imm]),
            op(f"verify {label}", "verify", ["verify", "--in", imm, "--report", rep],
               check_verify, reads=[imm], writes=[rep], known=known),
            op(f"export {label}", "export",
               ["export", "--in", imm, "--what", "samples", "--out", csv],
               check_export, reads=[imm], writes=[csv]),
        ]
        if fam == "thm1":
            seq.append(op(f"sigma-integral --in {label}", "sigma",
                          ["sigma-integral", "--in", imm, "--out", sig],
                          check_sigma, reads=[imm], writes=[sig]))
        sequences.append(seq)

    both = f"sigma_both_n{both_n}.json"

    def check_both(code):
        if code != 0:
            return f"exit {code}"
        d = json.loads((work / both).read_text())
        rel = float(d["relative_discrepancy"])
        ref = SIGMA_REF[both_n]
        forms_ok = all(abs(float(d[k]) - ref) / ref <= 1e-6 for k in ("s_form", "t_form"))
        if not (rel <= 1e-4 and forms_ok):
            return f"s/t forms {d['s_form']} / {d['t_form']} (discrepancy {rel:.2e})"
        return None

    # a pass takes about as long as a run, so it checks determinism itself:
    # after the shuffled cases it rebuilds and re-verifies the first case,
    # whose files must come out byte-identical
    tail = [op(f"sigma-integral --method both thm1 n={both_n}", "sigma",
               ["sigma-integral", "--family", "thm1", "--n", str(both_n), "--rho", "1",
                "--method", "both", "--out", both], check_both, writes=[both])]
    tail += sequences[0][:2]
    return Workload(sequences, tail, min_passes=1)
