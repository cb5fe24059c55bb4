"""Command-line front end.

Subcommands: solve, build, verify, sigma-integral, period, export.
Machine-readable JSON goes to --out (stdout when absent); human summaries
go to stderr.  Exit codes: 0 pass, 1 usage/schema error, 2 numeric
failure (running out of memory included), 3 verification failure.
Defaults may be placed in ./lagmin.conf (key=value lines, '#' comments);
flags always win.

Import rule: at module level this file imports only the standard library,
``domain`` (tags, exceptions) and the text layer of
``serialization``, none of which loads numpy.  Each ``cmd_*`` imports the
modules it runs, so ``export --what samples`` never loads numpy and
``sigma-integral --method`` never loads ``immersions`` or ``geomcheck``;
``tests/test_cli.py::TestColdPath`` checks each command's footprint.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from . import serialization as ser
from .domain import (
    ALL_CHECKS,
    IMMERSION_FAMILIES,
    PROFILE_FAMILIES,
    SEED_KINDS,
    GeometryError,
    IntegrationFailure,
    InvalidArgument,
    NeedsLargerDomain,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERIC = 2
EXIT_VERIFY = 3

CONFIG_PATH = "./lagmin.conf"

_CONFIG_KEYS = {
    "s_max": (float, lambda v: 0 < v <= 100),
    "grid": (str, lambda v: _parse_grid(v) is not None),
}

_DEFAULTS = {"s_max": 8.0, "grid": "64x64"}


class UsageError(Exception):
    pass


def _parse_grid(text: str):
    parts = text.lower().split("x")
    if len(parts) != 2:
        return None
    try:
        S, M = int(parts[0]), int(parts[1])
    except ValueError:
        return None
    if S < 4 or M < 2:
        return None
    return (S, M)


def load_config(path: str) -> dict:
    """Read key=value defaults; unknown keys and bad ranges are rejected."""
    cfg = dict(_DEFAULTS)
    if not os.path.exists(path):
        return cfg
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise UsageError(f"{path}:{lineno}: expected key=value")
            key, val = (p.strip() for p in line.split("=", 1))
            if key not in _CONFIG_KEYS:
                raise UsageError(f"{path}:{lineno}: unknown key {key!r}")
            cast, ok = _CONFIG_KEYS[key]
            try:
                v = cast(val)
            except ValueError:
                raise UsageError(f"{path}:{lineno}: bad value for {key}") from None
            if not ok(v):
                raise UsageError(f"{path}:{lineno}: {key}={val} out of range")
            cfg[key] = v
    return cfg


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _emit(payload: dict, out_path: str | None, summary: str) -> None:
    text = ser.dumps(payload)
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    print(summary, file=sys.stderr)


def _stringify_numbers(obj):
    if isinstance(obj, float):
        return ser.fnum(obj)
    if isinstance(obj, dict):
        return {k: _stringify_numbers(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_stringify_numbers(v) for v in obj]
    return obj


def _dash(tag: str) -> str:
    return tag.replace("_", "-")


def _undash(tag: str) -> str:
    return tag.replace("-", "_")


# ---------------------------------------------------------------------------
# subcommands


def cmd_solve(args, cfg) -> int:
    from .profiles import ProfileFamily, solve_profile

    fam = ProfileFamily(_undash(args.family), args.n, args.rho)
    s_max = args.s_max if args.s_max is not None else cfg["s_max"]
    if not _CONFIG_KEYS["s_max"][1](s_max):
        raise UsageError(f"--s-max {s_max!r} out of range: it must lie in (0, 100]")
    sol = solve_profile(fam, s_max)
    payload = ser.profile_to_dict(sol)
    note = ""
    if payload.get("equilibrium_proximate"):
        note = " [equilibrium-proximate]"
    _emit(payload, args.out,
          f"solved {args.family} n={fam.n} rho={fam.rho:g} on [-{s_max:g}, {s_max:g}]"
          f" energy residual {payload['energy_residual']}{note}")
    return EXIT_OK


def cmd_build(args, cfg) -> int:
    from .immersions import PROFILE_MARGIN, ImmersionFamilySpec, build_immersion

    spec = ImmersionFamilySpec(
        family=_undash(args.family),
        n=args.n,
        rho=args.rho,
        seed_kind=None if args.seed is None else _undash(args.seed),
        c=args.c,
    )
    grid = _parse_grid(args.grid or cfg["grid"])
    if grid is None:
        raise UsageError(f"bad grid descriptor {args.grid!r}")
    s_window = None
    if args.s_window:
        try:
            lo, hi = (float(p) for p in args.s_window.split(":"))
        except ValueError:
            raise UsageError("--s-window expects LO:HI") from None
        # the half-width of the profile solve behind the window takes the
        # s_max range; build_immersion rejects a window that is not finite
        span = max(abs(lo), abs(hi)) + PROFILE_MARGIN
        if math.isfinite(span) and not _CONFIG_KEYS["s_max"][1](span):
            raise UsageError(f"--s-window {args.s_window} needs a profile on |s| <= {span:g},"
                             " beyond the s_max range (0, 100]")
        s_window = (lo, hi)
    imm = build_immersion(spec, grid=grid, s_window=s_window)
    payload = ser.immersion_to_dict(imm)
    _emit(payload, args.out,
          f"built {args.family} n={spec.n} on {grid[0]}x{grid[1]}"
          f" quadric={payload['header']['quadric']}"
          f" horizontal={payload['header']['horizontal']}")
    return EXIT_OK


def cmd_verify(args, cfg) -> int:
    from . import geomcheck

    with open(args.infile) as fh:
        imm = ser.immersion_from_dict(json.load(fh))
    checks = ALL_CHECKS
    if args.checks:
        checks = tuple(c.strip() for c in args.checks.split(",") if c.strip())
    report = geomcheck.run_checks(imm, checks)
    lines = [
        f"  {c['name']:<12} residual {c['residual']:.3e}"
        f"  tol {c['tol']:.0e}  {'pass' if c['pass'] else 'FAIL'}"
        for c in report.checks
    ]
    summary = "\n".join(
        [f"verify {report.family} n={report.n}: "
         f"{'all checks pass' if report.verdict else 'FAILURES'}"] + lines
    )
    _emit(_stringify_numbers(report.to_dict()), args.report, summary)
    return EXIT_OK if report.verdict else EXIT_VERIFY


def cmd_sigma_integral(args, cfg) -> int:
    from .profiles import (
        SIGMA_TAIL_TOL,
        SigmaIntegralSpec,
        sigma_integral_numeric,
        sigma_integral_thm1,
    )

    if args.infile:
        from . import geomcheck

        with open(args.infile) as fh:
            imm = ser.immersion_from_dict(json.load(fh))
        field = geomcheck.curvature_field(imm)
        value = sigma_integral_numeric(
            field["s_values"], field["sigma_norms"], field["sqrt_det_g"],
            field["chart_weights"], imm.spec.n,
        )
        payload = {"method": "numeric", "value": ser.fnum(value)}
        _emit(payload, args.out, f"numeric curvature integral: {value:.10g}")
        return EXIT_OK
    if args.family != "thm1":
        raise UsageError("closed-form curvature integrals exist for --family thm1")
    if args.method in ("s", "t"):
        value = sigma_integral_thm1(SigmaIntegralSpec(args.n, args.rho, method=args.method))
        payload = {"method": args.method, "value": ser.fnum(value),
                   "tail_tol": ser.fnum(SIGMA_TAIL_TOL)}
        _emit(payload, args.out, f"{args.method}-form value: {value:.10g}")
    else:
        vs = sigma_integral_thm1(SigmaIntegralSpec(args.n, args.rho, method="s"))
        vt = sigma_integral_thm1(SigmaIntegralSpec(args.n, args.rho, method="t"))
        rel = abs(vs - vt) / max(abs(vt), 1e-300)
        payload = {"method": "both", "s_form": ser.fnum(vs), "t_form": ser.fnum(vt),
                   "relative_discrepancy": ser.fnum(rel)}
        _emit(payload, args.out,
              f"s-form {vs:.10g}  t-form {vt:.10g}  discrepancy {rel:.2e}")
    return EXIT_OK


def cmd_period(args, cfg) -> int:
    from .profiles import EQUILIBRIUM_PROXIMATE, detect_period

    result = detect_period(args.n, args.rho)
    if result is None:
        _emit({"period": None, "equilibrium": True}, args.out,
              f"rho={args.rho:g} is the equilibrium radius: constant profile")
        return EXIT_OK
    if result.amplitude < EQUILIBRIUM_PROXIMATE:
        _emit({"period": ser.fnum(result.period), "equilibrium": True,
               "orbit_amplitude": ser.fnum(result.amplitude)}, args.out,
              f"equilibrium (proximate: orbit amplitude {result.amplitude:.2e})")
        return EXIT_OK
    payload = {"period": ser.fnum(result.period), "equilibrium": False,
               "closure_residual": ser.fnum(result.closure_residual)}
    _emit(payload, args.out,
          f"period T = {result.period:.12g}, closure residual "
          f"{result.closure_residual:.2e}")
    return EXIT_OK


def cmd_export(args, cfg) -> int:
    with open(args.infile) as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise UsageError(f"input is a JSON {type(data).__name__}, not a lagmin file object")
    if args.what == "samples":
        if "samples" not in data:
            raise UsageError("input is not an immersion file")
        text = ser.samples_to_csv(data)
    else:
        prof = data if "grid" in data and "family" in data else data.get("profile")
        if not prof:
            raise UsageError("input carries no profile")
    if args.what == "profile":
        text = ser.profile_to_csv(prof)
    elif args.what == "phase-portrait":
        if prof.get("family") != "cp_sphere":
            raise UsageError("phase portraits are for cp_sphere profiles")
        import numpy as np

        from .profiles import ProfileFamily, detect_period, solve_profile

        n = ser.parse_int(prof.get("n"), "profile.n")
        rho = ser.parse_float(prof.get("rho"), "profile.rho")
        result = detect_period(n, rho)
        if result is None:
            T = 2.0 * math.pi / math.sqrt(2.0 * (n + 1))  # linearized period scale
        else:
            T = result.period
        sol = solve_profile(ProfileFamily("cp_sphere", n, rho), T + 0.5)
        s = np.linspace(0.0, T, 513)
        rows = ser.format_rows(np.column_stack([s, *sol.state(s)[:2]]))
        text = ser.profile_to_csv({"grid": rows})
    with open(args.out, "w") as fh:
        fh.write(text)
    print(f"wrote {args.what} CSV to {args.out}", file=sys.stderr)
    return EXIT_OK


# ---------------------------------------------------------------------------


def make_parser() -> _Parser:
    p = _Parser(prog="lagmin",
                description="Construct and verify cohomogeneity-one minimal "
                            "Lagrangian submanifolds of complex space forms.")
    p.add_argument("--config", default=CONFIG_PATH, help="config file path")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("solve", help="solve a profile equation")
    sp.add_argument("--family", required=True,
                    choices=[_dash(t) for t in PROFILE_FAMILIES])
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--rho", type=float, required=True)
    sp.add_argument("--s-max", type=float, default=None)
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=cmd_solve)

    bp = sub.add_parser("build", help="build an immersion and cache samples")
    bp.add_argument("--family", required=True,
                    choices=[_dash(t) for t in IMMERSION_FAMILIES])
    bp.add_argument("--n", type=int, required=True)
    bp.add_argument("--rho", type=float, default=None)
    bp.add_argument("--seed", default=None,
                    choices=[_dash(t) for t in SEED_KINDS])
    bp.add_argument("--c", type=int, default=1, choices=(0, 1))
    bp.add_argument("--grid", default=None, help="SxM, e.g. 64x64")
    bp.add_argument("--s-window", default=None, help="LO:HI sample window")
    bp.add_argument("--out", default=None)
    bp.set_defaults(func=cmd_build)

    vp = sub.add_parser("verify", help="run verification checks on a build")
    vp.add_argument("--in", dest="infile", required=True)
    vp.add_argument("--checks", default=None,
                    help="comma list from: " + ",".join(ALL_CHECKS))
    vp.add_argument("--report", default=None)
    vp.set_defaults(func=cmd_verify)

    gp = sub.add_parser("sigma-integral", help="total curvature integral")
    gp.add_argument("--family", default="thm1")
    gp.add_argument("--n", type=int, default=2)
    gp.add_argument("--rho", type=float, default=1.0)
    gp.add_argument("--method", default="both", choices=("s", "t", "both"))
    gp.add_argument("--in", dest="infile", default=None,
                    help="immersion JSON for the numeric path")
    gp.add_argument("--out", default=None)
    gp.set_defaults(func=cmd_sigma_integral)

    pp = sub.add_parser("period", help="periodic-orbit detection (cp_sphere)")
    pp.add_argument("--n", type=int, required=True)
    pp.add_argument("--rho", type=float, required=True)
    pp.add_argument("--out", default=None)
    pp.set_defaults(func=cmd_period)

    ep = sub.add_parser("export", help="export data as CSV")
    ep.add_argument("--in", dest="infile", required=True)
    ep.add_argument("--out", required=True)
    ep.add_argument("--what", default="samples",
                    choices=("samples", "profile", "phase-portrait"))
    ep.set_defaults(func=cmd_export)
    return p


def main(argv=None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config)
        code = args.func(args, cfg)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (InvalidArgument, json.JSONDecodeError) as exc:  # SchemaError included
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (IntegrationFailure, NeedsLargerDomain) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except GeometryError as exc:
        print(f"geometry failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except MemoryError:
        print("numeric failure: out of memory", file=sys.stderr)
        return EXIT_NUMERIC
    return code


if __name__ == "__main__":
    sys.exit(main())
