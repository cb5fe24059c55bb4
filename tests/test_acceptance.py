"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one pass/fail line (visible with ``pytest -s`` or in the
captured output of a failing run).  Tolerances are pinned here, not
configurable.
"""

import math

import numpy as np

from lagmin import geomcheck as gc
from lagmin.immersions import (
    ImmersionFamilySpec,
    build_immersion,
    normal_position_angles,
    power_curve,
    real_geodesic_curve,
    slice_at,
    ch_sphere_curve,
    wavy_control_curve,
)
from lagmin.profiles import (
    ProfileFamily,
    SigmaIntegralSpec,
    detect_period,
    embedding_phase_sup,
    energy_residual,
    phase_integrals,
    sigma_integral_numeric,
    sigma_integral_thm1,
    solve_profile,
)


def _report(num: int, desc: str, ok: bool, detail: str = "") -> None:
    tag = "PASS" if ok else "FAIL"
    print(f"[acceptance {num:>2}] {desc}: {tag}" + (f"  ({detail})" if detail else ""))
    assert ok, f"criterion {num} failed: {detail}"


def test_01_energy_conservation():
    worst = 0.0
    cases = [("ch_sphere", n, rho) for n in (2, 3, 4) for rho in (0.5, 1.0, 2.0)]
    cases += [("ch_tube", n, rho) for n in (2, 3, 4) for rho in (0.5, 1.0, 2.0)]
    cases += [("cp_sphere", n, rho) for n in (2, 3) for rho in (0.3, 0.6, 1.2)]
    for tag, n, rho in cases:
        sol = solve_profile(ProfileFamily(tag, n, rho), 8.0)
        worst = max(worst, energy_residual(sol))
    _report(1, "energy-integral conservation on [-8, 8]", worst <= 1e-8,
            f"max residual {worst:.3e}")


def test_02_horospherical_first_integral():
    worst = 0.0
    for n in (2, 3, 5):
        for rho in (0.5, 1.0, 2.0):
            sol = solve_profile(ProfileFamily("ch_horo", n, rho), 5.0)
            worst = max(worst, energy_residual(sol))
    _report(2, "closed-form first integral |(r'/r)^2 + (rho/r)^(2n+2) - 1|",
            worst <= 1e-10, f"max residual {worst:.3e}")


_ALL_FAMILIES = [
    ("thm1", True, None), ("thm2", True, None), ("thm3", True, None),
    ("thm5", True, None),
    ("tg_sphere", False, None), ("tg_tube", False, None), ("tg_horo", False, None),
    ("prop3a", True, "tg_sphere_cp"), ("prop3b", True, "tg_rh_ch"),
    ("prop3c", True, "tg_plane_c"),
    ("prop4a", False, "tg_sphere_cp"), ("prop4b", False, "tg_rh_ch"),
    ("prop4c", False, "tg_plane_c"),
    ("prop6a", True, "tg_sphere_cp"), ("prop6b", False, "tg_sphere_cp"),
    ("cn_product", False, "tg_sphere_cp"),
]


def _sff(imm):
    """The second fundamental form of ``imm`` on its cached grid."""
    fb = gc.frame_batch(imm, gc.jet(imm, imm.s_values, imm.x_grid))
    return gc.second_fundamental_form(imm, fb)


def _spec(fam, needs_rho, seed, n):
    rho = None
    if needs_rho:
        rho = 0.8 if fam in ("thm5", "prop6a") else 1.0
    return ImmersionFamilySpec(fam, n, rho, seed_kind=seed)


def test_03_lagrangian_and_legendrian():
    worst_lag = worst_hor = 0.0
    worst_case = ""
    for fam, needs_rho, seed in _ALL_FAMILIES:
        for n in (2, 3):
            imm = build_immersion(_spec(fam, needs_rho, seed, n), grid=(64, 64))
            fb = gc.frame_batch(imm, gc.jet(imm, imm.s_values, imm.x_grid))
            lag = gc.lagrangian_residual(imm, fb)
            hor = gc.horizontality_residual(imm, fb)
            if max(lag, hor) > max(worst_lag, worst_hor):
                worst_case = f"{fam} n={n}"
            worst_lag = max(worst_lag, lag)
            worst_hor = max(worst_hor, hor)
    _report(3, "Lagrangian + Legendrian residuals on 64x64 grids",
            worst_lag <= 1e-6 and worst_hor <= 1e-6,
            f"lagrangian {worst_lag:.2e}, horizontal {worst_hor:.2e} ({worst_case})")


def test_04_minimality():
    worst_min = 0.0
    cases = [("thm1", 1.0, None), ("thm2", 1.0, None), ("thm3", 1.0, None),
             ("thm5", 0.8, None)]
    for fam, rho, seed in cases:
        for n in (2, 3):
            imm = build_immersion(ImmersionFamilySpec(fam, n, rho), grid=(24, 24))
            worst_min = max(worst_min, gc.minimality_residual(imm, _sff(imm)))
    imm = build_immersion(
        ImmersionFamilySpec("prop3a", 3, 1.0, seed_kind="clifford_cp"), grid=(24, 24))
    worst_min = max(worst_min, gc.minimality_residual(imm, _sff(imm)))

    worst_tg = 0.0
    for fam in ("tg_sphere", "tg_tube", "tg_horo"):
        for n in (2, 3):
            imm = build_immersion(ImmersionFamilySpec(fam, n), grid=(16, 16))
            worst_tg = max(worst_tg, gc.minimality_residual(imm, _sff(imm)))

    bad = build_immersion(ImmersionFamilySpec("thm1", 2, 1.0, detuned=True), grid=(16, 16))
    control = gc.minimality_residual(bad, _sff(bad))

    ok = worst_min <= 5e-4 and worst_tg <= 1e-5 and control >= 1e-2
    _report(4, "minimality |H| (families / totally geodesic / detuned control)",
            ok, f"{worst_min:.2e} / {worst_tg:.2e} / control {control:.2e}")


def test_05_sff_closed_form():
    worst = 0.0
    for n in (2, 3):
        imm = build_immersion(ImmersionFamilySpec("thm1", n, 1.0), grid=(32, 32))
        res = gc.sff_residuals(imm, _sff(imm))
        worst = max(worst, res["component_rel"], res["sigma_sq_rel"])
    _report(5, "second-fundamental-form closed-form match on 32x32 grids",
            worst <= 1e-3, f"worst relative error {worst:.2e}")


def test_06_metric_closed_form():
    worst = 0.0
    for fam in ("thm1", "thm3"):
        for n in (2, 3):
            imm = build_immersion(ImmersionFamilySpec(fam, n, 1.0), grid=(24, 24))
            fb = gc.frame_batch(imm, gc.jet(imm, imm.s_values, imm.x_grid))
            worst = max(worst, gc.metric_residual(imm, fb))
    _report(6, "induced-metric closed-form match", worst <= 1e-6,
            f"worst entrywise residual {worst:.2e}")


def test_07_sigma_integral():
    worst_pair = 0.0
    for n, rho in [(2, 1.0), (3, 0.5), (3, 2.0)]:
        vs = sigma_integral_thm1(SigmaIntegralSpec(n, rho, method="s"))
        vt = sigma_integral_thm1(SigmaIntegralSpec(n, rho, method="t"))
        worst_pair = max(worst_pair, abs(vs - vt) / abs(vt))

    imm = build_immersion(ImmersionFamilySpec("thm1", 2, 1.0), grid=(513, 64),
                          s_window=(-5.0, 5.0))
    f = gc.curvature_field(imm)
    est = sigma_integral_numeric(f["s_values"], f["sigma_norms"], f["sqrt_det_g"],
                                 f["chart_weights"], 2)
    closed = sigma_integral_thm1(SigmaIntegralSpec(2, 1.0, method="t"))
    grid_rel = abs(est - closed) / closed

    worst_doubling = 0.0
    for fam in ("thm2", "thm3"):
        rep = gc.sigma_numeric_report(ImmersionFamilySpec(fam, 2, 1.0))
        worst_doubling = max(worst_doubling, rep["doubling_change"])

    ok = worst_pair <= 1e-4 and grid_rel <= 1e-2 and worst_doubling <= 1e-3
    _report(7, "total curvature integral (s/t forms, grid estimate, doubling)",
            ok, f"s-t {worst_pair:.2e}, grid {grid_rel:.2e}, doubling {worst_doubling:.2e}")


def test_08_embedding_phase_bound():
    worst_diff, worst_limit = 0.0, 0.0
    for n, rho in [(2, 0.5), (2, 1.0), (3, 1.0)]:
        fam = ProfileFamily("ch_sphere", n, rho)
        v8 = embedding_phase_sup(solve_profile(fam, 8.0))
        v12 = embedding_phase_sup(solve_profile(fam, 12.0))
        worst_diff = max(worst_diff, abs(v8 - v12))
        worst_limit = max(worst_limit, v12)
    ok = worst_diff <= 1e-6 and worst_limit < math.pi - 0.01
    _report(8, "embedding phase bound", ok,
            f"truncation diff {worst_diff:.2e}, sup {worst_limit:.6f} < pi - 0.01")


def test_09_periodicity():
    worst_closure = worst_probe = 0.0
    for n, rho in [(2, 0.6), (2, 1.2), (3, 0.4)]:
        pr = detect_period(n, rho)
        worst_closure = max(worst_closure, pr.closure_residual)
        sol = solve_profile(ProfileFamily("cp_sphere", n, rho), pr.period + 2.5)
        probes = np.linspace(0.0, 2.0, 20)
        worst_probe = max(worst_probe, float(np.max(np.abs(
            sol.r_of(probes + pr.period) - sol.r_of(probes)))))

    worst_rhs = 0.0
    equilibria_ok = True
    for n in (2, 3):
        rho = math.atan(math.sqrt(n))
        equilibria_ok &= detect_period(n, rho) is None
        worst_rhs = max(worst_rhs, abs(n * math.cos(rho) ** 2 - math.sin(rho) ** 2))

    ok = worst_closure <= 1e-8 and worst_probe <= 1e-7 and equilibria_ok and worst_rhs <= 1e-14
    _report(9, "periodic orbits and equilibrium radius", ok,
            f"closure {worst_closure:.2e}, probes {worst_probe:.2e}, rhs {worst_rhs:.2e}")


def test_10_group_invariance():
    worst_match = 0.0
    for fam, n, rho, grp in [("thm1", 3, 1.0, "so_n"), ("thm2", 2, 1.0, "so1_n"),
                             ("thm3", 3, 1.0, "euclid_n"), ("thm5", 2, 0.8, "so_n")]:
        imm = build_immersion(ImmersionFamilySpec(fam, n, rho), grid=(12, 12))
        worst_match = max(worst_match, gc.invariance_residual(imm, grp))

    best_mismatch = math.inf
    for fam, n, rho, grp in [("thm1", 2, 1.0, "so1_n"), ("thm2", 2, 1.0, "so_n"),
                             ("thm5", 2, 0.8, "so1_n")]:
        imm = build_immersion(ImmersionFamilySpec(fam, n, rho), grid=(12, 12))
        best_mismatch = min(best_mismatch, gc.invariance_residual(imm, grp))

    ok = worst_match <= 1e-8 and best_mismatch >= 0.1
    _report(10, "group equivariance (matched / mismatched)", ok,
            f"matched {worst_match:.2e}, mismatched {best_mismatch:.2e}")


def test_11_legendre_functional():
    s = np.linspace(-2.0, 2.0, 401)
    worst = max(float(np.max(np.abs(gc.legendre_functional(ch_sphere_curve(n, 1.0, s), n))))
                for n in (2, 3))
    s_pos = np.linspace(0.3, 2.3, 201)
    geod = float(np.max(np.abs(gc.legendre_functional(real_geodesic_curve(s_pos), 2))))
    control = float(np.max(np.abs(gc.legendre_functional(wavy_control_curve(s), 2))))
    ok = worst <= 1e-6 and geod == 0.0 and control >= 1e-2
    _report(11, "warped-product mean-curvature functional", ok,
            f"profile curve {worst:.2e}, geodesic {geod}, control {control:.2e}")


def test_12_flat_products():
    worst_kappa = 0.0
    for c in (0, 1):
        s = np.linspace(0.4, 3.0, 1501) if c == 0 else np.linspace(-2.5, 2.5, 2501)
        _, k = gc.power_curve_curvature(power_curve(s, c, 2), s, 2)
        worst_kappa = max(worst_kappa, float(np.max(np.abs(k))))

    worst_min = 0.0
    for c in (0, 1):
        imm = build_immersion(
            ImmersionFamilySpec("cn_product", 2, seed_kind="tg_sphere_cp", c=c),
            grid=(16, 16))
        worst_min = max(worst_min, gc.minimality_residual(imm, _sff(imm)))

    ok = worst_kappa <= 1e-6 and worst_min <= 5e-4
    _report(12, "flat products: power-curve curvature and minimality", ok,
            f"kappa {worst_kappa:.2e}, |H| {worst_min:.2e}")


def test_13_foliation_normal_position():
    imm = build_immersion(ImmersionFamilySpec("thm1", 2, 1.0), grid=(12, 12))
    worst_dephase = max(slice_at(imm, s).dephase_residual for s in (-1.0, 0.5, 2.0))
    th = normal_position_angles(phase_integrals(imm.profile), 0.0, 1.0)
    spread = float(np.ptp(th))
    ok = worst_dephase <= 1e-8 and spread <= 1e-12
    _report(13, "foliation slices and normal position", ok,
            f"dephase {worst_dephase:.2e}, angle spread {spread:.2e}")
