import json
import warnings
from pathlib import Path

import numpy as np
import pytest

from lagmin.cli import EXIT_NUMERIC, EXIT_OK, EXIT_USAGE, EXIT_VERIFY, load_config, main
from lagmin.immersions import ImmersionFamilySpec, build_immersion
from lagmin.serialization import dumps, fnum, immersion_to_dict


def run(tmp_path, *argv):
    cfg = tmp_path / "lagmin.conf"
    args = ["--config", str(cfg)] + list(argv)
    return main(args)


class TestConfig:
    def test_defaults_without_file(self, tmp_path):
        cfg = load_config(str(tmp_path / "none.conf"))
        assert cfg == {"s_max": 8.0, "grid": "64x64"}

    def test_build_takes_the_library_defaults(self, tmp_path):
        # without a config file the CLI builds with the library's own
        # defaults: the same file, byte for byte
        out = tmp_path / "thm1.json"
        assert run(tmp_path, "build", "--family", "thm1", "--n", "2", "--rho", "1",
                   "--grid", "8x8", "--out", str(out)) == EXIT_OK
        imm = build_immersion(ImmersionFamilySpec("thm1", 2, 1.0), grid=(8, 8))
        assert out.read_text() == dumps(immersion_to_dict(imm))

    def test_overrides_and_comments(self, tmp_path):
        p = tmp_path / "lagmin.conf"
        p.write_text("# comment\ns_max = 4.5\ngrid=32x16  # inline\n")
        cfg = load_config(str(p))
        assert cfg["s_max"] == 4.5
        assert cfg["grid"] == "32x16"

    def test_unknown_key_rejected(self, tmp_path):
        p = tmp_path / "lagmin.conf"
        p.write_text("mystery=1\n")
        from lagmin.cli import UsageError
        with pytest.raises(UsageError, match="unknown key"):
            load_config(str(p))

    def test_prng_seed_key_rejected(self, tmp_path, capsys):
        # the invariance check always draws from seed 42; the key is gone
        (tmp_path / "lagmin.conf").write_text("prng_seed=7\n")
        code = run(tmp_path, "period", "--n", "2", "--rho", "0.3")
        err = capsys.readouterr().err
        assert code == EXIT_USAGE
        assert "unknown key 'prng_seed'" in err
        assert "Traceback" not in err

    def test_ode_tol_key_rejected(self, tmp_path, capsys):
        # the profiles are quadratures with no tolerance; the key is gone
        (tmp_path / "lagmin.conf").write_text("ode_tol=1e-11\n")
        code = run(tmp_path, "solve", "--family", "ch-sphere", "--n", "2", "--rho", "1")
        err = capsys.readouterr().err
        assert code == EXIT_USAGE
        assert "unknown key 'ode_tol'" in err
        assert "Traceback" not in err

    def test_out_of_range_rejected(self, tmp_path):
        p = tmp_path / "lagmin.conf"
        p.write_text("s_max=1000\n")
        from lagmin.cli import UsageError
        with pytest.raises(UsageError, match="out of range"):
            load_config(str(p))


class TestSolve:
    def test_horo(self, tmp_path):
        out = tmp_path / "p.json"
        code = run(tmp_path, "solve", "--family", "ch-horo", "--n", "2",
                   "--rho", "1", "--s-max", "3", "--out", str(out))
        assert code == EXIT_OK
        d = json.loads(out.read_text())
        mid = d["grid"][len(d["grid"]) // 2]
        assert float(mid[0]) == 0.0
        assert float(mid[1]) == 1.0

    def test_energy_residual_in_json(self, tmp_path):
        out = tmp_path / "p.json"
        code = run(tmp_path, "solve", "--family", "ch-sphere", "--n", "3",
                   "--rho", "0.5", "--out", str(out))
        assert code == EXIT_OK
        d = json.loads(out.read_text())
        assert float(d["energy_residual"]) <= 1e-8
        assert d["tol"] == "1e-10"

    def test_tol_flag_is_gone(self, tmp_path, capsys):
        out = tmp_path / "p.json"
        with pytest.raises(SystemExit) as exc:
            run(tmp_path, "solve", "--family", "ch-sphere", "--n", "2", "--rho", "1",
                "--tol", "1e-11", "--out", str(out))
        err = capsys.readouterr().err
        assert exc.value.code == EXIT_USAGE
        assert "unrecognized arguments: --tol 1e-11" in err
        assert not out.exists()

    def test_equilibrium_proximate_flag(self, tmp_path):
        out = tmp_path / "p.json"
        run(tmp_path, "solve", "--family", "cp-sphere", "--n", "2",
            "--rho", "0.9553", "--s-max", "3", "--out", str(out))
        assert json.loads(out.read_text())["equilibrium_proximate"] is True

    def test_bad_family_is_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            run(tmp_path, "solve", "--family", "nope", "--n", "2", "--rho", "1")
        assert exc.value.code == EXIT_USAGE


class TestBuildVerify:
    @pytest.fixture()
    def thm1_file(self, tmp_path):
        out = tmp_path / "thm1.json"
        code = run(tmp_path, "build", "--family", "thm1", "--n", "2",
                   "--rho", "1", "--grid", "12x12", "--out", str(out))
        assert code == EXIT_OK
        return out

    def test_build_header(self, thm1_file):
        d = json.loads(thm1_file.read_text())
        assert float(d["header"]["horizontal"]) <= 1e-6
        assert float(d["header"]["quadric"]) <= 1e-8

    def test_build_requires_seed(self, tmp_path):
        code = run(tmp_path, "build", "--family", "prop3a", "--n", "2", "--rho", "1")
        assert code == EXIT_USAGE

    def test_model_family_rejects_seed(self, tmp_path, thm1_file):
        out = tmp_path / "seeded.json"
        code = run(tmp_path, "build", "--family", "thm1", "--n", "2", "--rho", "1",
                   "--seed", "tg-sphere-cp", "--grid", "8x8", "--out", str(out))
        assert code == EXIT_USAGE
        assert not out.exists()
        # a file that labels a model family with a seed no longer loads
        d = json.loads(thm1_file.read_text())
        d["spec"]["seed"] = "tg_sphere_cp"
        thm1_file.write_text(json.dumps(d))
        assert run(tmp_path, "verify", "--in", str(thm1_file)) == EXIT_USAGE

    def test_unsolved_family_rejects_rho(self, tmp_path):
        out = tmp_path / "tg.json"
        code = run(tmp_path, "build", "--family", "tg-sphere", "--n", "2", "--rho", "0.7",
                   "--grid", "8x8", "--out", str(out))
        assert code == EXIT_USAGE
        assert not out.exists()
        # a file that gives a geodesic family a rho no longer loads
        assert run(tmp_path, "build", "--family", "tg-sphere", "--n", "2",
                   "--grid", "8x8", "--out", str(out)) == EXIT_OK
        d = json.loads(out.read_text())
        d["spec"]["rho"] = "0.69999999999999996"
        out.write_text(json.dumps(d))
        assert run(tmp_path, "verify", "--in", str(out)) == EXIT_USAGE

    def test_profile_block_must_match_the_spec(self, tmp_path, thm1_file, capsys):
        def verify_edited(d, name):
            p = tmp_path / name
            p.write_text(json.dumps(d))
            capsys.readouterr()
            code = run(tmp_path, "verify", "--in", str(p))
            return code, capsys.readouterr().err

        thm1 = json.loads(thm1_file.read_text())
        d = dict(thm1, profile=None)
        code, err = verify_edited(d, "no_profile.json")
        assert code == EXIT_USAGE
        assert "thm1 needs its ch_sphere profile" in err

        tg = tmp_path / "tg.json"
        assert run(tmp_path, "build", "--family", "tg-sphere", "--n", "2",
                   "--grid", "8x8", "--out", str(tg)) == EXIT_OK
        d = json.loads(tg.read_text())
        assert d["profile"] is None
        d["profile"] = thm1["profile"]
        code, err = verify_edited(d, "tg_with_profile.json")
        assert code == EXIT_USAGE
        assert "tg_sphere has no profile to solve" in err

        thm2 = tmp_path / "thm2.json"
        assert run(tmp_path, "build", "--family", "thm2", "--n", "2", "--rho", "1",
                   "--grid", "8x8", "--out", str(thm2)) == EXIT_OK
        d = dict(thm1, profile=json.loads(thm2.read_text())["profile"])
        code, err = verify_edited(d, "thm1_with_tube_profile.json")
        assert code == EXIT_USAGE
        assert "needs the ch_sphere profile" in err and "got ch_tube" in err

    def test_build_seeded(self, tmp_path):
        out = tmp_path / "p3.json"
        code = run(tmp_path, "build", "--family", "prop3a", "--n", "3", "--rho", "1",
                   "--seed", "clifford-cp", "--grid", "8x8", "--out", str(out))
        assert code == EXIT_OK

    def test_build_deterministic_bytes(self, tmp_path):
        # two builds, and the verify reports of the two files
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for p in (a, b):
            run(tmp_path, "build", "--family", "thm2", "--n", "2", "--rho", "1",
                "--grid", "8x8", "--out", str(p))
            assert run(tmp_path, "verify", "--in", str(p),
                       "--report", str(p.with_suffix(".report.json"))) == EXIT_OK
        assert a.read_bytes() == b.read_bytes()
        assert (a.with_suffix(".report.json").read_bytes()
                == b.with_suffix(".report.json").read_bytes())

    def test_verify_passes(self, tmp_path, thm1_file):
        rep = tmp_path / "rep.json"
        code = run(tmp_path, "verify", "--in", str(thm1_file), "--report", str(rep))
        assert code == EXIT_OK
        d = json.loads(rep.read_text())
        assert d["pass"] is True
        assert {c["name"] for c in d["checks"]} >= {"lagrangian", "horizontal", "minimal"}

    def test_a_file_written_by_an_earlier_version_verifies(self, tmp_path):
        # thm1 n=2 rho=1 on 4x4 over s in [-0.1, 0.1], built from a DOP853
        # profile (tol 1e-10) before the phase integrals were read from
        # knot sums: verify re-derives the profile from (family, n, rho), and
        # the stored rows and samples carry that solve's error, 3.6e-11 and
        # 2.2e-11; one edited profile row fails horizontal
        data = Path(__file__).parent / "data" / "thm1_n2_rho1_4x4.json"
        rep = tmp_path / "rep.json"
        assert run(tmp_path, "verify", "--in", str(data), "--report", str(rep)) == EXIT_OK
        checks = {c["name"]: float(c["residual"]) for c in json.loads(rep.read_text())["checks"]}
        assert checks["horizontal"] <= 1e-10
        d = json.loads(data.read_text())
        d["profile"]["grid"][3][1] = fnum(float(d["profile"]["grid"][3][1]) + 1e-5)
        edited = tmp_path / "edited.json"
        edited.write_text(json.dumps(d))
        assert run(tmp_path, "verify", "--in", str(edited), "--report", str(rep)) == EXIT_VERIFY
        failed = [c["name"] for c in json.loads(rep.read_text())["checks"] if not c["pass"]]
        assert failed == ["horizontal"]

    def test_a_detuned_file_keeps_its_bytes(self, tmp_path):
        # the detuned thm1 control at n=2 rho=1 on 4x4, and its verify
        # report, both written before the control read the curve state the
        # lift is built from: a rebuild writes the same bytes, and verify
        # the same report, failing minimality as the control must
        data = Path(__file__).parent / "data"
        old = data / "thm1_detuned_n2_rho1_4x4.json"
        imm = build_immersion(ImmersionFamilySpec("thm1", 2, 1.0, detuned=True), grid=(4, 4))
        assert dumps(immersion_to_dict(imm)) == old.read_text()
        rep = tmp_path / "rep.json"
        assert run(tmp_path, "verify", "--in", str(old), "--report", str(rep)) == EXIT_VERIFY
        assert rep.read_bytes() == (data / "thm1_detuned_n2_rho1_4x4_report.json").read_bytes()
        failed = {c["name"]: float(c["residual"])
                  for c in json.loads(rep.read_text())["checks"] if not c["pass"]}
        assert list(failed) == ["minimal"]
        assert failed["minimal"] == pytest.approx(1.211, abs=5e-4)

    def test_verify_stdout_is_the_report(self, tmp_path, thm1_file, capsys):
        rep = tmp_path / "rep.json"
        assert run(tmp_path, "verify", "--in", str(thm1_file), "--report", str(rep)) == EXIT_OK
        capsys.readouterr()
        assert run(tmp_path, "verify", "--in", str(thm1_file)) == EXIT_OK
        assert capsys.readouterr().out.encode() == rep.read_bytes()

    def test_thm1_n4_default_grid_verifies(self, tmp_path):
        # the sff check used to fail here on correct geometry: finite
        # differences of the cosh-sized lift lost the curvature at |s| = 2.5
        out, rep = tmp_path / "thm1_n4.json", tmp_path / "rep.json"
        code = run(tmp_path, "build", "--family", "thm1", "--n", "4", "--rho", "1",
                   "--out", str(out))
        assert code == EXIT_OK
        code = run(tmp_path, "verify", "--in", str(out), "--report", str(rep))
        assert code == EXIT_OK
        assert json.loads(rep.read_text())["pass"] is True

    def test_verify_selected_checks(self, tmp_path):
        out = tmp_path / "tg.json"
        run(tmp_path, "build", "--family", "tg-horo", "--n", "2",
            "--grid", "8x8", "--out", str(out))
        rep = tmp_path / "rep.json"
        code = run(tmp_path, "verify", "--in", str(out), "--checks", "minimal",
                   "--report", str(rep))
        assert code == EXIT_OK
        d = json.loads(rep.read_text())
        assert [c["name"] for c in d["checks"]] == ["minimal"]
        assert float(d["checks"][0]["residual"]) <= 1e-5

    def test_verify_hand_edited_fails(self, tmp_path, thm1_file):
        d = json.loads(thm1_file.read_text())
        row = d["samples"][17]
        row[2] = format(float(row[2]) + 0.03, ".17g")
        edited = tmp_path / "edited.json"
        edited.write_text(json.dumps(d))
        code = run(tmp_path, "verify", "--in", str(edited), "--checks", "horizontal")
        assert code == EXIT_VERIFY

    def test_coordinates_off_the_product_grid_are_schema_errors(self, tmp_path, capsys):
        out = tmp_path / "thm1.json"
        assert run(tmp_path, "build", "--family", "thm1", "--n", "2", "--rho", "1",
                   "--grid", "8x8", "--out", str(out)) == EXIT_OK
        # an s off its row of the grid, then an x off its column
        for row, col in ((11, 0), (13, 1)):
            d = json.loads(out.read_text())
            d["samples"][row][col] = format(float(d["samples"][row][col]) + 0.01, ".17g")
            edited = tmp_path / f"edited_{row}.json"
            edited.write_text(json.dumps(d))
            capsys.readouterr()
            assert run(tmp_path, "verify", "--in", str(edited)) == EXIT_USAGE
            assert f"immersion.samples: row {row} is not the grid point" in capsys.readouterr().err

    def test_verify_thm3_euclid_family(self, tmp_path):
        out = tmp_path / "t3.json"
        run(tmp_path, "build", "--family", "thm3", "--n", "3", "--rho", "1",
            "--grid", "8x9", "--out", str(out))
        rep = tmp_path / "rep.json"
        code = run(tmp_path, "verify", "--in", str(out), "--report", str(rep))
        assert code == EXIT_OK
        d = json.loads(rep.read_text())
        byname = {c["name"]: c for c in d["checks"]}
        assert byname["invariance"]["pass"]
        assert byname["metric"]["pass"]

    def test_verify_malformed_json(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"spec": {"family": "thm1", "n": 2, "rho": "1.0"}}')
        code = run(tmp_path, "verify", "--in", str(bad))
        assert code == EXIT_USAGE


def _set(*path_and_value):
    """An edit of a loaded JSON file: set the value at a key path."""
    *path, value = path_and_value

    def edit(d):
        for key in path[:-1]:
            d = d[key]
        d[path[-1]] = value

    return edit


def _no_grid_points(d):
    d["grid"]["s_points"] = d["grid"]["transverse_points"] = 0
    d["samples"] = []


def _one_profile_row(d):
    d["profile"]["grid"] = d["profile"]["grid"][:1]


class TestRejectedInput:
    """Input that means nothing exits 1 with a message naming the field."""

    @pytest.fixture(scope="class")
    def thm1_doc(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("thm1") / "thm1.json"
        assert main(["--config", str(out.parent / "none.conf"), "build", "--family", "thm1",
                     "--n", "2", "--rho", "1", "--grid", "8x8", "--out", str(out)]) == EXIT_OK
        return out.read_text()

    def _usage_error(self, tmp_path, capsys, *argv):
        capsys.readouterr()
        code = run(tmp_path, *argv)
        err = capsys.readouterr().err
        assert code == EXIT_USAGE
        assert "Traceback" not in err
        return err

    @pytest.mark.parametrize("edit,field", [
        (_set("spec", "n", "two"), "immersion.spec.n"),
        (_set("spec", "c", None), "immersion.spec.c"),
        (_set("spec", "detuned", "false"), "immersion.spec.detuned"),
        (_set("grid", "s_points", "x"), "immersion.grid.s_points"),
        (_no_grid_points, "immersion.grid"),
        (_one_profile_row, "profile.grid"),
        (_set("profile", "n", "x"), "profile.n"),
    ], ids=["n-two", "c-null", "detuned-string", "s_points-x", "no-points", "one-profile-row",
            "profile-n-x"])
    def test_verify_rejects(self, tmp_path, capsys, thm1_doc, edit, field):
        d = json.loads(thm1_doc)
        edit(d)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(d))
        assert field in self._usage_error(tmp_path, capsys, "verify", "--in", str(bad))

    def test_verify_rejects_an_empty_check_list(self, tmp_path, capsys, thm1_doc):
        good = tmp_path / "thm1.json"
        good.write_text(thm1_doc)
        err = self._usage_error(tmp_path, capsys, "verify", "--in", str(good), "--checks", ",")
        assert "no checks selected" in err

    def test_numeric_sigma_integral_rejects_one_s_value(self, tmp_path, capsys, thm1_doc):
        d = json.loads(thm1_doc)
        d["grid"]["s_points"] = 1
        d["samples"] = d["samples"][:d["grid"]["transverse_points"]]
        bad = tmp_path / "one_s.json"
        bad.write_text(json.dumps(d))
        err = self._usage_error(tmp_path, capsys, "sigma-integral", "--in", str(bad))
        assert "at least 3 s values" in err

    def test_numeric_sigma_integral_rejects_a_one_point_axis(self, tmp_path, capsys):
        # an 8x9 thm1 n=3 file cut to its first transverse point per s: the
        # polar axis a1 is not periodic, so one point has no trapezoid weights
        full = tmp_path / "thm1_n3.json"
        assert run(tmp_path, "build", "--family", "thm1", "--n", "3", "--rho", "1",
                   "--grid", "8x9", "--out", str(full)) == EXIT_OK
        d = json.loads(full.read_text())
        M = d["grid"]["transverse_points"]
        d["grid"]["transverse_points"] = 1
        d["samples"] = d["samples"][::M]
        bad = tmp_path / "one_point.json"
        bad.write_text(json.dumps(d))
        err = self._usage_error(tmp_path, capsys, "sigma-integral", "--in", str(bad))
        assert "transverse axis a1" in err

    @pytest.mark.parametrize("command", ["verify", "sigma-integral"])
    @pytest.mark.parametrize("edit,field", [
        (_set("samples", 5), "immersion.samples"),
        (_set("header", []), "immersion.header"),
        (_set("header", 5), "immersion.header"),
    ], ids=["samples-5", "header-list", "header-5"])
    def test_loading_commands_reject(self, tmp_path, capsys, thm1_doc, command, edit, field):
        d = json.loads(thm1_doc)
        edit(d)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(d))
        assert field in self._usage_error(tmp_path, capsys, command, "--in", str(bad))

    @pytest.mark.parametrize("edit,field", [
        (lambda d: d.pop("grid"), "'grid'"),
        (lambda d: d["grid"].pop("chart"), "'chart'"),
        (_set("grid", 5), "immersion.grid"),
        (_set("grid", "chart", 5), "immersion.grid.chart"),
        (_set("samples", 5), "immersion.samples"),
        (_set("samples", [5]), "immersion.samples"),
    ], ids=["no-grid", "no-chart", "grid-5", "chart-5", "samples-5", "samples-row-5"])
    def test_sample_export_rejects(self, tmp_path, capsys, thm1_doc, edit, field):
        d = json.loads(thm1_doc)
        edit(d)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(d))
        err = self._usage_error(tmp_path, capsys, "export", "--in", str(bad), "--what",
                                "samples", "--out", str(tmp_path / "out.csv"))
        assert field in err

    @pytest.mark.parametrize("what", ["profile", "phase-portrait", "samples"])
    def test_export_rejects_a_json_list(self, tmp_path, capsys, what):
        bad = tmp_path / "list.json"
        bad.write_text("[]\n")
        err = self._usage_error(tmp_path, capsys, "export", "--in", str(bad), "--what", what,
                                "--out", str(tmp_path / "out.csv"))
        assert "JSON list" in err

    @pytest.mark.parametrize("argv,field", [
        (["solve", "--family", "ch-sphere", "--n", "2", "--rho", "1", "--s-max", "inf"],
         "--s-max"),
        (["solve", "--family", "ch-sphere", "--n", "2", "--rho", "1", "--s-max", "1e6"],
         "--s-max"),
        (["solve", "--family", "ch-sphere", "--n", "2", "--rho", "inf"], "rho"),
        (["build", "--family", "thm1", "--n", "2", "--rho", "1", "--grid", "8x8",
          "--s-window", "0:inf"], "s window"),
        # the profile behind it would span 1e6 + 0.5: a grid of 1e9 points
        (["build", "--family", "thm1", "--n", "2", "--rho", "1", "--grid", "8x8",
          "--s-window=-1e6:1e6"], "--s-window -1e6:1e6"),
        (["build", "--family", "thm1", "--n", "2", "--rho", "inf", "--grid", "8x8"], "rho"),
        (["build", "--family", "thm1", "--n", "2", "--rho", "1e300", "--grid", "8x8"], "rho"),
    ], ids=["s-max-inf", "s-max-1e6", "solve-rho-inf", "s-window-inf", "s-window-1e6",
            "build-rho-inf", "build-rho-1e300"])
    def test_non_finite_or_overflowing_flags(self, tmp_path, capsys, argv, field):
        out = tmp_path / "out.json"
        assert field in self._usage_error(tmp_path, capsys, *argv, "--out", str(out))
        assert not out.exists()

    def test_phase_portrait_rejects_a_fractional_n(self, tmp_path, capsys):
        prof = tmp_path / "cp.json"
        assert run(tmp_path, "solve", "--family", "cp-sphere", "--n", "2", "--rho", "0.6",
                   "--s-max", "1", "--out", str(prof)) == EXIT_OK
        d = json.loads(prof.read_text())
        d["n"] = "2.5"
        prof.write_text(json.dumps(d))
        err = self._usage_error(tmp_path, capsys, "export", "--in", str(prof), "--what",
                                "phase-portrait", "--out", str(tmp_path / "pp.csv"))
        assert "profile.n" in err


class TestNumericFailure:
    """A profile that doubles cannot hold exits 2 with the reason, without a
    traceback: the energy constant underflows, sin^16 rho cos^2 rho of
    cp_sphere at n = 8 and rho = 1e-20, and rho^{2n+2} of ch_horo at
    (8, 1e-20), (2, 1e-200) and, to 0, at (2, 1e-55)."""

    @pytest.mark.parametrize("argv", [
        ["solve", "--family", "cp-sphere", "--n", "8", "--rho", "1e-20"],
        ["build", "--family", "thm5", "--n", "8", "--rho", "1e-20", "--grid", "8x8"],
        ["solve", "--family", "ch-horo", "--n", "8", "--rho", "1e-20"],
        ["build", "--family", "thm3", "--n", "2", "--rho", "1e-200", "--grid", "8x8"],
        ["solve", "--family", "ch-horo", "--n", "2", "--rho", "1e-55"],
        ["build", "--family", "thm3", "--n", "2", "--rho", "1e-55", "--grid", "8x8"],
    ], ids=["solve", "build", "horo-solve", "horo-build", "horo-solve-zero",
            "horo-build-zero"])
    def test_integration_failure(self, tmp_path, capsys, argv):
        out = tmp_path / "out.json"
        code = run(tmp_path, *argv, "--out", str(out))
        err = capsys.readouterr().err
        rho = argv[argv.index("--rho") + 1]
        assert code == EXIT_NUMERIC
        assert err == f"numeric failure: the energy constant of rho={rho} underflows\n"
        assert not out.exists()


class TestSigmaIntegral:
    def test_both_methods_agree(self, tmp_path, capsys):
        code = run(tmp_path, "sigma-integral", "--family", "thm1", "--n", "2",
                   "--rho", "1", "--method", "both")
        assert code == EXIT_OK
        d = json.loads(capsys.readouterr().out)
        assert float(d["relative_discrepancy"]) <= 1e-4

    def test_tiny_rho_without_warnings(self, tmp_path, capsys):
        # log sinh rho took log1p(-e^{-2 rho}) at every rho, which divides by
        # zero below about 5e-17: a RuntimeWarning, and an error under -W error
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(tmp_path, "solve", "--family", "ch-sphere", "--n", "2", "--rho", "1e-17",
                       "--out", str(tmp_path / "tiny.json")) == EXIT_OK
            capsys.readouterr()
            assert run(tmp_path, "sigma-integral", "--family", "thm1", "--n", "3",
                       "--rho", "1e-30", "--method", "both") == EXIT_OK
        d = json.loads(capsys.readouterr().out)
        assert float(d["relative_discrepancy"]) <= 1e-12

    def test_numeric_path_zero_for_tg(self, tmp_path, capsys):
        out = tmp_path / "tg.json"
        run(tmp_path, "build", "--family", "tg-sphere", "--n", "2",
            "--grid", "9x8", "--out", str(out))
        code = run(tmp_path, "sigma-integral", "--in", str(out))
        assert code == EXIT_OK
        d = json.loads(capsys.readouterr().out)
        assert abs(float(d["value"])) <= 1e-10


class TestPeriodExport:
    def test_period_json(self, tmp_path, capsys):
        code = run(tmp_path, "period", "--n", "2", "--rho", "0.6")
        assert code == EXIT_OK
        d = json.loads(capsys.readouterr().out)
        assert float(d["closure_residual"]) <= 1e-8

    def test_period_equilibrium(self, tmp_path, capsys):
        code = run(tmp_path, "period", "--n", "2", "--rho", "0.9553")
        assert code == EXIT_OK
        assert json.loads(capsys.readouterr().out)["equilibrium"] is True

    def test_export_profile_rows(self, tmp_path):
        prof = tmp_path / "p.json"
        run(tmp_path, "solve", "--family", "ch-horo", "--n", "2", "--rho", "1",
            "--s-max", "2", "--out", str(prof))
        out = tmp_path / "p.csv"
        code = run(tmp_path, "export", "--in", str(prof), "--format", "csv",
                   "--out", str(out), "--what", "profile")
        assert code == EXIT_OK
        rows = out.read_text().strip().splitlines()
        assert len(rows) - 1 == len(json.loads(prof.read_text())["grid"])

    def test_export_samples_round_trip(self, tmp_path):
        imm = tmp_path / "i.json"
        run(tmp_path, "build", "--family", "thm3", "--n", "2", "--rho", "1",
            "--grid", "6x6", "--out", str(imm))
        out = tmp_path / "s.csv"
        code = run(tmp_path, "export", "--in", str(imm), "--format", "csv",
                   "--out", str(out), "--what", "samples")
        assert code == EXIT_OK
        d = json.loads(imm.read_text())
        body = [ln.split(",") for ln in out.read_text().strip().splitlines()[1:]]
        assert body == d["samples"]

    def test_export_phase_portrait_closes(self, tmp_path):
        prof = tmp_path / "cp.json"
        run(tmp_path, "solve", "--family", "cp-sphere", "--n", "2", "--rho", "0.6",
            "--s-max", "3", "--out", str(prof))
        out = tmp_path / "pp.csv"
        code = run(tmp_path, "export", "--in", str(prof), "--format", "csv",
                   "--out", str(out), "--what", "phase-portrait")
        assert code == EXIT_OK
        rows = [ln.split(",") for ln in out.read_text().strip().splitlines()[1:]]
        first, last = rows[0], rows[-1]
        assert abs(float(first[1]) - float(last[1])) <= 1e-6
        assert abs(float(first[2]) - float(last[2])) <= 1e-6

    def test_phase_portrait_rp_against_a_tight_solve(self, tmp_path):
        # r' comes from the first integral at each point; the reference is
        # scipy's DOP853 at rtol 1e-13
        from scipy.integrate import solve_ivp

        from lagmin.profiles import ProfileFamily

        from helpers import ode_rhs

        prof, out = tmp_path / "cp.json", tmp_path / "pp.csv"
        assert run(tmp_path, "solve", "--family", "cp-sphere", "--n", "3", "--rho", "0.3",
                   "--s-max", "1", "--out", str(prof)) == EXIT_OK
        assert run(tmp_path, "export", "--in", str(prof), "--out", str(out),
                   "--what", "phase-portrait") == EXIT_OK
        rows = np.array([ln.split(",") for ln in out.read_text().splitlines()[1:]], dtype=float)
        s, rp = rows[:, 0], rows[:, 2]
        ref = solve_ivp(ode_rhs(ProfileFamily("cp_sphere", 3, 0.3)), (0.0, s[-1]), [0.3, 0.0],
                        method="DOP853", rtol=1e-13, atol=1e-15, t_eval=s)
        assert np.max(np.abs(rp - np.tanh(ref.y[1]))) <= 1e-6

    def test_export_unknown_format(self, tmp_path):
        prof = tmp_path / "p.json"
        run(tmp_path, "solve", "--family", "ch-horo", "--n", "2", "--rho", "1",
            "--s-max", "1", "--out", str(prof))
        code = run(tmp_path, "export", "--in", str(prof), "--format", "xml",
                   "--out", str(tmp_path / "x"))
        assert code == EXIT_USAGE


def _subprocess_env():
    """Environment whose interpreter imports the same lagmin package."""
    import os
    from pathlib import Path

    import lagmin

    src = str(Path(lagmin.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([src] + [p for p in [env.get("PYTHONPATH")] if p])
    return env


class TestColdPath:
    """Commands load only the modules they run (never scipy) and fail cleanly."""

    @pytest.fixture()
    def thm1_n3_file(self, tmp_path):
        out = tmp_path / "thm1.json"
        code = run(tmp_path, "build", "--family", "thm1", "--n", "3", "--rho", "1",
                   "--grid", "12x9", "--out", str(out))
        assert code == EXIT_OK
        return out

    def test_read_only_commands_load_no_scipy(self, tmp_path, thm1_n3_file):
        import subprocess
        import sys

        script = "\n".join([
            "import sys",
            "import lagmin.cli",
            "loaded = [m for m in sys.modules if m.split('.')[0] == 'scipy']",
            "conf = ['--config', 'none.conf']",
            "codes = [lagmin.cli.main(conf + a) for a in (",
            "    ['verify', '--in', 'thm1.json', '--report', 'rep.json'],",
            "    ['export', '--in', 'thm1.json', '--what', 'samples', '--out', 's.csv'],",
            "    ['export', '--in', 'thm1.json', '--what', 'profile', '--out', 'p.csv'],",
            "    ['sigma-integral', '--in', 'thm1.json', '--out', 'sig.json'])]",
            "loaded += [m for m in sys.modules if m.split('.')[0] == 'scipy']",
            "print(codes, sorted(set(loaded)))",
        ])
        proc = subprocess.run([sys.executable, "-c", script], cwd=tmp_path,
                              env=_subprocess_env(), capture_output=True, text=True,
                              timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[0, 0, 0, 0] []"

    def test_solving_commands_load_no_scipy(self, tmp_path):
        """Profiles are in-repo Gauss-Legendre quadratures and the curvature
        integrals use the in-repo Gauss-Kronrod rule, so no command imports
        scipy."""
        import subprocess
        import sys

        script = "\n".join([
            "import sys",
            "import lagmin.cli",
            "def scipy_loaded():",
            "    return sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')[:1]",
            "conf = ['--config', 'none.conf']",
            "codes = [lagmin.cli.main(conf + a) for a in (",
            "    ['build', '--family', 'thm1', '--n', '3', '--rho', '1', '--grid', '12x9',",
            "     '--out', 'thm1.json'],",
            "    ['build', '--family', 'thm5', '--n', '2', '--rho', '0.6', '--grid', '12x9',",
            "     '--out', 'thm5.json'],",
            "    ['solve', '--family', 'cp-sphere', '--n', '2', '--rho', '0.6', '--s-max', '3',",
            "     '--out', 'cp.json'],",
            "    ['period', '--n', '3', '--rho', '0.3', '--out', 'period.json'],",
            "    ['export', '--in', 'cp.json', '--what', 'phase-portrait', '--out', 'pp.csv'])]",
            "print(codes, scipy_loaded())",
            "codes = [lagmin.cli.main(conf + ['sigma-integral', '--n', '3', '--method', m,",
            "                                 '--out', f'sig_{m}.json']) for m in 'st']",
            "codes.append(lagmin.cli.main(conf + ['sigma-integral', '--method', 'both',",
            "                                     '--out', 'sig_both.json']))",
            "print(codes, scipy_loaded())",
        ])
        proc = subprocess.run([sys.executable, "-c", script], cwd=tmp_path,
                              env=_subprocess_env(), capture_output=True, text=True,
                              timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split("\n")[:2] == ["[0, 0, 0, 0, 0] []", "[0, 0, 0] []"]

    # per command, in a fresh interpreter: the modules whose code must not
    # run there (a lagmin layer is registered lazily by ``import lagmin`` and
    # becomes a plain module once its code runs); no command loads numpy.ma
    FOOTPRINTS = {
        "import-lagmin": ("import lagmin", ["numpy"]),
        "import-cli": ("import lagmin.cli", ["numpy"]),
        "export-samples": (["export", "--in", "thm1.json", "--what", "samples",
                            "--out", "s.csv"], ["numpy"]),
        "export-profile": (["export", "--in", "thm1.json", "--what", "profile",
                            "--out", "p.csv"], ["numpy"]),
        **{f"sigma-{m}": (["sigma-integral", "--method", m, "--out", "sig.json"],
                          ["lagmin.immersions", "lagmin.geomcheck"]) for m in ("s", "t", "both")},
        "build": (["build", "--family", "thm1", "--n", "3", "--rho", "1", "--grid", "12x9",
                   "--out", "b.json"], ["lagmin.geomcheck"]),
        "solve": (["solve", "--family", "cp-sphere", "--n", "2", "--rho", "0.6",
                   "--s-max", "3", "--out", "cp.json"], ["lagmin.geomcheck"]),
        "verify": (["verify", "--in", "thm1.json", "--report", "rep.json"], []),
        "sigma-in": (["sigma-integral", "--in", "thm1.json", "--out", "sig.json"], []),
        "period": (["period", "--n", "3", "--rho", "0.3", "--out", "period.json"], []),
        "export-phase-portrait": (["export", "--in", "cp.json", "--what", "phase-portrait",
                                   "--out", "pp.csv"], []),
    }

    @pytest.mark.parametrize("name", list(FOOTPRINTS))
    def test_module_footprint(self, tmp_path, thm1_n3_file, name):
        import subprocess
        import sys

        command, absent = self.FOOTPRINTS[name]
        if isinstance(command, list):
            if "cp.json" in command[:3]:
                assert run(tmp_path, "solve", "--family", "cp-sphere", "--n", "2", "--rho",
                           "0.6", "--s-max", "3", "--out", str(tmp_path / "cp.json")) == EXIT_OK
            argv = ["--config", "none.conf"] + command
            command = f"import lagmin.cli; assert lagmin.cli.main({argv!r}) == 0"
        script = "\n".join([
            "import sys, types",
            command,
            "ran = {m for m, mod in sys.modules.items() if type(mod) is types.ModuleType}",
            f"print(sorted(ran & {set(absent) | {'numpy.ma'}!r}))",
        ])
        proc = subprocess.run([sys.executable, "-c", script], cwd=tmp_path,
                              env=_subprocess_env(), capture_output=True, text=True,
                              timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip().splitlines()[-1] == "[]"

    def test_ragged_samples_row_is_schema_error(self, tmp_path, thm1_n3_file):
        import subprocess
        import sys

        d = json.loads(thm1_n3_file.read_text())
        width = len(d["samples"][5])
        d["samples"][5] = d["samples"][5][:-1]
        (tmp_path / "ragged.json").write_text(json.dumps(d))
        proc = subprocess.run(
            [sys.executable, "-m", "lagmin.cli", "--config", "none.conf", "verify",
             "--in", "ragged.json"],
            cwd=tmp_path, env=_subprocess_env(), capture_output=True, text=True,
            timeout=120)
        assert proc.returncode == EXIT_USAGE
        assert (f"immersion.samples: row 5 has {width - 1} columns, expected {width}"
                in proc.stderr)
        assert "Traceback" not in proc.stderr

    def test_phase_portrait_matches_pointwise_evaluation(self, tmp_path):
        from lagmin.profiles import detect_period, solve_profile, ProfileFamily
        from lagmin.serialization import fnum

        prof = tmp_path / "cp.json"
        run(tmp_path, "solve", "--family", "cp-sphere", "--n", "2", "--rho", "0.6",
            "--s-max", "3", "--out", str(prof))
        out = tmp_path / "pp.csv"
        code = run(tmp_path, "export", "--in", str(prof), "--out", str(out),
                   "--what", "phase-portrait")
        assert code == EXIT_OK
        # the CSV as it was written point by point, one evaluation each
        T = detect_period(2, 0.6).period
        sol = solve_profile(ProfileFamily("cp_sphere", 2, 0.6), T + 0.5)
        rows = [[fnum(v)] + [fnum(x) for x in sol.state(v)[:2]]
                for v in np.linspace(0.0, T, 513)]
        expected = "s,r,rp\n" + "\n".join(",".join(row) for row in rows) + "\n"
        assert out.read_text() == expected

    def test_transverse_points_match_the_grid(self, tmp_path):
        from lagmin import serialization as ser

        # 48 transverse points over the two chart axes of n = 3 round to 7 x 7
        out = tmp_path / "t.json"
        code = run(tmp_path, "build", "--family", "thm1", "--n", "3", "--rho", "1",
                   "--grid", "6x48", "--out", str(out))
        assert code == EXIT_OK
        d = json.loads(out.read_text())
        imm = ser.immersion_from_dict(d)
        assert d["grid"]["transverse_points"] == len(imm.x_grid) == 49
        assert imm.transverse_shape == (7, 7)
