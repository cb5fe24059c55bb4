import json

import numpy as np
import pytest

from lagmin import serialization as ser
from lagmin.immersions import ImmersionFamilySpec, build_immersion
from lagmin.profiles import ProfileFamily, solve_profile


class TestNumbers:
    def test_round_trip_exact(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            x = float(rng.normal() * 10.0 ** rng.integers(-8, 8))
            assert float(ser.fnum(x)) == x

    def test_deterministic(self):
        assert ser.fnum(1.0 / 3.0) == ser.fnum(1.0 / 3.0)


class TestAmbientEncoding:
    def test_vector_round_trip(self):
        z = np.array([0.3 + 0.1j, -1.2j, 2.0])
        data = ser.ambient_vector_to_json(z)
        assert data[0] == [ser.fnum(0.3), ser.fnum(0.1)]
        assert np.array_equal(ser.ambient_vector_from_json(data), z)

    def test_isometry_round_trip(self):
        rng = np.random.default_rng(2)
        m = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        assert np.array_equal(ser.isometry_from_json(ser.isometry_to_json(m)), m)

    def test_malformed(self):
        with pytest.raises(ser.SchemaError):
            ser.ambient_vector_from_json([[1.0], [2.0]])


class TestProfileRoundTrip:
    def test_bit_stable(self):
        sol = solve_profile(ProfileFamily("ch_sphere", 2, 1.0), 2.0)
        d1 = ser.profile_to_dict(sol)
        sol2 = ser.profile_from_dict(json.loads(json.dumps(d1)))
        assert np.array_equal(sol.s, sol2.s)
        assert np.array_equal(sol.r, sol2.r)
        assert np.array_equal(sol.rp, sol2.rp)
        # re-serialization of the grid is byte-identical
        d2 = ser.profile_to_dict(sol2)
        assert d1["grid"] == d2["grid"]
        assert d1["energy_constant"] == d2["energy_constant"]

    def test_rebuilt_energy_residual_masks_saturated_tail(self):
        # stored r' saturates to 1.0 in doubles for large |s|; the residual
        # of a rebuilt solution must certify the resolvable region only
        sol = solve_profile(ProfileFamily("ch_sphere", 2, 1.0), 8.0, tol=1e-10)
        from lagmin.profiles import energy_residual
        sol2 = ser.profile_from_dict(json.loads(json.dumps(ser.profile_to_dict(sol))))
        assert sol2.u_reconstructed
        assert energy_residual(sol2) <= 1e-8

    def test_equilibrium_flag(self):
        rho = float(np.arctan(np.sqrt(2.0)))
        sol = solve_profile(ProfileFamily("cp_sphere", 2, rho), 2.0)
        assert ser.profile_to_dict(sol)["equilibrium_proximate"] is True
        sol = solve_profile(ProfileFamily("cp_sphere", 2, 0.6), 2.0)
        assert ser.profile_to_dict(sol)["equilibrium_proximate"] is False

    def test_schema_errors(self):
        sol = solve_profile(ProfileFamily("ch_horo", 2, 1.0), 1.0)
        d = ser.profile_to_dict(sol)
        bad = dict(d)
        del bad["energy_constant"]
        with pytest.raises(ser.SchemaError, match="energy_constant"):
            ser.profile_from_dict(bad)
        bad = dict(d)
        bad["grid"] = [["0", "1"]]
        with pytest.raises(ser.SchemaError, match="grid"):
            ser.profile_from_dict(bad)


class TestImmersionRoundTrip:
    @pytest.mark.parametrize("spec", [
        ImmersionFamilySpec("thm1", 2, 1.0),
        ImmersionFamilySpec("tg_horo", 2),
        ImmersionFamilySpec("prop3c", 2, 1.0, seed_kind="tg_plane_c"),
        ImmersionFamilySpec("cn_product", 2, seed_kind="tg_sphere_cp", c=1),
    ])
    def test_samples_preserved(self, spec):
        imm = build_immersion(spec, grid=(6, 6))
        d = ser.immersion_to_dict(imm)
        imm2 = ser.immersion_from_dict(json.loads(json.dumps(d)))
        assert np.array_equal(imm.samples, imm2.samples)
        assert np.array_equal(imm.s_values, imm2.s_values)
        assert np.array_equal(imm.x_grid, imm2.x_grid)
        assert imm2.spec == imm.spec

    def test_rebuilt_evaluator_matches(self):
        imm = build_immersion(ImmersionFamilySpec("thm2", 2, 0.7), grid=(6, 6))
        imm2 = ser.immersion_from_dict(ser.immersion_to_dict(imm))
        xi = imm.grid_xi()
        assert np.max(np.abs(imm.evaluate_xi(xi) - imm2.evaluate_xi(xi))) < 1e-13

    def test_row_count_schema(self):
        imm = build_immersion(ImmersionFamilySpec("tg_sphere", 2), grid=(6, 6))
        d = ser.immersion_to_dict(imm)
        d["samples"] = d["samples"][:-1]
        with pytest.raises(ser.SchemaError, match="rows"):
            ser.immersion_from_dict(d)


class TestCSV:
    def test_samples_round_trip_bit_exact(self):
        imm = build_immersion(ImmersionFamilySpec("thm3", 2, 1.0), grid=(5, 5))
        d = ser.immersion_to_dict(imm)
        text = ser.samples_to_csv(d)
        assert ser.csv_to_rows(text) == d["samples"]

    def test_profile_rows(self):
        sol = solve_profile(ProfileFamily("ch_horo", 2, 1.0), 1.0)
        d = ser.profile_to_dict(sol)
        text = ser.profile_to_csv(d)
        rows = ser.csv_to_rows(text)
        assert len(rows) == len(sol.s)
        assert rows == d["grid"]


class TestBulkCodec:
    """Vectorized tables: same bytes as json.dumps, same values as float()."""

    @pytest.fixture(scope="class")
    def thm1_dict(self):
        imm = build_immersion(ImmersionFamilySpec("thm1", 3, 1.0), grid=(6, 9))
        return ser.immersion_to_dict(imm)

    def test_format_rows_is_fnum(self):
        table = np.array([[0.1, -0.0, 5e-324], [1e300, -np.inf, np.nan], [1 / 3, 2.0, -7e-8]])
        rows = ser.format_rows(table)
        assert rows == [[ser.fnum(v) for v in row] for row in table]

    def test_dumps_writes_samples_like_json(self, thm1_dict):
        expected = json.dumps(thm1_dict, indent=1) + "\n"
        assert ser.dumps(thm1_dict) == expected
        # a parsed file (plain lists) takes the same path
        assert ser.dumps(json.loads(expected)) == expected

    @pytest.mark.parametrize("edit", [
        lambda d: d["samples"][1].__setitem__(0, 'a"b'),
        lambda d: d["samples"][1].__setitem__(0, "a\\b"),
        lambda d: d["samples"][1].__setitem__(0, "é"),
        lambda d: d["samples"][1].__setitem__(0, 1.5),
        lambda d: d["samples"].__setitem__(1, []),
        lambda d: d["samples"].__setitem__(1, "0,1"),
        lambda d: d.__setitem__("samples", []),
        lambda d: d.__setitem__("tail", 1),
    ])
    def test_dumps_falls_back_to_json(self, thm1_dict, edit):
        d = json.loads(json.dumps(thm1_dict))
        edit(d)
        assert ser.dumps(d) == json.dumps(d, indent=1) + "\n"

    def test_dumps_writes_nested_tables_like_json(self, thm1_dict):
        # the embedded profile grid sits two levels deep; a solve payload
        # carries its grid one level deep
        assert ser.dumps(thm1_dict["profile"]) == json.dumps(thm1_dict["profile"], indent=1) + "\n"
        rows = [["1", "-2.5"], ["3e-07", "4"]]
        for obj in (
            rows,
            [rows],
            {"a": {"b": {"c": rows}}, "d": [rows, {"e": rows}], "f": rows},
            [{"t": rows}, [["x"]], "s", [1, [2.5, [None, True]]], {}, []],
            {"t": rows, "keys": {1: rows}, "tuple": (rows,), "empty": {"e": [], "r": [[]]}},
            {"ragged": [["1"], [], ["2"]], "mixed": [["1", 2.0]], "escaped": [['a"b'], ["é"]]},
        ):
            assert ser.dumps(obj) == json.dumps(obj, indent=1) + "\n"

    def test_reader_matches_float(self, thm1_dict):
        imm = ser.immersion_from_dict(thm1_dict)
        flat = np.array([[float(v) for v in row] for row in thm1_dict["samples"]])
        d = 1 + imm.x_grid.shape[1]
        assert np.array_equal(imm.s_values, flat[:: len(imm.x_grid), 0])
        lifts = imm.samples.reshape(len(flat), -1)
        assert np.array_equal(lifts.real, flat[:, d::2])
        assert np.array_equal(lifts.imag, flat[:, d + 1::2])

    def test_ragged_row_named(self, thm1_dict):
        d = json.loads(json.dumps(thm1_dict))
        width = len(d["samples"][0])
        d["samples"][3] = d["samples"][3] + ["0"]
        with pytest.raises(ser.SchemaError,
                           match=f"row 3 has {width + 1} columns, expected {width}"):
            ser.immersion_from_dict(d)

    def test_uniform_wrong_width_named(self, thm1_dict):
        d = json.loads(json.dumps(thm1_dict))
        d["samples"] = [row[:-1] for row in d["samples"]]
        with pytest.raises(ser.SchemaError, match="columns"):
            ser.immersion_from_dict(d)

    @pytest.mark.parametrize("bad", [None, "abc", [1]])
    def test_bad_value_named(self, thm1_dict, bad):
        d = json.loads(json.dumps(thm1_dict))
        d["samples"][2][4] = bad
        with pytest.raises(ser.SchemaError, match="not a number"):
            ser.immersion_from_dict(d)

    def test_bad_profile_grid_value(self, thm1_dict):
        d = json.loads(json.dumps(thm1_dict["profile"]))
        d["grid"][7][1] = None
        with pytest.raises(ser.SchemaError, match="profile.grid: not a number"):
            ser.profile_from_dict(d)

    def test_short_first_row_named(self, thm1_dict):
        d = json.loads(json.dumps(thm1_dict))
        width = len(d["samples"][0])
        d["samples"][0] = d["samples"][0][:-2]
        with pytest.raises(ser.SchemaError,
                           match=f"row 0 has {width - 2} columns, expected {width}"):
            ser.immersion_from_dict(d)
