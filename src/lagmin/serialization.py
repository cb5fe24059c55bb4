"""Lossless JSON/CSV encoding of profiles, immersions and reports.

Every real number is written as a 17-significant-digit decimal string so
files round-trip bit-exactly; complex values are flattened to (re, im)
pairs.  Dictionaries are emitted in a fixed key order, which together with
the string encoding makes identical invocations byte-identical.

The bulk tables (immersion samples, profile grids) are handled as whole
arrays: rows are formatted from ``tolist()`` floats, ``dumps`` writes
every table of string rows itself, at any depth, in the layout
``json.dumps(indent=1)`` produces, and readers parse a table with one
``np.array(rows, dtype=float)``, scanning value by value only to name a
bad entry.  Nothing here imports scipy.
"""

from __future__ import annotations

import json
import re

import numpy as np

from .immersions import ImmersionFamilySpec, SampledImmersion, assemble_immersion
from .model_spaces import InvalidArgument
from .profiles import ProfileFamily, ProfileSolution, energy_residual

__all__ = [
    "SchemaError",
    "fnum",
    "format_rows",
    "dumps",
    "ambient_vector_to_json",
    "ambient_vector_from_json",
    "isometry_to_json",
    "isometry_from_json",
    "profile_to_dict",
    "profile_from_dict",
    "immersion_to_dict",
    "immersion_from_dict",
    "samples_to_csv",
    "profile_to_csv",
    "csv_to_rows",
]


class SchemaError(InvalidArgument):
    """Malformed serialized input; message names the first violation."""


def fnum(x) -> str:
    return format(float(x), ".17g")


def format_rows(table) -> list:
    """Rows of ``fnum`` strings for a 2-D float array."""
    table = np.asarray(table, dtype=float)
    template = ",".join(["%.17g"] * table.shape[1])  # the same digits as fnum
    return [(template % tuple(row)).split(",") for row in table.tolist()]


def dumps(obj) -> str:
    """``json.dumps(obj, indent=1)`` plus a newline.

    Every table of string rows (a list of non-empty lists of strings, such
    as immersion samples and profile grids), at any depth, is written
    directly, byte for byte in the same layout: json's pure-Python indent
    encoder spends about 10 us per row on it.
    """
    return _encode(obj, 0) + "\n"


def _encode(obj, level: int) -> str:
    """``obj`` as json.dumps(indent=1) writes it ``level`` containers deep.

    Lists and string-keyed dicts are walked so that tables inside them take
    the direct path; anything else is json's own text, whose newlines are
    indented by ``level`` (json strings never hold a raw newline).
    """
    pad = "\n" + " " * level
    if type(obj) is list and obj:
        block = _string_rows_block(obj, pad)
        if block is not None:
            return block
        items = [_encode(v, level + 1) for v in obj]
        return "[" + pad + " " + ("," + pad + " ").join(items) + pad + "]"
    if type(obj) is dict and obj and all(type(k) is str for k in obj):
        items = [json.dumps(k) + ": " + _encode(v, level + 1) for k, v in obj.items()]
        return "{" + pad + " " + ("," + pad + " ").join(items) + pad + "}"
    return json.dumps(obj, indent=1).replace("\n", pad)


_JSON_ESCAPED = re.compile(r'["\\\x00-\x1f]')


def _string_rows_block(rows: list, pad: str) -> str | None:
    """A list of non-empty lists of strings as json.dumps(indent=1) writes it
    after the newline-and-indent ``pad``; None for anything else, or for
    strings json would escape."""
    if not all(type(row) is list and row for row in rows):
        return None
    try:
        raw = "".join(["".join(row) for row in rows])
    except TypeError:
        return None
    if not raw.isascii() or _JSON_ESCAPED.search(raw):
        return None
    row_pad, value_pad = pad + " ", pad + "  "
    inner = ('"' + row_pad + "]," + row_pad + "[" + value_pad + '"').join(
        [('",' + value_pad + '"').join(row) for row in rows])
    return "[" + row_pad + "[" + value_pad + '"' + inner + '"' + row_pad + "]" + pad + "]"


def _require(d: dict, key: str, where: str):
    if key not in d:
        raise SchemaError(f"{where}: missing key {key!r}")
    return d[key]


def _parse_float(v, where: str) -> float:
    try:
        return float(v)
    except (TypeError, ValueError):
        raise SchemaError(f"{where}: not a number: {v!r}") from None


def _parse_rows(rows, width: int, where: str) -> np.ndarray:
    """A table of numbers or number strings as a (len(rows), width) array.

    One ``np.array`` call parses well-formed tables, exactly as ``float``
    parses each value.  Otherwise, and wherever a NaN appears (numpy reads
    None as NaN), the rows are scanned for the first ragged row or bad
    value.  A table whose rows all have another width reads as is; the
    caller names that mismatch.
    """
    try:
        arr = np.array(rows, dtype=float)
    except (TypeError, ValueError):
        arr = None
    if arr is not None and arr.ndim == 2 and not np.isnan(arr).any():
        return arr
    widths = set()
    for k, row in enumerate(rows):
        if not isinstance(row, list):
            raise SchemaError(f"{where}: row {k} is not a list")
        widths.add(len(row))
    if len(widths) > 1:
        k = next(k for k, row in enumerate(rows) if len(row) != width)
        raise SchemaError(f"{where}: row {k} has {len(rows[k])} columns, expected {width}")
    values = [[_parse_float(v, where) for v in row] for row in rows]
    return np.array(values, dtype=float).reshape(len(rows), widths.pop() if widths else width)


# ---------------------------------------------------------------------------
# ambient values: a complex number is a two-element [re, im] array


def ambient_vector_to_json(z) -> list:
    z = np.asarray(z, dtype=complex)
    return [[fnum(v.real), fnum(v.imag)] for v in z]


def ambient_vector_from_json(data) -> np.ndarray:
    try:
        return np.array([complex(float(re), float(im)) for re, im in data])
    except (TypeError, ValueError):
        raise SchemaError("ambient vector: expected [[re, im], ...]") from None


def isometry_to_json(matrix) -> list:
    """Row-major nested [re, im] pairs."""
    return [ambient_vector_to_json(row) for row in np.asarray(matrix, dtype=complex)]


def isometry_from_json(data) -> np.ndarray:
    return np.stack([ambient_vector_from_json(row) for row in data])


# ---------------------------------------------------------------------------
# profiles


def profile_to_dict(sol: ProfileSolution) -> dict:
    fam = sol.family
    out = {
        "family": fam.tag,
        "n": fam.n,
        "rho": fnum(fam.rho),
        "tol": fnum(sol.tol),
        "energy_constant": fnum(sol.energy_constant),
        "energy_residual": fnum(energy_residual(sol)),
        "grid": format_rows(np.column_stack([sol.s, sol.r, sol.rp])),
    }
    if fam.tag == "cp_sphere":
        out["equilibrium_proximate"] = bool(np.ptp(sol.r) < 1e-3)
    return out


def profile_from_dict(d: dict) -> ProfileSolution:
    tag = _require(d, "family", "profile")
    fam = ProfileFamily(tag, int(_require(d, "n", "profile")),
                        _parse_float(_require(d, "rho", "profile"), "profile.rho"))
    grid = _require(d, "grid", "profile")
    if not grid:
        raise SchemaError("profile.grid: expected rows [s, r, rp]")
    arr = _parse_rows(grid, 3, "profile.grid")
    if arr.shape[1] != 3:
        raise SchemaError("profile.grid: expected rows [s, r, rp]")
    s, r, rp = arr[:, 0], arr[:, 1], arr[:, 2]
    if np.any(np.diff(s) <= 0):
        raise SchemaError("profile.grid: s must be strictly increasing")
    # artanh saturates once |rp| rounds to 1; u is only used for energy
    # re-evaluation, which serialized profiles carry precomputed anyway
    u = None
    if tag != "ch_horo":
        u = np.arctanh(np.clip(rp, -1 + 1e-16, 1 - 1e-16))
    return ProfileSolution(
        fam, s, r, rp, u,
        _parse_float(_require(d, "energy_constant", "profile"), "profile.energy_constant"),
        _parse_float(_require(d, "tol", "profile"), "profile.tol"),
        u_reconstructed=tag != "ch_horo",
    )


# ---------------------------------------------------------------------------
# immersions


def immersion_to_dict(imm: SampledImmersion) -> dict:
    spec = imm.spec
    S, M = len(imm.s_values), len(imm.x_grid)
    # a complex row viewed as floats is its (re, im) pairs in order
    lifts = np.ascontiguousarray(imm.samples, dtype=complex).reshape(S * M, -1).view(np.float64)
    rows = format_rows(np.column_stack([imm.grid_xi(), lifts]))
    return {
        "spec": {
            "family": spec.family,
            "n": spec.n,
            "rho": None if spec.rho is None else fnum(spec.rho),
            "seed": spec.seed_kind,
            "c": spec.c,
            "detuned": spec.detuned,
        },
        "grid": {
            "s_points": S,
            "transverse_points": M,
            "s_window": [fnum(imm.s_values[0]), fnum(imm.s_values[-1])],
            "chart": list(imm.chart.names),
        },
        "header": {k: fnum(v) for k, v in imm.header.items()},
        "profile": None if imm.profile is None else profile_to_dict(imm.profile),
        "samples": rows,
    }


def immersion_from_dict(d: dict) -> SampledImmersion:
    sd = _require(d, "spec", "immersion")
    spec = ImmersionFamilySpec(
        family=_require(sd, "family", "immersion.spec"),
        n=int(_require(sd, "n", "immersion.spec")),
        rho=None if sd.get("rho") is None else _parse_float(sd["rho"], "spec.rho"),
        seed_kind=sd.get("seed"),
        c=int(sd.get("c", 1)),
        detuned=bool(sd.get("detuned", False)),
    )
    gd = _require(d, "grid", "immersion")
    S = int(_require(gd, "s_points", "immersion.grid"))
    M = int(_require(gd, "transverse_points", "immersion.grid"))
    rows = _require(d, "samples", "immersion")
    if len(rows) != S * M:
        raise SchemaError(f"immersion.samples: expected {S * M} rows, got {len(rows)}")
    profile = None
    if d.get("profile") is not None:
        profile = profile_from_dict(d["profile"])

    chart_dim = spec.n - 1  # transverse factor is always (n-1)-dimensional
    coords = spec.ambient.coords
    expected_cols = 1 + chart_dim + 2 * coords
    arr = _parse_rows(rows, expected_cols, "immersion.samples")
    if arr.shape[1] != expected_cols:
        raise SchemaError(
            f"immersion.samples: expected {expected_cols} columns, got {arr.shape[1]}"
        )
    s_values = arr[: S * M : M, 0]
    x_grid = arr[:M, 1 : 1 + chart_dim]
    lifts = arr[:, 1 + chart_dim :]
    samples = (lifts[:, 0::2] + 1j * lifts[:, 1::2]).reshape(S, M, coords)
    imm = assemble_immersion(spec, profile, s_values, x_grid, samples=samples)
    imm.header.update({k: _parse_float(v, "immersion.header")
                       for k, v in d.get("header", {}).items()})
    return imm


# ---------------------------------------------------------------------------
# CSV


def samples_to_csv(d: dict) -> str:
    """Flatten immersion samples, one row per grid point."""
    chart = d["grid"]["chart"]
    ncols = len(d["samples"][0]) if d["samples"] else 0
    ncoords = (ncols - 1 - len(chart)) // 2
    header = ["s"] + list(chart)
    for k in range(ncoords):
        header += [f"re{k+1}", f"im{k+1}"]
    lines = [",".join(header)]
    lines += [",".join(row) for row in d["samples"]]
    return "\n".join(lines) + "\n"


def profile_to_csv(d: dict) -> str:
    lines = ["s,r,rp"]
    lines += [",".join(row) for row in d["grid"]]
    return "\n".join(lines) + "\n"


def csv_to_rows(text: str) -> list:
    lines = [ln for ln in text.strip().splitlines() if ln]
    return [ln.split(",") for ln in lines[1:]]
