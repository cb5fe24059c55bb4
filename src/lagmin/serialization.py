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

The text layer (``fnum``, ``dumps``, the ``parse_*`` helpers, the CSV
writers and ``SchemaError``) imports only the standard library, so
commands that only rewrite text never load numpy; the functions that
build or read arrays import numpy, ``profiles`` and ``immersions``
themselves.
"""

from __future__ import annotations

import json
import re

from .domain import SchemaError

__all__ = [
    "SchemaError",
    "parse_float",
    "parse_int",
    "parse_bool",
    "fnum",
    "format_rows",
    "dumps",
    "profile_to_dict",
    "profile_from_dict",
    "immersion_to_dict",
    "immersion_from_dict",
    "samples_to_csv",
    "profile_to_csv",
    "csv_to_rows",
]


def fnum(x) -> str:
    return format(float(x), ".17g")


def format_rows(table) -> list:
    """Rows of ``fnum`` strings for a 2-D float array."""
    import numpy as np

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
    if not isinstance(d, dict):
        raise SchemaError(f"{where}: not an object")
    if key not in d:
        raise SchemaError(f"{where}: missing key {key!r}")
    return d[key]


def parse_float(v, where: str) -> float:
    try:
        return float(v)
    except (TypeError, ValueError):
        raise SchemaError(f"{where}: not a number: {v!r}") from None


def parse_int(v, where: str) -> int:
    """A JSON integer or a string of one (not a bool, not 2.5)."""
    try:
        if type(v) in (int, str):
            return int(v)
    except ValueError:
        pass
    raise SchemaError(f"{where}: not an integer: {v!r}")


def parse_bool(v, where: str) -> bool:
    """A JSON true or false; the string "false" is not."""
    if type(v) is bool:
        return v
    raise SchemaError(f"{where}: not true or false: {v!r}")


def _parse_rows(rows, width: int, where: str) -> np.ndarray:
    """A table of numbers or number strings as a (len(rows), width) array.

    One ``np.array`` call parses well-formed tables, exactly as ``float``
    parses each value.  Otherwise, and wherever a NaN appears (numpy reads
    None as NaN), the rows are scanned for the first ragged row or bad
    value.  A table whose rows all have another width reads as is; the
    caller names that mismatch.
    """
    import numpy as np

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
    values = [[parse_float(v, where) for v in row] for row in rows]
    return np.array(values, dtype=float).reshape(len(rows), widths.pop() if widths else width)


# ---------------------------------------------------------------------------
# profiles


def profile_to_dict(sol: ProfileSolution) -> dict:
    import numpy as np

    from .profiles import EQUILIBRIUM_PROXIMATE, energy_residual

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
        out["equilibrium_proximate"] = bool(np.ptp(sol.r) < EQUILIBRIUM_PROXIMATE)
    return out


def profile_from_dict(d: dict) -> ProfileSolution:
    import numpy as np

    from .profiles import ProfileFamily, ProfileSolution

    tag = _require(d, "family", "profile")
    fam = ProfileFamily(tag, parse_int(_require(d, "n", "profile"), "profile.n"),
                        parse_float(_require(d, "rho", "profile"), "profile.rho"))
    grid = _require(d, "grid", "profile")
    arr = _parse_rows(grid if isinstance(grid, list) else [], 3, "profile.grid")
    if arr.shape[1] != 3 or len(arr) < 2:
        raise SchemaError("profile.grid: expected at least 2 rows [s, r, rp]")
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
        parse_float(_require(d, "energy_constant", "profile"), "profile.energy_constant"),
        parse_float(_require(d, "tol", "profile"), "profile.tol"),
        u_reconstructed=tag != "ch_horo",
    )


# ---------------------------------------------------------------------------
# immersions


def immersion_to_dict(imm: SampledImmersion) -> dict:
    import numpy as np

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
    import numpy as np

    from .immersions import ImmersionFamilySpec, assemble_immersion, product_xi

    sd = _require(d, "spec", "immersion")
    spec = ImmersionFamilySpec(
        family=_require(sd, "family", "immersion.spec"),
        n=parse_int(_require(sd, "n", "immersion.spec"), "immersion.spec.n"),
        rho=None if sd.get("rho") is None else parse_float(sd["rho"], "spec.rho"),
        seed_kind=sd.get("seed"),
        c=parse_int(sd.get("c", 1), "immersion.spec.c"),
        detuned=parse_bool(sd.get("detuned", False), "immersion.spec.detuned"),
    )
    gd = _require(d, "grid", "immersion")
    S, M = (parse_int(_require(gd, key, "immersion.grid"), f"immersion.grid.{key}")
            for key in ("s_points", "transverse_points"))
    if S < 1 or M < 1:
        raise SchemaError(f"immersion.grid: {S}x{M} holds no grid point")
    rows = _require(d, "samples", "immersion")
    if not isinstance(rows, list):
        raise SchemaError("immersion.samples: not a list of rows")
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
    # the (s, x) columns must be the product grid itself, s slowest
    off = np.any(arr[:, : 1 + chart_dim] != product_xi(s_values, x_grid), axis=1)
    if off.any():
        k = int(np.argmax(off))
        raise SchemaError(f"immersion.samples: row {k} is not the grid point "
                          f"(s_values[{k // M}], x_grid[{k % M}]) of the {S}x{M} product grid")
    lifts = arr[:, 1 + chart_dim :]
    samples = (lifts[:, 0::2] + 1j * lifts[:, 1::2]).reshape(S, M, coords)
    header = d.get("header", {})
    if not isinstance(header, dict):
        raise SchemaError("immersion.header: not an object")
    imm = assemble_immersion(spec, profile, s_values, x_grid, samples=samples)
    imm.header.update({k: parse_float(v, "immersion.header") for k, v in header.items()})
    return imm


# ---------------------------------------------------------------------------
# CSV


def samples_to_csv(d: dict) -> str:
    """Flatten immersion samples, one row per grid point."""
    chart = _require(_require(d, "grid", "immersion"), "chart", "immersion.grid")
    rows = _require(d, "samples", "immersion")
    if not isinstance(chart, list):
        raise SchemaError("immersion.grid.chart: not a list of axis names")
    try:
        body = [",".join(row) for row in rows]
    except TypeError:
        raise SchemaError("immersion.samples: not a list of rows of number strings") from None
    ncols = len(rows[0]) if rows else 0
    ncoords = (ncols - 1 - len(chart)) // 2
    header = ["s"] + list(chart)
    for k in range(ncoords):
        header += [f"re{k+1}", f"im{k+1}"]
    return "\n".join([",".join(header)] + body) + "\n"


def profile_to_csv(d: dict) -> str:
    lines = ["s,r,rp"]
    lines += [",".join(row) for row in d["grid"]]
    return "\n".join(lines) + "\n"


def csv_to_rows(text: str) -> list:
    lines = [ln for ln in text.strip().splitlines() if ln]
    return [ln.split(",") for ln in lines[1:]]
