"""Central finite-difference stencils on vectorized evaluators.

An evaluator maps a batch of chart points Xi of shape (M, D) to ambient
values of shape (M, C).  First derivatives use the 5-point stencil
(O(h^4)); second derivatives use 5-point diagonals and the symmetric
4-point cross for mixed terms.

No built or loaded immersion is differenced: their jets are exact.  The
stencils, at ``DEFAULT_FD_STEP``, are the independent route: the check of
a given seed's jets against its values (``immersions.seed_residuals``),
and the whole-lift jets the tests compare the exact ones with.
"""

from __future__ import annotations

import numpy as np

__all__ = ["DEFAULT_FD_STEP", "first_partials", "jet_partials"]

DEFAULT_FD_STEP = 1e-3


def _shift(Xi, d, delta):
    out = np.array(Xi, dtype=float, copy=True)
    out[:, d] += delta
    return out


def first_partials(evaluate, Xi, h):
    """First partials of shape (M, D, C)."""
    Xi = np.asarray(Xi, dtype=float)
    M, D = Xi.shape
    hs = np.broadcast_to(np.asarray(h, dtype=float), (D,))
    cols = []
    for d in range(D):
        hd = hs[d]
        zm2 = evaluate(_shift(Xi, d, -2 * hd))
        zm1 = evaluate(_shift(Xi, d, -hd))
        zp1 = evaluate(_shift(Xi, d, +hd))
        zp2 = evaluate(_shift(Xi, d, +2 * hd))
        cols.append((zm2 - 8.0 * zm1 + 8.0 * zp1 - zp2) / (12.0 * hd))
    return np.stack(cols, axis=1)


def jet_partials(evaluate, Xi, h):
    """Base value, first and second partials: (M,C), (M,D,C), (M,D,D,C)."""
    Xi = np.asarray(Xi, dtype=float)
    M, D = Xi.shape
    hs = np.broadcast_to(np.asarray(h, dtype=float), (D,))
    base = evaluate(Xi)
    d1 = np.empty((M, D, base.shape[-1]), dtype=base.dtype)
    d2 = np.empty((M, D, D, base.shape[-1]), dtype=base.dtype)

    for d in range(D):
        hd = hs[d]
        zm1 = evaluate(_shift(Xi, d, -hd))
        zp1 = evaluate(_shift(Xi, d, +hd))
        zm2 = evaluate(_shift(Xi, d, -2 * hd))
        zp2 = evaluate(_shift(Xi, d, +2 * hd))
        d1[:, d] = (zm2 - 8.0 * zm1 + 8.0 * zp1 - zp2) / (12.0 * hd)
        d2[:, d, d] = (-zm2 + 16.0 * zm1 - 30.0 * base + 16.0 * zp1 - zp2) / (
            12.0 * hd * hd
        )

    for a in range(D):
        for b in range(a + 1, D):
            ha, hb = hs[a], hs[b]
            zpp = evaluate(_shift(_shift(Xi, a, +ha), b, +hb))
            zpm = evaluate(_shift(_shift(Xi, a, +ha), b, -hb))
            zmp = evaluate(_shift(_shift(Xi, a, -ha), b, +hb))
            zmm = evaluate(_shift(_shift(Xi, a, -ha), b, -hb))
            mixed = (zpp - zpm - zmp + zmm) / (4.0 * ha * hb)
            d2[:, a, b] = mixed
            d2[:, b, a] = mixed
    return base, d1, d2
