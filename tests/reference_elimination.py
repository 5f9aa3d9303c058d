"""Reference Gaussian elimination over the rational-function field: the rank
and left inverse that ``circuits.derive_inverse_syndrome_former`` replaces
with one adjugate, kept to check that adjugate and its pivot rule against,
and the closed form's N by rational-function products.
"""

from __future__ import annotations

import numpy as np

from qconvdec.algebra import AlgebraError, Poly, RatMatrix, RationalFn
from qconvdec.circuits import TransferSystem

from reference_rational import add, inverse, mul, padd, tensor


class RankDeficientError(AlgebraError):
    pass


def _rref_with_transform(m: RatMatrix) -> tuple[RatMatrix, RatMatrix, list[int]]:
    """Row-reduced echelon form R = T @ m; returns (R, T, pivot columns)."""
    field = m.field
    rows = [list(r) for r in m.entries]
    nrows, ncols = m.rows, m.cols
    trans = [[RationalFn.one(field) if i == j else RationalFn.zero(field)
              for j in range(nrows)] for i in range(nrows)]
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        sel = next((i for i in range(r, nrows) if not rows[i][c].is_zero()), None)
        if sel is None:
            continue
        rows[r], rows[sel] = rows[sel], rows[r]
        trans[r], trans[sel] = trans[sel], trans[r]
        inv = inverse(rows[r][c])
        rows[r] = [mul(e, inv) for e in rows[r]]
        trans[r] = [mul(e, inv) for e in trans[r]]
        for i in range(nrows):
            if i != r and not rows[i][c].is_zero():
                f = rows[i][c]
                rows[i] = [add(a, mul(f, b)) for a, b in zip(rows[i], rows[r])]
                trans[i] = [add(a, mul(f, b))
                            for a, b in zip(trans[i], trans[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return RatMatrix(rows, field), RatMatrix(trans, field), pivots


def rank(m: RatMatrix) -> int:
    return len(_rref_with_transform(m)[2])


def left_inverse(m: RatMatrix) -> RatMatrix:
    """L with L @ m = I, for an n x r matrix of full column rank r.

    Gaussian elimination over the rational-function field; always succeeds at
    full rank (the field has no characteristic-2 Gram pathology).
    """
    r = m.cols
    rref_m, trans, pivots = _rref_with_transform(m)
    if len(pivots) < r:
        raise RankDeficientError(f"rank {len(pivots)} < {r} columns")
    # rref_m = trans @ m = [I_r; 0] up to pivot placement; since column rank is
    # full, pivots are exactly columns 0..r-1 and the first r rows of trans
    # give the left inverse.
    return RatMatrix(trans.entries[:r], m.field)


def rational_taps(system: TransferSystem) -> np.ndarray:
    """``system.taps`` by rational-function products: N = D^a (1 + D^P) M
    entry by entry, the reference for the exact polynomial division that
    ``TransferSystem.taps`` does."""
    f, a = system.field, system.input_advance
    scale = RationalFn(padd(Poly.monomial(a, field=f),
                            Poly.monomial(a + system.period, field=f)))
    N = RatMatrix([[mul(e, scale) for e in row]
                   for row in system.matrix.entries], f)
    return tensor(N).transpose(0, 2, 1)
