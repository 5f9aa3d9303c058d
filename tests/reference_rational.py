"""Polynomial, rational-function and rational-matrix arithmetic that only
the tests use: the ring operations, gcd, lcm, extended gcd and determinant
of ``Poly``; sums, products, inverses and pole orders of ``RationalFn``;
products, transposes and the identity and zero checks of ``RatMatrix``. The
library builds on polynomial tensors and keeps these values to parse and
print, so the identities the tests state (L @ H^T = I, G @ H^T = 0) are
checked here.
"""

from __future__ import annotations

import numpy as np

import qconvdec.algebra
from qconvdec.algebra import (
    GF2, DegreeCapError, Field, FieldMismatchError, Poly, RatMatrix,
    RationalFn, gf_poly_add, gf_poly_divmod, gf_poly_mul, gf_stack,
)
from qconvdec.circuits import TransferSystem


def _same_field(a: Poly, b: Poly) -> None:
    if a.field is not b.field:
        raise FieldMismatchError(f"mixed fields: {a.field} and {b.field}")


def padd(a: Poly, b: Poly) -> Poly:
    """a + b (and a - b, in characteristic 2)."""
    _same_field(a, b)
    return Poly(gf_poly_add(a._array(), b._array()).tolist(), a.field)


def pmul(a: Poly, b: Poly) -> Poly:
    _same_field(a, b)
    deg, cap = a.degree + b.degree, qconvdec.algebra._DEGREE_CAP
    if deg > cap and a and b:
        raise DegreeCapError(f"product degree {deg} exceeds cap {cap}")
    return Poly(gf_poly_mul(a._array(), b._array(), a.field).tolist(),
                a.field)


def pdivmod(a: Poly, b: Poly) -> tuple[Poly, Poly]:
    _same_field(a, b)
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    quo, rem = gf_poly_divmod(a._array(), b._array(), a.field)
    return Poly(quo.tolist(), a.field), Poly(rem.tolist(), a.field)


def monic(a: Poly) -> Poly:
    if not a:
        return a
    f = a.field
    return Poly(f.mul_table[f.inv(a.leading_coeff()), a._array()].tolist(), f)


def valuation(a: Poly) -> int:
    """Largest v with D^v dividing a; 0 for the zero polynomial."""
    return next((i for i, c in enumerate(a.coeffs) if c), 0)


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic gcd; gcd(a, 0) = monic(a)."""
    _same_field(a, b)
    while b:
        a, b = b, pdivmod(a, b)[1]
    return monic(a)


def add(a: RationalFn, b: RationalFn) -> RationalFn:
    return RationalFn(padd(pmul(a.num, b.den), pmul(b.num, a.den)),
                      pmul(a.den, b.den))


def mul(a: RationalFn, b: RationalFn) -> RationalFn:
    return RationalFn(pmul(a.num, b.num), pmul(a.den, b.den))


def inverse(a: RationalFn) -> RationalFn:
    if a.is_zero():
        raise ZeroDivisionError("inverse of zero")
    return RationalFn(a.den, a.num)


def pole_order_at_zero(a: RationalFn) -> int:
    """Order of the pole at D = 0 (0 if causal)."""
    if a.is_zero():
        return 0
    return max(0, valuation(a.den) - valuation(a.num))


def identity(k: int, field: Field = GF2) -> RatMatrix:
    return RatMatrix([[RationalFn.one(field) if i == j
                       else RationalFn.zero(field) for j in range(k)]
                      for i in range(k)], field)


def transpose(m: RatMatrix) -> RatMatrix:
    return RatMatrix([[m.entries[r][c] for r in range(m.rows)]
                      for c in range(m.cols)], m.field)


def matmul(a: RatMatrix, b: RatMatrix) -> RatMatrix:
    if a.cols != b.rows:
        raise ValueError("dimension mismatch")
    out = []
    for i in range(a.rows):
        row = []
        for j in range(b.cols):
            acc = RationalFn.zero(a.field)
            for k in range(a.cols):
                x, y = a.entries[i][k], b.entries[k][j]
                if not (x.is_zero() or y.is_zero()):
                    acc = add(acc, mul(x, y))
            row.append(acc)
        out.append(row)
    return RatMatrix(out, a.field)


def is_zero(m: RatMatrix) -> bool:
    return all(e.is_zero() for r in m.entries for e in r)


def is_identity(m: RatMatrix) -> bool:
    return m.rows == m.cols and m == identity(m.rows, m.field)


def poly_det(rows: list[list[Poly]]) -> Poly:
    """Determinant of a small square polynomial matrix (Laplace expansion;
    characteristic 2, so no signs)."""
    k = len(rows)
    if k == 1:
        return rows[0][0]
    acc = Poly.zero(rows[0][0].field)
    for j in range(k):
        if not rows[0][j].is_zero():
            minor = [[rows[i][jj] for jj in range(k) if jj != j]
                     for i in range(1, k)]
            acc = padd(acc, pmul(rows[0][j], poly_det(minor)))
    return acc


def poly_lcm(a: Poly, b: Poly) -> Poly:
    if a.is_zero() or b.is_zero():
        return Poly.zero(a.field)
    return monic(pdivmod(pmul(a, b), poly_gcd(a, b))[0])


def poly_xgcd(a: Poly, b: Poly) -> tuple[Poly, Poly, Poly]:
    """Extended Euclid: (g, s, t) with s*a + t*b = g, g monic."""
    field = a.field
    r0, r1 = a, b
    s0, s1 = Poly.one(field), Poly.zero(field)
    t0, t1 = Poly.zero(field), Poly.one(field)
    while not r1.is_zero():
        q, r = pdivmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, padd(s0, pmul(q, s1))
        t0, t1 = t1, padd(t0, pmul(q, t1))
    if r0.is_zero():
        return r0, s0, t0
    scale = Poly((field.inv(r0.leading_coeff()),), field)
    return monic(r0), pmul(s0, scale), pmul(t0, scale)


def is_polynomial(m: RatMatrix) -> bool:
    return all(e.is_polynomial() for r in m.entries for e in r)


def poly_entries(m: RatMatrix) -> list[list[Poly]]:
    if not is_polynomial(m):
        raise ValueError("matrix has non-polynomial entries")
    return [[e.num for e in r] for r in m.entries]


def tensor(m: RatMatrix) -> np.ndarray:
    """The (max degree + 1, rows, cols) tensor of a polynomial RatMatrix,
    slice d the D^d coefficients."""
    return gf_stack([[p._array() for p in r] for r in poly_entries(m)])


def system_of(m: RatMatrix, role: str = "") -> TransferSystem:
    """The transfer system of a RatMatrix."""
    return TransferSystem.from_matrix(m, role)
