"""Reference realization of a rational transfer matrix: the per-tick
controller-form recursion that ``circuits.TransferSystem`` replaces with its
closed form, kept to check that closed form against it.

Each input row gets one shared denominator normalized to den[0] = 1 and one
numerator per output; entries with a pole at D = 0 are first multiplied by
the common advance D^a, so every function here works on D^a * matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from qconvdec.algebra import Poly, RatMatrix, RationalFn
from qconvdec.circuits import CodeBundle, DerivationError, derive_generator

from reference_rational import (
    add, mul, pdivmod, pmul, pole_order_at_zero, poly_lcm,
)


@dataclass(frozen=True)
class RowRealization:
    """Controller-form data for one input row: shared monic-at-0 denominator
    ``den`` and per-output numerators ``nums`` (coefficient lists)."""

    den: tuple[int, ...]
    nums: tuple[tuple[int, ...], ...]

    @property
    def memory(self) -> int:
        return max(len(self.den) - 1, max((len(p) - 1 for p in self.nums), default=0))


def input_advance(matrix: RatMatrix) -> int:
    return max((pole_order_at_zero(e) for row in matrix.entries for e in row),
               default=0)


def realize(matrix: RatMatrix) -> list[RowRealization]:
    f = matrix.field
    advance = input_advance(matrix)
    d_a = Poly.monomial(advance, field=f) if advance else Poly.one(f)
    rows = []
    for row in matrix.entries:
        scaled = [RationalFn(pmul(e.num, d_a), e.den) for e in row]
        den = Poly.one(f)
        for e in scaled:
            if not e.is_zero():
                den = poly_lcm(den, e.den)
        if den[0] == 0:
            raise DerivationError("entry remained non-causal after advance "
                                  "extraction")
        # normalize the recursion to den[0] = 1
        c0inv = Poly((f.inv(den[0]),), f)
        nums = []
        for e in scaled:
            if e.is_zero():
                nums.append((0,))
                continue
            p = pmul(e.num, pdivmod(den, e.den)[0])
            nums.append(pmul(p, c0inv).coeffs or (0,))
        rows.append(RowRealization(den=pmul(den, c0inv).coeffs,
                                   nums=tuple(nums)))
    return rows


def state_dim(matrix: RatMatrix) -> int:
    return sum(r.memory for r in realize(matrix))


def run(matrix: RatMatrix, x: np.ndarray, extra: int = 0) -> np.ndarray:
    """Stream a (T, inputs) frame one tick at a time; returns
    (T + extra, outputs) holding the coefficients of
    D^input_advance * (x @ matrix)."""
    x = np.asarray(x, dtype=np.uint8)
    if x.ndim != 2 or x.shape[1] != matrix.rows:
        raise ValueError(f"expected (T, {matrix.rows}) input")
    T = x.shape[0]
    L = T + extra
    mul = matrix.field.mul
    out = np.zeros((L, matrix.cols), dtype=np.uint8)
    for i, row in enumerate(realize(matrix)):
        den = row.den
        w = [0] * L
        xi = x[:, i]
        for t in range(L):
            acc = int(xi[t]) if t < T else 0
            for d in range(1, len(den)):
                if den[d] and t - d >= 0:
                    acc ^= mul(den[d], w[t - d])
            w[t] = acc
        for j, num in enumerate(row.nums):
            col = out[:, j]
            for d, cf in enumerate(num):
                if not cf:
                    continue
                for t in range(d, L):
                    col[t] ^= mul(cf, w[t - d])
    return out


def impulse_response(matrix: RatMatrix, length: int,
                     input_index: int = 0) -> np.ndarray:
    x = np.zeros((length, matrix.rows), dtype=np.uint8)
    x[0, input_index] = 1
    return run(matrix, x)


def state_space(matrix: RatMatrix):
    """(A, B, C, E) with state' = state @ A + in @ B and
    out = state @ C + in @ E, block-diagonal by input row."""
    f = matrix.field
    rows = realize(matrix)
    s = sum(r.memory for r in rows)
    A = np.zeros((s, s), dtype=np.uint8)
    B = np.zeros((matrix.rows, s), dtype=np.uint8)
    C = np.zeros((s, matrix.cols), dtype=np.uint8)
    E = np.zeros((matrix.rows, matrix.cols), dtype=np.uint8)
    off = 0
    for i, row in enumerate(rows):
        mem = row.memory
        den = row.den
        for d in range(1, mem):
            A[off + d - 1, off + d] = 1          # shift register
        for d in range(1, len(den)):
            if den[d]:
                A[off + d - 1, off] = den[d]     # feedback into w_t
        if mem:
            B[i, off] = 1
        for j, num in enumerate(row.nums):
            p0 = num[0] if num else 0
            E[i, j] = p0
            for d in range(1, mem + 1):
                coef = num[d] if d < len(num) else 0
                qd = den[d] if d < len(den) else 0
                val = coef ^ f.mul(p0, qd)
                if val:
                    C[off + d - 1, j] = val
        off += mem
    return A, B, C, E


def run_state_space(matrix: RatMatrix, x: np.ndarray,
                    extra: int = 0) -> np.ndarray:
    """Streaming through the explicit state-space matrices."""
    f = matrix.field
    A, B, C, E = state_space(matrix)
    T = x.shape[0]
    L = T + extra
    out = np.zeros((L, matrix.cols), dtype=np.uint8)
    state = np.zeros(A.shape[0], dtype=np.uint8)

    def vecmat(v, M):
        r = np.zeros(M.shape[1], dtype=np.uint8)
        for i, vi in enumerate(v):
            if vi:
                for j in range(M.shape[1]):
                    if M[i, j]:
                        r[j] ^= f.mul(int(vi), int(M[i, j]))
        return r

    for t in range(L):
        xt = x[t] if t < T else np.zeros(matrix.rows, dtype=np.uint8)
        out[t] = vecmat(state, C) ^ vecmat(xt, E)
        state = vecmat(state, A) ^ vecmat(xt, B)
    return out


def shifted_isf_matrix(bundle: CodeBundle, mix: list[Poly]) -> RatMatrix:
    """A structurally different valid ISF: L' = L + mix^T @ G (any polynomial
    mix of generator rows added to each ISF row keeps L' @ H^T = I)."""
    L = bundle.isf.matrix
    G = derive_generator(bundle.hb, bundle.field).matrix
    rows = []
    for i in range(L.rows):
        row = list(L.entries[i])
        for gr in range(G.rows):
            scale = RationalFn(mix[(i + gr) % len(mix)])
            row = [add(a, mul(scale, b)) for a, b in zip(row, G.entries[gr])]
        rows.append(row)
    return RatMatrix(rows, L.field)
