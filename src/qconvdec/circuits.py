"""Syndrome former, inverse syndrome former and generator circuits derived
from a transfer polynomial, realized as streaming linear sequential circuits.

A :class:`TransferSystem` streams ``out = in @ matrix`` where matrix rows are
input streams and columns are output streams. Entries with a pole at D = 0
(non-causal) are handled by extracting the common advance D^a into
``input_advance``; the realized circuit then computes the coefficient
sequence of ``D^a * matrix @ in``, i.e. the ideal output delayed by a ticks.
The anticausal run direction expands the same rational entries from the top
of the frame downward, which is exact at the frame tail and leaves at most a
small defect at the frame head (repaired by the candidate construction).
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import Sequence

import numpy as np

from .algebra import (
    Field, Poly, RatMatrix, RationalFn, convolution_matrix, gf_convolve,
    gf_kernel, gf_rank, gf_solve, is_power_of_d, left_inverse, minors_gcd,
    null_space_basis, poly_lcm, poly_xgcd, rank, row_reduce_poly_matrix,
)


class DerivationError(ValueError):
    pass


class CatastrophicGeneratorError(DerivationError):
    """Null-space basis has a common non-D factor that row division cannot
    remove."""


@dataclass(frozen=True)
class _RowRealization:
    """Controller-form data for one input row: shared monic-at-0 denominator
    ``den`` and per-output numerators ``nums`` (coefficient lists)."""

    den: tuple[int, ...]
    nums: tuple[tuple[int, ...], ...]

    @property
    def memory(self) -> int:
        return max(len(self.den) - 1, max((len(p) - 1 for p in self.nums), default=0))


class TransferSystem:
    """A rational transfer matrix together with its streaming realization."""

    def __init__(self, matrix: RatMatrix, role: str = ""):
        self.matrix = matrix
        self.role = role
        self.field: Field = matrix.field
        self.input_advance = max(
            (e.pole_order_at_zero() for row in matrix.entries for e in row),
            default=0)
        self._rows = self._realize()

    def _realize(self) -> list[_RowRealization]:
        f = self.field
        d_a = Poly.monomial(self.input_advance, field=f) if self.input_advance \
            else Poly.one(f)
        rows = []
        for row in self.matrix.entries:
            scaled = [RationalFn(e.num * d_a, e.den) for e in row]
            den = Poly.one(f)
            for e in scaled:
                if not e.is_zero():
                    den = poly_lcm(den, e.den)
            if den.constant_term() == 0:
                raise DerivationError("entry remained non-causal after advance "
                                      "extraction")
            # normalize the recursion to den[0] = 1
            c0inv = f.inv(den.constant_term())
            nums = []
            for e in scaled:
                if e.is_zero():
                    nums.append((0,))
                    continue
                p = e.num * den.divmod(e.den)[0]
                nums.append(p.scale(c0inv).coeffs or (0,))
            rows.append(_RowRealization(den=den.scale(c0inv).coeffs,
                                        nums=tuple(nums)))
        return rows

    @property
    def inputs(self) -> int:
        return self.matrix.rows

    @property
    def outputs(self) -> int:
        return self.matrix.cols

    @property
    def state_dim(self) -> int:
        return sum(r.memory for r in self._rows)

    def run(self, x: np.ndarray, extra: int = 0) -> np.ndarray:
        """Stream a (T, inputs) frame; returns (T + extra, outputs) holding
        the coefficients of D^input_advance * (x @ matrix)."""
        x = np.asarray(x, dtype=np.uint8)
        if x.ndim != 2 or x.shape[1] != self.inputs:
            raise ValueError(f"expected (T, {self.inputs}) input")
        T = x.shape[0]
        L = T + extra
        mul = self.field.mul
        out = np.zeros((L, self.outputs), dtype=np.uint8)
        for i, row in enumerate(self._rows):
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

    def run_anticausal(self, x: np.ndarray, out_len: int) -> np.ndarray:
        """Expand out = x @ matrix anticausally (from the frame tail down).

        Each entry is split into its polynomial part (convolved causally) and
        a strictly proper remainder (expanded from the top); the result is
        exact wherever the true expansion fits below ``out_len``, so
        truncation shows up only as a defect near tick 0."""
        x = np.asarray(x, dtype=np.uint8)
        if x.ndim != 2 or x.shape[1] != self.inputs:
            raise ValueError(f"expected (T, {self.inputs}) input")
        mul = self.field.mul
        inv = self.field.inv
        xl = x.shape[0]
        out = np.zeros((out_len, self.outputs), dtype=np.uint8)
        for i in range(self.inputs):
            xi = x[:, i]
            for j in range(self.outputs):
                e = self.matrix.entries[i][j]
                if e.is_zero():
                    continue
                col = out[:, j]
                fir, rem = e.num.divmod(e.den)
                for d, cf in enumerate(fir.coeffs):
                    if not cf:
                        continue
                    hi = min(out_len, xl + d)
                    for s in range(d, hi):
                        v = int(xi[s - d])
                        if v:
                            col[s] ^= mul(cf, v)
                if rem.is_zero():
                    continue
                num, den = rem.coeffs, e.den.coeffs
                r = len(den) - 1
                lead_inv = inv(den[-1])
                y = [0] * (out_len + r + 1)
                for s in range(out_len - 1, -1, -1):
                    acc = 0
                    for d in range(r):
                        if den[d]:
                            acc ^= mul(den[d], y[s + r - d])
                    for d, cf in enumerate(num):
                        if cf:
                            idx = s + r - d
                            if 0 <= idx < xl:
                                acc ^= mul(cf, int(xi[idx]))
                    y[s] = mul(lead_inv, acc)
                for s in range(out_len):
                    if y[s]:
                        col[s] ^= y[s]
        return out

    def impulse_response(self, length: int, input_index: int = 0) -> np.ndarray:
        x = np.zeros((length, self.inputs), dtype=np.uint8)
        x[0, input_index] = 1
        return self.run(x)

    def state_space(self):
        """(A, B, C, E) with state' = state @ A + in @ B and
        out = state @ C + in @ E, block-diagonal by input row."""
        f = self.field
        s = self.state_dim
        A = np.zeros((s, s), dtype=np.uint8)
        B = np.zeros((self.inputs, s), dtype=np.uint8)
        C = np.zeros((s, self.outputs), dtype=np.uint8)
        E = np.zeros((self.inputs, self.outputs), dtype=np.uint8)
        off = 0
        for i, row in enumerate(self._rows):
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

    def run_state_space(self, x: np.ndarray, extra: int = 0) -> np.ndarray:
        """Reference streaming through the explicit state-space matrices."""
        f = self.field
        A, B, C, E = self.state_space()
        T = x.shape[0]
        L = T + extra
        out = np.zeros((L, self.outputs), dtype=np.uint8)
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
            xt = x[t] if t < T else np.zeros(self.inputs, dtype=np.uint8)
            out[t] = vecmat(state, C) ^ vecmat(xt, E)
            state = vecmat(state, A) ^ vecmat(xt, B)
        return out

    def __repr__(self) -> str:
        tag = f" {self.role}" if self.role else ""
        return (f"TransferSystem{tag} {self.inputs}->{self.outputs} "
                f"advance={self.input_advance} state={self.state_dim}")


def derive_syndrome_former(hb: RatMatrix) -> TransferSystem:
    """SF = H_b^T: n input streams to n-k syndrome streams."""
    if rank(hb) < hb.rows:
        raise DerivationError("transfer polynomial is not full row rank")
    return TransferSystem(hb.transpose(), role="SF")


def derive_inverse_syndrome_former(hb: RatMatrix) -> TransferSystem:
    """Any L with L @ H_b^T = I. Prefers a polynomial (FIR) inverse when the
    entries of a single syndrome stream admit a Bezout identity; otherwise
    Gaussian elimination over the rational-function field."""
    ht = hb.transpose()
    L = None
    if hb.rows == 1:
        L = _bezout_row(ht)
    if L is None:
        L = left_inverse(ht)
    if not (L @ ht).is_identity():
        raise DerivationError("inverse syndrome former failed verification")
    return TransferSystem(L, role="ISF")


def _bezout_row(ht: RatMatrix) -> RatMatrix | None:
    if not ht.is_polynomial():
        return None
    f = ht.field
    entries = [ht.entries[i][0].num for i in range(ht.rows)]
    g = entries[0]
    coefs = [Poly.one(f)] + [Poly.zero(f)] * (len(entries) - 1)
    for idx in range(1, len(entries)):
        g2, s, t = poly_xgcd(g, entries[idx])
        coefs = [c * s for c in coefs]
        coefs[idx] = t
        g = g2
    if not g.is_one():
        return None
    return RatMatrix.from_polys([coefs])


def derive_generator(hb: RatMatrix) -> TransferSystem:
    """k x n polynomial generator with G @ H_b^T = 0, non-catastrophic.

    Elimination-canonical null-space basis first (deterministic golden
    outputs); if its minors share a non-D factor, fall back to the minimal
    polynomial kernel basis, which is basic by construction."""
    G = null_space_basis(hb.transpose())
    gcd = minors_gcd(G)
    if not is_power_of_d(gcd):
        rows = polynomial_kernel_basis(hb, hb.cols - hb.rows)
        G = RatMatrix.from_polys(rows)
        gcd = minors_gcd(G)
        if not is_power_of_d(gcd):
            raise CatastrophicGeneratorError(
                f"generator minors share the non-D factor {gcd}")
        if not (G @ hb.transpose()).is_zero():
            raise DerivationError("kernel basis failed the null identity")
    return TransferSystem(G, role="GEN")


@dataclass(frozen=True)
class CodeBundle:
    """Derived decoding machinery for one transfer polynomial."""

    hb: RatMatrix
    sf: TransferSystem
    isf: TransferSystem
    gen: TransferSystem
    n: int = dc_field(init=False)
    r: int = dc_field(init=False)  # syndrome streams = n - k

    def __post_init__(self):
        object.__setattr__(self, "n", self.hb.cols)
        object.__setattr__(self, "r", self.hb.rows)
        if not (self.isf.matrix @ self.hb.transpose()).is_identity():
            raise DerivationError("ISF identity violated")
        if not (self.gen.matrix @ self.hb.transpose()).is_zero():
            raise DerivationError("generator kernel identity violated")

    @property
    def k(self) -> int:
        return self.n - self.r

    @property
    def field(self) -> Field:
        return self.hb.field


def derive_bundle(hb: RatMatrix) -> CodeBundle:
    return CodeBundle(
        hb=hb,
        sf=derive_syndrome_former(hb),
        isf=derive_inverse_syndrome_former(hb),
        gen=derive_generator(hb),
    )


def with_isf(bundle: CodeBundle, isf_matrix: RatMatrix) -> CodeBundle:
    """Bundle variant running a caller-supplied (verified) ISF."""
    return CodeBundle(hb=bundle.hb, sf=bundle.sf,
                      isf=TransferSystem(isf_matrix, role="ISF"),
                      gen=bundle.gen)


def shifted_isf_matrix(bundle: CodeBundle, mix: Sequence[Poly]) -> RatMatrix:
    """A structurally different valid ISF: L' = L + mix^T @ G (any polynomial
    mix of generator rows added to each ISF row keeps L' @ H^T = I)."""
    L = bundle.isf.matrix
    G = bundle.gen.matrix
    rows = []
    for i in range(L.rows):
        row = list(L.entries[i])
        for gr in range(G.rows):
            scale = RationalFn(mix[(i + gr) % len(mix)])
            row = [a + scale * b for a, b in zip(row, G.entries[gr])]
        rows.append(row)
    return RatMatrix(rows, L.field)


# ---------------------------------------------------------------------------
# block-domain view: physical syndrome map and the full coset code
# ---------------------------------------------------------------------------

def block_parity_matrix(hb: RatMatrix) -> RatMatrix:
    """The block-domain syndrome map S(D) = [Q(D) | P(D)] ((n-k) x 2n) of
    H_b(D) = P(D^2) + D Q(D^2): for a frame with per-block layout (a | b),
    sigma = (a|b) @ S^T."""
    coeffs = hb.coeff_tensor()
    n = hb.cols
    taps = np.zeros(((coeffs.shape[0] + 1) // 2, hb.rows, 2 * n),
                    dtype=np.uint8)
    odd = coeffs[1::2]
    taps[:len(odd), :, :n] = odd
    taps[:, :, n:] = coeffs[0::2]
    return RatMatrix.from_coeff_tensor(taps, hb.field)


def block_syndrome(S: RatMatrix, frame_blocks: np.ndarray,
                   window: int | None = None) -> np.ndarray:
    """Syndrome of a block-domain frame under the parity matrix S
    (sigma = frame @ S^T per block, convolved), shape (window, S.rows).

    With S = block_parity_matrix(hb) this equals the odd-phase outputs of
    streaming the interleaved frame through H_b^T. ``window`` defaults to the
    frame length; pass frame + m to cover the full convolution support."""
    return gf_convolve(S.coeff_tensor(), frame_blocks, S.field, window)


def polynomial_kernel_basis(S: RatMatrix, kernel_rank: int) -> list[list[Poly]]:
    """Minimal (row-reduced, basic) basis of {polynomial rows v: v @ S^T = 0}.

    Degree sweep: for d = 0, 1, ... solve the exact unrolled GF kernel of
    rows supported on d+1 blocks and keep vectors whose leading coefficient
    vector is independent of those already chosen. The chosen rows and their
    shifts then span every polynomial kernel element up to the swept degree,
    which makes zero-terminated trellis paths cover the whole window kernel.
    """
    field = S.field
    lanes = S.cols
    taps = S.coeff_tensor()
    m = taps.shape[0] - 1
    chosen: list[list[Poly]] = []
    lead_rows: list[np.ndarray] = []

    max_degree = lanes * (m + 1) + 4
    for d in range(max_degree + 1):
        if len(chosen) == kernel_rank:
            break
        # kernel of the syndrome map on rows supported on blocks [0, d]
        for vec in gf_kernel(convolution_matrix(taps, d + 1, d + m + 1), field):
            blocks = vec.reshape(d + 1, lanes)
            if not blocks[d].any():
                continue  # true degree below d, handled in an earlier sweep
            leads = np.array(lead_rows + [blocks[d]])
            if gf_rank(leads, field) == len(lead_rows):
                continue  # leading vector depends on those already chosen
            chosen.append([Poly(blocks[:, c].tolist(), field)
                           for c in range(lanes)])
            lead_rows.append(blocks[d])
            if len(chosen) == kernel_rank:
                break
    if len(chosen) != kernel_rank:
        raise DerivationError(
            f"kernel basis search found {len(chosen)} of {kernel_rank} rows")
    return row_reduce_poly_matrix(chosen)


def coset_code_rows(hb: RatMatrix) -> list[list[Poly]]:
    """Row-reduced polynomial basis of the block-domain code
    {frames with identically zero physical syndrome}.

    This spans the classical codeword space *and* the degeneracy directions
    (for a stabilizer-derived H_b, the block-reversed stabilizer rows), so a
    trellis over it searches every error pattern with the given measured
    syndrome."""
    S = block_parity_matrix(hb)
    rows = polynomial_kernel_basis(S, S.cols - S.rows)
    gcd = minors_gcd(RatMatrix.from_polys(rows))
    if not gcd.is_one():
        raise CatastrophicGeneratorError(
            f"coset code basis is not basic (minors gcd {gcd}); trellis "
            "decoding would not span the coset")
    return rows


def pack_syndrome_ticks(sigma: np.ndarray, total_ticks: int) -> np.ndarray:
    """Zero-stuff a (blocks, r) syndrome onto the tick axis: block j lands on
    tick 2j + 1 (the odd phase carries the physical syndrome)."""
    blocks, r = sigma.shape
    out = np.zeros((total_ticks, r), dtype=np.uint8)
    for j in range(min(blocks, (total_ticks - 1) // 2 + 1)):
        t = 2 * j + 1
        if t < total_ticks:
            out[t] = sigma[j]
    return out


class CandidateBuilder:
    """Produces a member of {frames whose measured syndrome matches sigma}
    by streaming the ISF anticausally (it starts quiescent in the padded
    tail) and repairing the residual head defect from a precomputed table.

    ``interleaved`` selects the quantum-binary convention: the syndrome is
    zero-stuffed onto the odd tick phase, the ISF runs at tick rate and the
    output folds back into (blocks, 2n) qubit-pair layout. Without it, the
    ISF runs at symbol/block rate on the syndrome stream directly (the GF(4)
    path and plain classical codes)."""

    def __init__(self, bundle: CodeBundle, interleaved: bool = True):
        self.bundle = bundle
        self.interleaved = interleaved
        S = block_parity_matrix(bundle.hb) if interleaved else bundle.hb
        self.taps = S.coeff_tensor()
        self.lanes = S.cols
        self.m = self.taps.shape[0] - 1
        maxden = max((e.den.degree for row in bundle.isf.matrix.entries
                      for e in row), default=0)
        per_block = (maxden + 1) // 2 if interleaved else maxden
        self.defect_blocks = max(self.m + 1, per_block + 1)
        self._repair: dict[tuple, np.ndarray] = {}
        self._repair_window = max(4 * (self.defect_blocks + self.m + 1), 16)
        self._repair_systems: dict[int, np.ndarray] = {}

    def _solve_defect(self, defect: np.ndarray, blocks: int) -> np.ndarray:
        """Frame whose full-support syndrome equals the defect pattern on the
        first defect_blocks blocks and zero after. Tries a small window first
        and escalates to the frame span."""
        rsyn = self.taps.shape[1]
        windows = [min(self._repair_window, blocks)]
        if blocks not in windows:
            windows.append(blocks)
        for wN in windows:
            target = np.zeros(((wN + self.m) * rsyn,), dtype=np.uint8)
            target[: defect.size] = defect.reshape(-1)
            system = self._repair_systems.get(wN)
            if system is None:
                system = convolution_matrix(self.taps, wN, wN + self.m)
                self._repair_systems[wN] = system
            x = gf_solve(system, target, self.bundle.field)
            if x is not None:
                return x.reshape(wN, self.lanes)
        raise DerivationError(
            "syndrome has no matching error pattern on this span "
            "(unrealizable head defect)")

    def repair_frame(self, defect: np.ndarray, blocks: int) -> np.ndarray:
        key = tuple(defect.reshape(-1).tolist())
        frame = self._repair.get(key)
        if frame is None or frame.shape[0] > blocks:
            frame = self._solve_defect(defect, blocks)
            self._repair[key] = frame
        out = np.zeros((blocks, self.lanes), dtype=np.uint8)
        take = min(blocks, frame.shape[0])
        out[:take] = frame[:take]
        if take < frame.shape[0] and frame[take:].any():
            raise DerivationError("repair frame does not fit the span")
        return out

    def build(self, sigma: np.ndarray, blocks: int) -> np.ndarray:
        """Candidate frame W, block layout (blocks, lanes), with
        its syndrome over blocks + m blocks == sigma zero-extended."""
        r = self.bundle.r
        if sigma.shape[1] != r:
            raise ValueError("syndrome stream count mismatch")
        if self.interleaved:
            ticks = 2 * blocks
            shat = pack_syndrome_ticks(sigma, ticks + 2 * self.m + 1)
            v = self.bundle.isf.run_anticausal(shat, ticks)
            n = self.bundle.n
            W = np.zeros((blocks, 2 * n), dtype=np.uint8)
            W[:, :n] = v[0::2]
            W[:, n:] = v[1::2]
        else:
            x = np.zeros((blocks + self.m + 1, r), dtype=np.uint8)
            take = min(sigma.shape[0], x.shape[0])
            x[:take] = sigma[:take]
            W = self.bundle.isf.run_anticausal(x, blocks)
        window = blocks + self.m
        target = np.zeros((window, r), dtype=np.uint8)
        take = min(sigma.shape[0], window)
        target[:take] = sigma[:take]
        field = self.bundle.field
        resid = gf_convolve(self.taps, W, field, window) ^ target
        db = self.defect_blocks
        if resid[db:].any():
            raise DerivationError(
                "ISF candidate defect outside the head window: the ISF "
                "entries need more padding lookahead than the frame carries")
        if resid[:db].any():
            W = W ^ self.repair_frame(resid[:db].copy(), blocks)
            resid2 = gf_convolve(self.taps, W, field, window) ^ target
            if resid2.any():
                raise DerivationError("candidate repair failed")
        return W
