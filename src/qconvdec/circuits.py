"""Syndrome former, inverse syndrome former and generator circuits derived
from a transfer polynomial, with one closed-form evaluator for them all.

A :class:`TransferSystem` computes ``out = in @ matrix``, where matrix rows
are input streams and columns output streams. Entries with a pole at D = 0
(non-causal) set its ``input_advance`` a: the causal ``run`` returns the
coefficient sequence of ``D^a * (in @ matrix)``, i.e. the ideal output
delayed by a ticks, and ``run_anticausal_words`` expands the map from the
frame tail down.

The decoder works in the block domain: ``block_parity_matrix`` and
``block_isf_matrix`` fold the tick-rate H_b^T and ISF of the binary path into
maps on (blocks, 2n) frames and (blocks, n-k) syndromes (the GF(4) path is
block rate already). :class:`CandidateBuilder` turns a syndrome into a frame
with that syndrome by one linear map: the block ISF expanded anticausally,
plus a precomputed repair of the small defect that truncation leaves at the
frame head.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .algebra import (
    _DEGREE_CAP, GF2, ConvolutionKernel, DegreeCapError, Field, Poly,
    RatMatrix, RationalFn, convolution_matrix, gf_convolve, gf_kernel, gf_rank,
    gf_rref, minors_gcd, pack_slices, pack_symbols, poly_det, poly_lcm,
    poly_xgcd, symbol_bits, unpack_symbols, word_slices,
)


class DerivationError(ValueError):
    pass


class CatastrophicGeneratorError(DerivationError):
    """A polynomial kernel basis whose minors share a nontrivial factor."""


class TransferSystem:
    """A rational transfer matrix M, rows input streams and columns output
    streams, with its closed-form evaluation.

    M is written once as D^-a N(D) / (1 + D^P): a (``input_advance``) is the
    largest pole order of an entry at D = 0, P (``period``) the least period
    of its other poles, so that their lcm divides 1 + D^P, and N (``taps``)
    the polynomial D^a (1 + D^P) M. :meth:`run` expands 1 / (1 + D^P) in
    powers of D, :meth:`run_anticausal_words` in powers of 1/D; each is one
    pass of N's :class:`ConvolutionKernel` on packed blocks and an XOR at
    stride P. a, P, N and the kernel are worked out on first use."""

    def __init__(self, matrix: RatMatrix, role: str = ""):
        self.matrix = matrix
        self.role = role
        self.field: Field = matrix.field

    @property
    def inputs(self) -> int:
        return self.matrix.rows

    @property
    def outputs(self) -> int:
        return self.matrix.cols

    @cached_property
    def input_advance(self) -> int:
        return max((e.pole_order_at_zero()
                    for row in self.matrix.entries for e in row), default=0)

    @cached_property
    def period(self) -> int:
        f, a = self.field, self.input_advance
        poles = Poly.one(f)
        for row in self.matrix.entries:
            for e in row:
                poles = poly_lcm(poles,
                                 Poly(e.den.coeffs[e.den.valuation():], f))
        # the period can reach 2^deg - 1; the search stops as soon as the
        # scale D^a (1 + D^P) of N would pass the degree cap
        d, one = Poly.D(f), Poly.one(f) % poles
        period, power = 1, d % poles
        while a + period <= _DEGREE_CAP and power != one:
            period, power = period + 1, (power * d) % poles
        if a + period > _DEGREE_CAP:
            raise DegreeCapError(
                f"pole period of {poles} exceeds {_DEGREE_CAP - a}: "
                f"N = D^{a} (1 + D^P) M would pass the degree cap "
                f"{_DEGREE_CAP}")
        return period

    @cached_property
    def taps(self) -> np.ndarray:
        """(deg N + 1, outputs, inputs) coefficients of N, the layout
        ``gf_convolve`` takes."""
        # every reduced denominator divides D^a (1 + D^P): its D power
        # divides D^a, and the rest divides the pole lcm and so 1 + D^P
        f, a = self.field, self.input_advance
        scale = (Poly.monomial(a, field=f)
                 + Poly.monomial(a + self.period, field=f))
        N = RatMatrix.from_polys([[e.num * scale.divmod(e.den)[0] for e in row]
                                  for row in self.matrix.entries])
        return N.coeff_tensor().transpose(0, 2, 1)

    @cached_property
    def kernel(self) -> ConvolutionKernel:
        return ConvolutionKernel(self.taps, self.field)

    def run(self, x: np.ndarray, extra: int = 0) -> np.ndarray:
        """Stream a (T, inputs) frame; returns (T + extra, outputs) holding
        the coefficients of D^input_advance * (x @ matrix)."""
        # D^a x M = x N sum_{i>=0} D^iP: a prefix XOR at stride P
        x = np.asarray(x, dtype=np.uint8)
        if x.ndim != 2 or x.shape[1] != self.inputs:
            raise ValueError(f"expected (T, {self.inputs}) input")
        bps = symbol_bits(self.field)
        length, P = len(x) + extra, self.period
        rows = -(-length // P)
        v = np.zeros(rows * P, dtype=np.int64)
        v[:length] = self.kernel(pack_slices(x, bps), length)
        v = np.bitwise_xor.accumulate(v.reshape(rows, P), axis=0)
        return unpack_symbols(v.reshape(-1)[:length], self.outputs, bps)

    def run_anticausal_words(self, x: np.ndarray, length: int) -> np.ndarray:
        """The first ``length`` coefficients of x @ matrix with every entry
        expanded in powers of 1/D, i.e. from the frame tail down, on packed
        blocks: (T, slices) input slices in, ``length`` output words out. The
        expansion is exact; only its terms below D^0 are cut."""
        # out[t] = sum_d N_d u[t + a - d] with u[s] = sum_{i>=1} x[s + iP]
        # (1 / (1 + D^P) = sum_{i>=1} D^-iP) on s >= a - deg N; suffix XORs
        # at stride P, indexed from a - deg N
        deg = self.taps.shape[0] - 1
        P = self.period
        first = self.input_advance - deg + P
        pad = max(-first, 0)
        x = x[max(first, 0):]
        rows = -(-max(length + deg, pad + len(x)) // P)
        width = x.shape[1]
        u = np.zeros((rows * P, width), dtype=np.uint8)
        u[pad:pad + len(x)] = x
        u = np.bitwise_xor.accumulate(u.reshape(rows, P, width)[::-1],
                                      axis=0)[::-1].reshape(rows * P, width)
        return self.kernel(u[:length + deg], length + deg)[deg:]


def full_row_rank(S: RatMatrix) -> bool:
    """Whether the rows of the polynomial matrix S are independent over the
    rational functions, by one GF(q) rank.

    If they are not, of rank rho < r = S.rows, some rho + 1 rows with rank
    rho have a left kernel vector of their rho x rho minors (Cramer), of
    degree <= rho m <= (r - 1) m, m = deg S. So S has full row rank iff the
    map u -> u S is injective on the rows u of degree <= (r - 1) m."""
    taps = S.coeff_tensor()
    m = taps.shape[0] - 1
    blocks = (S.rows - 1) * m + 1
    lift = convolution_matrix(taps.transpose(0, 2, 1), blocks, blocks + m)
    return gf_rank(lift, S.field) == blocks * S.rows


def _require_k(hb: RatMatrix) -> None:
    if hb.rows == hb.cols:
        raise DerivationError("k = 0: no logical qubit to decode")


def _require_full_row_rank(hb: RatMatrix) -> None:
    if not full_row_rank(hb):
        raise DerivationError("transfer polynomial is not full row rank")


def derive_syndrome_former(hb: RatMatrix) -> TransferSystem:
    """SF = H_b^T: n input streams to n-k syndrome streams."""
    _require_full_row_rank(hb)
    return TransferSystem(hb.transpose(), role="SF")


def derive_inverse_syndrome_former(hb: RatMatrix) -> TransferSystem:
    """Any L with L @ H_b^T = I. A single syndrome stream whose entries
    admit a Bezout identity gets that polynomial (FIR) inverse.

    Otherwise L is the inverse that Gaussian elimination on H_b^T finds,
    worked out as an adjugate of polynomials: L = adj(M) / det(M) on the r
    rows of H_b^T that elimination pivots on, M being the r x r block at
    those rows, and zero on the other rows. The pivot rule is elimination's:
    per column c, the first remaining row, in swap order, whose
    (c + 1) x (c + 1) leading minor with the rows already chosen is nonzero
    is swapped into place. Elimination's multiplier rows stay on the chosen
    rows, so it finds this L."""
    ht = hb.transpose().poly_entries()
    L = _bezout_row(ht) if hb.rows == 1 else None
    return TransferSystem(_adjugate_inverse(ht, hb.field) if L is None else L,
                          role="ISF")


def _bezout_row(ht: list[list[Poly]]) -> RatMatrix | None:
    f = ht[0][0].field
    entries = [row[0] for row in ht]
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


def _adjugate_inverse(ht: list[list[Poly]], field: Field) -> RatMatrix:
    """adj(M) / det(M) on the pivot rows of the n x r polynomial matrix
    H^T = ``ht``, as :func:`derive_inverse_syndrome_former` sets out."""
    n, r = len(ht), len(ht[0])
    order = list(range(n))
    for c in range(r):
        for i in range(c, n):
            det = poly_det([ht[j][:c + 1] for j in order[:c] + [order[i]]])
            if det:
                break
        else:
            raise DerivationError("transfer polynomial is not full row rank")
        order[c], order[i] = order[i], order[c]
    M = [ht[j] for j in order[:r]]
    # char 2: the cofactors have no signs; (M^-1)[i][j] is the minor of M
    # without row j and column i, over det M
    L = [[RationalFn.zero(field)] * n for _ in range(r)]
    for i in range(r):
        for j in range(r):
            minor = [row[:i] + row[i + 1:] for row in M[:j] + M[j + 1:]]
            L[i][order[j]] = RationalFn(
                poly_det(minor) if minor else Poly.one(field), det)
    return RatMatrix(L, field)


def derive_generator(hb: RatMatrix) -> TransferSystem:
    """k x n polynomial generator with G @ H_b^T = 0: the minimal kernel
    basis of H_b, which is basic and so non-catastrophic. H_b must have full
    row rank: a rank-deficient H_b, whose kernel has more than k rows,
    raises DerivationError."""
    _require_k(hb)
    _require_full_row_rank(hb)
    return TransferSystem(RatMatrix.from_polys(_basic_kernel_rows(
        hb, polynomial_kernel_basis(hb, hb.cols - hb.rows))), role="GEN")


@dataclass(frozen=True)
class CodeBundle:
    """The transfer polynomial H_b and the ISF a decoder runs on it, as a
    record: the decoder's :class:`CandidateBuilder` certifies the ISF on the
    block map it runs. A decoder never runs the syndrome former or the
    generator: ``derive_syndrome_former`` and ``derive_generator`` derive
    them apart."""

    hb: RatMatrix
    isf: TransferSystem

    @property
    def n(self) -> int:
        return self.hb.cols

    @property
    def r(self) -> int:
        return self.hb.rows  # syndrome streams, n - k

    @property
    def k(self) -> int:
        return self.n - self.r

    @property
    def field(self) -> Field:
        return self.hb.field


def derive_bundle(hb: RatMatrix, isf: RatMatrix | None = None) -> CodeBundle:
    """H_b, refused at k = 0 or without full row rank, and the caller's ISF
    ``isf`` or, if None, a derived one. Neither is checked here."""
    _require_k(hb)
    _require_full_row_rank(hb)
    return CodeBundle(hb=hb, isf=derive_inverse_syndrome_former(hb)
                      if isf is None else TransferSystem(isf, role="ISF"))


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


def block_isf_matrix(isf: RatMatrix) -> RatMatrix:
    """The block-domain ISF [D L1(D) | L0(D)] ((n-k) x 2n) of a binary-path
    ISF L(D) = L0(D^2) + D L1(D^2): the syndrome rides the odd tick phase, so
    sigma @ block_isf_matrix(L) is the (a | b) block frame of streaming the
    zero-stuffed syndrome through L.

    Over GF(2) den(D)^2 = den(D^2), so num/den = num*den / den(D^2) splits
    into the even and odd coefficients of num*den over den."""
    if isf.field is not GF2:
        raise ValueError("the tick-phase split needs a GF(2) ISF")
    rows = []
    for row in isf.entries:
        coeffs = [(e.num * e.den).coeffs for e in row]
        rows.append([RationalFn(Poly((0,) + c[1::2]), e.den)
                     for c, e in zip(coeffs, row)]
                    + [RationalFn(Poly(c[0::2]), e.den)
                       for c, e in zip(coeffs, row)])
    return RatMatrix(rows, GF2)


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

    The rows come out in nondecreasing degree with a full-rank leading
    coefficient matrix, so they are row-reduced as chosen (Forney, "Minimal
    bases of rational vector spaces", 1975) and are returned as they are.
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
    return chosen


def coset_code_rows(hb: RatMatrix) -> list[list[Poly]]:
    """Row-reduced polynomial basis of the block-domain code
    {frames with identically zero physical syndrome}.

    This spans the classical codeword space *and* the degeneracy directions
    (for a stabilizer-derived H_b, the block-reversed stabilizer rows), so a
    trellis over it searches every error pattern with the given measured
    syndrome. H_b must have full row rank, and then so has S: u(D) S = 0
    gives u(D^2) H_b = 0."""
    _require_full_row_rank(hb)
    S = block_parity_matrix(hb)
    return _basic_kernel_rows(S, polynomial_kernel_basis(S, S.cols - S.rows))


def _basic_kernel_rows(S: RatMatrix,
                       rows: list[list[Poly]]) -> list[list[Poly]]:
    """The rows, :func:`polynomial_kernel_basis` of an S of full row rank,
    certified basic: a kernel basis whose minors share a factor would make
    the generator catastrophic and the coset trellis miss part of the coset.

    The rows, of degrees d_i, come out row-reduced, so they are basic iff
    they are minimal (Forney 1975). Minimal rows and their shifts span the
    kernel vectors of degree <= span = max d_i, a GF(q) space of dimension
    sum(span - d_i + 1). The minimal degrees, sorted, are at most the d_i,
    so a basis that is not minimal, with a larger degree sum, leaves that
    space larger than its count; only then is the minors gcd worked out,
    to name the shared factor."""
    taps = S.coeff_tensor()
    m = taps.shape[0] - 1
    degrees = [max(p.degree for p in row) for row in rows]
    span = max(degrees)
    kernel_dim = S.cols * (span + 1) - gf_rank(
        convolution_matrix(taps, span + 1, span + m + 1), S.field)
    if kernel_dim != sum(span - d + 1 for d in degrees):
        raise CatastrophicGeneratorError(
            "kernel basis is not basic "
            f"(minors gcd {minors_gcd(RatMatrix.from_polys(rows))})")
    return rows


def is_left_inverse(isf: TransferSystem, parity: RatMatrix) -> bool:
    """Whether isf @ parity^T = I, checked over GF(q) on the closed form
    N = D^a (1 + D^P) isf: a nonzero scalar factor is injective, so this
    holds iff N @ parity^T = (D^a + D^(a+P)) I, one convolution of parity
    per row of N."""
    N, a, P = isf.taps, isf.input_advance, isf.period
    S = parity.coeff_tensor()
    window = max(len(N) + len(S) - 2, a + P) + 1
    want = np.zeros((parity.rows, window, parity.rows), dtype=np.uint8)
    want[:, [a, a + P]] = np.eye(parity.rows, dtype=np.uint8)[:, None]
    return np.array_equal([gf_convolve(S, N[:, :, i], parity.field, window)
                           for i in range(parity.rows)], want)


class CandidateBuilder:
    """Produces a member of {frames whose measured syndrome matches sigma}
    with one block-domain linear map: the ISF expanded anticausally (from
    the quiescent padded tail down) and a precomputed repair of the head
    defect that the truncation at block 0 leaves.

    ``parity`` is the block-domain syndrome map S and ``isf`` a block-domain
    left inverse of it (isf @ S^T = I, a decoder's one check of its ISF):
    ``block_parity_matrix`` and ``block_isf_matrix`` on the binary path, H_q
    and its ISF on the GF(4) path. The expansion is
    :meth:`TransferSystem.run_anticausal_words` of the ISF.

    :meth:`build_words` works on packed blocks, one int64 word per block
    with symbol c at bits [bps c, bps (c + 1)) (the label layout of
    ``trellis.pack_sections``): sigma in, the candidate out, and the
    residual check and the repair as :class:`ConvolutionKernel` gathers.
    :meth:`build` is the same map on symbol arrays.
    """

    def __init__(self, parity: RatMatrix, isf: RatMatrix):
        if (isf.rows, isf.cols) != (parity.rows, parity.cols):
            raise ValueError(f"{isf.rows}x{isf.cols} ISF does not fit the "
                             f"{parity.rows}x{parity.cols} parity map")
        f = self.field = parity.field
        self.bps = symbol_bits(f)
        taps = parity.coeff_tensor()
        self.m = taps.shape[0] - 1
        self.r, self.lanes = parity.rows, parity.cols
        self.syndrome = ConvolutionKernel(taps, f)
        self.isf = TransferSystem(isf, role="ISF")
        if not is_left_inverse(self.isf, parity):
            raise DerivationError("ISF is not a left inverse of the parity map")
        # the expansion D^-a N(D) sum_{i>=1} D^-iP reaches deg N - a - P
        # blocks past the last nonzero syndrome block
        self.reach = (len(self.isf.taps) - 1 - self.isf.input_advance
                      - self.isf.period)
        # S is causal of degree m, so the truncated expansion misses sigma
        # only on blocks < m; a frame on m + 1 blocks repairs it. One RREF
        # gives the particular solution (free variables zero) of every
        # defect, and its leftover rows flag the unrealizable ones.
        self.defect_blocks = db = self.m + 1
        system = convolution_matrix(taps, db, 2 * db - 1)
        cols = system.shape[1]
        red, pivots = gf_rref(
            np.concatenate([system, np.eye(system.shape[0], db * self.r,
                                           dtype=np.uint8)], axis=1), f, cols)
        # the repair of the flattened defect, one block of db r symbols, as
        # a convolution whose output block j is repair block j for j < db
        # and a block of flags after them
        out_blocks = db + -(-(len(red) - len(pivots)) // self.lanes)
        repair = np.zeros((out_blocks * self.lanes, db * self.r),
                          dtype=np.uint8)
        repair[pivots] = red[:len(pivots), cols:]
        repair[cols:len(red) + cols - len(pivots)] = red[len(pivots):, cols:]
        self._repair = ConvolutionKernel(
            repair.reshape(out_blocks, self.lanes, -1), f)

    def repair_frame(self, defect: np.ndarray, blocks: int) -> np.ndarray:
        """The first min(defect_blocks, blocks) packed blocks of a frame on
        ``blocks`` blocks whose syndrome is the head defect (packed, its
        first defect_blocks blocks) followed by zeros; the frame is zero
        beyond them."""
        flat = 0
        for j, word in enumerate(defect.tolist()):
            flat |= word << (j * self.r * self.bps)
        x = np.frombuffer(flat.to_bytes(self._repair.slices, "little"),
                          dtype=np.uint8)[None]
        sol = self._repair(x, self._repair.taps.shape[0])
        db = self.defect_blocks
        if sol[db:].any():
            raise DerivationError(
                "syndrome has no matching error pattern on this span "
                "(unrealizable head defect)")
        if sol[blocks:db].any():
            raise DerivationError("repair frame does not fit the span")
        return sol[:min(db, blocks)]

    def _residual(self, W: np.ndarray, s: np.ndarray,
                  window: int) -> np.ndarray:
        """Syndrome of the packed frame W on its first ``window`` blocks,
        XOR the packed syndrome s there."""
        out = self.syndrome(word_slices(W[:window], self.syndrome.slices),
                            window)
        s = s[:window]
        out[:len(s)] ^= s
        return out

    def build_words(self, s: np.ndarray, blocks: int) -> np.ndarray:
        """Candidate frame W as ``blocks`` packed blocks, with its syndrome
        over blocks + m blocks == the packed syndrome s (at most ``blocks``
        words) zero-extended."""
        W = self.isf.run_anticausal_words(
            word_slices(s, self.isf.kernel.slices), blocks)
        resid = self._residual(W, s, blocks + self.m)
        db = self.defect_blocks
        if resid[db:].any():
            raise DerivationError(
                "ISF candidate defect outside the head window: the ISF "
                "entries need more padding lookahead than the frame carries")
        if resid.any():
            head = self.repair_frame(resid[:db], blocks)
            W[:len(head)] ^= head
            # the repair is supported on the first db blocks, so the
            # residual can only have changed on blocks [0, db + m)
            if self._residual(W, s, len(head) + self.m).any():
                raise DerivationError("candidate repair failed")
        return W

    def build(self, sigma: np.ndarray, blocks: int) -> np.ndarray:
        """Candidate frame W, block layout (blocks, lanes), with its syndrome
        over blocks + m blocks == sigma zero-extended. Rows of sigma from
        ``blocks`` on must be zero."""
        sigma = np.asarray(sigma, dtype=np.uint8)
        if sigma.ndim != 2 or sigma.shape[1] != self.r:
            raise ValueError("syndrome stream count mismatch")
        if sigma[blocks:].any():
            raise ValueError(f"syndrome is nonzero beyond the {blocks}-block "
                             "frame")
        W = self.build_words(pack_symbols(sigma[:blocks], self.bps), blocks)
        return unpack_symbols(W, self.lanes, self.bps)
