"""Syndrome former, inverse syndrome former and generator circuits derived
from a transfer polynomial, with one closed-form evaluator for them all.

Polynomial matrices are (deg + 1, rows, cols) tensors over GF(q) (see
``algebra``), and a rational matrix is one such numerator over a common
denominator polynomial. A :class:`TransferSystem` computes ``out = in @
matrix``, where matrix rows are input streams and columns output streams.
Entries with a pole at D = 0 (non-causal) set its ``input_advance`` a: the
causal ``run`` returns the coefficient sequence of ``D^a * (in @ matrix)``,
i.e. the ideal output delayed by a ticks, and ``run_anticausal_words``
expands the map from the frame tail down.

The decoder works in the block domain: ``block_parity_matrix`` and
``block_isf_matrix`` fold the tick-rate H_b^T and ISF of the binary path into
maps on (blocks, 2n) frames and (blocks, n-k) syndromes (the GF(4) path is
block rate already). :class:`CandidateBuilder` turns a syndrome into a frame
with that syndrome by one linear map: the block ISF expanded anticausally,
plus a precomputed repair of the small defect that truncation leaves at the
frame head.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .algebra import (
    GF2, ConvolutionKernel, Field, Poly, RatMatrix, convolution_matrix,
    gf_convolve, gf_eliminate, gf_kernel, gf_poly_divmod, gf_poly_gcd,
    gf_poly_mul, gf_poly_xgcd, gf_rank, gf_rref, gf_stack, gf_trim,
    pack_slices, pack_symbols, row_degrees, symbol_bits,
    unpack_symbols, word_slices,
)


class DerivationError(ValueError):
    pass


class CatastrophicGeneratorError(DerivationError):
    """A polynomial kernel basis whose minors share a nontrivial factor."""


class PolePeriodError(DerivationError):
    """A closed form whose scale D^a (1 + D^P) passes the tap budget."""


# a + P at most this: the closed form N = D^a (1 + D^P) M has about a + P
# taps, each one kernel table and one gather per block a decode runs
_TAP_BUDGET = 1 << 10
# the kernel sweep's largest unrolled matrix, as the work of its GF(q)
# elimination (rows x cols x min(rows, cols)), at most this: about 0.2 s
# for that one elimination on a 2-core x86_64 host
_KERNEL_SWEEP_WORK = 1 << 27


class TransferSystem:
    """A rational transfer matrix M = num / den, rows input streams and
    columns output streams, with its closed-form evaluation.

    ``num`` is a (deg + 1, inputs, outputs) polynomial tensor over
    ``field`` and ``den`` (1-D, default 1) a nonzero common denominator. M
    is written once as D^-a N(D) / (1 + D^P): with num and den reduced by
    their common gcd, den = D^a e(D) with e(0) != 0, a is the
    ``input_advance``, P (``period``) the order of D modulo e, so that e
    divides 1 + D^P, and N (``taps``) = num (1 + D^P) / e, one exact
    division. Per entry, a is the largest pole order at D = 0 and e the lcm
    of the other poles. :meth:`run` expands 1 / (1 + D^P) in powers of D,
    :meth:`run_anticausal_words` in powers of 1/D; each is one pass of N's
    :class:`ConvolutionKernel` on packed blocks and an XOR at stride P. a,
    P, N and the kernel are worked out on first use."""

    def __init__(self, num: np.ndarray, field: Field,
                 den: np.ndarray | None = None, role: str = ""):
        self.num = num
        self.den = np.ones(1, dtype=np.uint8) if den is None else gf_trim(den)
        self.field = field
        self.role = role

    @classmethod
    def from_matrix(cls, matrix: RatMatrix,
                    role: str = "") -> "TransferSystem":
        """The system of a :class:`RatMatrix`, over the lcm of its
        denominators: where a caller's rational matrix enters a build."""
        num, den = matrix.fraction()
        return cls(num, matrix.field, den, role)

    @property
    def matrix(self) -> RatMatrix:
        """M with each entry reduced, as printed."""
        return RatMatrix.from_coeff_tensor(self.num, self.field, self.den)

    @property
    def inputs(self) -> int:
        return self.num.shape[1]

    @property
    def outputs(self) -> int:
        return self.num.shape[2]

    @cached_property
    def _reduced(self) -> tuple[np.ndarray, int, np.ndarray]:
        """(num, a, e): M = num / (D^a e) with no factor common to den and
        every entry of num, so that D^a e is the lcm of the reduced entry
        denominators."""
        num, den, f = self.num, self.den, self.field
        nz = num.reshape(len(num), -1).any(axis=1).nonzero()[0]
        if not nz.size:
            return num[:1], 0, np.ones(1, dtype=np.uint8)
        # the common power of D first, then the gcd of the rest of den
        v = int(np.flatnonzero(den)[0])
        low = min(v, int(nz[0]))
        num, den = num[low:], den[low:]
        g = gf_poly_gcd(den[v - low:], num, f)
        if len(g) > 1:
            num = gf_poly_divmod(num, g, f)[0]
            den = gf_poly_divmod(den, g, f)[0]
        a = v - low
        return num, a, den[a:]

    @property
    def input_advance(self) -> int:
        return self._reduced[1]

    @cached_property
    def period(self) -> int:
        _, a, e = self._reduced
        period = _pole_period(e, self.field, _TAP_BUDGET - a)
        if period is None:
            f = self.field
            poles = Poly(f.mul_table[f.inv_table[e[-1]], e].tolist(), f)
            raise PolePeriodError(
                f"pole period P of {poles} exceeds {_TAP_BUDGET - a} at "
                f"input advance a = {a}: a + P passes the tap budget "
                f"{_TAP_BUDGET}")
        return period

    @cached_property
    def taps(self) -> np.ndarray:
        """(deg N + 1, outputs, inputs) coefficients of N, the layout
        ``gf_convolve`` takes."""
        num, _, e = self._reduced
        scale = np.zeros(self.period + 1, dtype=np.uint8)
        scale[[0, -1]] = 1
        h = gf_poly_divmod(scale, e, self.field)[0]
        return gf_trim(gf_poly_mul(h, num, self.field)).transpose(0, 2, 1)

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
        blocks: (T, slices, B) input slices of B frames in, (length, B)
        output words out; trailing axes ride along as the kernel takes
        them, so (T, slices) gives (length,). The expansion is exact; only
        its terms below D^0 are cut."""
        # out[t] = sum_d N_d u[t + a - d] with u[s] = sum_{i>=1} x[s + iP]
        # (1 / (1 + D^P) = sum_{i>=1} D^-iP) on s >= a - deg N; suffix XORs
        # at stride P, indexed from a - deg N
        deg = self.taps.shape[0] - 1
        P = self.period
        first = self.input_advance - deg + P
        pad = max(-first, 0)
        x = x[max(first, 0):]
        # at least one row, so that a row's width is always known
        rows = -(-max(length + deg, pad + len(x), 1) // P)
        u = np.zeros((rows * P, *x.shape[1:]), dtype=np.uint8)
        u[pad:pad + len(x)] = x
        # one row per period, the slices and frames riding along: the XORs
        # run down its columns, in place
        suffix = u.reshape(rows, -1)[::-1]
        np.bitwise_xor.accumulate(suffix, axis=0, out=suffix)
        return self.kernel(u[:length + deg], length + deg)[deg:]


def _pole_period(e: np.ndarray, field: Field, limit: int) -> int | None:
    """The least P <= ``limit`` with e | 1 + D^P, e(0) != 0, or None: D^P
    modulo e steps on packed symbols, as an int (bps bits per symbol)."""
    deg = len(e) - 1
    if deg == 0:
        return 1 if limit >= 1 else None
    bps = symbol_bits(field)
    mask = (1 << bps * deg) - 1
    # t D^deg = t e[:deg] / lead(e) modulo e (char 2), for each symbol t
    scale = field.mul_table[field.inv_table[e[-1]]]
    fold = [sum(int(c) << bps * i
                for i, c in enumerate(field.mul_table[scale[t], e[:-1]]))
            for t in range(field.order)]
    power = 1
    for period in range(1, limit + 1):
        power <<= bps
        power = (power & mask) ^ fold[power >> bps * deg]
        if power == 1:
            return period
    return None


def full_row_rank(S: np.ndarray, field: Field) -> bool:
    """Whether the rows of the polynomial tensor S are independent over the
    rational functions, by one GF(q) rank.

    If they are not, of rank rho < r rows, some rho + 1 rows with rank rho
    have a left kernel vector of their rho x rho minors (Cramer), of degree
    <= rho m <= (r - 1) m, m = deg S. So S has full row rank iff the map
    u -> u S is injective on the rows u of degree <= (r - 1) m."""
    m, r = len(S) - 1, S.shape[1]
    blocks = (r - 1) * m + 1
    lift = convolution_matrix(S.transpose(0, 2, 1), blocks, blocks + m)
    return gf_rank(lift, field) == blocks * r


def _require_k(hb: np.ndarray) -> None:
    if hb.shape[1] == hb.shape[2]:
        raise DerivationError("k = 0: no logical qubit to decode")


def _require_full_row_rank(hb: np.ndarray, field: Field) -> None:
    if not full_row_rank(hb, field):
        raise DerivationError("transfer polynomial is not full row rank")


def derive_syndrome_former(hb: np.ndarray, field: Field) -> TransferSystem:
    """SF = H_b^T: n input streams to n-k syndrome streams, of the
    polynomial tensor H_b."""
    _require_full_row_rank(hb, field)
    return TransferSystem(hb.transpose(0, 2, 1), field, role="SF")


def derive_inverse_syndrome_former(hb: np.ndarray,
                                   field: Field) -> TransferSystem:
    """Any L with L @ H_b^T = I, of the polynomial tensor H_b. A single
    syndrome stream whose entries admit a Bezout identity gets that
    polynomial (FIR) inverse.

    Otherwise L is the inverse that Gaussian elimination on H_b^T finds,
    worked out as an adjugate of polynomials: L = adj(M) / det(M) on the r
    rows of H_b^T that elimination pivots on, M being the r x r block at
    those rows, and zero on the other rows. The pivot rule is elimination's:
    per column c, the first remaining row, in swap order, whose
    (c + 1) x (c + 1) leading minor with the rows already chosen is nonzero
    is swapped into place. Elimination's multiplier rows stay on the chosen
    rows, so it finds this L. A rank-deficient H_b leaves some column
    without a pivot and is refused."""
    ht = hb.transpose(0, 2, 1)
    L = _bezout_row(ht, field) if hb.shape[1] == 1 else None
    if L is not None:
        return TransferSystem(L, field, role="ISF")
    num, det = _adjugate_inverse(ht, field)
    return TransferSystem(num, field, det, role="ISF")


def _bezout_row(ht: np.ndarray, field: Field) -> np.ndarray | None:
    one = np.ones(1, dtype=np.uint8)
    n = ht.shape[1]
    g = ht[:, 0, 0]
    coefs = [one] + [np.zeros(1, dtype=np.uint8)] * (n - 1)
    for idx in range(1, n):
        g, s, t = gf_poly_xgcd(g, ht[:, idx, 0], field)
        coefs = [gf_poly_mul(c, s, field) for c in coefs]
        coefs[idx] = t
    if not np.array_equal(gf_trim(g), one):
        return None
    return gf_stack([coefs])


def _adjugate_inverse(ht: np.ndarray,
                      field: Field) -> tuple[np.ndarray, np.ndarray]:
    """(adj(M) on the pivot rows, det(M)) of the (deg + 1, n, r) tensor H^T
    = ``ht``, as :func:`derive_inverse_syndrome_former` sets out: one
    fraction-free elimination of [H^T | I], whose pivot rule is the leading
    minor rule, leaves det(M) I | T on its first r rows, T H^T = det(M) I,
    and T zero off the pivot rows, since those mix only with each other."""
    _, n, r = ht.shape
    eye = np.zeros((len(ht), n, n), dtype=np.uint8)
    eye[0] = np.eye(n, dtype=np.uint8)
    done = gf_eliminate(np.concatenate([ht, eye], axis=2), r, field)
    if done is None:
        raise DerivationError("transfer polynomial is not full row rank")
    return gf_trim(done[0][:, :r, r:]), done[1]


def derive_generator(hb: np.ndarray, field: Field) -> TransferSystem:
    """k x n polynomial generator with G @ H_b^T = 0: the minimal kernel
    basis of the polynomial tensor H_b, which is basic and so
    non-catastrophic. H_b must have full row rank: a rank-deficient H_b,
    whose kernel has more than k rows, raises DerivationError."""
    _require_k(hb)
    _require_full_row_rank(hb, field)
    rows = polynomial_kernel_basis(hb, field, hb.shape[2] - hb.shape[1])
    return TransferSystem(_basic_kernel_rows(hb, field, rows), field,
                          role="GEN")


@dataclass(frozen=True)
class CodeBundle:
    """The transfer polynomial H_b (a tensor over ``field``) and the ISF a
    decoder runs on it, as a record: the decoder's
    :class:`CandidateBuilder` certifies the ISF on the block map it runs. A
    decoder never runs the syndrome former or the generator:
    ``derive_syndrome_former`` and ``derive_generator`` derive them apart."""

    hb: np.ndarray
    field: Field
    isf: TransferSystem

    @property
    def n(self) -> int:
        return self.hb.shape[2]

    @property
    def r(self) -> int:
        return self.hb.shape[1]  # syndrome streams, n - k

    @property
    def k(self) -> int:
        return self.n - self.r


def derive_bundle(hb: np.ndarray, field: Field,
                  isf: TransferSystem | None = None) -> CodeBundle:
    """The polynomial tensor H_b, refused at k = 0 or without full row rank,
    and the caller's ISF ``isf`` or, if None, a derived one. The derivation
    refuses a rank-deficient H_b by itself; a caller's ISF is not checked
    here, H_b's rank is."""
    _require_k(hb)
    if isf is None:
        isf = derive_inverse_syndrome_former(hb, field)
    else:
        _require_full_row_rank(hb, field)
    return CodeBundle(hb=hb, field=field, isf=isf)


# ---------------------------------------------------------------------------
# block-domain view: physical syndrome map and the full coset code
# ---------------------------------------------------------------------------

def block_parity_matrix(hb: np.ndarray) -> np.ndarray:
    """The block-domain syndrome map S(D) = [Q(D) | P(D)] ((n-k) x 2n) of
    the GF(2) tensor H_b(D) = P(D^2) + D Q(D^2): for a frame with per-block
    layout (a | b), sigma = (a|b) @ S^T. Trimmed."""
    n = hb.shape[2]
    taps = np.zeros(((len(hb) + 1) // 2, hb.shape[1], 2 * n), dtype=np.uint8)
    odd = hb[1::2]
    taps[:len(odd), :, :n] = odd
    taps[:, :, n:] = hb[0::2]
    return gf_trim(taps)


def block_isf_matrix(isf: TransferSystem) -> TransferSystem:
    """The block-domain ISF [D L1(D) | L0(D)] ((n-k) x 2n) of a binary-path
    ISF L(D) = L0(D^2) + D L1(D^2): the syndrome rides the odd tick phase, so
    sigma @ block_isf_matrix(L) is the (a | b) block frame of streaming the
    zero-stuffed syndrome through L.

    Over GF(2) den(D)^2 = den(D^2), so num/den = num*den / den(D^2) splits
    into the even and odd coefficients of num*den over den."""
    if isf.field is not GF2:
        raise ValueError("the tick-phase split needs a GF(2) ISF")
    prod = gf_poly_mul(isf.den, isf.num, GF2)
    odd, even, n = prod[1::2], prod[0::2], isf.outputs
    num = np.zeros((len(odd) + 1, isf.inputs, 2 * n), dtype=np.uint8)
    num[1:, :, :n] = odd
    num[:len(even), :, n:] = even
    return TransferSystem(gf_trim(num), GF2, isf.den, role="ISF")


def polynomial_kernel_basis(S: np.ndarray, field: Field,
                            kernel_rank: int) -> np.ndarray:
    """Minimal (row-reduced, basic) basis of {polynomial rows v: v @ S^T =
    0} of the polynomial tensor S, as a (deg + 1, kernel_rank, cols) tensor.

    Degree sweep: for d = 0, 1, ... solve the exact unrolled GF kernel of
    rows supported on d+1 blocks and keep vectors whose leading coefficient
    vector is independent of those already chosen. The chosen rows and their
    shifts then span every polynomial kernel element up to the swept degree,
    which makes zero-terminated trellis paths cover the whole window kernel.
    The sweep's largest unrolled matrix is sized first, and refused above
    the work budget.

    The rows come out in nondecreasing degree with a full-rank leading
    coefficient matrix, so they are row-reduced as chosen (Forney, "Minimal
    bases of rational vector spaces", 1975) and are returned as they are.
    """
    m, r, lanes = len(S) - 1, S.shape[1], S.shape[2]
    max_degree = lanes * (m + 1) + 4
    rows, cols = (max_degree + m + 1) * r, (max_degree + 1) * lanes
    if rows * cols * min(rows, cols) > _KERNEL_SWEEP_WORK:
        raise DerivationError(
            f"kernel sweep to degree {max_degree} needs a {rows}x{cols} "
            f"unrolled matrix, past the work budget {_KERNEL_SWEEP_WORK}")
    chosen: list[np.ndarray] = []
    leads = np.zeros((0, lanes), dtype=np.uint8)
    for d in range(max_degree + 1):
        if len(chosen) == kernel_rank:
            break
        # kernel of the syndrome map on rows supported on blocks [0, d]
        vecs = gf_kernel(convolution_matrix(S, d + 1, d + m + 1),
                         field).reshape(-1, d + 1, lanes)
        # in order, each vector whose leading block is independent of those
        # chosen: the pivot columns of the leads side by side (a zero lead,
        # of a vector of degree below d, is never one)
        _, pivots = gf_rref(np.concatenate([leads, vecs[:, d]]).T, field)
        picked = [i - len(leads) for i in pivots[len(leads):kernel_rank]]
        chosen += list(vecs[picked])
        leads = np.concatenate([leads, vecs[picked, d]])
    if len(chosen) != kernel_rank:
        raise DerivationError(
            f"kernel basis search found {len(chosen)} of {kernel_rank} rows")
    out = np.zeros((max((len(b) for b in chosen), default=1), kernel_rank,
                    lanes), dtype=np.uint8)
    for i, blocks in enumerate(chosen):
        out[:len(blocks), i] = blocks
    return out


def coset_code_rows(hb: np.ndarray) -> np.ndarray:
    """Row-reduced polynomial basis, a tensor, of the block-domain code
    {frames with identically zero physical syndrome} of the GF(2) tensor
    H_b.

    This spans the classical codeword space *and* the degeneracy directions
    (for a stabilizer-derived H_b, the block-reversed stabilizer rows), so a
    trellis over it searches every error pattern with the given measured
    syndrome. H_b must have full row rank, and then so has S: u(D) S = 0
    gives u(D^2) H_b = 0."""
    _require_full_row_rank(hb, GF2)
    S = block_parity_matrix(hb)
    return _basic_kernel_rows(S, GF2, polynomial_kernel_basis(
        S, GF2, S.shape[2] - S.shape[1]))


def _basic_kernel_rows(S: np.ndarray, field: Field,
                       rows: np.ndarray) -> np.ndarray:
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
    m = len(S) - 1
    degrees = row_degrees(rows)
    span = max(degrees)
    kernel_dim = S.shape[2] * (span + 1) - gf_rank(
        convolution_matrix(S, span + 1, span + m + 1), field)
    if kernel_dim != sum(span - d + 1 for d in degrees):
        raise CatastrophicGeneratorError(
            "kernel basis is not basic "
            f"(minors gcd {minors_gcd(rows, field)})")
    return rows


def minors_gcd(g: np.ndarray, field: Field) -> Poly:
    """Gcd of all k x k minors of a k x n polynomial tensor (deg + 1, k, n).

    A convolutional generator is non-catastrophic iff this gcd is a power of
    D (including 1)."""
    _, k, n = g.shape
    if k > n:
        raise ValueError("wide matrix expected (k <= n)")
    # a determinant is the last pivot of an elimination (no signs in
    # characteristic 2), zero where a column has none
    minors = [gf_eliminate(g[:, :, cols], k, field)
              for cols in itertools.combinations(range(n), k)]
    dets = [np.zeros(1, dtype=np.uint8) if m is None else m[1]
            for m in minors]
    first = next((d for d in dets if d.any()), None)
    return Poly([] if first is None else gf_poly_gcd(
        first, gf_stack([dets]), field).tolist(), field)


def is_left_inverse(isf: TransferSystem, parity: np.ndarray) -> bool:
    """Whether isf @ parity^T = I for the polynomial tensor ``parity``,
    checked over GF(q) on the closed form N = D^a (1 + D^P) isf: a nonzero
    scalar factor is injective, so this holds iff N @ parity^T = (D^a +
    D^(a+P)) I, one convolution of parity per row of N."""
    N, a, P = isf.taps, isf.input_advance, isf.period
    r = parity.shape[1]
    window = max(len(N) + len(parity) - 2, a + P) + 1
    want = np.zeros((r, window, r), dtype=np.uint8)
    want[:, [a, a + P]] = np.eye(r, dtype=np.uint8)[:, None]
    return np.array_equal([gf_convolve(parity, N[:, :, i], isf.field, window)
                           for i in range(r)], want)


class CandidateBuilder:
    """Produces a member of {frames whose measured syndrome matches sigma}
    with one block-domain linear map: the ISF expanded anticausally (from
    the quiescent padded tail down) and a precomputed repair of the head
    defect that the truncation at block 0 leaves.

    ``parity`` is the block-domain syndrome map S, a polynomial tensor, and
    ``isf`` a block-domain left inverse of it (isf @ S^T = I, a decoder's
    one check of its ISF): ``block_parity_matrix`` and ``block_isf_matrix``
    on the binary path, H_q and its ISF on the GF(4) path. The expansion is
    :meth:`TransferSystem.run_anticausal_words` of the ISF.

    :meth:`build_words` works on a batch of frames of packed blocks, one
    int64 word per block with symbol c at bits [bps c, bps (c + 1)) (the
    label layout of ``trellis.pack_sections``): sigma in, the candidate
    out, and the residual check and the repair as :class:`ConvolutionKernel`
    gathers. :meth:`build` is the same map on one frame's symbol arrays, a
    batch of one.
    """

    def __init__(self, parity: np.ndarray, isf: TransferSystem):
        self.r, self.lanes = parity.shape[1:]
        if (isf.inputs, isf.outputs) != (self.r, self.lanes):
            raise ValueError(f"{isf.inputs}x{isf.outputs} ISF does not fit "
                             f"the {self.r}x{self.lanes} parity map")
        f = self.field = isf.field
        self.bps = symbol_bits(f)
        self.m = len(parity) - 1
        self.syndrome = ConvolutionKernel(parity, f)
        self.isf = isf
        if not is_left_inverse(isf, parity):
            raise DerivationError("ISF is not a left inverse of the parity map")
        # the expansion D^-a N(D) sum_{i>=1} D^-iP reaches deg N - a - P
        # blocks past the last nonzero syndrome block
        self.reach = len(isf.taps) - 1 - isf.input_advance - isf.period
        # S is causal of degree m, so the truncated expansion misses sigma
        # only on blocks < m; a frame on m + 1 blocks repairs it. One RREF
        # gives the particular solution (free variables zero) of every
        # defect, and its leftover rows flag the unrealizable ones.
        self.defect_blocks = db = self.m + 1
        system = convolution_matrix(parity, db, 2 * db - 1)
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
        """The first min(defect_blocks, blocks) packed blocks of the frames
        on ``blocks`` blocks whose syndromes are the head defects (packed,
        (defect_blocks, B), one frame per column) followed by zeros, as
        (min(defect_blocks, blocks), B); the frames are zero beyond them.
        The B repairs run together, and any frame without one raises."""
        # each defect as the little-endian bytes of one flat block of db r
        # symbols, built as a Python int (faster than ``np.packbits`` on
        # the few frames a batch repairs)
        bits, flat = self.r * self.bps, bytearray()
        for frame in defect.T.tolist():
            word = 0
            for j, block in enumerate(frame):
                word |= block << (j * bits)
            flat += word.to_bytes(self._repair.slices, "little")
        x = np.frombuffer(flat, dtype=np.uint8).reshape(
            -1, self._repair.slices)
        # the kernel on one input block: each slice's tables give all the
        # output blocks of its byte at once
        sol = np.zeros((len(self._repair.taps), len(x)), dtype=np.int64)
        for tables, xg in zip(self._repair.tables, x.T):
            sol ^= tables.take(xg, axis=1)
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
        """Candidate frames W, (B, blocks) packed blocks, of a (B, words)
        batch of packed syndromes s (at most ``blocks`` words each): each
        frame's syndrome over blocks + m blocks is its s zero-extended. The
        expansion, residual and window check run once on the batch, and
        when any frame has a head defect, one :meth:`repair_frame` call
        repairs them all (a zero defect takes a zero repair)."""
        # the frames ride along a trailing axis, so that every step slices
        # blocks as it would one frame
        s = s.T
        W = self.isf.run_anticausal_words(
            word_slices(s, self.isf.kernel.slices), blocks)
        resid = self._residual(W, s, blocks + self.m)
        db = self.defect_blocks
        if resid.any():
            if resid[db:].any():
                raise DerivationError(
                    "ISF candidate defect outside the head window: the ISF "
                    "entries need more padding lookahead than the frame "
                    "carries")
            head = self.repair_frame(resid[:db], blocks)
            W[:len(head)] ^= head
            # the repair is supported on the first db blocks, so the
            # residual can only have changed on blocks [0, db + m)
            if self._residual(W, s, len(head) + self.m).any():
                raise DerivationError("candidate repair failed")
        return W.T

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
        W = self.build_words(pack_symbols(sigma[:blocks], self.bps)[None],
                             blocks)
        return unpack_symbols(W[0], self.lanes, self.bps)
