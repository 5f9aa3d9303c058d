"""Stabilizer specifications for [n,k,m] quantum convolutional codes and
their equivalent classical transfer polynomials.

Conventions fixed across the package:

- binary symplectic encoding I=(0|0), X=(1|0), Z=(0|1), Y=(1|1); an error
  frame stores bit 2i = X component of qubit i, bit 2i+1 = Z component.
- generator block b of the Pauli string maps to the coefficient of D^b.
- the syndrome stream is the block-domain convolution
  sigma_i(D) = sum_c [A_c(D) Q_ic(D) + B_c(D) P_ic(D)],
  where A_c/B_c are the X/Z bit streams of qubit lane c. This matches
  streaming the interleaved frame through the transfer polynomial transpose
  and taking the odd-phase outputs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable

import numpy as np

from .algebra import (
    GF2, GF4, W, WBAR, ConvolutionKernel, gf_convolve, gf_inv, gf_rank,
    gf_solve, gf_trim, pack_slices, pack_symbols, unpack_symbols,
)


class SpecError(ValueError):
    """Malformed or inconsistent stabilizer specification."""


class F4LinearityError(SpecError):
    """The generator row space is not GF(4)-linear; no F4 equivalent exists."""


PAULIS = "IXYZ"
PAULI_TO_BITS = {"I": (0, 0), "X": (1, 0), "Z": (0, 1), "Y": (1, 1)}
BITS_TO_PAULI = {v: k for k, v in PAULI_TO_BITS.items()}


class ErrorFrame:
    """Binary error pattern on a qubit frame (X bit then Z bit per qubit)."""

    __slots__ = ("bits",)

    def __init__(self, bits: np.ndarray | Iterable[int]):
        arr = np.asarray(bits, dtype=np.uint8)
        if arr.ndim != 1 or arr.size % 2:
            raise ValueError("frame needs an even, flat bit vector")
        self.bits = arr

    @classmethod
    def zeros(cls, num_qubits: int) -> "ErrorFrame":
        return cls(np.zeros(2 * num_qubits, dtype=np.uint8))

    @classmethod
    def from_pauli(cls, pauli: str) -> "ErrorFrame":
        bits = np.zeros(2 * len(pauli), dtype=np.uint8)
        for i, ch in enumerate(pauli.upper()):
            try:
                x, z = PAULI_TO_BITS[ch]
            except KeyError:
                raise ValueError(f"invalid Pauli character {ch!r}") from None
            bits[2 * i] = x
            bits[2 * i + 1] = z
        return cls(bits)

    @property
    def num_qubits(self) -> int:
        return self.bits.size // 2

    def to_pauli(self) -> str:
        b = self.bits
        return "".join(BITS_TO_PAULI[(int(b[2 * i]), int(b[2 * i + 1]))]
                       for i in range(self.num_qubits))

    def x_part(self) -> np.ndarray:
        return self.bits[0::2]

    def z_part(self) -> np.ndarray:
        return self.bits[1::2]

    def __xor__(self, other: "ErrorFrame") -> "ErrorFrame":
        return ErrorFrame(self.bits ^ other.bits)

    def bit_weight(self) -> int:
        return int(self.bits.sum())

    def _check_blocks(self, n: int) -> None:
        if self.num_qubits % n:
            raise ValueError("frame length is not a whole number of blocks")

    def blocks(self, n: int) -> np.ndarray:
        """(blocks, 2n) view: per block [a_0..a_{n-1}, b_0..b_{n-1}]."""
        self._check_blocks(n)
        nb = self.num_qubits // n
        x = self.x_part().reshape(nb, n)
        z = self.z_part().reshape(nb, n)
        return np.concatenate([x, z], axis=1)

    def block_bytes(self, n: int) -> np.ndarray:
        """(blocks, ceil(2n / 8)) bytes, one row per block of n qubits: bit
        j of byte g is the block's interleaved (x, z) bit 8 g + j."""
        self._check_blocks(n)
        return pack_slices(self.bits.reshape(-1, 2 * n), 1)

    @classmethod
    def from_blocks(cls, blocks: np.ndarray) -> "ErrorFrame":
        nb, twon = blocks.shape
        n = twon // 2
        bits = np.zeros(2 * nb * n, dtype=np.uint8)
        bits[0::2] = blocks[:, :n].reshape(-1)
        bits[1::2] = blocks[:, n:].reshape(-1)
        return cls(bits)

    def __eq__(self, other) -> bool:
        return isinstance(other, ErrorFrame) and np.array_equal(self.bits, other.bits)

    def __repr__(self) -> str:
        return f"ErrorFrame({self.to_pauli()})"


@dataclass(frozen=True)
class StabilizerSpec:
    """[n,k,m] quantum convolutional code given by its block-0 generators."""

    n: int
    k: int
    m: int
    generators: tuple[str, ...]
    # coefficient tensors, shape (m+1, n-k, n)
    p_coeffs: np.ndarray = field(repr=False, compare=False, default=None)
    q_coeffs: np.ndarray = field(repr=False, compare=False, default=None)

    def __post_init__(self):
        n, k, m = self.n, self.k, self.m
        if not (0 < k < n) and not (k == 0 and n > 0):
            raise SpecError(f"bad parameters n={n} k={k}")
        if m < 0:
            raise SpecError("memory parameter must be >= 0")
        gens = tuple(g.upper() for g in self.generators)
        if len(gens) != n - k:
            raise SpecError(f"expected {n - k} generators, got {len(gens)}")
        glen = n * (m + 1)
        # the lengths bound m before the (m+1, n-k, n) tensors are allocated
        for i, g in enumerate(gens):
            if len(g) != glen:
                raise SpecError(
                    f"generator {i + 1} has length {len(g)}, expected {glen}")
        p = np.zeros((m + 1, n - k, n), dtype=np.uint8)
        q = np.zeros((m + 1, n - k, n), dtype=np.uint8)
        for i, g in enumerate(gens):
            for pos, ch in enumerate(g):
                if ch not in PAULIS:
                    raise SpecError(f"invalid Pauli character {ch!r}")
                b, c = divmod(pos, n)
                x, z = PAULI_TO_BITS[ch]
                p[b, i, c] = x
                q[b, i, c] = z
        object.__setattr__(self, "generators", gens)
        object.__setattr__(self, "p_coeffs", p)
        object.__setattr__(self, "q_coeffs", q)
        rows = self.syndrome_taps.transpose(1, 0, 2).reshape(n - k, -1)
        if gf_rank(rows, GF2) < n - k:
            raise SpecError("generators are not independent")

    @property
    def syndrome_taps(self) -> np.ndarray:
        """(m+1, n-k, 2n) block-domain syndrome map: tap d pairs the X bits
        of a block with Q's D^d coefficients and the Z bits with P's."""
        return np.concatenate([self.q_coeffs, self.p_coeffs], axis=2)

    @cached_property
    def syndrome_kernel(self) -> ConvolutionKernel:
        """:attr:`syndrome_taps` as a kernel on :meth:`ErrorFrame.block_bytes`
        slices, its lanes permuted to the frame's interleaved (x, z) order.
        An output word holds a block's n-k syndrome bits, bit i = stream i."""
        xz = np.arange(2 * self.n).reshape(2, self.n).T.reshape(-1)
        return ConvolutionKernel(self.syndrome_taps[:, :, xz], GF2)


def parse_stabilizer(text: str) -> StabilizerSpec:
    """Parse the stabilizer spec file format.

    Header line ``qcc n=<int> k=<int> m=<int>``, then n-k lines of Pauli
    strings of length n(m+1). Lines starting with ``#`` are comments.
    """
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines:
        raise SpecError("empty stabilizer document")
    head = lines[0].split()
    if not head or head[0] != "qcc":
        raise SpecError("missing 'qcc' header line")
    params = {}
    for tok in head[1:]:
        if "=" not in tok:
            raise SpecError(f"bad header token {tok!r}")
        key, val = tok.split("=", 1)
        try:
            params[key] = int(val)
        except ValueError:
            raise SpecError(f"bad header value {tok!r}") from None
    try:
        n, k, m = params["n"], params["k"], params["m"]
    except KeyError as exc:
        raise SpecError(f"header missing {exc}") from None
    return StabilizerSpec(n=n, k=k, m=m, generators=tuple(lines[1:]))


@dataclass(frozen=True)
class SymplecticCheck:
    ok: bool
    witness: tuple[int, int, tuple[int, ...]] | None = None

    def witness_text(self) -> str:
        i, j, shifts = self.witness
        return (f"witness entry {i},{j} at block shifts "
                f"{', '.join(map(str, shifts))}")


def check_symplectic(spec: StabilizerSpec) -> SymplecticCheck:
    """Check commutation of all generator shifts; on failure the witness
    (i, j, shifts) names the first anticommuting generator pair (i, j) in
    row-major order and every block shift d at which generator i
    anticommutes with generator j moved d blocks later.

    Generator j with its blocks reversed is an error frame (X bits from P,
    Z bits from Q) whose syndrome under the code's own syndrome map, which
    pairs X with Q and Z with P, holds at bit (m + d, i) the symplectic
    product of generator i with generator j shifted by d blocks, for every
    d in [-m, m]. A generator's own shifts are read off the same way, so
    self-overlap anticommutation is caught on the diagonal.
    """
    m = spec.m
    frames = np.concatenate([spec.p_coeffs, spec.q_coeffs], axis=2)[::-1]
    comm = np.stack([gf_convolve(spec.syndrome_taps, frames[:, j], GF2,
                                 2 * m + 1)
                     for j in range(spec.n - spec.k)], axis=2)
    hits = np.argwhere(comm.any(axis=0))
    if not hits.size:
        return SymplecticCheck(True)
    i, j = hits[0]
    shifts = tuple(int(d) - m for d in np.flatnonzero(comm[:, i, j]))
    return SymplecticCheck(False, (int(i), int(j), shifts))


def binary_transfer(spec: StabilizerSpec) -> np.ndarray:
    """Equivalent binary transfer polynomial H_b(D) = P(D^2) + D Q(D^2), as
    a trimmed (deg + 1, n-k, n) GF(2) tensor: its even taps are P's, its odd
    taps Q's."""
    taps = np.stack([spec.p_coeffs, spec.q_coeffs], axis=1)
    return gf_trim(taps.reshape(-1, *taps.shape[2:]))


# Pauli -> GF(4) map used internally by the quaternary decode path. It is the
# conjugate of the row labeling so that the syndrome former is H_q^T itself
# (no conjugation in the streaming circuits).
PAULI_TO_GF4_DECODE = {"I": 0, "X": 1, "Y": W, "Z": WBAR}
GF4_DECODE_TO_PAULI = {v: k for k, v in PAULI_TO_GF4_DECODE.items()}
# decode symbol -> (x, z) bits of its Pauli
GF4_DECODE_TO_XZ = np.array(
    [PAULI_TO_BITS[GF4_DECODE_TO_PAULI[v]] for v in range(4)], dtype=np.uint8)


@dataclass(frozen=True)
class QuaternaryTransfer:
    """GF(4) equivalent of a stabilizer spec.

    ``hq`` is the (n-k)/2 x n transfer polynomial, a trimmed (deg + 1,
    (n-k)/2, n) GF(4) tensor. ``syndrome_map`` is the
    invertible GF(2) matrix taking the per-block GF(4) syndrome symbol bits
    (x_1, y_1, ..., x_r, y_r) to the measured binary syndrome bits, i.e.
    sigma = syndrome_map @ bits(sigma*).
    """

    hq: np.ndarray
    syndrome_map: np.ndarray
    syndrome_map_inv: np.ndarray

    @property
    def f4_rows(self) -> int:
        return self.hq.shape[1]

    @cached_property
    def syndrome_table(self) -> np.ndarray:
        """Packed GF(4) syndrome symbols (symbol j at bits 2j, 2j + 1) of
        every packed binary syndrome block (bit i = stream i): the bits of
        syndrome_map_inv @ bits, in order."""
        nk = 2 * self.f4_rows
        bits = unpack_symbols(np.arange(1 << nk), nk, 1)
        return pack_symbols((bits @ self.syndrome_map_inv.T) % 2, 1)

    def binary_to_f4_syndrome(self, sigma: np.ndarray) -> np.ndarray:
        """(blocks, n-k) binary -> (blocks, (n-k)/2) GF(4) symbols."""
        return unpack_symbols(self.syndrome_table.take(pack_symbols(sigma, 1)),
                              self.f4_rows, 2)


def quaternary_transfer(spec: StabilizerSpec) -> QuaternaryTransfer:
    """Derive the GF(4) transfer polynomial H_q, or refuse when the generator
    row space is not GF(4)-linear (not closed under scaling by w)."""
    nk = spec.n - spec.k
    if nk % 2:
        raise F4LinearityError("odd generator count cannot be GF(4)-linear")
    # generator rows as GF(4) vectors: entry = p + w*q per (power, lane)
    rows4 = (spec.p_coeffs | (spec.q_coeffs << 1)).transpose(1, 0, 2) \
        .reshape(nk, -1)

    # H_q rows in discovery order: each generator row reduced against the
    # earlier basis rows at their pivots, scaled to a leading 1
    mul, inv = GF4.mul_table, GF4.inv_table
    basis, pivots = [], []
    for vec in rows4:
        for bvec, pv in zip(basis, pivots):
            vec = vec ^ mul[vec[pv], bvec]
        nz = np.flatnonzero(vec)
        if nz.size:
            pivots.append(nz[0])
            basis.append(mul[inv[vec[nz[0]]], vec])
    # the nk rows are GF(2)-independent (checked by the spec), so their span
    # is w-closed exactly when its GF(4) dimension is nk / 2
    if 2 * len(basis) != nk:
        raise F4LinearityError(
            "generator row space is not closed under w-scaling; "
            "use the binary transfer polynomial instead")

    hq = gf_trim(np.array(basis).reshape(-1, spec.m + 1, spec.n)
                 .transpose(1, 0, 2))

    # rows4 = C @ basis with a unique C; binary syndrome bits from GF(4)
    # syndrome symbols: sigma_i = Tr(sum_j c_ij sigma*_j),
    # Tr(c*(x+yw)) = c1*x + (c0+c1)*y
    basis_t = np.array(basis).T
    coeffs = np.array([gf_solve(basis_t, row, GF4) for row in rows4])
    smap = np.zeros((nk, nk), dtype=np.uint8)
    smap[:, 0::2] = coeffs >> 1
    smap[:, 1::2] = (coeffs & 1) ^ (coeffs >> 1)
    sinv = gf_inv(smap, GF2)
    if sinv is None:
        raise F4LinearityError("syndrome remap is singular")
    return QuaternaryTransfer(hq=hq, syndrome_map=smap, syndrome_map_inv=sinv)


def syndrome_of(spec: StabilizerSpec, frame: ErrorFrame) -> np.ndarray:
    """Per-block syndrome bits, shape (blocks, n-k).

    Block-domain convolution of the frame with the generator coefficients;
    bit (j, i) pairs X parts against Q and Z parts against P. Identical to
    streaming the frame through the realized H_b^T circuit and keeping the
    odd-phase outputs (cross-checked in the test suite).
    """
    x = frame.block_bytes(spec.n)
    return unpack_symbols(spec.syndrome_kernel(x, len(x)), spec.n - spec.k, 1)


EXAMPLE_311_TEXT = """\
# [3,1,1] quantum convolutional code, rate 1/3
qcc n=3 k=1 m=1
XXXXZY
ZZZZYX
"""


def example_311() -> StabilizerSpec:
    """The rate-1/3 [3,1,1] code used throughout the test suite."""
    return parse_stabilizer(EXAMPLE_311_TEXT)
