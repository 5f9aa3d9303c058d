"""End-to-end syndrome decoding for quantum convolutional codes: syndrome in,
maximum-likelihood error pattern out, via one Viterbi pass.

The decode trellis is built over the full kernel of the measured-syndrome
map, which contains the classical codeword space together with the stabilizer
degeneracy directions; a single zero-terminated Viterbi pass over it finds a
minimum-weight error pattern among *all* patterns with the measured syndrome.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import RatMatrix
from .circuits import (
    CandidateBuilder, TransferSystem, block_syndrome, coset_code_rows,
    derive_bundle, polynomial_kernel_basis, with_isf,
)
from .stabilizer import (
    ErrorFrame, GF4_DECODE_TO_XZ, SpecError, StabilizerSpec, XZ_TO_GF4_DECODE,
    binary_transfer, check_symplectic, quaternary_transfer, syndrome_of,
)
from .trellis import BranchMetric, Trellis, build_trellis, viterbi_decode


@dataclass(frozen=True)
class DecodedError:
    """Error estimate for one frame."""

    frame: ErrorFrame
    path_metric: int
    tie_count: int


class SyndromeDecoder:
    """Decoder for an [n,k,m] stabilizer convolutional code, binary path.

    Frames are padded with n(m+1) known-clean qubits before measurement; the
    syndrome passed to :meth:`decode` covers the padded span (one (n-k)-bit
    group per block). :class:`SyndromeDecoderF4` is the same decoder on the
    GF(4) path and overrides only what differs: the transfer polynomial and
    its coset basis, the trellis kind and candidate layout, and the symbol
    maps on the way in and out."""

    trellis_kind = "bit-paired"
    interleaved = True   # syndrome on the odd tick phase, (a|b) block lanes

    def __init__(self, spec: StabilizerSpec, isf_matrix: RatMatrix | None = None,
                 validate: bool = True):
        if validate:
            res = check_symplectic(spec)
            if not res.ok:
                raise SpecError(f"generators do not commute: witness {res.witness}")
        self.spec = spec
        transfer = self._transfer()
        bundle = derive_bundle(transfer)
        if isf_matrix is not None:
            bundle = with_isf(bundle, isf_matrix)
        self.bundle = bundle
        self.coset_generator = TransferSystem(
            RatMatrix.from_polys(self._coset_rows(transfer)), role="COSET-GEN")
        self.trellis: Trellis = build_trellis(self.coset_generator,
                                              kind=self.trellis_kind)
        self.candidates = CandidateBuilder(bundle, interleaved=self.interleaved)

    def _transfer(self) -> RatMatrix:
        self.hb = binary_transfer(self.spec)
        return self.hb

    def _coset_rows(self, transfer: RatMatrix):
        return coset_code_rows(transfer)

    def _syndrome_symbols(self, sigma: np.ndarray) -> np.ndarray:
        """The measured binary syndrome in the symbols the candidate takes."""
        return sigma

    def symbols_to_frame(self, symbols: np.ndarray) -> ErrorFrame:
        """Error frame of a decoded (blocks, lanes) symbol array."""
        return ErrorFrame.from_blocks(symbols)

    @property
    def n(self) -> int:
        return self.spec.n

    @property
    def pad_blocks(self) -> int:
        return self.spec.m + 1

    def pad_qubits(self) -> int:
        return self.spec.n * self.pad_blocks

    def padded_frame(self, frame: ErrorFrame) -> ErrorFrame:
        """Frame extended by the all-identity padding tail."""
        tail = np.zeros(2 * self.pad_qubits(), dtype=np.uint8)
        return ErrorFrame(np.concatenate([frame.bits, tail]))

    def measure(self, frame: ErrorFrame) -> np.ndarray:
        """Syndrome of a data frame over the padded span, (blocks, n-k)."""
        return syndrome_of(self.spec, self.padded_frame(frame))

    def measure_raw(self, frame: ErrorFrame) -> np.ndarray:
        """Syndrome of a frame that already covers the padded span."""
        return syndrome_of(self.spec, frame)

    def decode(self, sigma: np.ndarray, metric: BranchMetric | None = None,
               ) -> DecodedError:
        """ML error pattern for a measured binary syndrome over the padded
        span: (blocks, n-k) with at least one data block before the m+1
        padding blocks."""
        streams = self.spec.n - self.spec.k
        if sigma.ndim != 2 or sigma.shape[1] != streams:
            raise ValueError(f"syndrome must have shape (blocks, {streams})")
        if sigma.shape[0] <= self.pad_blocks:
            raise ValueError(
                f"syndrome has {sigma.shape[0]} blocks; it needs at least one "
                f"data block beyond the {self.pad_blocks} padding blocks")
        sym = self._syndrome_symbols(sigma)
        W = self.candidates.build(sym, sym.shape[0])
        res = viterbi_decode(self.trellis, W, metric)
        return DecodedError(frame=self.symbols_to_frame(res.error),
                            path_metric=res.path_metric,
                            tie_count=res.tie_count)


class SyndromeDecoderF4(SyndromeDecoder):
    """GF(4)-path decoder; available when the code is GF(4)-linear.

    Decodes the same measured binary syndrome by repacking two syndrome bits
    per block into one GF(4) symbol and running the quaternary trellis."""

    trellis_kind = "gf4"
    interleaved = False  # ISF at block rate on the symbol stream

    def __init__(self, spec: StabilizerSpec, validate: bool = True):
        super().__init__(spec, validate=validate)

    def _transfer(self) -> RatMatrix:
        self.qt = quaternary_transfer(self.spec)
        self.hq = self.qt.hq
        return self.hq

    def _coset_rows(self, transfer: RatMatrix):
        return polynomial_kernel_basis(transfer, transfer.cols - transfer.rows)

    def _syndrome_symbols(self, sigma: np.ndarray) -> np.ndarray:
        return self.qt.binary_to_f4_syndrome(sigma)

    def frame_to_symbols(self, frame: ErrorFrame) -> np.ndarray:
        """(blocks, n) GF(4) symbols in the decode labeling."""
        blocks = frame.blocks(self.spec.n)
        n = self.spec.n
        return XZ_TO_GF4_DECODE[blocks[:, :n], blocks[:, n:]]

    def symbols_to_frame(self, symbols: np.ndarray) -> ErrorFrame:
        xz = GF4_DECODE_TO_XZ[symbols]
        return ErrorFrame.from_blocks(np.concatenate([xz[..., 0], xz[..., 1]],
                                                     axis=1))

    def f4_syndrome(self, frame: ErrorFrame) -> np.ndarray:
        """GF(4) syndrome stream of a (padded) frame: symbols through H_q^T."""
        return block_syndrome(self.hq, self.frame_to_symbols(frame))
