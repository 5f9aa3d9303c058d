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

from .algebra import RatMatrix, pack_slices, pack_symbols, unpack_symbols
from .circuits import (
    CandidateBuilder, _basic_kernel_rows, block_isf_matrix,
    block_parity_matrix, coset_code_rows, derive_bundle,
    polynomial_kernel_basis,
)
from .stabilizer import (
    ErrorFrame, GF4_DECODE_TO_XZ, SpecError, StabilizerSpec, binary_transfer,
    check_symplectic, quaternary_transfer, syndrome_of,
)
from .trellis import (
    BranchMetric, Trellis, build_trellis, unpack_sections, viterbi_path,
)


@dataclass(frozen=True)
class DecodedError:
    """Error estimate for one frame."""

    frame: ErrorFrame
    path_metric: int
    tie_count: int


class SyndromeDecoder:
    """Decoder for an [n,k,m] stabilizer convolutional code, binary path.

    Frames are padded with ``pad_blocks`` known-clean blocks before
    measurement; the syndrome passed to :meth:`decode` covers the padded span
    (one (n-k)-bit group per block). :class:`SyndromeDecoderF4` is the same
    decoder on the GF(4) path and overrides only what differs: the transfer
    polynomial and its coset basis, the trellis kind, the block-domain
    candidate maps, and the symbol maps on the way in and out.

    :meth:`decode_words` carries one packed int per block from the syndrome
    to the error labels, and each map between is a table gather: the syndrome
    into candidate symbols, the candidate (``CandidateBuilder.build_words``)
    and the error labels into frame bits or block bytes (``label_bytes``)."""

    trellis_kind = "bit-paired"

    def __init__(self, spec: StabilizerSpec, isf_matrix: RatMatrix | None = None):
        res = check_symplectic(spec)
        if not res.ok:
            raise SpecError(f"generators do not commute: {res.witness_text()}")
        self.spec = spec
        transfer = self._transfer()
        self.bundle = bundle = derive_bundle(transfer, isf_matrix)
        self.trellis: Trellis = build_trellis(
            RatMatrix.from_polys(self._coset_rows(transfer)),
            kind=self.trellis_kind)
        self.candidates = CandidateBuilder(*self._block_maps(bundle))
        # frame bits of every packed section label, one row per label
        every = unpack_sections(np.arange(1 << self.trellis.label_bits),
                                self.trellis)
        self._label_bits = self.symbols_to_frame(every).bits.reshape(
            len(every), -1)
        self.label_bytes = pack_slices(self._label_bits, 1)

    def _transfer(self) -> RatMatrix:
        self.hb = binary_transfer(self.spec)
        return self.hb

    def _coset_rows(self, transfer: RatMatrix):
        return coset_code_rows(transfer)

    def _block_maps(self, bundle) -> tuple[RatMatrix, RatMatrix]:
        """Syndrome map and ISF on block-domain frames: the (a | b) lanes of
        the binary path fold the tick-rate H_b^T and ISF."""
        return block_parity_matrix(bundle.hb), block_isf_matrix(bundle.isf.matrix)

    def _syndrome_words(self, s: np.ndarray) -> np.ndarray:
        """The symbols the candidate takes of packed binary syndrome words,
        one word per block; on the binary path the words themselves."""
        return s

    def symbols_to_frame(self, symbols: np.ndarray) -> ErrorFrame:
        """Error frame of a decoded (blocks, lanes) symbol array."""
        return ErrorFrame.from_blocks(symbols)

    @property
    def n(self) -> int:
        return self.spec.n

    @property
    def pad_blocks(self) -> int:
        """Clean blocks after the data: m for the syndrome to settle, and at
        least one more, or as many as the candidate reaches past it."""
        return self.spec.m + max(1, self.candidates.reach)

    def pad_qubits(self) -> int:
        return self.spec.n * self.pad_blocks

    def measure(self, frame: ErrorFrame) -> np.ndarray:
        """Syndrome of a data frame over the padded span, (blocks, n-k)."""
        x = frame.block_bytes(self.n)
        words = self.spec.syndrome_kernel(x, len(x) + self.pad_blocks)
        return unpack_symbols(words, self.spec.n - self.spec.k, 1)

    def measure_raw(self, frame: ErrorFrame) -> np.ndarray:
        """Syndrome of a frame that already covers the padded span."""
        return syndrome_of(self.spec, frame)

    def decode(self, sigma: np.ndarray, metric: BranchMetric | None = None,
               ) -> DecodedError:
        """ML error pattern for a measured binary syndrome over the padded
        span: (blocks, n-k) entries 0 or 1, with at least one data block
        before the ``pad_blocks`` padding blocks."""
        streams = self.spec.n - self.spec.k
        if sigma.ndim != 2 or sigma.shape[1] != streams:
            raise ValueError(f"syndrome must have shape (blocks, {streams})")
        if sigma.shape[0] <= self.pad_blocks:
            raise ValueError(
                f"syndrome has {sigma.shape[0]} blocks; it needs at least one "
                f"data block beyond the {self.pad_blocks} padding blocks")
        # one copy of a strided syndrome: the bit check below reduces a
        # column slice or a transpose several times slower
        sigma = np.ascontiguousarray(sigma)
        _check_bits(sigma)
        labels, path_metric, ties = self.decode_words(
            pack_symbols(sigma, 1)[None], metric)
        bits = self._label_bits.take(labels, axis=0)
        return DecodedError(frame=ErrorFrame(bits.reshape(-1)),
                            path_metric=path_metric[0], tie_count=ties[0])

    def decode_words(self, s: np.ndarray, metric: BranchMetric | None = None,
                     ) -> tuple[np.ndarray, list[int], list[int]]:
        """Core of :meth:`decode`: ((B, blocks) error labels, lists of B
        path metrics and B tie counts) of a (B, blocks) batch of unchecked
        syndrome words, as ``spec.syndrome_kernel`` packs them, through one
        candidate and one Viterbi call; one frame is a batch of one. A
        failing batch raises what :meth:`decode` raises on its first
        failing frame."""
        try:
            w = self.candidates.build_words(self._syndrome_words(s),
                                            s.shape[1])
            labels, path_metric, ties = viterbi_path(self.trellis, w, metric)
        except ValueError:
            # a frame that fails alone raises its error; when all before
            # the last decode, the last one failed, with the batch's error
            for frame in s[:-1]:
                self.decode_words(frame[None], metric)
            raise
        return labels ^ w, path_metric, ties


# unsigned int dtype of each integer width, in bytes
_UNSIGNED = {1: np.uint8, 2: np.uint16, 4: np.uint32, 8: np.uint64}


def _check_bits(sigma: np.ndarray) -> None:
    """Raise ValueError unless every syndrome entry is 0 or 1. Integer and
    bool entries are read once, as unsigned ints of their width (a negative
    one wraps above 1); others are compared with their truth values."""
    if sigma.dtype.kind in "biu":
        bad = np.maximum.reduce(sigma.view(_UNSIGNED[sigma.itemsize]),
                                axis=None) > 1
    else:
        bad = np.any(sigma != (sigma != 0))
    if bad:
        raise ValueError("syndrome entries must be 0 or 1")


class SyndromeDecoderF4(SyndromeDecoder):
    """GF(4)-path decoder; available when the code is GF(4)-linear.

    Decodes the same measured binary syndrome by repacking two syndrome bits
    per block into one GF(4) symbol and running the quaternary trellis."""

    trellis_kind = "gf4"

    def _transfer(self) -> RatMatrix:
        self.qt = quaternary_transfer(self.spec)
        self.hq = self.qt.hq
        return self.hq

    def _coset_rows(self, transfer: RatMatrix):
        return _basic_kernel_rows(transfer, polynomial_kernel_basis(
            transfer, transfer.cols - transfer.rows))

    def _block_maps(self, bundle) -> tuple[RatMatrix, RatMatrix]:
        return bundle.hb, bundle.isf.matrix

    def _syndrome_words(self, s: np.ndarray) -> np.ndarray:
        return self.qt.syndrome_table.take(s)

    def symbols_to_frame(self, symbols: np.ndarray) -> ErrorFrame:
        xz = GF4_DECODE_TO_XZ[symbols]
        return ErrorFrame.from_blocks(np.concatenate([xz[..., 0], xz[..., 1]],
                                                     axis=1))
