"""Reference symbol maps: the array forms of the packed maps a decode runs,
kept to check those maps and the array entries against them.

A binary syndrome is taken to the candidate's input symbols through the
decoder's packed syndrome words; a frame is read as GF(4) symbols in the
decode labeling and measured through H_q^T; GF(4) syndrome symbols go back
to binary syndrome bits through the spec's syndrome map.
"""

from __future__ import annotations

import numpy as np

from qconvdec.algebra import GF4, gf_convolve, pack_symbols, unpack_symbols
from qconvdec.stabilizer import PAULI_TO_BITS, PAULI_TO_GF4_DECODE

# per-qubit (x, z) bits -> decode symbol
XZ_TO_GF4_DECODE = np.zeros((2, 2), dtype=np.uint8)
for _pauli, _symbol in PAULI_TO_GF4_DECODE.items():
    XZ_TO_GF4_DECODE[PAULI_TO_BITS[_pauli]] = _symbol


def syndrome_symbols(decoder, sigma: np.ndarray) -> np.ndarray:
    """The symbols the candidate takes of a binary (blocks, n-k) syndrome,
    as a (blocks, symbols) array: the decoder's packed syndrome words."""
    c = decoder.candidates
    return unpack_symbols(decoder._syndrome_words(pack_symbols(sigma, 1)),
                          c.r, c.bps)


def frame_to_symbols(n: int, frame) -> np.ndarray:
    """(blocks, n) GF(4) symbols of a frame in the decode labeling."""
    blocks = frame.blocks(n)
    return XZ_TO_GF4_DECODE[blocks[:, :n], blocks[:, n:]]


def f4_syndrome(decoder, frame) -> np.ndarray:
    """GF(4) syndrome stream of a (padded) frame: symbols through H_q^T."""
    return gf_convolve(decoder.hq, frame_to_symbols(decoder.spec.n, frame),
                       GF4)


def f4_to_binary_syndrome(qt, symbols: np.ndarray) -> np.ndarray:
    """(blocks, (n-k)/2) GF(4) syndrome symbols -> (blocks, n-k) bits."""
    r = qt.f4_rows
    bits = np.zeros((symbols.shape[0], 2 * r), dtype=np.uint8)
    for j in range(r):
        bits[:, 2 * j] = symbols[:, j] & 1
        bits[:, 2 * j + 1] = symbols[:, j] >> 1
    return (bits @ qt.syndrome_map.T) % 2
