"""Reference channel draw, Monte Carlo frame and syndrome text: the
bit-level formulations that ``simulate.sample_error``, ``run_frame``,
``syndrome_to_text`` and ``syndrome_from_text`` replace, kept to check them
against.

The draw takes two ``random`` calls per frame, X bits then Z bits, written
into every other place of the bit vector. The frame is padded by
concatenation, measured by ``gf_convolve`` on its (blocks, 2n) block
layout, decoded through ``decode`` into a bit frame and scored qubit by
qubit on the data span. The syndrome text is built and read
as one Python integer, shifted once per bit.
"""

from __future__ import annotations

import numpy as np

from qconvdec.algebra import GF2, gf_convolve
from qconvdec.stabilizer import ErrorFrame


def sample_error(params, qubits, rng):
    """Channel draw for the data span: X bits from the first ``qubits``
    uniforms, Z bits from the next ``qubits``."""
    bits = np.zeros(2 * qubits, dtype=np.uint8)
    bits[0::2] = rng.random(qubits) < params.p
    bits[1::2] = rng.random(qubits) < params.p
    return ErrorFrame(bits)


def padded_frame(decoder, frame: ErrorFrame) -> ErrorFrame:
    """Frame extended by the decoder's all-identity padding tail."""
    tail = np.zeros(2 * decoder.pad_qubits(), dtype=np.uint8)
    return ErrorFrame(np.concatenate([frame.bits, tail]))


def run_frame(decoder, params, data_qubits, rng, metric=None):
    """(mismatched data qubits, frame error flag) for one channel draw."""
    e = sample_error(params, data_qubits, rng)
    padded = padded_frame(decoder, e)
    sigma = gf_convolve(decoder.spec.syndrome_taps,
                        padded.blocks(decoder.n), GF2)
    out = decoder.decode(sigma, metric=metric)
    diff = out.frame.bits[: 2 * data_qubits] ^ e.bits
    mism = int((diff[0::2] | diff[1::2]).sum())
    return mism, 1 if mism else 0


def syndrome_to_text(sigma: np.ndarray) -> str:
    blocks, r = sigma.shape
    bits = sigma.reshape(-1)
    nbits = bits.size
    val = 0
    for b in bits:
        val = (val << 1) | int(b)
    ndigits = max(1, (nbits + 3) // 4)
    val <<= (4 * ndigits - nbits)
    return f"{blocks}:{val:0{ndigits}x}"


def syndrome_from_hex(blocks: int, hex_s: str, streams: int) -> np.ndarray:
    """The payload part of ``syndrome_from_text``: ``blocks`` and ``hex_s``
    as the ``<blocks>:<hex>`` line gives them."""
    nbits = blocks * streams
    val = int(hex_s, 16)
    total = 4 * len(hex_s)
    if total < nbits:
        raise ValueError("hex payload shorter than blocks*(n-k) bits")
    if val & ((1 << (total - nbits)) - 1):
        raise ValueError("hex payload has nonzero bits beyond blocks*(n-k)")
    val >>= (total - nbits)
    out = np.zeros((blocks, streams), dtype=np.uint8)
    for i in range(nbits - 1, -1, -1):
        out[i // streams, i % streams] = val & 1
        val >>= 1
    return out
