"""Pauli channel sampling and the Monte Carlo frame-error experiment.

The channel flips each qubit's X and Z bit independently with probability p,
i.e. Pauli errors I, X, Z, Y occur with probabilities (1-p)^2, p-p^2, p-p^2
and p^2. Frames are decoded over the padded span and scored on the data
qubits only (the known-clean padding is overhead, excluded from the error
rate denominator).
"""

from __future__ import annotations

import re
import time
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .algebra import pack_slices
from .decoder import SyndromeDecoder
from .stabilizer import ErrorFrame, StabilizerSpec
from .trellis import BranchMetric, pauli_costs_for_channel

CSV_SCHEMA = "qconvdec-sim-csv v1"
CSV_HEADER = ("p,frames,qubit_errors,qubits_total,qber,"
              "frame_errors,fer,seed,elapsed_ms")
# largest accepted ``SimConfig.threads``
MAX_THREADS = 64
# sections (frame blocks) that ``run_sweep`` decodes per batch of frames
BATCH_SECTIONS = 1 << 15
METRIC_MODES = ("hamming", "pauli")
# qubits with a non-identity Pauli in each byte of interleaved (x, z) bits
_BYTE_QUBITS = np.bitwise_count((np.arange(256) | np.arange(256) >> 1)
                                & 0x55)


@dataclass(frozen=True)
class ChannelParams:
    """Bit-flip probability p per binary component, 0 <= p < 0.5."""

    p: float

    def __post_init__(self):
        if not (0.0 <= self.p < 0.5):
            raise ValueError("flip probability must be in [0, 0.5)")

    @property
    def p_identity(self) -> float:
        return (1.0 - self.p) ** 2

    @property
    def p_x(self) -> float:
        return self.p * (1.0 - self.p)

    @property
    def p_z(self) -> float:
        return self.p * (1.0 - self.p)

    @property
    def p_y(self) -> float:
        return self.p ** 2


def frame_rng(seed: int, frame_index: int) -> np.random.Generator:
    """Counter-based per-frame stream: identical regardless of scheduling.
    It is ``default_rng([seed, frame_index])``. Two ints in [0, 2^32) are
    that list's two entropy words as they stand, so they seed the same
    stream from a uint32 array without the list's coercion; any other pair
    goes through ``default_rng``, which raises its errors."""
    if (type(seed) is int and type(frame_index) is int
            and 0 <= seed < 1 << 32 and 0 <= frame_index < 1 << 32):
        return np.random.Generator(np.random.PCG64(np.random.SeedSequence(
            np.array([seed, frame_index], dtype=np.uint32))))
    return np.random.default_rng([seed, frame_index])


def _channel_flips(p: Sequence[float], qubits: int,
                   rngs: Sequence[np.random.Generator]) -> np.ndarray:
    """(len(p) · len(rngs), qubits, 2) X and Z flips over ``qubits`` qubits,
    as uint8, p-major: frame r · len(rngs) + i flips each bit with
    probability ``p[r]``, its X bits from the first ``qubits`` uniforms of
    ``rngs[i]`` and its Z bits from the next ``qubits``. Each stream is
    drawn once, one ``random`` call (the same stream as two calls of
    ``qubits``), and every p compares against the same uniforms, so a
    frame's flips at a lower p are a subset of its flips at a higher p."""
    uniforms = np.empty((len(rngs), 2, qubits))
    for row, rng in zip(uniforms, rngs):
        rng.random(out=row)
    flips = np.empty((len(p), len(rngs), qubits, 2), dtype=np.uint8)
    np.less(uniforms, np.asarray(p, dtype=float)[:, None, None, None],
            out=flips.transpose(0, 1, 3, 2))
    return flips.reshape(-1, qubits, 2)


def sample_blocks(p: Sequence[float], qubits: int,
                  rngs: Sequence[np.random.Generator], n: int) -> np.ndarray:
    """(len(p) · len(rngs), blocks, ceil(2n / 8)) bytes of the p-major grid
    of channel draws over ``qubits`` qubits: frame r · len(rngs) + i at
    flip probability ``p[r]`` from ``rngs[i]`` as :func:`sample_error`
    draws it, one row of ``ErrorFrame.block_bytes`` per block of n qubits,
    packed in one call for the grid."""
    flips = _channel_flips(p, qubits, rngs)
    return pack_slices(flips.reshape(-1, 2 * n), 1).reshape(
        len(flips), qubits // n, -1)


def sample_error(params: ChannelParams, qubits: int,
                 rng: np.random.Generator) -> ErrorFrame:
    """Channel draw for the data span, a batch of one of
    :func:`_channel_flips`; padding qubits stay error-free."""
    return ErrorFrame(_channel_flips([params.p], qubits, [rng]).reshape(-1))


@dataclass(frozen=True)
class SimConfig:
    spec: StabilizerSpec
    frame_qubits: int = 900
    frames: int = 10000
    p_values: tuple[float, ...] = (0.001, 0.005, 0.01, 0.02, 0.05)
    seed: int = 20100715
    metric: str = "hamming"           # or "pauli"
    threads: int = 1                  # range-checked only
    stable_timing: bool = False

    def __post_init__(self):
        if self.frame_qubits < self.spec.n:
            raise ValueError("frame_qubits must be at least one block (n)")
        if self.frame_qubits % self.spec.n:
            raise ValueError("frame_qubits must be divisible by n")
        if self.frames < 1:
            raise ValueError("need at least one frame")
        if not self.p_values:
            raise ValueError("need at least one p value")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        if not 1 <= self.threads <= MAX_THREADS:
            raise ValueError(f"threads must be in [1, {MAX_THREADS}], "
                             f"got {self.threads}")
        _check_metric_mode(self.metric)
        for p in self.p_values:
            ChannelParams(p)


@dataclass(frozen=True)
class SweepRow:
    p: float
    frames: int
    qubit_errors: int
    qubits_total: int
    frame_errors: int
    seed: int
    elapsed_ms: int

    @property
    def qber(self) -> float:
        return self.qubit_errors / self.qubits_total

    @property
    def fer(self) -> float:
        return self.frame_errors / self.frames

    def csv_line(self) -> str:
        return (f"{self.p!r},{self.frames},{self.qubit_errors},"
                f"{self.qubits_total},{self.qber!r},{self.frame_errors},"
                f"{self.fer!r},{self.seed},{self.elapsed_ms}")


@dataclass(frozen=True)
class SweepResult:
    rows: tuple[SweepRow, ...]
    data_qubits: int
    padded_qubits: int
    logical_qubits: int

    @property
    def rate_info(self) -> str:
        return (f"rate {self.logical_qubits}/{self.padded_qubits} "
                f"({self.data_qubits} data + "
                f"{self.padded_qubits - self.data_qubits} padding qubits)")

    def csv_text(self) -> str:
        lines = [f"# {CSV_SCHEMA}", CSV_HEADER]
        lines += [r.csv_line() for r in self.rows]
        return "\n".join(lines) + "\n"


def run_frame(decoder: SyndromeDecoder, params: ChannelParams,
              data_qubits: int, rng: np.random.Generator,
              metric: BranchMetric | None = None) -> tuple[int, int]:
    """(mismatched data qubits, frame error flag) for one channel draw: a
    batch of one frame of :func:`run_sweep`."""
    mism = int(_mismatches(decoder, sample_blocks(
        [params.p], data_qubits, [rng], decoder.n), metric)[0])
    return mism, 1 if mism else 0


def _mismatches(decoder: SyndromeDecoder, x: np.ndarray,
                metric: BranchMetric | None) -> np.ndarray:
    """Mismatched data qubits of each frame of a batch of packed data
    frames, (B, data blocks, bytes) ``x`` as :func:`sample_blocks` gives
    them: padded with clean blocks, measured in one syndrome kernel call
    (the frames on its trailing axis), decoded in one ``decode_words`` call
    and scored at once."""
    frames, data_blocks, width = x.shape
    padded = np.zeros((frames, data_blocks + decoder.pad_blocks, width),
                      dtype=np.uint8)
    padded[:, :data_blocks] = x
    s = decoder.spec.syndrome_kernel(padded.transpose(1, 2, 0),
                                     padded.shape[1]).T
    labels = decoder.decode_words(s, metric)[0]
    diff = decoder.label_bytes.take(labels[:, :data_blocks], axis=0) ^ x
    return _BYTE_QUBITS.take(diff).sum(axis=(1, 2))


def _check_metric_mode(mode: str) -> None:
    if mode not in METRIC_MODES:
        raise ValueError(f"unknown metric mode {mode!r}")


def metric_for(config_metric: str, p: float) -> BranchMetric | None:
    """None for Hamming, or the quantized channel likelihoods at p."""
    _check_metric_mode(config_metric)
    if config_metric == "hamming":
        return None
    ch = ChannelParams(p)
    return BranchMetric("pauli", pauli_costs_for_channel(
        ch.p_identity, ch.p_x, ch.p_y, ch.p_z))


def run_sweep(config: SimConfig,
              decoder: SyndromeDecoder | None = None) -> SweepResult:
    """Monte Carlo sweep over p values on the calling thread; deterministic
    given the seed (per-frame RNG streams are keyed by (seed, frame
    index)), whatever ``config.threads`` is.

    A batch is a range of frame indices across every p row, about
    ``BATCH_SECTIONS`` sections. Each index of it seeds one stream and
    draws it once: every p row compares against the same uniforms
    (:func:`sample_blocks`), so a frame's flips at a lower p are a subset
    of its flips at a higher p. Each run of consecutive rows with the same
    branch metric (every row under Hamming, one p under Pauli) is one
    syndrome kernel call, one ``decode_words`` call and one score. A row's
    ``elapsed_ms`` is the wall time of the batches, each split equally
    among the rows, which have the same frames in it. The first frame to
    fail to decode raises, in (index range, row, index) order."""
    if decoder is None:
        decoder = SyndromeDecoder(config.spec)
    elif decoder.spec != config.spec:
        raise ValueError("the decoder was built for a different stabilizer "
                         "spec than the sweep's")
    data_qubits, n = config.frame_qubits, config.spec.n
    data_blocks = data_qubits // n
    metrics = [metric_for(config.metric, p) for p in config.p_values]
    # where each run of rows with one metric starts, and the end
    runs = [row for row in range(len(metrics))
            if row == 0 or metrics[row] != metrics[row - 1]] + [len(metrics)]
    size = max(1, BATCH_SECTIONS // (data_blocks + decoder.pad_blocks)
               // len(metrics))
    qubit_errors = np.zeros(len(metrics), dtype=np.int64)
    frame_errors = np.zeros(len(metrics), dtype=np.int64)
    seconds = 0.0
    for start in range(0, config.frames, size):
        t0 = time.perf_counter()
        indices = range(start, min(start + size, config.frames))
        x = sample_blocks(config.p_values, data_qubits,
                          [frame_rng(config.seed, idx) for idx in indices], n)
        mism = np.concatenate([
            _mismatches(decoder, x[a * len(indices):b * len(indices)],
                        metrics[a])
            for a, b in zip(runs, runs[1:])]).reshape(len(metrics), -1)
        qubit_errors += mism.sum(axis=1, dtype=np.int64)
        frame_errors += np.count_nonzero(mism, axis=1)
        seconds += (time.perf_counter() - t0) / len(metrics)
    rows = tuple(SweepRow(
        p=p, frames=config.frames, qubit_errors=int(qubit_errors[row]),
        qubits_total=config.frames * data_qubits,
        frame_errors=int(frame_errors[row]), seed=config.seed,
        elapsed_ms=0 if config.stable_timing else round(1000 * seconds))
        for row, p in enumerate(config.p_values))
    return SweepResult(
        rows=rows,
        data_qubits=data_qubits,
        padded_qubits=data_qubits + decoder.pad_qubits(),
        logical_qubits=config.spec.k * data_blocks,
    )


# --- syndrome file helpers (CLI `decode` input) ------------------------------

def syndrome_to_text(sigma: np.ndarray) -> str:
    """``<blocks>:<hex>`` with bits packed block-major, stream-minor,
    most significant bit first."""
    blocks, r = sigma.shape
    ndigits = max(1, -(-sigma.size // 4))
    digits = np.packbits(sigma.reshape(-1).astype(np.uint8)).tobytes().hex()
    return f"{blocks}:{digits[:ndigits].ljust(ndigits, '0')}"


_SYNDROME_LINE = re.compile(r"([0-9]+):([0-9a-fA-F]+)")


def syndrome_from_text(text: str, streams: int) -> np.ndarray:
    """Inverse of :func:`syndrome_to_text`: one ``<blocks>:<hex>`` line of
    decimal digits and hex digits only (no sign, ``0x`` or ``_``); ``#``
    lines are comments."""
    body = [ln.strip() for ln in text.splitlines()
            if ln.strip() and not ln.lstrip().startswith("#")]
    line = _SYNDROME_LINE.fullmatch(body[0]) if len(body) == 1 else None
    if line is None:
        raise ValueError("syndrome file needs one '<blocks>:<hex>' line of "
                         "decimal blocks and hex digits")
    blocks_s, hex_s = line.groups()
    blocks = int(blocks_s)
    nbits = blocks * streams
    if 4 * len(hex_s) < nbits:
        raise ValueError("hex payload shorter than blocks*(n-k) bits")
    bits = np.unpackbits(np.frombuffer(
        bytes.fromhex(hex_s + "0" * (len(hex_s) % 2)), dtype=np.uint8))
    if bits[nbits:].any():
        raise ValueError("hex payload has nonzero bits beyond blocks*(n-k)")
    return bits[:nbits].reshape(blocks, streams)
