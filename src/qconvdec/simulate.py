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
from dataclasses import dataclass

import numpy as np

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
    """Counter-based per-frame stream: identical regardless of scheduling."""
    return np.random.default_rng([seed, frame_index])


def sample_error(params: ChannelParams, qubits: int,
                 rng: np.random.Generator) -> ErrorFrame:
    """Channel draw for the data span; padding qubits stay error-free."""
    bits = np.zeros(2 * qubits, dtype=np.uint8)
    bits[0::2] = rng.random(qubits) < params.p
    bits[1::2] = rng.random(qubits) < params.p
    return ErrorFrame(bits)


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
    x = sample_error(params, data_qubits, rng).block_bytes(decoder.n)
    frame = np.zeros((1, len(x) + decoder.pad_blocks, x.shape[1]),
                     dtype=np.uint8)
    frame[0, :len(x)] = x
    mism = int(_mismatches(decoder, frame, len(x), metric)[0])
    return mism, 1 if mism else 0


def _mismatches(decoder: SyndromeDecoder, x: np.ndarray, data_blocks: int,
                metric: BranchMetric | None) -> np.ndarray:
    """Mismatched data qubits of each frame of a batch: packed frames, one
    row of ``ErrorFrame.block_bytes`` per block in (B, blocks, bytes) ``x``
    and zero past ``data_blocks``, through one syndrome kernel call (the
    frames on its trailing axis), one ``decode_words`` call and one
    score."""
    s = decoder.spec.syndrome_kernel(x.transpose(1, 2, 0), x.shape[1]).T
    labels = decoder.decode_words(s, metric)[0]
    diff = (decoder.label_bytes.take(labels[:, :data_blocks], axis=0)
            ^ x[:, :data_blocks])
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


def _batches(metrics: list, frames: int, size: int):
    """Lists of (p row, frame index) in sweep order, at most ``size`` long,
    each within a run of consecutive rows of one metric."""
    batch = []
    for row, metric in enumerate(metrics):
        if batch and metric != metrics[batch[0][0]]:
            yield batch
            batch = []
        for idx in range(frames):
            batch.append((row, idx))
            if len(batch) == size:
                yield batch
                batch = []
    if batch:
        yield batch


def run_sweep(config: SimConfig,
              decoder: SyndromeDecoder | None = None) -> SweepResult:
    """Monte Carlo sweep over p values on the calling thread; deterministic
    given the seed (per-frame RNG streams are keyed by (seed, frame
    index)), whatever ``config.threads`` is.

    Frames are drawn in (p, index) order and decoded in batches of about
    ``BATCH_SECTIONS`` sections: a batch spans consecutive p values with the
    same branch metric (every p under Hamming, one p under Pauli), and its
    frames share one syndrome kernel call, one ``decode_words`` call and
    one score. A row's ``elapsed_ms`` is the wall time of the batches it
    takes part in, each split among its p values by their frames in it. The
    first frame, in sweep order, that fails to decode raises."""
    if decoder is None:
        decoder = SyndromeDecoder(config.spec)
    elif decoder.spec != config.spec:
        raise ValueError("the decoder was built for a different stabilizer "
                         "spec than the sweep's")
    data_qubits, n = config.frame_qubits, config.spec.n
    data_blocks = data_qubits // n
    blocks = data_blocks + decoder.pad_blocks
    params = [ChannelParams(p) for p in config.p_values]
    metrics = [metric_for(config.metric, p) for p in config.p_values]
    qubit_errors = [0] * len(params)
    frame_errors = [0] * len(params)
    seconds = [0.0] * len(params)
    for batch in _batches(metrics, config.frames,
                          max(1, BATCH_SECTIONS // blocks)):
        t0 = time.perf_counter()
        # ceil(2n / 8) bytes per block, as ``block_bytes`` packs them
        x = np.zeros((len(batch), blocks, -(-n // 4)), dtype=np.uint8)
        for frame, (row, idx) in zip(x, batch):
            frame[:data_blocks] = sample_error(
                params[row], data_qubits,
                frame_rng(config.seed, idx)).block_bytes(n)
        mism = _mismatches(decoder, x, data_blocks, metrics[batch[0][0]])
        share = (time.perf_counter() - t0) / len(batch)
        for (row, _), m in zip(batch, mism.tolist()):
            qubit_errors[row] += m
            frame_errors[row] += 1 if m else 0
            seconds[row] += share
    rows = tuple(SweepRow(
        p=p, frames=config.frames, qubit_errors=qubit_errors[row],
        qubits_total=config.frames * data_qubits,
        frame_errors=frame_errors[row], seed=config.seed,
        elapsed_ms=0 if config.stable_timing else round(1000 * seconds[row]))
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
