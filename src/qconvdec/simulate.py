"""Pauli channel sampling and the Monte Carlo frame-error experiment.

The channel flips each qubit's X and Z bit independently with probability p,
i.e. Pauli errors I, X, Z, Y occur with probabilities (1-p)^2, p-p^2, p-p^2
and p^2. Frames are decoded over the padded span and scored on the data
qubits only (the known-clean padding is overhead, excluded from the error
rate denominator).
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .decoder import SyndromeDecoder
from .stabilizer import ErrorFrame, StabilizerSpec
from .trellis import BranchMetric, pauli_costs_for_channel

CSV_SCHEMA = "qconvdec-sim-csv v1"
CSV_HEADER = ("p,frames,qubit_errors,qubits_total,qber,"
              "frame_errors,fer,seed,elapsed_ms")
THREADS_ENV = "QCONVDEC_THREADS"


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

    def raw_qubit_error_rate(self) -> float:
        """Probability that a qubit is hit at all: 1 - (1-p)^2."""
        return 1.0 - self.p_identity


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
    threads: int = 1
    stable_timing: bool = False

    def __post_init__(self):
        if self.frame_qubits < self.spec.n:
            raise ValueError("frame_qubits must be at least one block (n)")
        if self.frame_qubits % self.spec.n:
            raise ValueError("frame_qubits must be divisible by n")
        if self.frames < 1:
            raise ValueError("need at least one frame")

    def resolved_threads(self) -> int:
        env = os.environ.get(THREADS_ENV)
        if env:
            return max(1, int(env))
        return max(1, self.threads)


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
    """(mismatched data qubits, frame error flag) for one channel draw."""
    e = sample_error(params, data_qubits, rng)
    sigma = decoder.measure(e)
    out = decoder.decode(sigma, metric=metric)
    diff = out.frame.bits[: 2 * data_qubits] ^ e.bits
    mism = int((diff[0::2] | diff[1::2]).sum())
    return mism, 1 if mism else 0


def metric_for(config_metric: str, p: float) -> BranchMetric | None:
    """None for Hamming, or the quantized channel likelihoods at p."""
    if config_metric == "hamming":
        return None
    if config_metric == "pauli":
        ch = ChannelParams(p)
        return BranchMetric("pauli", pauli_costs_for_channel(
            ch.p_identity, ch.p_x, ch.p_y, ch.p_z))
    raise ValueError(f"unknown metric mode {config_metric!r}")


def run_sweep(config: SimConfig,
              decoder: SyndromeDecoder | None = None) -> SweepResult:
    """Monte Carlo sweep over p values; deterministic given the seed, and
    invariant under the worker thread count (per-frame RNG streams are keyed
    by (seed, frame index) and aggregation follows frame order)."""
    if decoder is None:
        decoder = SyndromeDecoder(config.spec)
    data_qubits = config.frame_qubits
    threads = config.resolved_threads()
    rows = []
    for p in config.p_values:
        params = ChannelParams(p)
        metric = metric_for(config.metric, p)
        t0 = time.perf_counter()

        def one(idx: int) -> tuple[int, int]:
            return run_frame(decoder, params, data_qubits,
                             frame_rng(config.seed, idx), metric)

        if threads > 1:
            with ThreadPoolExecutor(max_workers=threads) as pool:
                results = list(pool.map(one, range(config.frames),
                                        chunksize=16))
        else:
            results = [one(i) for i in range(config.frames)]
        qubit_errors = sum(r[0] for r in results)
        frame_errors = sum(r[1] for r in results)
        elapsed = 0 if config.stable_timing else round(
            1000 * (time.perf_counter() - t0))
        rows.append(SweepRow(
            p=p, frames=config.frames, qubit_errors=qubit_errors,
            qubits_total=config.frames * data_qubits,
            frame_errors=frame_errors, seed=config.seed, elapsed_ms=elapsed))
    blocks = data_qubits // config.spec.n
    return SweepResult(
        rows=tuple(rows),
        data_qubits=data_qubits,
        padded_qubits=data_qubits + decoder.pad_qubits(),
        logical_qubits=config.spec.k * blocks,
    )


# --- syndrome file helpers (CLI `decode` input) ------------------------------

def syndrome_to_text(sigma: np.ndarray) -> str:
    """``<blocks>:<hex>`` with bits packed block-major, stream-minor,
    most significant bit first."""
    blocks, r = sigma.shape
    bits = sigma.reshape(-1)
    nbits = bits.size
    val = 0
    for b in bits:
        val = (val << 1) | int(b)
    ndigits = max(1, (nbits + 3) // 4)
    val <<= (4 * ndigits - nbits)
    return f"{blocks}:{val:0{ndigits}x}"


def syndrome_from_text(text: str, streams: int) -> np.ndarray:
    body = [ln.strip() for ln in text.splitlines()
            if ln.strip() and not ln.lstrip().startswith("#")]
    if len(body) != 1 or ":" not in body[0]:
        raise ValueError("syndrome file needs one '<blocks>:<hex>' line")
    blocks_s, hex_s = body[0].split(":", 1)
    blocks = int(blocks_s)
    nbits = blocks * streams
    val = int(hex_s, 16)
    total = 4 * len(hex_s)
    if total < nbits:
        raise ValueError("hex payload shorter than blocks*(n-k) bits")
    val >>= (total - nbits)
    out = np.zeros((blocks, streams), dtype=np.uint8)
    for i in range(nbits - 1, -1, -1):
        out[i // streams, i % streams] = val & 1
        val >>= 1
    return out
