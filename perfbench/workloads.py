"""Workload definitions, decoder set-up and the untraced measurement loops.

Every loop is closed (the next frame starts when the previous one is done),
single-process and single-threaded. Inputs are drawn from the per-frame RNG
streams ``frame_rng(seed, index)`` of the library, so a seed fixes every
frame. Each decoded frame is checked outside the timed region:

* it re-measures to its syndrome sigma,
* its cost under the workload's branch metric is at most the channel
  error's cost, and equals the path metric the decoder reports,
* on ``sweep311`` the per-p totals of ``run_sweep`` equal the totals
  recomputed from the frames, and at the default seed the totals of the
  first ``GOLDEN_CHUNKS`` chunks equal the recorded golden (``golden.json``).

Times are scaled to a reference host speed by calibrations taken around
each ``run_sweep`` chunk or decode call (``calibration.py``).
"""

from __future__ import annotations

import json
import statistics
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from calibration import SpeedScale
from qconvdec import (
    BranchMetric, ChannelParams, ErrorFrame, SimConfig, StabilizerSpec,
    SyndromeDecoder, SyndromeDecoderF4, example_311, frame_rng,
    pauli_costs_for_channel, run_sweep, sample_error, syndrome_of,
)

GOLDEN_PATH = Path(__file__).with_name("golden.json")
DEFAULT_SEED = 311
# Chunk c of a sweep uses RNG seed `seed + c * CHUNK_SEED_STRIDE`; at the
# default seed chunk 0 starts the criterion-6 stream.
CHUNK_SEED_STRIDE = 1_000_003
GOLDEN_CHUNKS = 10
# Warm-up frames come from indices no measured frame uses.
WARMUP_INDEX = 1 << 40
WARMUP_FRAMES = 3
SETUP_REPEATS = 5
# Calibration repeats around a set-up or sweep chunk (one loop is ~2 ms).
BRACKET_CALIBRATIONS = 3
SPEC = example_311()


@dataclass(frozen=True)
class Workload:
    name: str
    path: str                   # "bin" (SyndromeDecoder) or "f4"
    frame_qubits: int
    p_values: tuple[float, ...]
    metric: str                 # "hamming" or "pauli"
    sweep: bool                 # through run_sweep, else one decode per call
    frames_per_window: int      # frames per p per run_sweep chunk, or per
                                # throughput window of the per-call loop
    trace_frames: int           # frames per p driven by the traced harness
    oracle_frames: int          # frames checked against the DP oracle


WORKLOADS = {w.name: w for w in (
    # ROADMAP criterion-6 sweep: candidate and Viterbi dominate, so this is
    # where a simpler or batched pipeline must show its throughput gain.
    # Chunks are small (10 frames, ~0.15 s) so that the calibrations around
    # each one follow the host's speed changes.
    Workload("sweep311", "bin", 900, (0.001, 0.005, 0.01, 0.02, 0.05),
             "hamming", sweep=True, frames_per_window=2, trace_frames=20,
             oracle_frames=3),
    # One long frame per decode call: batching that costs single-frame
    # latency, or state that grows faster than the frame, shows here.
    Workload("stream-long311", "bin", 9000, (0.01,), "hamming", sweep=False,
             frames_per_window=10, trace_frames=6, oracle_frames=1),
    # GF(4) path with a channel-derived Pauli metric: the candidate is cheap
    # here, so a Viterbi gain shows most and a candidate gain not at all.
    Workload("f4-311", "f4", 900, (0.05,), "pauli", sweep=False,
             frames_per_window=100, trace_frames=100, oracle_frames=3),
)}


def make_decoder(path: str, spec: StabilizerSpec):
    if path == "bin":
        return SyndromeDecoder(spec)
    return SyndromeDecoderF4(spec)


def branch_metric(workload: Workload) -> BranchMetric:
    if workload.metric == "hamming":
        return BranchMetric()
    channel = ChannelParams(workload.p_values[0])
    return BranchMetric("pauli", pauli_costs_for_channel(
        channel.p_identity, channel.p_x, channel.p_y, channel.p_z))


def chunk_seed(seed: int, chunk: int) -> int:
    return seed + chunk * CHUNK_SEED_STRIDE


def sweep_config(workload: Workload, seed: int, frames: int) -> SimConfig:
    return SimConfig(spec=SPEC,
                     frame_qubits=workload.frame_qubits, frames=frames,
                     p_values=workload.p_values, seed=seed, metric="hamming",
                     threads=1)


def draw(workload: Workload, p: float, seed: int, index: int) -> ErrorFrame:
    return sample_error(ChannelParams(p), workload.frame_qubits,
                        frame_rng(seed, index))


# --- checks ------------------------------------------------------------------

def qubit_cost_table(metric: BranchMetric) -> np.ndarray:
    """Cost per qubit indexed by x + 2 z."""
    return np.array([metric.qubit_cost(x, z) for z in (0, 1) for x in (0, 1)],
                    dtype=np.int64)


def frame_cost(bits: np.ndarray, costs: np.ndarray) -> int:
    return int(costs[bits[0::2] + 2 * bits[1::2]].sum())


def frame_ok(costs: np.ndarray, error: ErrorFrame, sigma: np.ndarray,
             out) -> bool:
    """Decoded frame re-measures to sigma, its cost under the workload metric
    equals the reported path metric, and it is no more than the channel
    error's cost (the padding qubits are clean)."""
    if not np.array_equal(syndrome_of(SPEC, out.frame), sigma):
        return False
    cost = frame_cost(out.frame.bits, costs)
    return cost == out.path_metric and cost <= frame_cost(error.bits, costs)


def data_mismatches(out, error: ErrorFrame) -> int:
    """Data qubits whose decoded Pauli differs from the channel's (the
    ``run_sweep`` score)."""
    diff = out.frame.bits[: error.bits.size] ^ error.bits
    return int((diff[0::2] | diff[1::2]).sum())


@dataclass
class Window:
    """One throughput window: frames decoded, their seconds and latency
    samples (per decode call, or per frame of a sweep chunk), each as
    measured and scaled to reference speed."""
    frames: int
    busy_s: float
    busy_scaled_s: float
    latencies: list[float]
    latencies_scaled: list[float]


# --- set-up ------------------------------------------------------------------

def build_and_warm(workload: Workload, seed: int):
    """Construct the workload's decoder and decode the warm-up frames, which
    fills the lazily built Viterbi kernel and the head-repair tables."""
    decoder = make_decoder(workload.path, SPEC)
    metric = branch_metric(workload)
    for i in range(WARMUP_FRAMES):
        error = draw(workload, workload.p_values[-1], seed, WARMUP_INDEX + i)
        decoder.decode(decoder.measure(error), metric=metric)
    return decoder


def setup(workload: Workload, seed: int, repeats: int = SETUP_REPEATS):
    """(last decoder built, [(set-up seconds, speed scale)] per repeat)."""
    speed = SpeedScale(BRACKET_CALIBRATIONS)
    runs = []
    decoder = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        decoder = build_and_warm(workload, seed)
        runs.append((time.perf_counter() - t0, speed.close()))
    return decoder, runs


# --- untraced loops ----------------------------------------------------------

def check_sweep_chunk(workload: Workload, decoder, config: SimConfig,
                      result) -> tuple[int, list[dict]]:
    """(failed frames, per-p totals) of one ``run_sweep`` chunk. Its frames
    are drawn again from their RNG streams and decoded one by one, and the
    per-p totals recounted from them must equal the sweep's."""
    metric = branch_metric(workload)
    costs = qubit_cost_table(metric)
    failed = 0
    rows = []
    for row in result.rows:
        bad = qe = fe = 0
        for idx in range(config.frames):
            error = draw(workload, row.p, config.seed, idx)
            sigma = decoder.measure(error)
            try:
                out = decoder.decode(sigma, metric=metric)
            except Exception:
                bad += 1
                continue
            if not frame_ok(costs, error, sigma, out):
                bad += 1
            mism = data_mismatches(out, error)
            qe += mism
            fe += 1 if mism else 0
        if (row.qubit_errors, row.frame_errors) != (qe, fe):
            bad = row.frames               # the sweep's scoring is off
        failed += bad
        rows.append({"p": row.p, "frames": row.frames,
                     "qubit_errors": row.qubit_errors,
                     "frame_errors": row.frame_errors})
    return failed, rows


def golden_matches(rows: list[dict]) -> bool:
    return json.loads(GOLDEN_PATH.read_text())["rows"] == rows


def run_sweep_loop(workload: Workload, decoder, seed: int,
                   seconds: float) -> dict:
    """``run_sweep`` chunks until the time is up (checks included). A chunk
    is a window whose one latency sample is its time per frame, so sampling,
    measurement and scoring count as they do in ``run_sweep`` whether it
    decodes frame by frame or in batches. A chunk is scaled by the
    calibrations just before and after it."""
    frames = workload.frames_per_window
    per_chunk = frames * len(workload.p_values)
    deadline = time.perf_counter() + seconds
    windows: list[Window] = []
    golden_rows = [{"p": p, "frames": 0, "qubit_errors": 0, "frame_errors": 0}
                   for p in workload.p_values]
    attempted = failed = 0
    chunk = 0
    while chunk < GOLDEN_CHUNKS or time.perf_counter() < deadline:
        config = sweep_config(workload, chunk_seed(seed, chunk), frames)
        speed = SpeedScale(BRACKET_CALIBRATIONS)
        attempted += per_chunk
        chunk += 1
        t0 = time.perf_counter()
        try:
            result = run_sweep(config, decoder)
        except Exception:              # a failed decode fails its chunk
            failed += per_chunk
            continue
        busy = time.perf_counter() - t0
        busy_scaled = busy * speed.close()
        windows.append(Window(per_chunk, busy, busy_scaled, [busy / per_chunk],
                              [busy_scaled / per_chunk]))
        bad, rows = check_sweep_chunk(workload, decoder, config, result)
        failed += bad
        if chunk <= GOLDEN_CHUNKS:
            for total, row in zip(golden_rows, rows):
                for key in ("frames", "qubit_errors", "frame_errors"):
                    total[key] += row[key]
    return {"attempted": attempted, "failed": failed, "windows": windows,
            "golden_rows": golden_rows,
            "golden_ok": (golden_matches(golden_rows)
                          if seed == DEFAULT_SEED else None)}


def run_call_loop(workload: Workload, decoder, seed: int,
                  seconds: float) -> dict:
    """One decode call per frame until the time is up; a window is
    ``frames_per_window`` decoded frames and counts decode time only. Each
    frame is scaled by the calibrations just before and after it."""
    metric = branch_metric(workload)
    costs = qubit_cost_table(metric)
    p = workload.p_values[0]
    speed = SpeedScale(BRACKET_CALIBRATIONS)
    deadline = time.perf_counter() + seconds
    windows: list[Window] = []
    latencies: list[float] = []
    scaled: list[float] = []
    attempted = failed = 0
    while attempted == 0 or time.perf_counter() < deadline:
        error = draw(workload, p, seed, attempted)
        sigma = decoder.measure(error)
        attempted += 1
        t0 = time.perf_counter()
        try:
            out = decoder.decode(sigma, metric=metric)
        except Exception:              # counted, and the loop goes on
            failed += 1
            continue
        latencies.append(time.perf_counter() - t0)
        scaled.append(latencies[-1] * speed.close())
        if not frame_ok(costs, error, sigma, out):
            failed += 1
        if len(latencies) == workload.frames_per_window:
            windows.append(Window(len(latencies), sum(latencies), sum(scaled),
                                  latencies, scaled))
            latencies, scaled = [], []
    if latencies and not windows:
        windows.append(Window(len(latencies), sum(latencies), sum(scaled),
                              latencies, scaled))
    return {"attempted": attempted, "failed": failed, "golden_ok": None,
            "windows": windows}


def summarize(windows: list[Window], setup_runs: list, scaled: bool) -> dict:
    """End-to-end metrics: medians over windows and set-ups, latency
    percentiles over the windows' latency samples; at the reference speed
    when ``scaled``."""
    fps = [w.frames / (w.busy_scaled_s if scaled else w.busy_s)
           for w in windows]
    lat_ms = [1000 * t for w in windows
              for t in (w.latencies_scaled if scaled else w.latencies)]
    deciles = (statistics.quantiles(lat_ms, n=10) if len(lat_ms) > 1
               else lat_ms * 9)
    return {
        "frames_per_s": statistics.median(fps),
        "frame_ms_p50": statistics.median(lat_ms),
        "frame_ms_p90": deciles[8],
        "setup_s": statistics.median(s * (scale if scaled else 1.0)
                                     for s, scale in setup_runs),
    }


def measure(workload: Workload, seed: int, seconds: float) -> dict:
    decoder, setup_runs = setup(workload, seed)
    loop = run_sweep_loop if workload.sweep else run_call_loop
    out = loop(workload, decoder, seed, seconds)
    windows = out.pop("windows")
    out["windows"] = len(windows)
    out["latency_samples"] = sum(len(w.latencies) for w in windows)
    if not windows:
        # Every frame failed, so there is nothing to time: the run reports
        # zero rates and latencies, and is not correct.
        out["failed"] = out["attempted"]
        windows = [Window(0, 1.0, 1.0, [0.0], [0.0])]
    out["metrics"] = summarize(windows, setup_runs, scaled=True)
    out["unscaled"] = summarize(windows, setup_runs, scaled=False)
    out["speed_scale_median"] = statistics.median(
        w.busy_scaled_s / w.busy_s for w in windows)
    out["setup_samples"] = len(setup_runs)
    return out
