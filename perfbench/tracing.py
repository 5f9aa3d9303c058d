"""Traced run: per-layer time and counts for one workload.

The harness drives the workload's own frames through the public layer calls
that ``run_frame`` and ``decode`` are made of, with a span around each call:

    frame
      simulate.sample      sample_error
      stabilizer.syndrome  decoder.measure
      decoder.wrap         GF(4) syndrome remap (f4 path only)
      circuits.candidate   decoder.candidates.build
        circuits.repair    candidates.repair_frame, wrapped from outside
      trellis.viterbi      viterbi_decode
      decoder.wrap         result to ErrorFrame / DecodedError
      simulate.score       data-qubit mismatches
    decoder.decode         the real decode call, outside the frame span; its
                           result must equal the harness's, frame for frame

Untraced and traced passes over the same frames alternate in rounds, so the
tracing overhead is measured under the same machine load; a calibration
after each round gives the speed scale applied to every time. Decoder
construction is traced by wrapping the derivation steps the decoder module
calls, and every code of the test suite is built to time its set-up.
"""

from __future__ import annotations

import json
import statistics
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

import qconvdec.decoder as decoder_module
from qconvdec import (
    DecodedError, ErrorFrame, StabilizerSpec, binary_transfer,
    coset_leader_oracle, example_311, run_sweep, viterbi_decode,
)

import workloads as wl
from calibration import SpeedScale

BUILD_REPEATS = 3

# The five codes of the test suite; the f4 path exists where the code is
# GF(4)-linear.
CODES = {
    "311": (example_311(), ("bin", "f4")),
    "211": (StabilizerSpec(n=2, k=1, m=1, generators=("IXXI",)), ("bin",)),
    "421": (StabilizerSpec(n=4, k=2, m=1,
                           generators=("YZIYYXYZ", "YXIIXZXZ")), ("bin",)),
    "312": (StabilizerSpec(n=3, k=1, m=2,
                           generators=("IIZXXIZYZ", "IIZZZXZIZ")), ("bin",)),
    "511": (StabilizerSpec(n=5, k=1, m=1, generators=(
        "IIIIIYXIYZ", "IIIIIXZIXY", "YYZYXYIXIZ", "XXYXZXIZIY")),
        ("bin", "f4")),
}

# Construction steps the decoder module calls, by path, and the metric each
# one feeds.
BUILD_STEPS = {
    "bin": {"check_symplectic": "stabilizer.transfer",
            "binary_transfer": "stabilizer.transfer",
            "derive_bundle": "circuits.derive",
            "coset_code_rows": "circuits.coset_rows",
            "build_trellis": "trellis.build"},
    "f4": {"check_symplectic": "stabilizer.transfer",
           "quaternary_transfer": "stabilizer.transfer",
           "derive_bundle": "circuits.derive",
           "polynomial_kernel_basis": "circuits.coset_rows",
           "build_trellis": "trellis.build"},
}

FRAME_LAYERS = ("simulate.sample", "stabilizer.syndrome", "circuits.candidate",
                "circuits.repair", "trellis.viterbi", "decoder.wrap",
                "simulate.score")


class Tracer:
    """In-memory spans: [name, frame id, parent index, start ns, end ns]."""

    def __init__(self):
        self.spans: list[list] = []
        self.frame = -1
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else -1
        rec = [name, self.frame, parent, time.perf_counter_ns(), 0]
        self.spans.append(rec)
        self._stack.append(len(self.spans) - 1)
        try:
            yield
        finally:
            rec[4] = time.perf_counter_ns()
            self._stack.pop()

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return traced

    def totals(self, root: str | None = None) -> tuple[dict, dict, dict]:
        """(inclusive ns, self ns, count) per span name, over the trees whose
        root span is named ``root`` (all spans if None)."""
        roots: list[str] = []
        child: dict[int, int] = {}
        for name, _, parent, t0, t1 in self.spans:
            roots.append(name if parent < 0 else roots[parent])
            if parent >= 0:
                child[parent] = child.get(parent, 0) + (t1 - t0)
        incl: dict[str, int] = {}
        own: dict[str, int] = {}
        count: dict[str, int] = {}
        for i, (name, _, _, t0, t1) in enumerate(self.spans):
            if root is not None and roots[i] != root:
                continue
            incl[name] = incl.get(name, 0) + (t1 - t0)
            own[name] = own.get(name, 0) + (t1 - t0) - child.get(i, 0)
            count[name] = count.get(name, 0) + 1
        return incl, own, count


@contextmanager
def patched(obj, wrappers: dict):
    """Temporarily replace attributes of ``obj``; restored on exit."""
    saved = {}
    try:
        for name, wrapper in wrappers.items():
            saved[name] = getattr(obj, name)
            setattr(obj, name, wrapper(saved[name]))
        yield
    finally:
        for name, original in saved.items():
            setattr(obj, name, original)


# --- construction ------------------------------------------------------------

def build_times() -> dict:
    """Median constructor time per code and path, in ms."""
    out = {}
    for code, (spec, paths) in CODES.items():
        for path in paths:
            times = []
            for _ in range(BUILD_REPEATS):
                t0 = time.perf_counter()
                wl.make_decoder(path, spec)
                times.append(time.perf_counter() - t0)
            out[f"decoder.build_ms.{code}.{path}"] = 1000 * statistics.median(
                times)
    return out


def construction_steps(workload: wl.Workload) -> dict:
    """Median ms per construction step on the workload's decoder path."""
    steps = BUILD_STEPS[workload.path]
    per_rep = []
    for _ in range(BUILD_REPEATS):
        tracer = Tracer()
        wrappers = {name: (lambda fn, m=metric: tracer.wrap(m, fn))
                    for name, metric in steps.items()}
        with patched(decoder_module, wrappers):
            wl.make_decoder(workload.path, wl.SPEC)
        incl, _, _ = tracer.totals()
        missing = set(steps.values()) - set(incl)
        if missing:
            raise RuntimeError(f"construction never called {sorted(missing)}")
        per_rep.append(incl)
    return {f"{m}_ms": statistics.median(rep[m] for rep in per_rep) / 1e6
            for m in set(steps.values())}


# --- frames ------------------------------------------------------------------

def frame_set(workload: wl.Workload,
              seed: int) -> list[tuple[float, int, int]]:
    """(p, RNG seed, frame index) of the frames the untraced run starts
    with: chunk 0 of the sweep, or the first frames of the call loop."""
    n = workload.trace_frames
    if workload.sweep:
        s = wl.chunk_seed(seed, 0)
        return [(p, s, i) for p in workload.p_values for i in range(n)]
    return [(workload.p_values[0], seed, i) for i in range(n)]


def untraced_pass(workload: wl.Workload, decoder, seed: int,
                  frames: list) -> float:
    """Seconds for the frames through the workload's untraced pipeline."""
    metric = wl.branch_metric(workload)
    t0 = time.perf_counter()
    try:      # a frame that raises here fails in the traced pass as well
        if workload.sweep:
            run_sweep(wl.sweep_config(workload, wl.chunk_seed(seed, 0),
                                      workload.trace_frames), decoder)
        else:
            for p, s, i in frames:
                error = wl.draw(workload, p, s, i)
                out = decoder.decode(decoder.measure(error), metric=metric)
                wl.data_mismatches(out, error)
    except Exception:
        pass
    return time.perf_counter() - t0


def traced_pass(workload: wl.Workload, decoder, tracer: Tracer,
                frames: list, stats: dict) -> int:
    """Drive the frames through the layer calls; returns failed frames. A
    frame whose layer calls or decode call raise is a failed frame."""
    metric = wl.branch_metric(workload)
    costs = wl.qubit_cost_table(metric)
    failed = 0
    for frame_id in frames:
        tracer.frame += 1
        try:
            error, sigma, est, out = traced_frame(workload, decoder, tracer,
                                                  metric, frame_id, stats)
        except Exception:
            failed += 1
            continue
        same = (np.array_equal(out.frame.bits, est.frame.bits)
                and (out.path_metric, out.tie_count)
                == (est.path_metric, est.tie_count))
        if not same:
            stats["harness_mismatches"] += 1
        if not (same and wl.frame_ok(costs, error, sigma, out)):
            failed += 1
    return failed


def traced_frame(workload: wl.Workload, decoder, tracer: Tracer, metric,
                 frame_id: tuple, stats: dict):
    """One frame through the traced layer calls, then through
    ``decoder.decode``: (channel error, syndrome, harness result, decode
    result)."""
    p, s, i = frame_id
    f4 = workload.path == "f4"
    trellis = decoder.trellis
    with tracer.span("frame"):
        with tracer.span("simulate.sample"):
            error = wl.draw(workload, p, s, i)
        with tracer.span("stabilizer.syndrome"):
            sigma = decoder.measure(error)
        syn = sigma
        if f4:
            with tracer.span("decoder.wrap"):
                syn = decoder.qt.binary_to_f4_syndrome(sigma)
        with tracer.span("circuits.candidate"):
            cand = decoder.candidates.build(syn, syn.shape[0])
        with tracer.span("trellis.viterbi"):
            res = viterbi_decode(trellis, cand, metric)
        with tracer.span("decoder.wrap"):
            frame = (decoder.symbols_to_frame(res.error) if f4
                     else ErrorFrame.from_blocks(res.error))
            est = DecodedError(frame=frame, path_metric=res.path_metric,
                               tie_count=res.tie_count)
        with tracer.span("simulate.score"):
            wl.data_mismatches(est, error)
    with tracer.span("decoder.decode"):
        out = decoder.decode(sigma, metric=metric)
    stats["ties"] += res.tie_count
    stats["branches"] += (cand.shape[0] * trellis.num_states
                          * trellis.num_inputs)
    return error, sigma, est, out


def oracle_check(workload: wl.Workload, decoder, frames: list) -> dict:
    """DP coset-leader oracle against the pipeline's path metric on the
    first frames at the workload's largest p."""
    metric = wl.branch_metric(workload)
    hb = binary_transfer(wl.SPEC)
    top = max(p for p, _, _ in frames)
    picked = [f for f in frames if f[0] == top][: workload.oracle_frames]
    times, mismatches = [], 0
    for p, s, i in picked:
        sigma = decoder.measure(wl.draw(workload, p, s, i))
        try:
            out = decoder.decode(sigma, metric=metric)
            t0 = time.perf_counter()
            leader = coset_leader_oracle(hb, sigma, sigma.shape[0],
                                         metric=metric, mode="dp")
            times.append(time.perf_counter() - t0)
        except Exception:              # counted as a mismatch
            mismatches += 1
            continue
        if leader.weight != out.path_metric:
            mismatches += 1
    return {"trellis.oracle_ms": 1000 * statistics.median(times or [0.0]),
            "trellis.oracle_mismatches": mismatches,
            "trellis.oracle_frames": len(picked)}


def write_spans(out_dir: Path, workload: wl.Workload, seed: int,
                tracer: Tracer) -> Path:
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"{workload.name}-seed{seed}-spans.json"
    path.write_text(json.dumps({
        "workload": workload.name, "seed": seed,
        "fields": ["name", "frame", "parent", "start_ns", "end_ns"],
        "spans": tracer.spans}))
    return path


def measure(workload: wl.Workload, seed: int, seconds: float,
            out_dir: Path) -> dict:
    """Per-layer metrics; times and rates are scaled to the reference speed
    by the median calibration of the run, as the end-to-end ones are."""
    speed = SpeedScale(wl.BRACKET_CALIBRATIONS)
    times = build_times()
    times.update(construction_steps(workload))
    decoder, _ = wl.setup(workload, seed, repeats=1)
    frames = frame_set(workload, seed)

    tracer = Tracer()
    stats = {"ties": 0, "branches": 0, "harness_mismatches": 0}
    untraced_s = 0.0
    rounds = failed = 0
    scales = [speed.close()]
    deadline = time.perf_counter() + seconds
    with patched(decoder.candidates, {
            "repair_frame": lambda fn: tracer.wrap("circuits.repair", fn)}):
        while rounds == 0 or time.perf_counter() < deadline:
            untraced_s += untraced_pass(workload, decoder, seed, frames)
            failed += traced_pass(workload, decoder, tracer, frames, stats)
            rounds += 1
            scales.append(speed.close())
    oracle = oracle_check(workload, decoder, frames)
    scale = statistics.median(scales)

    n = rounds * len(frames)
    incl, own, count = tracer.totals("frame")
    decode_ns = tracer.totals("decoder.decode")[0].get("decoder.decode", 0)
    per_frame_ms = {name: own.get(name, 0) / n / 1e6 for name in FRAME_LAYERS}
    traced_fps = n / (incl["frame"] / 1e9)
    untraced_fps = n / untraced_s
    times.update({
        "simulate.sample_ms": per_frame_ms["simulate.sample"],
        "stabilizer.syndrome_ms": per_frame_ms["stabilizer.syndrome"],
        "circuits.candidate_ms": per_frame_ms["circuits.candidate"],
        "circuits.repair_ms": per_frame_ms["circuits.repair"],
        "trellis.viterbi_ms": per_frame_ms["trellis.viterbi"],
        "trellis.ns_per_branch": (incl.get("trellis.viterbi", 0)
                                  / max(stats["branches"], 1)),
        "decoder.wrap_ms": per_frame_ms["decoder.wrap"],
        "simulate.score_ms": per_frame_ms["simulate.score"],
        "decoder.decode_ms": decode_ns / n / 1e6,
        "trace.frame_ms": incl["frame"] / n / 1e6,
        "trace.remainder_ms": own["frame"] / n / 1e6,
        "trellis.oracle_ms": oracle.pop("trellis.oracle_ms"),
    })
    metrics = {name: value * scale for name, value in times.items()}
    metrics.update({
        "trace.frames_per_s": traced_fps / scale,
        "trace.untraced_frames_per_s": untraced_fps / scale,
        "trace.overhead_pct": 100 * (untraced_fps / traced_fps - 1),
        "trace.speed_scale": scale,
        "circuits.repairs_per_frame": count.get("circuits.repair", 0) / n,
        "trellis.branches_per_frame": stats["branches"] / n,
        "trellis.ties_per_frame": stats["ties"] / n,
        "trace.frames": n,
        "trace.harness_mismatches": stats["harness_mismatches"],
        **oracle,
    })
    spans_path = write_spans(out_dir, workload, seed, tracer)
    return {"metrics": metrics,
            "attempted": n + oracle["trellis.oracle_frames"],
            "failed": failed + oracle["trellis.oracle_mismatches"],
            "rounds": rounds, "spans_file": str(spans_path)}
