"""Command-line surface: derive | decode | simulate | verify.

Exit codes: 0 success, 1 verification failure, 2 input error.
"""

from __future__ import annotations

import argparse
import contextlib
import sys

import numpy as np

from .algebra import GF2, GF4, AlgebraError, RatMatrix, gf_convolve
from .circuits import (
    block_parity_matrix, derive_bundle, derive_generator,
    derive_syndrome_former, is_left_inverse,
)
from .decoder import SyndromeDecoder, SyndromeDecoderF4
from .simulate import SimConfig, metric_for, run_sweep, syndrome_from_text
from .stabilizer import (
    ErrorFrame, F4LinearityError, SpecError, binary_transfer, check_symplectic,
    parse_stabilizer, quaternary_transfer,
)

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_INPUT = 2


def _load_spec(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_stabilizer(fh.read())


def _matrix_dump(name: str, matrix) -> str:
    head = f"{name} ({matrix.rows}x{matrix.cols} over {matrix.field}):"
    return "\n".join([head] + ["  " + " | ".join(str(e) for e in row)
                               for row in matrix.entries])


def cmd_derive(args) -> int:
    spec = _load_spec(args.spec)
    hb = binary_transfer(spec)
    bundle = derive_bundle(hb, GF2)
    gen = derive_generator(hb, GF2)
    print(f"qcc n={spec.n} k={spec.k} m={spec.m}")
    print(_matrix_dump("H_b", RatMatrix.from_coeff_tensor(hb, GF2)))
    print(_matrix_dump("SF", derive_syndrome_former(hb, GF2).matrix))
    print(_matrix_dump("ISF", bundle.isf.matrix))
    print(f"  # input advance: {bundle.isf.input_advance} ticks")
    print(_matrix_dump("GEN", gen.matrix))
    try:
        qt = quaternary_transfer(spec)
        print(_matrix_dump("H_q", RatMatrix.from_coeff_tensor(qt.hq, GF4)))
    except F4LinearityError as exc:
        print(f"H_q: unavailable ({exc})")
    return EXIT_OK


def cmd_decode(args) -> int:
    spec = _load_spec(args.spec)
    with open(args.syndrome, "r", encoding="utf-8") as fh:
        sigma = syndrome_from_text(fh.read(), spec.n - spec.k)
    metric = None
    if args.p is not None:
        # at p = 0 the channel costs reach the Viterbi INF sentinel
        if not 0 < args.p < 0.5:
            raise ValueError(f"--p must be in (0, 0.5), got {args.p!r}")
        metric = metric_for("pauli", args.p)
    if args.f4:
        decoder = SyndromeDecoderF4(spec)
    else:
        decoder = SyndromeDecoder(spec)
    out = decoder.decode(sigma, metric=metric)
    print(out.frame.to_pauli())
    return EXIT_OK


def cmd_simulate(args) -> int:
    spec = _load_spec(args.spec)
    config = SimConfig(
        spec=spec,
        frame_qubits=args.frame_qubits,
        frames=args.frames,
        p_values=tuple(float(x) for x in args.p.split(",")),
        seed=args.seed,
        metric=args.metric,
        threads=args.threads,
        stable_timing=args.stable_timing,
    )
    # a bad --out path fails before the sweep, not after it
    with (open(args.out, "w", encoding="utf-8", newline="\n") if args.out
          else contextlib.nullcontext()) as fh:
        result = run_sweep(config)
        text = result.csv_text()
        if fh:
            fh.write(text)
    print(result.rate_info)
    if args.out:
        print(f"wrote {args.out}")
    for row in result.rows:
        print(f"p={row.p!r} qber={row.qber:.3e} fer={row.fer:.3e}")
    if not args.out:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_verify(args) -> int:
    if args.trials <= 0:
        raise ValueError(f"--trials must be positive, got {args.trials}")
    if args.seed < 0:
        raise ValueError(f"--seed must be non-negative, got {args.seed}")
    spec = _load_spec(args.spec)
    failures = 0

    def report(name: str, ok: bool, detail: str = ""):
        nonlocal failures
        line = f"{'PASS' if ok else 'FAIL'}  {name}"
        if detail:
            line += f"  ({detail})"
        print(line)
        if not ok:
            failures += 1

    res = check_symplectic(spec)
    report("generator commutation", res.ok,
           "" if res.ok else res.witness_text())
    if not res.ok:
        return EXIT_VERIFY

    hb = binary_transfer(spec)
    bundle = derive_bundle(hb, GF2)
    sf, gen = derive_syndrome_former(hb, GF2), derive_generator(hb, GF2)
    isf_ok = is_left_inverse(bundle.isf, hb)
    report("ISF left inverse identity", isf_ok)
    if not isf_ok:
        return EXIT_VERIFY
    # G @ H_b^T = 0: each generator row, read as a frame, has zero syndrome
    G = gen.num
    window = len(G) + 2 * spec.m + 1  # deg H_b <= 2m + 1
    report("generator kernel identity",
           not any(gf_convolve(hb, G[:, i], GF2, window).any()
                   for i in range(G.shape[1])))

    rng = np.random.default_rng(args.seed)
    decoder = SyndromeDecoder(spec)
    S = block_parity_matrix(hb)
    ok = True
    for _ in range(args.trials):
        e = ErrorFrame((rng.random(2 * spec.n * 10) < 0.2).astype(np.uint8))
        blocks = e.blocks(spec.n)
        # X bits ride the even ticks, Z bits the odd ones; the syndrome is
        # the odd phase of the streamed SF output
        ticks = np.zeros((2 * blocks.shape[0], spec.n), dtype=np.uint8)
        ticks[0::2], ticks[1::2] = blocks[:, :spec.n], blocks[:, spec.n:]
        if not np.array_equal(sf.run(ticks)[1::2],
                              gf_convolve(S, blocks, GF2)):
            ok = False
            break
    report("block syndrome matches streamed SF", ok)

    ok = True
    for _ in range(args.trials):
        e = ErrorFrame((rng.random(2 * spec.n * 8) < 0.15).astype(np.uint8))
        sigma = decoder.measure(e)
        out = decoder.decode(sigma)
        if not np.array_equal(decoder.measure_raw(out.frame), sigma):
            ok = False
            break
    report("decode syndrome consistency", ok)

    ok = True
    for _ in range(args.trials):
        # the syndrome of an error frame with a quiet tail, so realizable
        e = (rng.random((8, 2 * spec.n)) < 0.3).astype(np.uint8)
        e[-decoder.pad_blocks:] = 0
        sigma = gf_convolve(S, e, GF2, 10 + spec.m)
        W = decoder.candidates.build(sigma, 10)
        if not np.array_equal(gf_convolve(S, W, GF2, 10 + spec.m), sigma):
            ok = False
            break
    report("candidate round trip (SF of ISF output)", ok)
    return EXIT_VERIFY if failures else EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="qconvdec",
        description="syndrome decoding for quantum convolutional codes")
    sub = ap.add_subparsers(dest="command", required=True)

    d = sub.add_parser("derive", help="print derived circuits")
    d.add_argument("spec")
    d.set_defaults(func=cmd_derive)

    dec = sub.add_parser("decode", help="decode a syndrome file")
    dec.add_argument("spec")
    dec.add_argument("--syndrome", required=True,
                     help="file with one '<blocks>:<hex>' line")
    dec.add_argument("--f4", action="store_true",
                     help="use the GF(4) path when available")
    dec.add_argument("--p", type=float, default=None,
                     help="channel flip probability p in (0, 0.5): decode "
                          "with its Pauli likelihoods instead of Hamming")
    dec.set_defaults(func=cmd_decode)

    sim = sub.add_parser("simulate", help="Monte Carlo error-rate sweep")
    sim.add_argument("spec")
    sim.add_argument("--p", default="0.001,0.005,0.01,0.02,0.05",
                     help="comma-separated flip probabilities")
    sim.add_argument("--frames", type=int, default=10000)
    sim.add_argument("--frame-qubits", type=int, default=900)
    sim.add_argument("--seed", type=int, default=20100715)
    sim.add_argument("--metric", choices=["hamming", "pauli"],
                     default="hamming")
    sim.add_argument("--threads", type=int, default=1)
    sim.add_argument("--stable-timing", action="store_true",
                     help="zero the elapsed_ms column for byte-stable output")
    sim.add_argument("--out", default=None, help="CSV output path")
    sim.set_defaults(func=cmd_simulate)

    v = sub.add_parser("verify", help="run structural checks, exit 1 on failure")
    v.add_argument("spec")
    v.add_argument("--trials", type=int, default=25)
    v.add_argument("--seed", type=int, default=7)
    v.set_defaults(func=cmd_verify)
    return ap


def main(argv: list[str] | None = None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except (SpecError, AlgebraError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except MemoryError as exc:
        # an input too large to hold, such as a huge --frame-qubits
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
