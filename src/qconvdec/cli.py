"""Command-line surface: derive | decode | simulate | verify.

Exit codes: 0 success, 1 verification failure, 2 input error.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .algebra import AlgebraError
from .circuits import block_parity_matrix, block_syndrome, derive_bundle
from .decoder import SyndromeDecoder, SyndromeDecoderF4
from .simulate import SimConfig, metric_for, run_sweep, syndrome_from_text
from .stabilizer import (
    ErrorFrame, F4LinearityError, SpecError, binary_transfer, check_symplectic,
    parse_stabilizer, quaternary_transfer, syndrome_of,
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
    bundle = derive_bundle(hb)
    print(f"qcc n={spec.n} k={spec.k} m={spec.m}")
    print(_matrix_dump("H_b", hb))
    print(_matrix_dump("SF", bundle.sf.matrix))
    print(_matrix_dump("ISF", bundle.isf.matrix))
    print(f"  # input advance: {bundle.isf.input_advance} ticks")
    print(_matrix_dump("GEN", bundle.gen.matrix))
    try:
        qt = quaternary_transfer(spec)
        print(_matrix_dump("H_q", qt.hq))
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
    result = run_sweep(config)
    print(result.rate_info)
    text = result.csv_text()
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        print(f"wrote {args.out}")
    for row in result.rows:
        print(f"p={row.p!r} qber={row.qber:.3e} fer={row.fer:.3e}")
    if not args.out:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_verify(args) -> int:
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
           "" if res.ok else f"witness entry {res.witness[0]},{res.witness[1]}"
                             f" = {res.witness[2]}")
    if not res.ok:
        return EXIT_VERIFY

    hb = binary_transfer(spec)
    bundle = derive_bundle(hb)
    report("ISF left inverse identity",
           (bundle.isf.matrix @ hb.transpose()).is_identity())
    report("generator kernel identity",
           (bundle.gen.matrix @ hb.transpose()).is_zero())

    rng = np.random.default_rng(args.seed)
    decoder = SyndromeDecoder(spec, validate=False)
    S = block_parity_matrix(hb)
    ok = True
    for _ in range(args.trials):
        e = ErrorFrame((rng.random(2 * spec.n * 10) < 0.2).astype(np.uint8))
        if not np.array_equal(syndrome_of(spec, e),
                              block_syndrome(S, e.blocks(spec.n))):
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
    W = None
    for _ in range(args.trials):
        sigma = (rng.random((8, spec.n - spec.k)) < 0.3).astype(np.uint8)
        sigma[-spec.m - 1:] = 0
        W = decoder.candidates.build(sigma, 10)
        got = block_syndrome(S, W, 10 + spec.m)
        want = np.zeros_like(got)
        want[:8] = sigma
        if not np.array_equal(got, want):
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


if __name__ == "__main__":
    sys.exit(main())
