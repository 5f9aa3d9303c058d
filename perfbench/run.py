"""qconvdec decode benchmark.

    python3 perfbench/run.py --workload sweep311 --seed 311 \
        --seconds 30 --trace 0

Run from the repository root; the library is imported from ``src/``. One
process, one thread, closed loop. With ``--trace 0`` the run reports the
end-to-end metrics declared in ``BENCHMARK.json``:

* ``frames_per_s``: median over measurement windows of decoded frames per
  second (a window is one ``run_sweep`` chunk on ``sweep311``, whose time
  includes sampling and scoring; elsewhere a run of decode calls);
* ``frame_ms_p50`` / ``frame_ms_p90``: percentiles of the per-frame
  latency: of each decode call on the workloads that decode one frame per
  call, and of each ``run_sweep`` chunk's time per frame on ``sweep311``
  (the same quantity whether ``run_sweep`` decodes frame by frame or in
  batches);
* ``setup_s``: median over repeats of decoder construction plus warm-up;
* ``peak_rss_mb``: peak resident memory of the process.

The host's speed drifts by up to 2x over minutes, so every time is scaled to
a reference speed measured by a calibration loop that does not use the
library (see ``calibration.py``); the unscaled figures are in the
report. With ``--trace 1`` a traced run over the same frames reports the
per-layer metrics, scaled alike, and writes its spans under
``.perfbench_out/``.
Every decoded frame is checked; the last line of standard output is the
JSON result, and the line before it a JSON report with the environment,
sample counts and sweep totals.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
THREADS_ENV = "QCONVDEC_THREADS"
UNCONTROLLED = ("CPU frequency scaling and co-tenant load on the host are not "
                "controlled; times are medians over many windows of one run, "
                "scaled to a reference speed by a calibration loop")


def parse_args(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=311)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    if not args.seconds > 0:
        ap.error("--seconds must be positive")
    return args


def declared_metrics(trace: int) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def environment(numpy_version: str) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "threads": 1,
        f"{THREADS_ENV} cleared": True,
        "uncontrolled": UNCONTROLLED,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "qconvdec").is_dir():
        print(f"error: no qconvdec sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    os.environ.pop(THREADS_ENV, None)
    sys.path.insert(0, str(ROOT / "src"))
    import numpy
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    declared = declared_metrics(args.trace)
    workload = workloads.WORKLOADS[args.workload]
    report = {"workload": workload.name, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "environment": environment(numpy.__version__)}
    if args.trace:
        import tracing
        out = tracing.measure(workload, args.seed, args.seconds,
                              ROOT / ".perfbench_out")
        values = out["metrics"]
        correct = out["failed"] == 0    # counts harness and oracle mismatches
        report.update(rounds=out["rounds"], spans_file=out["spans_file"])
    else:
        out = workloads.measure(workload, args.seed, args.seconds)
        values = out["metrics"]
        values["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF)
                                 .ru_maxrss / 1024)
        correct = out["failed"] == 0 and out["golden_ok"] is not False
        report.update({key: out.get(key) for key in (
            "unscaled", "speed_scale_median", "windows", "latency_samples",
            "setup_samples", "golden_ok", "golden_rows")})
    missing = set(declared) - set(values)
    extra = set(values) - set(declared)
    if missing or extra:
        raise RuntimeError(f"metrics differ from BENCHMARK.json: missing "
                           f"{sorted(missing)}, undeclared {sorted(extra)}")
    if not all(math.isfinite(v) for v in values.values()):
        raise RuntimeError(f"non-finite metric in {values}")
    report["attempted"], report["failed"] = out["attempted"], out["failed"]
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": bool(correct),
        "attempted": int(out["attempted"]),
        "failed": int(out["failed"]),
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in declared.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
