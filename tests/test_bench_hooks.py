"""The benchmark's construction hooks still fire.

``perfbench/tracing.py`` times decoder construction by wrapping names that
the decoder module calls (``derive_bundle``, ``coset_code_rows``,
``polynomial_kernel_basis``, ...). A refactor that stops calling one of them
would only fail the traced benchmark run; this test fails first.
"""

import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_construction_steps_reported(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    workloads = importlib.import_module("workloads")
    for name, workload in workloads.WORKLOADS.items():
        steps = tracing.construction_steps(workload)
        want = {f"{metric}_ms"
                for metric in tracing.BUILD_STEPS[workload.path].values()}
        assert set(steps) == want, name
