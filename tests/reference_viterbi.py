"""Reference Viterbi decoder: the per-section formulation that
``trellis.viterbi_decode`` replaces, kept to check the chunked recursion
against it.

Every section gathers its branch costs, takes the arg-minimum per next state,
counts the co-optimal branches and stores its survivor row before the next
section starts; the traceback indexes the int64 survivor array one numpy
scalar at a time.
"""

from __future__ import annotations

import numpy as np

from qconvdec.trellis import (
    INF, BranchMetric, DecodeResult, Trellis, TrellisError, _kernel_for,
    pack_sections, unpack_sections,
)


def viterbi_decode(trellis: Trellis, candidate: np.ndarray,
                   metric: BranchMetric | None = None,
                   terminate: bool = True) -> DecodeResult:
    """Minimum-metric valid codeword for a candidate frame; the error pattern
    is their symbol-wise difference (XOR in characteristic 2).

    The path starts in the zero state and, with ``terminate``, must end in
    the zero state (the padded tail gives the trellis room to merge back).
    Ties prefer the smaller most recent input symbol at each merge, then the
    smaller predecessor state; ``tie_count`` totals the co-optimal branches
    dropped at merges along the way.
    """
    if metric is None:
        metric = BranchMetric()
    if candidate.ndim != 2 or candidate.shape[1] != trellis.out_symbols:
        raise TrellisError(
            f"candidate must be (sections, {trellis.out_symbols})")
    cost_of = metric.xor_table(trellis)
    w = pack_sections(candidate, trellis)
    kern = _kernel_for(trellis)
    nstates = trellis.num_states
    per = kern.per_state
    metric_now = np.full(nstates, INF, dtype=np.int64)
    metric_now[0] = 0
    choice = np.zeros((len(w), nstates), dtype=np.int64)
    ties = 0
    for j, wj in enumerate(w):
        cand = metric_now[kern.from_state] + cost_of[kern.label ^ wj]
        by_state = cand.reshape(nstates, per)
        arg = by_state.argmin(axis=1)
        metric_now = by_state[np.arange(nstates), arg]
        reached = metric_now < INF
        ties += int(((by_state == metric_now[:, None])
                     & reached[:, None]).sum()) - int(reached.sum())
        choice[j] = arg

    if terminate:
        end_state = 0
        if metric_now[0] >= INF:
            raise TrellisError("no zero-terminated path fits the frame")
    else:
        end_state = int(metric_now.argmin())
    path_metric = int(metric_now[end_state])
    sections = len(w)
    code_vals = [0] * sections
    s = end_state
    for j in range(sections - 1, -1, -1):
        idx = s * per + int(choice[j, s])
        code_vals[j] = int(kern.label[idx])
        s = int(kern.from_state[idx])
    codeword = unpack_sections(code_vals, trellis)
    error = codeword ^ candidate.astype(np.uint8)
    return DecodeResult(codeword=codeword, error=error,
                        path_metric=path_metric, tie_count=ties,
                        end_state=end_state)
