"""Reference Viterbi decoder: the per-section formulation that
``trellis.viterbi_decode`` replaces, kept to check its forward passes and
its traceback against it.

It runs on the (state, input) tables of ``reference_trellis``, sorted here
by (next state, input, state): the documented tie-break order. Every
section gathers every branch's cost, takes the arg-minimum per next state,
counts the co-optimal branches and stores its survivor row before the next
section starts; the traceback indexes the int64 survivor array one numpy
scalar at a time.
"""

from __future__ import annotations

import numpy as np

from qconvdec.trellis import (
    INF, BranchMetric, DecodeResult, TrellisError, pack_sections,
    unpack_sections,
)

from reference_trellis import ReferenceTrellis


def sorted_branches(trellis: ReferenceTrellis) -> tuple[np.ndarray, ...]:
    """(from state, label) of every branch as (next state, per-state) rows,
    each row in (input, state) order."""
    ns = trellis.next_state.reshape(-1)
    nstates, ninputs = trellis.num_states, trellis.num_inputs
    st = np.repeat(np.arange(nstates, dtype=np.int64), ninputs)
    ui = np.tile(np.arange(ninputs, dtype=np.int64), nstates)
    order = np.lexsort((st, ui, ns))
    # a deterministic trellis enters every state on num_inputs branches
    assert np.array_equal(ns[order], np.repeat(np.arange(nstates), ninputs))
    return (st[order].reshape(nstates, ninputs),
            trellis.label.reshape(-1)[order].reshape(nstates, ninputs))


def viterbi_decode(trellis: ReferenceTrellis, candidate: np.ndarray,
                   metric: BranchMetric | None = None) -> DecodeResult:
    """Minimum-metric valid codeword for a candidate frame; the error pattern
    is their symbol-wise difference (XOR in characteristic 2).

    The path starts and ends in the zero state (the padded tail gives the
    trellis room to merge back). Ties prefer the smaller most recent input
    symbol at each merge, then the smaller predecessor state; ``tie_count``
    totals the co-optimal branches dropped at merges along the way.
    """
    if metric is None:
        metric = BranchMetric()
    if candidate.ndim != 2 or candidate.shape[1] != trellis.out_symbols:
        raise TrellisError(
            f"candidate must be (sections, {trellis.out_symbols})")
    cost_of = metric.xor_table(trellis)
    w = pack_sections(candidate, trellis)
    from_state, label = sorted_branches(trellis)
    nstates = trellis.num_states
    metric_now = np.full(nstates, INF, dtype=np.int64)
    metric_now[0] = 0
    choice = np.zeros((len(w), nstates), dtype=np.int64)
    ties = 0
    for j, wj in enumerate(w):
        by_state = metric_now[from_state] + cost_of[label ^ wj]
        arg = by_state.argmin(axis=1)
        metric_now = by_state[np.arange(nstates), arg]
        reached = metric_now < INF
        ties += int(((by_state == metric_now[:, None])
                     & reached[:, None]).sum()) - int(reached.sum())
        choice[j] = arg

    if metric_now[0] >= INF:
        raise TrellisError("no zero-terminated path fits the frame")
    path_metric = int(metric_now[0])
    sections = len(w)
    code_vals = [0] * sections
    s = 0
    for j in range(sections - 1, -1, -1):
        b = int(choice[j, s])
        code_vals[j] = int(label[s, b])
        s = int(from_state[s, b])
    codeword = unpack_sections(code_vals, trellis)
    error = codeword ^ candidate.astype(np.uint8)
    return DecodeResult(codeword=codeword, error=error,
                        path_metric=path_metric, tie_count=ties)
