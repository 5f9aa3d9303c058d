"""Independent coset-leader oracle for verification: the minimum-weight
error frame whose physical syndrome matches a measured one, found by a search
over the block-domain syndrome map alone, with no ISF, generator or decode
trellis.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Literal

import numpy as np

from .algebra import RatMatrix, convolution_matrix
from .circuits import block_parity_matrix
from .trellis import INF, BranchMetric

# frame bits the exhaustive oracle enumerates at most (one row per frame)
_EXHAUSTIVE_BITS = 20


@dataclass(frozen=True)
class OracleResult:
    weight: int
    leader: np.ndarray        # (frame_blocks, 2n) block layout
    count: int                # number of weight-minimal coset members

    @property
    def unique(self) -> bool:
        return self.count == 1


class OracleCapError(ValueError):
    pass


def coset_leader_oracle(hb: RatMatrix, syndrome: np.ndarray, frame_blocks: int,
                        metric: BranchMetric | None = None,
                        mode: Literal["auto", "dp", "exhaustive"] = "auto",
                        ) -> OracleResult:
    """Minimum-weight error frame whose physical syndrome matches ``syndrome``
    (zero-extended over blocks [0, frame_blocks + m)), searched independently
    of the ISF/generator/trellis pipeline.

    ``dp`` sweeps blocks with the raw previous-m-blocks state (a weight
    branch-and-bound over the syndrome constraints); ``exhaustive`` enumerates
    every frame and is only for tiny spans. Both caps are checked before
    any table is built.
    """
    if metric is None:
        metric = BranchMetric()
    taps = _oracle_taps(hb)
    m = taps.shape[0] - 1
    n = hb.cols
    lanes = 2 * n
    r = hb.rows
    window = frame_blocks + m
    target = np.zeros((window, r), dtype=np.uint8)
    take = min(syndrome.shape[0], window)
    target[:take] = syndrome[:take]
    if syndrome.shape[0] > window and syndrome[window:].any():
        raise ValueError("syndrome extends beyond the oracle window")

    exhaustive = mode == "exhaustive" or (
        mode == "auto" and lanes * frame_blocks <= 16)
    if exhaustive and lanes * frame_blocks > _EXHAUSTIVE_BITS:
        raise OracleCapError(
            f"exhaustive oracle limited to {_EXHAUSTIVE_BITS} frame bits")
    if not exhaustive and (lanes * m > 20 or lanes > 14):
        raise OracleCapError("search-space cap exceeded for the DP oracle")
    wtab = metric.paired_table(n)
    if exhaustive:
        return _oracle_exhaustive(taps, target, frame_blocks, lanes, wtab)
    emit, groups = _emission_data(hb)
    return _oracle_dp(target, frame_blocks, lanes, m, r, wtab, emit, groups)


@lru_cache(maxsize=16)
def _oracle_taps(hb: RatMatrix) -> np.ndarray:
    """The block-domain syndrome map of ``hb`` as a (m+1, r, 2n) tensor."""
    return block_parity_matrix(hb).coeff_tensor()


def _frame_bits(count: int, bits: int) -> np.ndarray:
    """Row v holds the ``bits`` low bits of v, least significant first."""
    v = np.arange(count, dtype=np.int64)
    out = np.empty((count, bits), dtype=np.uint8)
    for k in range(bits):
        out[:, k] = (v >> k) & 1
    return out


@lru_cache(maxsize=16)
def _emission_data(hb: RatMatrix):
    """Per-code DP tables: emit[b][e] = r-bit syndrome emitted at lag b by
    block value e, plus block values grouped by their lag-0 emission."""
    taps = _oracle_taps(hb)
    lags, r, lanes = taps.shape
    syn = (_frame_bits(1 << lanes, lanes)
           @ convolution_matrix(taps, 1, lags).T) & 1
    emit = syn.reshape(-1, lags, r).astype(np.int64) @ (1 << np.arange(r))
    tables = emit.T.tolist()
    groups: dict[int, list[int]] = {}
    for e, v in enumerate(tables[0]):
        groups.setdefault(v, []).append(e)
    return tables, {k: tuple(v) for k, v in groups.items()}


def _oracle_dp(target, frame_blocks, lanes, m, r, wtab, emit,
               groups) -> OracleResult:
    tgt = []
    for j in range(target.shape[0]):
        v = 0
        for i in range(r):
            v |= int(target[j, i]) << i
        tgt.append(v)

    smask = (1 << (lanes * m)) - 1 if m else 0
    # dp: state -> (weight, count, backpointers handled via parent array)
    dp: dict[int, tuple[int, int]] = {0: (0, 1)}
    parents: list[dict[int, tuple[int, int]]] = []
    size = 1 << lanes
    for j in range(frame_blocks):
        nd: dict[int, tuple[int, int]] = {}
        npar: dict[int, tuple[int, int]] = {}
        t = tgt[j]
        for state, (wgt, cnt) in sorted(dp.items()):
            base = 0
            for b in range(1, m + 1):
                blk = (state >> (lanes * (b - 1))) & (size - 1)
                base ^= int(emit[b][blk])
            for e in groups.get(base ^ t, ()):
                nw = wgt + int(wtab[e])
                ns = ((state << lanes) | e) & smask if m else 0
                cur = nd.get(ns)
                if cur is None or nw < cur[0]:
                    nd[ns] = (nw, cnt)
                    npar[ns] = (state, e)
                elif nw == cur[0]:
                    nd[ns] = (nw, cur[1] + cnt)
        dp = nd
        parents.append(npar)
        if not dp:
            raise ValueError("syndrome is not realizable on this span")
    # tail constraints: lags 1..m beyond the last block
    best_w, best_state, best_count = INF, None, 0
    for state, (wgt, cnt) in sorted(dp.items()):
        ok = True
        for jj in range(m):
            acc = 0
            for b in range(jj + 1, m + 1):
                blk = (state >> (lanes * (b - 1 - jj))) & ((1 << lanes) - 1)
                acc ^= int(emit[b][blk])
            if acc != tgt[frame_blocks + jj]:
                ok = False
                break
        if not ok:
            continue
        if wgt < best_w:
            best_w, best_state, best_count = wgt, state, cnt
        elif wgt == best_w:
            best_count += cnt
    if best_state is None:
        raise ValueError("syndrome is not realizable on this span")
    leader = np.zeros((frame_blocks, lanes), dtype=np.uint8)
    s = best_state
    for j in range(frame_blocks - 1, -1, -1):
        prev, e = parents[j][s]
        for kbit in range(lanes):
            leader[j, kbit] = (e >> kbit) & 1
        s = prev
    return OracleResult(weight=best_w, leader=leader, count=best_count)


def _oracle_exhaustive(taps, target, frame_blocks, lanes,
                       wtab) -> OracleResult:
    """Every frame's syndrome as one product of all 2^(lanes * blocks) frame
    bit rows with the unrolled syndrome map; the leader is the first
    minimum-weight match in enumeration order."""
    nbits = lanes * frame_blocks
    frames = _frame_bits(1 << nbits, nbits)
    window = target.shape[0]
    syn = (frames @ convolution_matrix(taps, frame_blocks, window).T) & 1
    match = np.flatnonzero((syn == target.reshape(-1)).all(axis=1))
    if not match.size:
        raise ValueError("syndrome is not realizable on this span")
    block_values = (match[:, None] >> (lanes * np.arange(frame_blocks))) \
        & ((1 << lanes) - 1)
    wgt = wtab[block_values].sum(axis=1)
    best = wgt.min()
    first = match[np.argmax(wgt == best)]
    return OracleResult(weight=int(best),
                        leader=frames[first].reshape(frame_blocks,
                                                     lanes).copy(),
                        count=int((wgt == best).sum()))
