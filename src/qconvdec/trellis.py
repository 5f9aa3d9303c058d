"""Trellis construction from a polynomial generator realization, Viterbi
maximum-likelihood decoding of a candidate frame, and an independent
coset-leader oracle for verification.

Labels are packed into ints (one field symbol per bit pair on GF(4), one bit
on GF(2)); all metrics depend only on the XOR difference of packed labels, so
each Viterbi section works from one precomputed difference-cost table.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import log
from typing import Literal

import numpy as np

from .algebra import Field, RatMatrix, gf_convolve
from .circuits import TransferSystem, block_parity_matrix, block_syndrome
from .stabilizer import BITS_TO_PAULI, GF4_DECODE_TO_PAULI, PAULI_TO_BITS

INF = 1 << 60
METRIC_SCALE = 1 << 16


class TrellisError(ValueError):
    pass


@dataclass(frozen=True)
class Trellis:
    """Deterministic state graph of a feed-forward generator.

    ``next_state[s, u]`` and ``label[s, u]`` describe the branch taken from
    state s on input index u; labels pack the n output symbols bitwise.
    ``kind`` records how label bits group into qubits: "bit-paired" output
    j/j+n carry the X/Z bits of qubit j, "gf4" each symbol is one qubit,
    "bits" no qubit structure (plain classical streams).
    """

    field: Field
    num_inputs: int
    num_states: int
    out_symbols: int
    bits_per_symbol: int
    next_state: np.ndarray
    label: np.ndarray
    row_degrees: tuple[int, ...]
    kind: str = "bits"

    @property
    def label_bits(self) -> int:
        return self.out_symbols * self.bits_per_symbol

    @property
    def num_qubits_per_section(self) -> int:
        if self.kind == "bit-paired":
            return self.out_symbols // 2
        if self.kind == "gf4":
            return self.out_symbols
        raise TrellisError("trellis sections have no qubit structure")


def build_trellis(gen: TransferSystem, kind: str = "bits",
                  max_states: int = 1 << 20) -> Trellis:
    """Controller-form trellis of a polynomial generator system: the state
    holds the last deg_i input symbols of each generator row."""
    if not gen.matrix.is_polynomial():
        raise TrellisError("trellis generator must be polynomial (feed-forward)")
    field = gen.field
    q = field.order
    bps = 1 if q == 2 else 2
    rows = gen.matrix.poly_entries()
    nrows = gen.inputs
    ncols = gen.outputs
    degs = tuple(max((p.degree for p in row), default=0) if
                 any(not p.is_zero() for p in row) else 0 for row in rows)
    state_symbols = sum(degs)
    num_states = q ** state_symbols
    if num_states > max_states:
        raise TrellisError(f"state count {num_states} exceeds cap {max_states}")
    num_inputs = q ** nrows
    next_state = np.zeros((num_states, num_inputs), dtype=np.int64)
    label = np.zeros((num_states, num_inputs), dtype=np.int64)
    mul = field.mul

    # per-row symbol offsets within the packed state
    offsets = []
    off = 0
    for d in degs:
        offsets.append(off)
        off += d

    smask = q - 1
    for s in range(num_states):
        regs = []
        for i in range(nrows):
            regs.append([(s >> (bps * (offsets[i] + d))) & smask
                         for d in range(degs[i])])
        for u in range(num_inputs):
            ins = [(u >> (bps * i)) & smask for i in range(nrows)]
            out = 0
            for i in range(nrows):
                taps = [ins[i]] + regs[i]
                for d, sym in enumerate(taps):
                    if not sym:
                        continue
                    for c in range(ncols):
                        cf = rows[i][c][d]
                        if cf:
                            out ^= mul(cf, sym) << (bps * c)
            ns = 0
            for i in range(nrows):
                newreg = ([ins[i]] + regs[i])[: degs[i]]
                for d, sym in enumerate(newreg):
                    ns |= sym << (bps * (offsets[i] + d))
            next_state[s, u] = ns
            label[s, u] = out
    return Trellis(field=field, num_inputs=num_inputs, num_states=num_states,
                   out_symbols=ncols, bits_per_symbol=bps,
                   next_state=next_state, label=label, row_degrees=degs,
                   kind=kind)


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BranchMetric:
    """Branch cost model.

    ``hamming``: weight of the binary symplectic difference (one per differing
    X/Z bit, so a Y difference costs 2). Exactly ML for the channel whose X
    and Z components flip independently with equal probability.

    ``pauli``: per-qubit integer cost table indexed by the Pauli difference,
    e.g. quantized -log channel likelihoods.
    """

    mode: Literal["hamming", "pauli"] = "hamming"
    pauli_costs: tuple[int, int, int, int] | None = None  # (I, X, Y, Z)

    def qubit_cost(self, x: int, z: int) -> int:
        if self.mode == "hamming":
            return x + z
        costs = dict(zip("IXYZ", self.pauli_costs))
        return costs[BITS_TO_PAULI[(x, z)]]

    def xor_table(self, trellis: Trellis) -> np.ndarray:
        """Cost of every packed label difference."""
        size = 1 << trellis.label_bits
        out = np.zeros(size, dtype=np.int64)
        if trellis.kind == "bits":
            if self.mode != "hamming":
                raise TrellisError("pauli metric needs qubit-aligned sections")
            for v in range(size):
                out[v] = bin(v).count("1")
            return out
        nq = trellis.num_qubits_per_section
        for v in range(size):
            total = 0
            for c in range(nq):
                if trellis.kind == "bit-paired":
                    x = (v >> c) & 1
                    z = (v >> (nq + c)) & 1
                else:  # gf4: symbol c at bits [2c, 2c+1], decode labeling
                    sym = (v >> (2 * c)) & 3
                    pauli = GF4_DECODE_TO_PAULI[sym]
                    x, z = PAULI_TO_BITS[pauli]
                total += self.qubit_cost(x, z)
            out[v] = total
        return out


def pauli_costs_for_channel(p_i: float, p_x: float, p_y: float, p_z: float,
                            scale: int = METRIC_SCALE) -> tuple[int, int, int, int]:
    """Quantized -log likelihood ratios against the identity, on a fixed
    integer grid so path metrics compare exactly."""
    def cost(prob):
        if prob <= 0:
            return INF // 4
        return round(scale * log(p_i / prob))
    return (0, cost(p_x), cost(p_y), cost(p_z))


# ---------------------------------------------------------------------------
# Viterbi
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DecodeResult:
    codeword: np.ndarray      # (sections, out_symbols) field symbols
    error: np.ndarray         # candidate - codeword, same shape
    path_metric: int
    tie_count: int
    end_state: int


def pack_sections(frame: np.ndarray, trellis: Trellis) -> list[int]:
    bps = trellis.bits_per_symbol
    out = []
    for row in frame:
        v = 0
        for c, sym in enumerate(row):
            v |= int(sym) << (bps * c)
        out.append(v)
    return out


def unpack_sections(vals: list[int], trellis: Trellis) -> np.ndarray:
    bps = trellis.bits_per_symbol
    mask = (1 << bps) - 1
    out = np.zeros((len(vals), trellis.out_symbols), dtype=np.uint8)
    for j, v in enumerate(vals):
        for c in range(trellis.out_symbols):
            out[j, c] = (v >> (bps * c)) & mask
    return out


class _TrellisKernel:
    """Flattened transition arrays sorted by (next state, input, state) for
    vectorized add-compare-select with the documented tie-break."""

    def __init__(self, trellis: Trellis):
        ns = trellis.next_state.reshape(-1)
        nstates, ninputs = trellis.num_states, trellis.num_inputs
        st = np.repeat(np.arange(nstates, dtype=np.int64), ninputs)
        ui = np.tile(np.arange(ninputs, dtype=np.int64), nstates)
        order = np.lexsort((st, ui, ns))
        self.from_state = st[order]
        self.input_sym = ui[order]
        self.next_state = ns[order]
        self.label = trellis.label.reshape(-1)[order]
        self.per_state = ninputs  # deterministic trellis: q^k into each state
        assert np.array_equal(self.next_state,
                              np.repeat(np.arange(nstates), ninputs))


def _kernel_for(trellis: Trellis) -> _TrellisKernel:
    k = getattr(trellis, "_kernel", None)
    if k is None:
        k = _TrellisKernel(trellis)
        object.__setattr__(trellis, "_kernel", k)
    return k


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


# ---------------------------------------------------------------------------
# coset-leader oracle
# ---------------------------------------------------------------------------

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
    every frame and is only for tiny spans.
    """
    if metric is None:
        metric = BranchMetric()
    S, m, emit, groups = _emission_data(hb)
    n = hb.cols
    lanes = 2 * n
    r = hb.rows
    window = frame_blocks + m
    target = np.zeros((window, r), dtype=np.uint8)
    take = min(syndrome.shape[0], window)
    target[:take] = syndrome[:take]
    if syndrome.shape[0] > window and syndrome[window:].any():
        raise ValueError("syndrome extends beyond the oracle window")

    wtab = _block_weight_table(n, metric)
    if mode == "exhaustive" or (mode == "auto" and lanes * frame_blocks <= 16):
        return _oracle_exhaustive(S, target, frame_blocks, lanes, wtab)
    if lanes * m > 20 or lanes > 14:
        raise OracleCapError("search-space cap exceeded for the DP oracle")
    return _oracle_dp(target, frame_blocks, lanes, m, r, wtab, emit, groups)


@lru_cache(maxsize=16)
def _block_weight_table(n: int, metric: BranchMetric) -> np.ndarray:
    size = 1 << (2 * n)
    out = np.zeros(size, dtype=np.int64)
    for v in range(size):
        total = 0
        for c in range(n):
            x = (v >> c) & 1
            z = (v >> (n + c)) & 1
            total += metric.qubit_cost(x, z)
        out[v] = total
    return out


@lru_cache(maxsize=16)
def _emission_data(hb: RatMatrix):
    """Per-code DP tables: emit[b][e] = r-bit syndrome emitted at lag b by
    block value e, plus block values grouped by their lag-0 emission."""
    S = block_parity_matrix(hb)
    taps = S.coeff_tensor()
    m = taps.shape[0] - 1
    lanes = 2 * hb.cols
    r = hb.rows
    size = 1 << lanes
    frame = np.zeros((1, lanes), dtype=np.uint8)
    tables = [np.zeros(size, dtype=np.int64) for _ in range(m + 1)]
    for e in range(size):
        for kbit in range(lanes):
            frame[0, kbit] = (e >> kbit) & 1
        syn = gf_convolve(taps, frame, S.field, m + 1)
        for b in range(m + 1):
            v = 0
            for i in range(r):
                v |= int(syn[b, i]) << i
            tables[b][e] = v
    groups: dict[int, tuple[int, ...]] = {}
    for e in range(size):
        groups.setdefault(int(tables[0][e]), []).append(e)  # type: ignore
    groups = {k: tuple(v) for k, v in groups.items()}
    return S, m, tables, groups


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


def _oracle_exhaustive(S, target, frame_blocks, lanes, wtab) -> OracleResult:
    nbits = lanes * frame_blocks
    best_w, best, count = INF, None, 0
    frame = np.zeros((frame_blocks, lanes), dtype=np.uint8)
    window = target.shape[0]
    for v in range(1 << nbits):
        for idx in range(nbits):
            frame[idx // lanes, idx % lanes] = (v >> idx) & 1
        if not np.array_equal(block_syndrome(S, frame, window), target):
            continue
        wgt = 0
        for j in range(frame_blocks):
            e = 0
            for kbit in range(lanes):
                e |= int(frame[j, kbit]) << kbit
            wgt += int(wtab[e])
        if wgt < best_w:
            best_w, best, count = wgt, frame.copy(), 1
        elif wgt == best_w:
            count += 1
    if best is None:
        raise ValueError("syndrome is not realizable on this span")
    return OracleResult(weight=best_w, leader=best, count=count)
