"""Trellis construction from a polynomial generator matrix and Viterbi
maximum-likelihood decoding of a candidate frame.

Labels are packed into ints (one field symbol per bit pair on GF(4), one bit
on GF(2)); all metrics depend only on the XOR difference of packed labels.
A trellis is stored as the branches into each state, in closed form: the
inputs of degree-0 generator rows enter no state, so the branches from one
state into another are a fixed set of labels apart. Each metric keeps, for
every packed label, the least cost over that set, its first minimising
member and the number of minimisers, and Viterbi runs on one (predecessor,
state) cost per section.

The state metrics after a Viterbi section depend on those before it only
through their differences, so with integer costs a trellis reaches finitely
many metric vectors normalised to a least entry of 0. Each metric's
automaton over them holds, per (vector, packed label), the next vector, the
minimum taken out, every state's survivor (its predecessor and label) and
the section's tie count. Stride tables composed from these advance k
sections per lookup: the walk over label classes (labels whose next vectors
agree), the traceback over survivor columns. Above them, levels composed
pairwise (``levels``) key a stride of 2^l k sections by the id of its
composed map: vector to vector for the walk, state to state for the
traceback. A batch of frames takes as many levels as keep its top walk, the
frames end to end, at least ``_LEVEL_STEPS`` steps long and each frame at
least ``_TOP_STRIDES`` top strides long, so a frame of n sections is one
walk and one traceback of about n / (2^l k) Python steps each, plus
gathers. A trellis whose automaton would pass a work budget (many states)
runs add-compare-select section by section in chunks, and only there are
survivors and ties read off the recorded metrics, by the same rule; its
traceback reads one survivor per section. Viterbi takes a batch of frames,
one frame being a batch of one: each frame walks and traces back alone, and
every gather runs once on the batch.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Sequence
from dataclasses import dataclass
from math import log
from numbers import Integral
from typing import Literal

import numpy as np

from .algebra import (
    Field, gf_convolve, pack_symbols, row_degrees, unpack_symbols,
)
from .levels import Levels, build_levels, level_walk, row_ids
from .stabilizer import BITS_TO_PAULI, GF4_DECODE_TO_XZ

INF = 1 << 60
METRIC_SCALE = 1 << 16
# trellis branches per chunk of viterbi_decode: sets its sections per chunk
_CHUNK_BRANCHES = 1 << 14
# normalised metric vectors x packed labels x states above which a metric
# gets no automaton and Viterbi runs section by section
_AUTOMATON_WORK = 1 << 20
# walk and traceback table entries per metric: its automaton advances the
# largest number of sections per lookup whose tables fit
_STRIDE_WORK = 1 << 21
# Python steps a level-composed walk keeps at least: a batch of b strides,
# its frames end to end, composes levels while b / 2^levels stays at or
# above this
_LEVEL_STEPS = 128
# top strides each frame of a level-composed batch keeps at least: a
# frame's no-op padding, under one top stride, stays under this share of it
_TOP_STRIDES = 8
# trellis state budget, checked before any branch table is allocated
_MAX_STATES = 1 << 20


class TrellisError(ValueError):
    pass


@dataclass(frozen=True)
class Trellis:
    """Deterministic state graph of a feed-forward generator, stored as the
    branches into each state.

    Into every state t enter ``num_inputs`` = P M branches: M = q^(degree-0
    rows) member blocks of the same P = q^(other rows) predecessors, since
    a degree-0 row's input enters no state. ``pred_state[p, t]`` is t's
    p-th predecessor in ascending order and ``pred_label[p, t]`` the label
    of its branch with every degree-0 input zero; member block m, in
    ascending input order, adds ``parallel[m]`` to each label. So the o-th
    branch into t in (input, state) order, o < P M, comes from
    ``pred_state[o % P, t]`` with label ``pred_label[o % P, t] ^
    parallel[o // P]``. Labels pack the n output symbols bitwise.
    ``kind`` records how label bits group into qubits: "bit-paired" output
    j/j+n carry the X/Z bits of qubit j, "gf4" each symbol is one qubit,
    "bits" no qubit structure (plain classical streams).
    """

    field: Field
    num_inputs: int
    num_states: int
    out_symbols: int
    bits_per_symbol: int
    row_degrees: tuple[int, ...]
    pred_state: np.ndarray   # (P, S)
    pred_label: np.ndarray   # (P, S)
    parallel: np.ndarray     # (M,)
    kind: str = "bits"
    # each metric's (low, first, count, automaton), built on first use
    _tables: dict = dataclasses.field(default_factory=dict, init=False,
                                      repr=False, compare=False)

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


def build_trellis(gen: np.ndarray, field: Field,
                  kind: str = "bits") -> Trellis:
    """Controller-form trellis of a polynomial generator matrix, the
    (deg + 1, rows, cols) tensor ``gen`` over ``field``: the state
    holds the last deg_i input symbols of each generator row, symbol d of
    row i (its input d + 1 sections back) at packed position
    offset_i + d.

    Into state t, the rows of positive degree take t's newest symbols as
    their inputs, and a predecessor holds t's other symbols one position
    down plus any oldest symbol of each such row, enumerated in ascending
    order. Labels are GF(q)-linear in (state, input), so each is one part
    from the state XOR one part from the input: the input part is tap 0
    times every input-symbol vector, the state part the delayed taps times
    every state-symbol vector, each one GF(q) matrix product. Both tables
    are stored in the narrowest dtype that holds them."""
    q = field.order
    bps = 1 if q == 2 else 2
    _, rows, cols = gen.shape
    degs = row_degrees(gen)
    state_symbols = sum(degs)
    num_states = q ** state_symbols
    if num_states > _MAX_STATES:
        raise TrellisError(
            f"state count {num_states} exceeds cap {_MAX_STATES}")
    weights = 1 << (bps * np.arange(cols))
    label_type = np.min_scalar_type((1 << (bps * cols)) - 1)
    state_type = np.min_scalar_type(num_states - 1)
    from_input = (gf_convolve(gen[:1].transpose(0, 2, 1),
                              _symbol_vectors(q, rows), field)
                  @ weights).astype(label_type)
    delayed = np.concatenate([gen[1:d + 1, i] for i, d in enumerate(degs)])
    from_state = (gf_convolve(delayed.T[None],
                              _symbol_vectors(q, state_symbols), field)
                  @ weights).astype(label_type)
    offsets = np.cumsum((0,) + degs[:-1])
    held = np.array(degs) > 0  # rows whose inputs enter the state
    nheld = int(held.sum())
    states = np.arange(num_states)
    # into state t, held row i's input is t's newest symbol of that row, at
    # offset_i; this is every branch's input with the degree-0 rows' zero
    fed = np.zeros(num_states, dtype=np.int64)
    for i in np.flatnonzero(held):
        fed |= ((states >> (bps * offsets[i])) & (q - 1)) << (bps * i)
    # a predecessor holds t's other symbols one position down, plus any
    # oldest symbol of each held row; _symbol_vectors counts up, so both
    # the predecessors and the degree-0 inputs come in ascending order
    newest = np.bitwise_or.reduce((q - 1) << (bps * offsets[held]),
                                  initial=0)
    shifted = ((states & ~newest) >> bps).astype(state_type)
    oldest = _symbol_vectors(q, nheld) @ (
        1 << (bps * (offsets + degs - 1)[held]))
    pred_state = oldest.astype(state_type)[:, None] | shifted
    members = _symbol_vectors(q, len(degs) - nheld) @ (
        1 << (bps * np.flatnonzero(~held)))
    return Trellis(field=field, num_inputs=q ** rows,
                   num_states=num_states, out_symbols=cols,
                   bits_per_symbol=bps, row_degrees=degs,
                   pred_state=pred_state,
                   pred_label=from_state[pred_state] ^ from_input[fed],
                   parallel=from_input[members], kind=kind)


def _symbol_vectors(q: int, symbols: int) -> np.ndarray:
    """(q^symbols, symbols) GF(q) digits of every packed index: column j
    holds the symbol at bits [bps j, bps (j + 1))."""
    return np.indices((q,) * symbols, dtype=np.uint8).reshape(
        symbols, q ** symbols)[::-1].T


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
    e.g. quantized -log channel likelihoods: four integers, the identity's
    0 and the others nonnegative (``INF`` forbids a Pauli), kept as a tuple
    of Python ints.
    """

    mode: Literal["hamming", "pauli"] = "hamming"
    pauli_costs: tuple[int, int, int, int] | None = None  # (I, X, Y, Z)

    def __post_init__(self):
        if self.mode not in ("hamming", "pauli"):
            raise ValueError(
                f"metric mode must be 'hamming' or 'pauli', got {self.mode!r}")
        costs = self.pauli_costs
        if self.mode == "hamming":
            if costs is not None:
                raise ValueError("hamming metric takes no costs")
            return
        if not (isinstance(costs, (Sequence, np.ndarray)) and len(costs) == 4
                and all(isinstance(c, Integral) for c in costs)):
            raise ValueError("pauli metric needs four integer (I, X, Y, Z) "
                             f"costs, got {costs!r}")
        costs = tuple(int(c) for c in costs)
        if costs[0] != 0 or min(costs) < 0:
            raise ValueError("pauli metric needs identity cost 0 and "
                             f"nonnegative X, Y, Z costs, got {costs!r}")
        object.__setattr__(self, "pauli_costs", costs)

    def qubit_cost(self, x: int, z: int) -> int:
        if self.mode == "hamming":
            return x + z
        costs = dict(zip("IXYZ", self.pauli_costs))
        return costs[BITS_TO_PAULI[(x, z)]]

    def xor_table(self, trellis: Trellis) -> np.ndarray:
        """Cost of every packed label difference."""
        v = np.arange(1 << trellis.label_bits)[:, None]
        if trellis.kind == "bits":
            if self.mode != "hamming":
                raise TrellisError("pauli metric needs qubit-aligned sections")
            return ((v >> np.arange(trellis.label_bits)) & 1).sum(axis=1)
        nq = trellis.num_qubits_per_section
        if trellis.kind == "bit-paired":
            return self.paired_table(nq)
        # gf4: symbol c at bits [2c, 2c+1], decode labeling
        xz = GF4_DECODE_TO_XZ[(v >> (2 * np.arange(nq))) & 3]
        return _saturated_sum(self._xz_costs()[xz[..., 0] + 2 * xz[..., 1]])

    def paired_table(self, qubits: int) -> np.ndarray:
        """Cost of every 2*qubits-bit label whose bits c and qubits + c are
        the X and Z bits of qubit c (bit-paired sections, block frames)."""
        v = np.arange(1 << (2 * qubits))[:, None]
        c = np.arange(qubits)
        return _saturated_sum(self._xz_costs()[((v >> c) & 1)
                                               + 2 * ((v >> (qubits + c)) & 1)])

    def _xz_costs(self) -> np.ndarray:
        """The per-qubit cost vector, indexed by x + 2 z."""
        return np.array([self.qubit_cost(x, z) for z in (0, 1) for x in (0, 1)],
                        dtype=np.int64)


# the metric of a decode that names none
_HAMMING = BranchMetric()


def _saturated_sum(qubit_costs: np.ndarray) -> np.ndarray:
    """Row sums of per-qubit costs; a row holding a forbidden (``INF``) cost
    sums to ``INF``."""
    return np.where((qubit_costs >= INF).any(axis=1), INF,
                    qubit_costs.sum(axis=1))


def pauli_costs_for_channel(p_i: float, p_x: float, p_y: float,
                            p_z: float) -> tuple[int, int, int, int]:
    """Quantized -log likelihood ratios against the identity, on a fixed
    integer grid so path metrics compare exactly; a Pauli of probability 0
    costs ``INF`` (forbidden)."""
    def cost(prob):
        if prob <= 0:
            return INF
        return round(METRIC_SCALE * log(p_i / prob))
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


def pack_sections(frame: np.ndarray, trellis: Trellis) -> np.ndarray:
    """One int label per section: symbol c at bits [bps c, bps (c + 1))."""
    return pack_symbols(frame, trellis.bits_per_symbol)


def unpack_sections(vals, trellis: Trellis) -> np.ndarray:
    """(sections, out_symbols) symbols of packed section labels."""
    return unpack_symbols(vals, trellis.out_symbols, trellis.bits_per_symbol)


def _metric_tables(trellis: Trellis, metric: BranchMetric) -> tuple[
        np.ndarray, np.ndarray, np.ndarray, _MetricAutomaton | None]:
    """(low, first, count, automaton), built once per metric: over packed
    labels x, the least of ``cost[x ^ parallel[m]]`` over members m, the
    first m attaining it and the number that do; and the metric's
    automaton (None when it would pass ``_AUTOMATON_WORK``). The oldest
    metric's tables go past 16."""
    tables = trellis._tables.get(metric)
    if tables is None:
        if len(trellis._tables) >= 16:
            del trellis._tables[next(iter(trellis._tables))]
        cost_of = metric.xor_table(trellis)
        member = cost_of[np.arange(len(cost_of))[:, None] ^ trellis.parallel]
        low = member.min(axis=1)
        hit = member == low[:, None]
        folded = low, hit.argmax(axis=1), hit.sum(axis=1)
        tables = trellis._tables[metric] = (
            *folded, _build_automaton(trellis, folded))
    return tables


@dataclass(frozen=True)
class _MetricAutomaton:
    """Add-compare-select over state metrics normalised to a least entry of
    0 (``INF`` entries stay ``INF``; an all-``INF`` vector gives up 0).
    Vector 0 is the start, 0 in the zero state. For vector v and packed
    label x, at the flat key f = v (L + 1) + x, the section takes v to
    ``vectors[step[v, x]]`` plus ``tally[0, f]`` and drops ``tally[1, f]``
    co-optimal branches (``_select``); state t's survivor comes from
    ``cols[col.flat[f], t]`` with label ``label.flat[f S + t]``
    (``_survivor_branches``). Label L, one past the packed labels, is the
    no-op section: it keeps the vector and every state, and gains and ties
    nothing. A frame is padded with it to whole strides.

    A stride is k = ``stride`` sections. Forwards it is keyed on label
    classes, labels whose ``step`` columns are equal (the no-op is one
    more): classes c_i of k labels have the key sum c_i C^(k-1-i), by
    ``class_weights``, which takes vector v to ``walk[v][key]``, and row
    v C^k + key of ``within`` holds v_i (L + 1) for the vector v_i before
    each section i. Backwards it is keyed on survivor column ids, id 0 the
    no-op's identity: ids b_i of k sections have the key (sum b_i
    U^(k-1-i)) S, by ``col_weights``, and for the state t after the stride,
    row key + t of ``back`` holds the state before it and of
    ``back_within`` the state after each section.

    ``levels`` holds the composed levels above these strides (``Levels``):
    the walk's over the vector maps ``walk[v][key]`` of each key and the
    traceback's over the state maps ``back[key S:(key + 1) S]``, built on
    the first batch long enough to use them, within what the stride tables
    leave of ``_STRIDE_WORK``."""

    vectors: np.ndarray      # (vectors, states)
    zero: list               # (vectors,): the zero state's metric, as ints
    step: np.ndarray         # (vectors, L): next vector
    tally: np.ndarray        # (2, vectors * (L + 1)): gain and ties
    col: np.ndarray          # (vectors, L + 1): survivor column id
    cols: np.ndarray         # (U, states): each state's predecessor
    label: np.ndarray        # (vectors, L + 1, states): survivor labels
    stride: int
    classes: np.ndarray      # (L + 1,)
    class_weights: np.ndarray  # (stride,)
    walk: list               # per vector, a memoryview over class keys
    within: np.ndarray       # (vectors * C^k, stride)
    col_weights: np.ndarray  # (stride,)
    back: memoryview         # (U^k * states,)
    back_within: np.ndarray  # (U^k * states, stride)
    # (walk, traceback) Levels, built on the first batch that composes
    levels: dict = dataclasses.field(default_factory=dict, repr=False,
                                     compare=False)


def _select(trellis: Trellis, tables: Sequence[np.ndarray],
            before: np.ndarray, x: np.ndarray,
            after: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(survivor offsets, ties) of sections with packed labels ``x`` (...)
    taking state metrics ``before`` to ``after`` (..., S), given the
    metric's ``(low, first, count)``. A survivor is the least
    ``first * P + slot`` among its co-optimal predecessor slots, which is
    its offset among the branches into its state in (input, state) order,
    so the first arg-minimum in that order; a state no path reaches keeps
    ``P M - 1`` and is never traced back. Ties total ``count`` over the
    co-optimal slots, less one per reached state."""
    low, first, count = tables
    per, preds = trellis.num_inputs, len(trellis.pred_state)
    reached = after < INF
    # no sum of metrics meets an unreached state's -1
    target = np.where(reached, after, -1)
    # offsets are below per and a state's co-optimal branches at most per,
    # so both fit narrow arrays
    best = np.full(after.shape, per - 1, dtype=np.min_scalar_type(per - 1))
    hits = np.zeros(after.shape, dtype=np.min_scalar_type(per))
    x = x[..., None]
    for p in range(preds):
        label = trellis.pred_label[p] ^ x
        hit = before[..., trellis.pred_state[p]] + low[label] == target
        offset = (first[label] * preds + p).astype(best.dtype)
        np.minimum(best, np.where(hit, offset, per - 1), out=best)
        hits += hit * count[label].astype(hits.dtype)
    return best, hits.sum(axis=-1, dtype=np.int64) - reached.sum(axis=-1)


def _build_automaton(trellis: Trellis, tables: Sequence[np.ndarray],
                     ) -> _MetricAutomaton | None:
    """Breadth-first expansion of the normalised metric vectors reached from
    the start: one add-compare-select advances the whole frontier on every
    packed label, and a vector is new when its bytes are. None as soon as
    the vectors found times the labels and states pass ``_AUTOMATON_WORK``
    (checked before each expansion); survivors and ties are tabulated only
    once the expansion has finished within it."""
    low = tables[0]
    nstates, labels = trellis.num_states, len(low)
    x = np.arange(labels)
    frontier = np.where(np.arange(nstates), INF, 0)[None]
    # the vectors' bytes, in order of their ids
    index = {frontier.tobytes(): 0}
    step, gains = [], []

    def vectors(first):
        return np.frombuffer(b"".join(list(index)[first:]),
                             dtype=np.int64).reshape(-1, nstates)

    while len(frontier):
        if len(index) * labels * nstates > _AUTOMATON_WORK:
            return None
        # one predecessor slot at a time, its folded costs gathered per
        # (label, state), keeps every array within the budget
        nxt = np.full((len(frontier), labels, nstates), INF, dtype=np.int64)
        for p in range(len(trellis.pred_state)):
            np.minimum(nxt, frontier[:, None, trellis.pred_state[p]]
                       + low[trellis.pred_label[p] ^ x[:, None]], out=nxt)
        gain = nxt.min(axis=2, keepdims=True)
        gain[gain >= INF] = 0
        keys = np.where(nxt >= INF, INF, nxt - gain).view(
            f"V{8 * nstates}").ravel().tolist()
        found = len(index)
        for key in dict.fromkeys(keys):
            index.setdefault(key, len(index))
        step += map(index.__getitem__, keys)
        frontier = vectors(found)
        gains.append(gain.reshape(-1, labels))
    every, gain = vectors(0), np.concatenate(gains)
    step = np.array(step, dtype=np.min_scalar_type(len(every) - 1)).reshape(
        -1, labels)
    after = np.minimum(every[step] + gain[..., None], INF)
    survivor, ties = _select(trellis, tables, every[:, None], x, after)
    came, label = _survivor_branches(trellis, survivor)
    return _with_strides(every, step, gain, ties, came, label)


def _stride(vectors: int, classes: int, columns: int, states: int) -> int:
    """The largest stride k >= 1 whose walk and traceback tables, with
    their in-block columns, hold at most ``_STRIDE_WORK`` entries. Classes
    and columns count as at least two, so that the stride, and with it the
    no-op padding of a frame, stays below log2 of the budget."""
    classes, columns = max(classes, 2), max(columns, 2)

    def entries(k):
        return (vectors * classes ** k + columns ** k * states) * (k + 1)
    k = 1
    while entries(k + 1) <= _STRIDE_WORK:
        k += 1
    return k


def _with_strides(vectors: np.ndarray, step: np.ndarray, gain: np.ndarray,
                  ties: np.ndarray, came: np.ndarray, label: np.ndarray,
                  ) -> _MetricAutomaton:
    """The automaton of the one-section tables, with the no-op label
    appended and the stride tables composed from them. The walk composes
    ``step`` over label classes stride times from every vector; the
    traceback composes survivor columns over stride-long runs of column
    ids, back from every state. Each composition is a gather on narrow
    indices, so no table-size intp index is made. Tables whose entries
    meet in one key's product or sum are stored in dtypes that hold the
    key, so no key overflows."""
    nvec, labels = step.shape
    nstates = vectors.shape[1]
    classes, by_class = row_ids(np.concatenate(
        [step, np.arange(nvec, dtype=step.dtype)[:, None]], axis=1).T, nvec)
    # survivor columns; id 0 is the no-op's identity
    col, cols = row_ids(np.concatenate(
        [np.arange(nstates, dtype=came.dtype)[None],
         came.reshape(-1, nstates)]), nstates)
    nclass, ncol = len(by_class), len(cols)
    k = _stride(nvec, nclass, ncol, nstates)
    flat_type = np.min_scalar_type(nvec * (labels + 1) * nstates)
    back_type = np.min_scalar_type(ncol ** k * nstates)

    # the vector before section i depends on the vector and the classes
    # of sections 0 .. i - 1, so repeats over the classes after those
    within = np.empty((nvec * nclass ** k, k), dtype=flat_type)
    after = np.arange(nvec, dtype=step.dtype)
    for i in range(k):
        within[:, i] = np.repeat(after.astype(flat_type) * (labels + 1),
                                 nclass ** (k - i))
        after = by_class.T[after.reshape(nvec, -1)].reshape(-1)
    # the state after section i depends on the ids of sections i + 1 ..
    # k - 1 and the state after the stride, so repeats over the ids before
    back_within = np.empty((ncol ** k * nstates, k), dtype=cols.dtype)
    before = np.arange(nstates, dtype=cols.dtype)
    for i in reversed(range(k)):
        back_within[:, i] = np.tile(before.reshape(-1), ncol ** (i + 1))
        before = cols[:, before]

    def padded(table):
        out = np.zeros((nvec, labels + 1) + table.shape[2:], table.dtype)
        out[:, :labels] = table
        return out

    weights = np.arange(k - 1, -1, -1)
    return _MetricAutomaton(
        vectors=vectors, zero=vectors[:, 0].tolist(), step=step,
        tally=np.stack([padded(gain).reshape(-1), padded(ties).reshape(-1)]),
        col=padded(col[1:].reshape(nvec, labels).astype(back_type)),
        cols=cols, label=padded(label), stride=k,
        # int64 like their weights, so that no class key is cast on its way
        # into the rows of ``within``
        classes=classes.astype(np.int64), class_weights=nclass ** weights,
        walk=[memoryview(row) for row in after.reshape(nvec, -1)],
        within=within,
        col_weights=(ncol ** weights * nstates).astype(back_type),
        back=memoryview(before.reshape(-1)), back_within=back_within)


def _automaton_levels(a: _MetricAutomaton,
                      ) -> tuple[Levels | None, Levels | None]:
    """The automaton's (walk, traceback) levels, built on the first batch
    that composes. They share what its stride tables leave of
    ``_STRIDE_WORK``, the traceback first, and a top stride spans at most
    ``_STRIDE_WORK`` sections."""
    if not a.levels:
        nstates = a.vectors.shape[1]
        left = _STRIDE_WORK - (len(a.walk) * len(a.walk[0]) + a.within.size
                               + len(a.back) + a.back_within.size)
        longest = _STRIDE_WORK // a.stride
        back, spent = build_levels(np.asarray(a.back).reshape(-1, nstates),
                                   left, longest)
        walk, _ = build_levels(np.asarray(a.walk).T, left - spent, longest)
        a.levels.update(walk=walk, back=back)
    return a.levels["walk"], a.levels["back"]


def _frame_levels(a: _MetricAutomaton, blocks: int,
                  frames: int = 1) -> tuple[int, int]:
    """(walk, traceback) composed levels of a batch of ``frames`` frames of
    ``blocks`` strides each: as many as keep the batch's top walk, its
    frames end to end, at least ``_LEVEL_STEPS`` Python steps long, and
    each frame at least ``_TOP_STRIDES`` top strides long, up to those the
    automaton's levels hold. At one frame the second bound never binds."""
    wanted = min((frames * blocks // _LEVEL_STEPS).bit_length(),
                 (blocks // _TOP_STRIDES).bit_length()) - 1
    if wanted < 1:
        return 0, 0
    return tuple(0 if levels is None else levels.depth(wanted)
                 for levels in _automaton_levels(a))


def _survivor_branches(trellis: Trellis, offsets: np.ndarray,
                       ) -> tuple[np.ndarray, np.ndarray]:
    """(predecessors, packed labels) (..., S) of the branches at survivor
    offsets o into each state t: from ``pred_state[o % P, t]`` with label
    ``pred_label[o % P, t] ^ parallel[o // P]``."""
    preds, nstates = trellis.pred_state.shape
    # flat indices into the (P, S) layout
    at = np.multiply(offsets % preds, nstates, dtype=np.intp)
    at += np.arange(nstates)
    return (trellis.pred_state.take(at),
            trellis.pred_label.take(at) ^ trellis.parallel[offsets // preds])


def _chunked_pass(trellis: Trellis, folded: Sequence[np.ndarray],
                  w: np.ndarray) -> tuple[np.ndarray, int, int]:
    """(path labels, path metric, ties) of one frame of packed labels ``w``
    from add-compare-select section by section, in chunks of sections,
    and a traceback over its (section, state) survivors from the zero
    state, one survivor per section."""
    low = folded[0]
    nstates, sections = trellis.num_states, len(w)
    chunk = max(1, _CHUNK_BRANCHES // (nstates * trellis.num_inputs))
    metric_now = np.full(nstates, INF, dtype=np.int64)
    metric_now[0] = 0
    # hist[0] holds the metrics entering the chunk, hist[j + 1] those after
    # its section j
    hist = np.empty((min(chunk, sections) + 1, nstates), dtype=np.int64)
    came = np.empty((sections, nstates), dtype=trellis.pred_state.dtype)
    label = np.empty((sections, nstates), dtype=trellis.pred_label.dtype)
    ties = 0
    for c0 in range(0, sections, chunk):
        size = min(chunk, sections - c0)
        x = w[c0:c0 + size]
        costs = low[trellis.pred_label[:, :, None] ^ x]
        hist[0] = metric_now
        for i in range(size):
            np.minimum.reduce(hist[i][trellis.pred_state] + costs[:, :, i],
                              axis=0, initial=INF, out=hist[i + 1])
        metric_now = hist[size].copy()
        offsets, chunk_ties = _select(
            trellis, folded, hist[:size], x, hist[1:size + 1])
        came[c0:c0 + size], label[c0:c0 + size] = _survivor_branches(
            trellis, offsets)
        ties += int(chunk_ties.sum())
    if metric_now[0] >= INF:
        raise TrellisError("no zero-terminated path fits the frame")
    # the state each section enters, read back through a memoryview that
    # makes no Python int per entry
    flat, path, s = memoryview(came.ravel()), [], 0
    for row in range(len(flat) - nstates, -1, -nstates):
        path.append(s)
        s = flat[row + s]
    path = np.fromiter(reversed(path), np.intp, sections)
    return label[np.arange(sections), path], int(metric_now[0]), ties


def viterbi_decode(trellis: Trellis, candidate: np.ndarray,
                   metric: BranchMetric | None = None) -> DecodeResult:
    """Minimum-metric valid codeword for a candidate frame; the error pattern
    is their symbol-wise difference (XOR in characteristic 2). The frame is
    packed, run through :func:`viterbi_path` as a batch of one and the path
    unpacked."""
    if candidate.ndim != 2 or candidate.shape[1] != trellis.out_symbols:
        raise TrellisError(
            f"candidate must be (sections, {trellis.out_symbols})")
    labels, path_metric, ties = viterbi_path(
        trellis, pack_sections(candidate, trellis)[None], metric)
    codeword = unpack_sections(labels[0], trellis)
    return DecodeResult(codeword=codeword,
                        error=codeword ^ candidate.astype(np.uint8),
                        path_metric=path_metric[0], tie_count=ties[0])


def viterbi_path(trellis: Trellis, w: np.ndarray,
                 metric: BranchMetric | None = None,
                 ) -> tuple[np.ndarray, list[int], list[int]]:
    """((B, n) packed section labels, B path metrics, B tie counts) of the
    minimum-metric codewords for B candidates of n packed section labels,
    ``w`` (B, n) (one int per section, as :func:`pack_sections` gives); the
    metrics and counts are lists of ints. One frame is a batch of one.

    The path starts and ends in the zero state (the padded tail gives the
    trellis room to merge back). Ties prefer the smaller most recent input
    symbol at each merge, then the smaller predecessor state; the tie count
    totals the co-optimal branches dropped at merges along the way. A path
    through a branch of cost ``INF`` is unreachable; a frame with no
    reachable path raises ``TrellisError``.

    With the metric's automaton (``_MetricAutomaton``), the frame is padded
    with the no-op label to whole strides of k sections. The walk takes one
    Python step per stride to the vector after it, and one gather of
    ``within`` gives the flat (vector, packed label) key of every section.
    The tie count, the path metric and the survivors' column ids are
    gathers on those keys. The traceback takes one Python step per stride
    back to the state before it, one gather of ``back_within`` gives the
    states inside each stride, and one more the path's survivor labels.
    Levels are chosen on the batch: B frames of b strides each, with B b >=
    2 ``_LEVEL_STEPS`` and b >= 2 ``_TOP_STRIDES``, are each padded to whole
    strides of 2^l k sections instead, l = floor(log2(min(B b /
    ``_LEVEL_STEPS``, b / ``_TOP_STRIDES``))) as far as the automaton's
    levels reach (``_frame_levels``), so that a frame's padding stays under
    one top stride in ``_TOP_STRIDES``; at B = 1 the second bound never
    binds. The walk and the traceback compose their stride keys up l
    levels, one gather per level, take one Python step per top stride of
    each frame, and recover the vector before and the state after each
    k-section stride on the way down, one gather per level
    (``levels.level_walk``); the same gathers as above finish. A
    trellis with no automaton walks the frame in chunks of sections
    holding about ``_CHUNK_BRANCHES`` branches: a chunk gathers one folded
    cost per (predecessor, state) and section from the metric's least-cost
    table, runs add-compare-select section by section, and reads its
    survivors and ties off the recorded metrics by the same rule
    (``_select``); its traceback reads one survivor per section, frame by
    frame. The survivor labels on the path are the codeword's packed
    sections. On the automaton the frames' strides lie end to end, so that
    every gather is one call on the batch, and each frame walks and traces
    back alone.
    """
    *folded, automaton = _metric_tables(trellis, metric or _HAMMING)
    if automaton is None:
        labels, metrics, ties = zip(*(_chunked_pass(trellis, folded, x)
                                      for x in w))
        return np.stack(labels), list(metrics), list(ties)

    a, k, (frames, n) = automaton, automaton.stride, w.shape
    nstates = a.vectors.shape[1]
    blocks = -(-n // k)
    walk_depth, back_depth = _frame_levels(a, blocks, frames)
    # whole top strides of the deeper walk
    top = 1 << max(walk_depth, back_depth)
    blocks = -(-blocks // top) * top
    if blocks * k > n:
        # the no-op label L, the last one ``classes`` holds
        noop = len(a.classes) - 1
        w = np.concatenate((w, np.full((frames, blocks * k - n), noop,
                                        dtype=np.min_scalar_type(noop))),
                           axis=1)
    # the frames' strides end to end: every gather runs on them at once, and
    # each walk restarts at a frame's first stride
    w = w.reshape(frames * blocks, k)
    keys = a.classes.take(w) @ a.class_weights
    walk = a.walk
    if walk_depth:
        ids, ends = level_walk(_automaton_levels(a)[0], walk_depth,
                               keys.reshape(frames, blocks))
    else:
        ids, ends = [], []
        for frame in keys.reshape(frames, blocks).tolist():
            v = 0
            for key in frame:
                ids.append(v)
                v = walk[v][key]
            ends.append(v)
        ids = np.fromiter(ids, np.intp, len(keys))
    # the flat (vector, packed label) key of every section, in a dtype
    # that holds it times the states
    flat = a.within.take(ids * len(walk[0]) + keys, axis=0) + w
    runs = a.col.take(flat) @ a.col_weights
    # the traceback walks the frames from the end of the last: each of
    # them reversed, in reverse order
    back = runs[::-1].reshape(frames, blocks)
    if back_depth:
        # a walk over the survivor-column maps, whose point before each
        # stride is the state after it
        after = level_walk(_automaton_levels(a)[1], back_depth,
                           back // nstates)[0]
        rows = runs + after[::-1]
    else:
        rows, table = [], a.back
        for frame in back.tolist():
            s = 0
            for b in frame:
                b += s
                rows.append(b)
                s = table[b]
        rows = np.fromiter(reversed(rows), np.intp, len(runs))
    states = a.back_within.take(rows, axis=0)
    labels = a.label.take(flat * nstates + states).reshape(frames, -1)
    metric, ties = np.add.reduce(a.tally.take(flat, axis=1).reshape(
        2, frames, -1), axis=2).tolist()
    # a path ends in the zero state of its frame's last vector, unreachable
    # at INF, and its metric adds that state's to the gains
    for f, v in enumerate(ends):
        if a.zero[v] >= INF:
            raise TrellisError("no zero-terminated path fits the frame")
        metric[f] += a.zero[v]
    return labels[:, :n], metric, ties
