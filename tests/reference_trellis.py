"""Reference trellis builder: the per-branch formulation that
``trellis.build_trellis`` replaces, kept to check the closed form against it.

Every (state, input) branch unpacks the state's shift registers, multiplies
each register symbol by its generator tap with scalar field products and
packs the output and the shifted registers back into ints. The result is a
plain (state, input) table, not the library's ``Trellis``.

``row_ids`` is the per-row dictionary that ``trellis._row_ids`` replaces.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from qconvdec.algebra import RatMatrix
from qconvdec.trellis import _MAX_STATES, Trellis, TrellisError

from reference_rational import is_polynomial, poly_entries


@dataclass(frozen=True)
class ReferenceTrellis:
    """``next_state[s, u]`` and ``label[s, u]`` of the branch taken from
    state s on input index u (input symbol i at bits [bps i, bps (i + 1)));
    labels pack the n output symbols bitwise, as in ``Trellis``."""

    num_inputs: int
    num_states: int
    out_symbols: int
    bits_per_symbol: int
    next_state: np.ndarray
    label: np.ndarray
    row_degrees: tuple[int, ...]
    kind: str = "bits"

    # the library's metric tables and section packing read only these
    label_bits = Trellis.label_bits
    num_qubits_per_section = Trellis.num_qubits_per_section


def build_trellis(gen: RatMatrix, kind: str = "bits") -> ReferenceTrellis:
    """Controller-form trellis of a polynomial generator matrix: the state
    holds the last deg_i input symbols of each generator row."""
    if not is_polynomial(gen):
        raise TrellisError("trellis generator must be polynomial (feed-forward)")
    field = gen.field
    q = field.order
    bps = 1 if q == 2 else 2
    rows = poly_entries(gen)
    nrows = gen.rows
    ncols = gen.cols
    degs = tuple(max((p.degree for p in row), default=0) if
                 any(not p.is_zero() for p in row) else 0 for row in rows)
    state_symbols = sum(degs)
    num_states = q ** state_symbols
    if num_states > _MAX_STATES:
        raise TrellisError(
            f"state count {num_states} exceeds cap {_MAX_STATES}")
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
    return ReferenceTrellis(
        num_inputs=num_inputs, num_states=num_states, out_symbols=ncols,
        bits_per_symbol=bps, next_state=next_state, label=label,
        row_degrees=degs, kind=kind)


def row_ids(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(id of each row, the distinct rows in order of first appearance) of a
    2-d array: one dictionary entry per distinct row's bytes."""
    rows = np.ascontiguousarray(rows)
    keys = rows.view(f"V{rows.shape[1] * rows.itemsize}").ravel().tolist()
    index = {key: i for i, key in enumerate(dict.fromkeys(keys))}
    ids = np.fromiter(map(index.__getitem__, keys),
                      np.min_scalar_type(len(index) - 1), len(keys))
    return ids, np.frombuffer(b"".join(index), dtype=rows.dtype).reshape(
        len(index), -1)
