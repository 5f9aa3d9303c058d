"""Reference candidate construction: the tick-rate, per-tick formulation that
``circuits.CandidateBuilder`` replaces, kept to check the block-domain map
against it.

The syndrome is zero-stuffed onto the odd tick phase (binary path), each
rational ISF entry is expanded anticausally from the frame tail one tick at
a time, and the head defect is solved per syndrome over a small window, then
over the whole frame.
"""

from __future__ import annotations

import numpy as np

from qconvdec.algebra import RatMatrix, convolution_matrix, gf_convolve, gf_solve
from qconvdec.circuits import CodeBundle, DerivationError, block_parity_matrix


def run_anticausal(matrix: RatMatrix, x: np.ndarray, out_len: int) -> np.ndarray:
    """Expand out = x @ matrix anticausally (from the frame tail down).

    Each entry is split into its polynomial part (convolved causally) and a
    strictly proper remainder (expanded from the top); the result is exact
    wherever the true expansion fits below ``out_len``, so truncation shows
    up only as a defect near tick 0."""
    x = np.asarray(x, dtype=np.uint8)
    if x.ndim != 2 or x.shape[1] != matrix.rows:
        raise ValueError(f"expected (T, {matrix.rows}) input")
    mul = matrix.field.mul
    inv = matrix.field.inv
    xl = x.shape[0]
    out = np.zeros((out_len, matrix.cols), dtype=np.uint8)
    for i in range(matrix.rows):
        xi = x[:, i]
        for j in range(matrix.cols):
            e = matrix.entries[i][j]
            if e.is_zero():
                continue
            col = out[:, j]
            fir, rem = e.num.divmod(e.den)
            for d, cf in enumerate(fir.coeffs):
                if not cf:
                    continue
                hi = min(out_len, xl + d)
                for s in range(d, hi):
                    v = int(xi[s - d])
                    if v:
                        col[s] ^= mul(cf, v)
            if rem.is_zero():
                continue
            num, den = rem.coeffs, e.den.coeffs
            r = len(den) - 1
            lead_inv = inv(den[-1])
            y = [0] * (out_len + r + 1)
            for s in range(out_len - 1, -1, -1):
                acc = 0
                for d in range(r):
                    if den[d]:
                        acc ^= mul(den[d], y[s + r - d])
                for d, cf in enumerate(num):
                    if cf:
                        idx = s + r - d
                        if 0 <= idx < xl:
                            acc ^= mul(cf, int(xi[idx]))
                y[s] = mul(lead_inv, acc)
            for s in range(out_len):
                if y[s]:
                    col[s] ^= y[s]
    return out


def pack_syndrome_ticks(sigma: np.ndarray, total_ticks: int) -> np.ndarray:
    """Zero-stuff a (blocks, r) syndrome onto the tick axis: block j lands on
    tick 2j + 1 (the odd phase carries the physical syndrome)."""
    blocks, r = sigma.shape
    out = np.zeros((total_ticks, r), dtype=np.uint8)
    for j in range(min(blocks, (total_ticks - 1) // 2 + 1)):
        t = 2 * j + 1
        if t < total_ticks:
            out[t] = sigma[j]
    return out


def solve_defect(taps: np.ndarray, field, defect: np.ndarray, blocks: int,
                 window: int) -> np.ndarray:
    """Frame whose full-support syndrome equals the defect pattern on its
    first blocks and zero after: solved on ``window`` blocks first, then on
    the whole frame."""
    m = taps.shape[0] - 1
    rsyn, lanes = taps.shape[1], taps.shape[2]
    windows = [min(window, blocks)]
    if blocks not in windows:
        windows.append(blocks)
    for wN in windows:
        target = np.zeros(((wN + m) * rsyn,), dtype=np.uint8)
        target[: defect.size] = defect.reshape(-1)
        x = gf_solve(convolution_matrix(taps, wN, wN + m), target, field)
        if x is not None:
            return x.reshape(wN, lanes)
    raise DerivationError(
        "syndrome has no matching error pattern on this span "
        "(unrealizable head defect)")


def reference_build(bundle: CodeBundle, sigma: np.ndarray, blocks: int,
                    interleaved: bool = True) -> np.ndarray:
    """Candidate frame (blocks, lanes) whose syndrome over blocks + m blocks
    is sigma zero-extended. ``interleaved`` is the binary path (tick-rate
    ISF, (a | b) block lanes); otherwise the ISF runs at block rate on the
    symbol stream (the GF(4) path)."""
    r = bundle.r
    if sigma.shape[1] != r:
        raise ValueError("syndrome stream count mismatch")
    S = block_parity_matrix(bundle.hb) if interleaved else bundle.hb
    taps = S.coeff_tensor()
    lanes = S.cols
    m = taps.shape[0] - 1
    maxden = max((e.den.degree for row in bundle.isf.matrix.entries
                  for e in row), default=0)
    per_block = (maxden + 1) // 2 if interleaved else maxden
    db = max(m + 1, per_block + 1)
    if interleaved:
        ticks = 2 * blocks
        shat = pack_syndrome_ticks(sigma, ticks + 2 * m + 1)
        v = run_anticausal(bundle.isf.matrix, shat, ticks)
        n = bundle.n
        W = np.zeros((blocks, 2 * n), dtype=np.uint8)
        W[:, :n] = v[0::2]
        W[:, n:] = v[1::2]
    else:
        x = np.zeros((blocks + m + 1, r), dtype=np.uint8)
        take = min(sigma.shape[0], x.shape[0])
        x[:take] = sigma[:take]
        W = run_anticausal(bundle.isf.matrix, x, blocks)
    window = blocks + m
    target = np.zeros((window, r), dtype=np.uint8)
    take = min(sigma.shape[0], window)
    target[:take] = sigma[:take]
    field = bundle.field
    resid = gf_convolve(taps, W, field, window) ^ target
    if resid[db:].any():
        raise DerivationError(
            "ISF candidate defect outside the head window: the ISF "
            "entries need more padding lookahead than the frame carries")
    if resid[:db].any():
        frame = solve_defect(taps, field, resid[:db], blocks,
                             max(4 * (db + m + 1), 16))
        fix = np.zeros((blocks, lanes), dtype=np.uint8)
        take = min(blocks, frame.shape[0])
        fix[:take] = frame[:take]
        if take < frame.shape[0] and frame[take:].any():
            raise DerivationError("repair frame does not fit the span")
        W = W ^ fix
        if (gf_convolve(taps, W, field, window) ^ target).any():
            raise DerivationError("candidate repair failed")
    return W
