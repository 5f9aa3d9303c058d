"""Properties of the shared GF(q) core on small GF(2)/GF(4) inputs: the
elimination behind rank, kernel, solve and inverse, and the block-domain
convolution behind every syndrome map. Each is checked against its
definition: exhaustive enumeration of GF(q)^cols, scalar table products and
the convolution sum written out term by term."""

import itertools

import numpy as np
from hypothesis import given, settings, strategies as st

from qconvdec.algebra import (
    GF2, GF4, convolution_matrix, gf_convolve, gf_inv, gf_kernel, gf_rank,
    gf_solve,
)

FIELDS = {2: GF2, 4: GF4}


def ref_matmul(a, b, field):
    """GF(q) matrix product by scalar table lookups."""
    out = np.zeros((a.shape[0], b.shape[1]), dtype=np.uint8)
    for i in range(a.shape[0]):
        for j in range(b.shape[1]):
            acc = 0
            for k in range(a.shape[1]):
                acc ^= field.mul(int(a[i, k]), int(b[k, j]))
            out[i, j] = acc
    return out


def all_images(a, field):
    """{a @ x : x in GF(q)^cols} as byte strings, and the kernel size."""
    q = field.order
    xs = np.array(list(itertools.product(range(q), repeat=a.shape[1])),
                  dtype=np.uint8)
    images = ref_matmul(a, xs.T, field).T
    kernel_size = int((~images.any(axis=1)).sum())
    return {row.tobytes() for row in images}, kernel_size


@st.composite
def gf_matrices(draw, max_rows=4, max_cols=5, square=False):
    q = draw(st.sampled_from([2, 4]))
    rows = draw(st.integers(1, max_rows))
    cols = rows if square else draw(st.integers(1, max_cols))
    vals = draw(st.lists(st.integers(0, q - 1), min_size=rows * cols,
                         max_size=rows * cols))
    return FIELDS[q], np.array(vals, dtype=np.uint8).reshape(rows, cols)


@settings(max_examples=60, deadline=None)
@given(gf_matrices())
def test_kernel_annihilates_and_has_full_dimension(fa):
    field, a = fa
    kernel = gf_kernel(a, field)
    rank = gf_rank(a, field)
    _, kernel_size = all_images(a, field)
    assert kernel.shape == (a.shape[1] - rank, a.shape[1])
    assert kernel_size == field.order ** kernel.shape[0]
    if kernel.shape[0]:
        assert not ref_matmul(a, kernel.T, field).any()
        assert gf_rank(kernel, field) == kernel.shape[0]


@settings(max_examples=60, deadline=None)
@given(gf_matrices(), st.data())
def test_solve_exactly_when_in_column_span(fa, data):
    field, a = fa
    q = field.order
    b = np.array(data.draw(st.lists(st.integers(0, q - 1), min_size=a.shape[0],
                                    max_size=a.shape[0])), dtype=np.uint8)
    span, _ = all_images(a, field)
    x = gf_solve(a, b, field)
    assert (x is not None) == (b.tobytes() in span)
    if x is not None:
        assert np.array_equal(ref_matmul(a, x[:, None], field)[:, 0], b)


@settings(max_examples=60, deadline=None)
@given(gf_matrices(square=True))
def test_inverse_times_matrix_is_identity(fa):
    field, a = fa
    inv = gf_inv(a, field)
    n = a.shape[0]
    assert (inv is None) == (gf_rank(a, field) < n)
    if inv is not None:
        eye = np.eye(n, dtype=np.uint8)
        assert np.array_equal(ref_matmul(inv, a, field), eye)
        assert np.array_equal(ref_matmul(a, inv, field), eye)


@st.composite
def convolutions(draw):
    q = draw(st.sampled_from([2, 4]))
    taps_n = draw(st.integers(1, 3))
    r = draw(st.integers(1, 3))
    lanes = draw(st.integers(1, 4))
    blocks = draw(st.integers(1, 6))
    window = draw(st.integers(1, blocks + taps_n + 1))
    sym = st.integers(0, q - 1)
    taps = np.array(draw(st.lists(sym, min_size=taps_n * r * lanes,
                                  max_size=taps_n * r * lanes)),
                    dtype=np.uint8).reshape(taps_n, r, lanes)
    x = np.array(draw(st.lists(sym, min_size=blocks * lanes,
                               max_size=blocks * lanes)),
                 dtype=np.uint8).reshape(blocks, lanes)
    return FIELDS[q], taps, x, window


@settings(max_examples=80, deadline=None)
@given(convolutions())
def test_convolution_equals_brute_force_sum(case):
    field, taps, x, window = case
    want = np.zeros((window, taps.shape[1]), dtype=np.uint8)
    for t in range(window):
        for d in range(taps.shape[0]):
            if 0 <= t - d < x.shape[0]:
                for i in range(taps.shape[1]):
                    for c in range(taps.shape[2]):
                        want[t, i] ^= field.mul(int(taps[d, i, c]),
                                                int(x[t - d, c]))
    got = gf_convolve(taps, x, field, window)
    assert np.array_equal(got, want)
    unrolled = convolution_matrix(taps, x.shape[0], window)
    flat = ref_matmul(unrolled, x.reshape(-1, 1), field)[:, 0]
    assert np.array_equal(flat, want.reshape(-1))
