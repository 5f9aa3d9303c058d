import time
from collections import Counter
from functools import lru_cache
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from qconvdec.algebra import (
    GF2, GF4, W, WBAR, DegreeCapError, Poly, RatMatrix, RationalFn,
    gf_rank, pack_slices, parse_poly, minors_gcd, ratio,
    symbol_bits, unpack_symbols,
)
import qconvdec.algebra
import qconvdec.circuits
import qconvdec.decoder
from qconvdec.circuits import (
    CandidateBuilder, CatastrophicGeneratorError, DerivationError,
    TransferSystem, block_isf_matrix, block_parity_matrix, block_syndrome,
    coset_code_rows, derive_bundle, derive_generator,
    derive_inverse_syndrome_former, derive_syndrome_former, full_row_rank,
    is_left_inverse, polynomial_kernel_basis,
)
from qconvdec.cli import main
from qconvdec.decoder import SyndromeDecoder, SyndromeDecoderF4
from qconvdec.simulate import ChannelParams, frame_rng, sample_error
from qconvdec.stabilizer import (
    EXAMPLE_311_TEXT, ErrorFrame, binary_transfer, example_311,
    parse_stabilizer,
    quaternary_transfer, syndrome_of,
)

from reference_candidate import reference_build, run_anticausal
from reference_elimination import left_inverse, rank, rational_taps
from reference_symbols import syndrome_symbols
import reference_transfer
from reference_transfer import shifted_isf_matrix
from reference_data import (
    CODES, LONG_REACH_TEXT, PATH_IDS, PATHS, REF_ALLONES_ISF_F4, REF_FIR_ISF_21,
    REF_GENERATOR_311, REF_GENERATOR_F4, REF_POLY_GP_21, REF_RATIONAL_GP_21,
    REF_RATIONAL_ISF_311, REF_TRANSFER_21, REF_TRANSFER_311_F4, spec_text,
)


def p(text, field=GF2):
    return parse_poly(text, field)


def hb_rate_half():
    return REF_TRANSFER_21


def hb_311():
    return binary_transfer(example_311())


class TestSyndromeFormer:
    def test_rate_half_column(self):
        sf = derive_syndrome_former(hb_rate_half())
        assert sf.matrix == RatMatrix.from_polys([[p("1+D^2")], [p("1+D+D^2")]])
        assert reference_transfer.state_dim(sf.matrix) <= 4

    def test_three_in_two_out(self):
        sf = derive_syndrome_former(hb_311())
        assert (sf.inputs, sf.outputs) == (3, 2)

    def test_identity_wire(self):
        sf = derive_syndrome_former(RatMatrix.from_polys([[p("1")]]))
        x = np.array([[1], [0], [1]], dtype=np.uint8)
        assert np.array_equal(sf.run(x), x)

    def test_rank_deficient_rejected(self):
        bad = RatMatrix.from_polys([[p("1+D"), p("1+D")],
                                    [p("1+D"), p("1+D")]])
        with pytest.raises(Exception):
            derive_syndrome_former(bad)


class TestInverseSyndromeFormer:
    def test_rate_half_fir_and_reference(self):
        hb = hb_rate_half()
        isf = derive_inverse_syndrome_former(hb)
        assert (isf.matrix @ hb.transpose()).is_identity()
        assert isf.matrix.is_polynomial()  # Bezout gives an FIR inverse
        assert (REF_FIR_ISF_21 @ hb.transpose()).is_identity()

    def test_reference_rational_isf_verifies(self):
        hb = hb_311()
        assert (REF_RATIONAL_ISF_311 @ hb.transpose()).is_identity()
        ours = derive_inverse_syndrome_former(hb)
        assert (ours.matrix @ hb.transpose()).is_identity()

    def test_decoder_refuses_wrong_isf(self):
        # the decoder's candidate builder is where a caller's ISF is checked:
        # with its rows swapped the derived ISF gives a permutation instead
        swapped = RatMatrix(
            derive_inverse_syndrome_former(hb_311()).matrix.entries[::-1])
        with pytest.raises(DerivationError, match="not a left inverse"):
            SyndromeDecoder(example_311(), isf_matrix=swapped)

    def test_identity_case(self):
        eye = RatMatrix.identity(2)
        isf = derive_inverse_syndrome_former(eye)
        assert isf.matrix.is_identity()
        assert isf.input_advance == 0

    def test_advance_extraction(self):
        # 1/D entry: realizable with one tick of lookahead
        m = RatMatrix([[ratio(p("1"), p("D"))]])
        sys = TransferSystem(m)
        assert sys.input_advance == 1
        x = np.zeros((6, 1), dtype=np.uint8)
        x[2, 0] = 1
        y = sys.run(x)
        # delayed output: D^1 * (x/D) = x
        assert y[:, 0].tolist() == x[:, 0].tolist()

    def test_pivot_rows_skip_a_vanishing_leading_minor(self):
        # H_b^T = [[0, 1], [0, D], [1, 1]]: its leading 2 x 2 minor is zero,
        # so column 0 swaps row 2 into place and column 1 takes row 1; L is
        # M^-1 on rows 2 and 1, M = [[1, 1], [0, D]]
        hb = RatMatrix.from_polys([[p("0"), p("0"), p("1")],
                                   [p("1"), p("D"), p("1")]])
        isf = derive_inverse_syndrome_former(hb)
        zero, one = RationalFn.zero(GF2), RationalFn.one(GF2)
        inv_d = ratio(p("1"), p("D"))
        assert isf.matrix == RatMatrix([[zero, inv_d, one],
                                        [zero, inv_d, zero]])
        assert isf.matrix == left_inverse(hb.transpose())
        assert is_left_inverse(isf, hb)
        assert isf.input_advance == 1


@st.composite
def full_row_rank_hb(draw):
    """A random full-row-rank H_b with r >= 2 rows, so that no Bezout row
    applies; in a share of the draws entry (0, 0) or all of row 0 of H_b^T
    is zero, so that elimination swaps rows and, for a zero row, its pivot
    rows are not rows 0..r-1."""
    field = draw(st.sampled_from([GF2, GF4]), label="field")
    r = draw(st.integers(2, 3), label="rows")
    n = draw(st.integers(r + 1, 5), label="cols")
    m = draw(st.integers(0, 2), label="m")
    size = (m + 1) * r * n
    taps = np.array(draw(st.lists(st.integers(0, field.order - 1),
                                  min_size=size, max_size=size), label="taps"),
                    dtype=np.uint8).reshape(m + 1, r, n)
    zero = draw(st.sampled_from(["none", "entry", "row"]), label="zero")
    if zero == "entry":
        taps[:, 0, 0] = 0
    elif zero == "row":
        taps[:, :, 0] = 0
    hb = RatMatrix.from_coeff_tensor(taps, field)
    assume(full_row_rank(hb))
    return hb


def closed_form(matrix, taps):
    """(N, a, P) of a transfer matrix, N worked out by ``taps``, or
    DegreeCapError when the closed form passes the degree cap."""
    system = TransferSystem(matrix)
    try:
        N = taps(system)
        return N.shape, N.tobytes(), system.input_advance, system.period
    except DegreeCapError:
        return DegreeCapError


def uncapped_rational_taps(system):
    """``rational_taps`` with no degree cap on its products, which can pass
    the cap on the way to an N within it. It raises DegreeCapError where
    ``TransferSystem.taps`` must: at a pole period past the cap (the period
    keeps its cap) or at an N of degree past it."""
    with mock.patch.object(qconvdec.algebra, "_DEGREE_CAP", 4096):
        N = rational_taps(system)
    if len(N) - 1 > qconvdec.algebra._DEGREE_CAP:
        raise DegreeCapError(f"N has degree {len(N) - 1}")
    return N


def gf4_hb(rows):
    return RatMatrix.from_polys([[p(e, GF4) for e in row] for row in rows])


@settings(max_examples=60, deadline=None)
@given(hb=full_row_rank_hb())
# the reference's intermediate products reach degree 514 on these, for an
# ISF whose N has degree 508 (a = 0, P = 510)
@example(hb=gf4_hb([["0", "w2+D^2", "1+w2*D", "0", "0"],
                    ["1+D+w2*D^2", "w2*D+D^2", "w2+w2*D+D^2", "0", "0"],
                    ["1+D+w*D^2", "1+D", "w2+D+w*D^2", "0", "0"]]))
@example(hb=gf4_hb([["1", "0", "D^2", "0"],
                    ["D^2", "D+w*D^2", "1", "0"],
                    ["0", "1+D+D^2", "D^2", "0"]]))
def test_adjugate_isf_is_the_elimination_inverse(hb):
    # the adjugate ISF is the reference elimination's RatMatrix, and its
    # closed forms, by exact division, are the reference's by rational
    # products (run with no cap on those products): the tick ISF on both
    # fields, the block ISF on GF(2)
    try:
        want = left_inverse(hb.transpose())
    except DegreeCapError:
        want = DegreeCapError
    try:
        got = derive_inverse_syndrome_former(hb).matrix
    except DegreeCapError:
        got = DegreeCapError
    assert got == want
    if got is DegreeCapError:
        return
    forms = [(got, want)]
    if hb.field is GF2:
        forms.append((block_isf_matrix(got), block_isf_matrix(want)))
    for ours, ref in forms:
        assert closed_form(ours, lambda system: system.taps) == \
            closed_form(ref, uncapped_rational_taps)


# the two polynomial kernel bases construction derives, each certified by
# the same full-row-rank test and minimality count
KERNEL_BASES = [pytest.param(derive_generator, id="generator"),
                pytest.param(coset_code_rows, id="coset")]


def catastrophic_kernel_basis(S, kernel_rank):
    rows = polynomial_kernel_basis(S, kernel_rank)
    return [[e * p("1+D", S.field) for e in rows[0]]] + rows[1:]


GENERATORS = {
    "311-bin": "D^2 | 1+D^2 | 1+D^2",
    "211-bin": "1 | D^2",
    "421-bin": "D+D^2+D^3 | D+D^2 | 1+D+D^3 | D+D^2\n"
               "1+D^2+D^3 | 1+D+D^3 | D | 1+D+D^2+D^3",
    "312-bin": "1+D^2+D^5+D^6+D^7 | 1+D^5 | D^6+D^7",
    "511-bin": "1+D^2 | D^2 | D^2 | 1 | D^2",
    "311-f4": "w | w2 | 1\n1+w*D | 1+D | 0",
    "511-f4": "w | 1 | 1 | 0 | 0\nw2 | w | 0 | w2 | 1\n"
              "w | w2*D | 0 | w+D | 0",
    "432-bin": "1+D | 1+D | 1 | D\n1 | D+D^2 | 1 | 0\n1+D+D^2 | 1 | D^2 | 0",
    "rate-half": "1+D+D^2 | 1+D^2",
}


def pinned_transfer(name):
    if name == "rate-half":
        return REF_TRANSFER_21
    code, path = name.split("-")
    spec = (parse_stabilizer(LONG_REACH_TEXT) if code == "432"
            else CODES[code])
    return binary_transfer(spec) if path == "bin" else \
        quaternary_transfer(spec).hq


class TestGenerator:
    def test_generator_matches_reference(self):
        gen = derive_generator(hb_311())
        assert gen.matrix == REF_GENERATOR_311

    def test_rate_half_row_space(self):
        gen = derive_generator(hb_rate_half())
        assert gen.matrix == REF_POLY_GP_21
        # a rational generator choice spans the same row space
        assert (REF_RATIONAL_GP_21 @ hb_rate_half().transpose()).is_zero()

    def test_gf4_references_verify(self):
        hq = REF_TRANSFER_311_F4
        assert (REF_ALLONES_ISF_F4 @ hq.transpose()).is_identity()
        assert (REF_GENERATOR_F4 @ hq.transpose()).is_zero()
        assert rank(REF_GENERATOR_F4) == 2
        ours = derive_generator(hq)
        assert (ours.matrix @ hq.transpose()).is_zero()
        assert rank(ours.matrix) == 2

    @pytest.mark.parametrize("name", sorted(GENERATORS))
    def test_generator_pinned(self, name):
        # the minimal kernel basis of every transfer matrix the suite builds,
        # rows separated by newlines
        assert str(derive_generator(pinned_transfer(name)).matrix) == \
            GENERATORS[name]

    @pytest.mark.parametrize("derive", KERNEL_BASES)
    @pytest.mark.parametrize("rows", [
        [["1", "1", "0"], ["1", "1", "0"]],
        # kernel rows [D, 1, 0] and [0, D^2, 1]: the sweep stops at degree
        # 1 with a basic row, below the second one; the block parity map of
        # this H_b has full row rank, and coset_code_rows refuses it still
        [["1", "D", "D^3"], ["D", "D^2", "D^4"]],
    ])
    def test_rank_deficient_rejected(self, rows, derive):
        hb = RatMatrix.from_polys([[p(e) for e in row] for row in rows])
        with pytest.raises(DerivationError, match="not full row rank"):
            derive(hb)

    @pytest.mark.parametrize("derive", KERNEL_BASES)
    def test_catastrophic_basis_rejected(self, monkeypatch, tmp_path,
                                         capsys, derive):
        # a kernel basis with a row times 1+D spans a smaller module: its
        # minors share 1+D, and the guard refuses it, also in the CLI
        monkeypatch.setattr(qconvdec.circuits, "polynomial_kernel_basis",
                            catastrophic_kernel_basis)
        with pytest.raises(CatastrophicGeneratorError, match=r"1\+D"):
            derive(hb_311())
        spec = tmp_path / "code.qcc"
        spec.write_text(EXAMPLE_311_TEXT)
        for command in ("derive", "verify"):
            assert main([command, str(spec)]) == 2
            err = capsys.readouterr().err.splitlines()
            assert len(err) == 1 and err[0].startswith(
                "error: kernel basis is not basic"), err


def impulse_response(matrix, length):
    """Response to a unit impulse on input 0, from the per-tick reference;
    the closed form must give the same."""
    y = reference_transfer.impulse_response(matrix, length)
    x = np.zeros((length, matrix.rows), dtype=np.uint8)
    x[0, 0] = 1
    assert np.array_equal(TransferSystem(matrix).run(x), y)
    return y


class TestRealization:
    def test_isf_impulse_interleaved(self):
        isf = RatMatrix.from_polys([[p("1+D"), p("D")]])
        y = impulse_response(isf, 3)
        assert [tuple(r) for r in y.tolist()] == [(1, 0), (1, 1), (0, 0)]
        assert reference_transfer.state_dim(isf) <= 1

    def test_recursive_all_ones(self):
        y = impulse_response(RatMatrix([[ratio(p("1"), p("1+D"))]]), 8)
        assert y[:, 0].tolist() == [1] * 8

    def test_generator_impulse(self):
        y = impulse_response(RatMatrix.from_polys(
            [[p("D^2"), p("1+D^2"), p("1+D^2")]]), 3)
        assert [tuple(r) for r in y.tolist()] == [(0, 1, 1), (0, 0, 0), (1, 1, 1)]
        assert int(y.sum()) == 5

    def test_streaming_equals_state_space(self):
        # the per-tick recursion, the explicit state-space matrices and the
        # closed form give the same stream
        rng = np.random.default_rng(0)
        matrices = [
            hb_rate_half().transpose(),
            RatMatrix([[ratio(p("1"), p("1+D")), RationalFn(p("1+D^2"))]]),
            derive_inverse_syndrome_former(hb_311()).matrix,
        ]
        for M in matrices:
            x = rng.integers(0, 2, size=(17, M.rows)).astype(np.uint8)
            want = reference_transfer.run(M, x, extra=4)
            assert np.array_equal(
                reference_transfer.run_state_space(M, x, extra=4), want)
            assert np.array_equal(TransferSystem(M).run(x, extra=4), want)

    def test_streaming_equals_polynomial_product(self):
        # FIR system: streamed output must equal the coefficient sequence
        rng = np.random.default_rng(1)
        gen = derive_generator(hb_311())
        u = rng.integers(0, 2, size=(9, 1)).astype(np.uint8)
        y = gen.run(u, extra=2)
        upoly = Poly(u[:, 0].tolist(), GF2)
        for j in range(3):
            prod = upoly * gen.matrix.entries[0][j].num
            coeffs = list(prod.coeffs) + [0] * (11 - prod.degree - 1)
            assert y[:, j].tolist() == coeffs[:11]

    def test_anticausal_matches_causal_for_fir(self):
        rng = np.random.default_rng(2)
        isf = RatMatrix.from_polys([[p("1+D"), p("D")]])
        sys = TransferSystem(isf)
        # [1, 1] is the parity map this ISF inverts: (1+D) + D = 1
        cb = CandidateBuilder(RatMatrix.from_polys([[p("1"), p("1")]]), isf)
        for _ in range(10):
            x = rng.integers(0, 2, size=(12, 1)).astype(np.uint8)
            # output support fits inside 14 ticks, so both expansions agree
            assert np.array_equal(run_anticausal(isf, x, 14),
                                  sys.run(x, extra=2))
            assert np.array_equal(cb.build(x, 14), sys.run(x, extra=2))

    def test_gf4_streaming(self):
        hq = RatMatrix.from_polys(
            [[p("1+D", GF4), p("1+w*D", GF4), p("1+w2*D", GF4)]])
        sf = TransferSystem(hq.transpose())
        x = np.zeros((4, 3), dtype=np.uint8)
        x[0, 1] = W
        y = sf.run(x)
        # w * (1 + wD) = w + w^2 D
        assert y[0, 0] == W and y[1, 0] == WBAR and not y[2:].any()


@lru_cache(maxsize=None)
def closed_form_matrices():
    """Every rational map the decoder evaluates, by id: SF, ISF and GEN of
    the test codes on both fields, their block ISFs and coset generators,
    plus 1/(1+D) and a mixed matrix with a pole at 0 and period 21."""
    out = {}
    for name, path in PATHS:
        spec = CODES[name]
        if path == "f4":
            hb = quaternary_transfer(spec).hq
            coset = polynomial_kernel_basis(hb, hb.cols - hb.rows)
        else:
            hb = binary_transfer(spec)
            coset = coset_code_rows(hb)
        bundle = derive_bundle(hb)
        for system in (derive_syndrome_former(hb), bundle.isf,
                       derive_generator(hb)):
            out[f"{name}-{path}-{system.role}"] = system.matrix
        out[f"{name}-{path}-COSET"] = RatMatrix.from_polys(coset)
        if path == "bin":
            out[f"{name}-bin-BLOCK-ISF"] = block_isf_matrix(bundle.isf.matrix)
    out["1/(1+D)"] = RatMatrix([[ratio(p("1"), p("1+D"))]])
    out["mixed"] = RatMatrix([
        [ratio(p("1"), p("1+D")), RationalFn(p("1+D^2")), ratio(p("1"), p("D"))],
        [ratio(p("1+D"), p("1+D+D^3")), RationalFn.zero(),
         ratio(p("1"), p("D^2+D^3+D^4"))]])
    return out


CLOSED_FORM_IDS = list(closed_form_matrices())


def closed_form_cases(name):
    """The system and random (T, inputs) frames with T in 1, P-1, P+1, 200,
    each with extra 0 and 7."""
    M = closed_form_matrices()[name]
    system = TransferSystem(M)
    P = system.period
    rng = np.random.default_rng(13)
    for T in sorted({1, P - 1, P + 1, 200}):
        x = rng.integers(0, M.field.order, size=(T, M.rows)).astype(np.uint8)
        for extra in (0, 7):
            yield system, x, extra


class TestClosedForm:
    """TransferSystem against the per-tick references, causal and
    anticausal, on every map the decoder evaluates."""

    def test_periods_cover_the_strides(self):
        periods = {TransferSystem(M).period
                   for M in closed_form_matrices().values()}
        assert {1, 3, 21} <= periods

    @pytest.mark.parametrize("name", CLOSED_FORM_IDS)
    def test_run_matches_per_tick_reference(self, name):
        for system, x, extra in closed_form_cases(name):
            assert np.array_equal(
                system.run(x, extra),
                reference_transfer.run(system.matrix, x, extra)), (
                    x.shape[0], extra)

    @pytest.mark.parametrize("name", CLOSED_FORM_IDS)
    def test_run_anticausal_matches_reference(self, name):
        # each frame alone, and with two more frames on a trailing batch
        # axis, where each must come out as it does alone
        for system, x, extra in closed_form_cases(name):
            length = x.shape[0] + extra
            bps = symbol_bits(system.field)
            words = system.run_anticausal_words(pack_slices(x, bps), length)
            assert np.array_equal(
                unpack_symbols(words, system.outputs, bps),
                run_anticausal(system.matrix, x, length)), (
                    x.shape[0], extra)
            frames = [pack_slices(f, bps) for f in (x, x[::-1], x ^ 1)]
            batch = system.run_anticausal_words(np.stack(frames, axis=-1),
                                                length)
            assert batch.shape == (length, 3)
            for b, f in enumerate(frames):
                assert np.array_equal(
                    batch[:, b], system.run_anticausal_words(f, length))

    def test_pole_period_past_degree_cap_fails_fast(self):
        # 1+D^3+D^20 is primitive, so its period is 2^20 - 1
        pole = p("1+D^3+D^20")
        isf = RatMatrix([[ratio(p("1"), pole)]])
        t0 = time.perf_counter()
        with pytest.raises(DegreeCapError, match="pole period"):
            TransferSystem(isf).run(np.zeros((4, 1), dtype=np.uint8))
        with pytest.raises(DegreeCapError, match="pole period"):
            CandidateBuilder(RatMatrix.from_polys([[pole]]), isf)
        assert time.perf_counter() - t0 < 1.0


class TestRoundTrips:
    def test_sf_isf_identity_example1(self):
        hb = hb_rate_half()
        bundle = derive_bundle(hb)
        sf = derive_syndrome_former(hb)
        rng = np.random.default_rng(3)
        for _ in range(50):
            s = rng.integers(0, 2, size=(24, 1)).astype(np.uint8)
            w = bundle.isf.run(s)
            z = sf.run(w)
            a = bundle.isf.input_advance
            assert np.array_equal(z[a:], s[: s.shape[0] - a])

    def test_sf_gen_zero(self):
        for hb in (hb_rate_half(), hb_311()):
            sf, gen = derive_syndrome_former(hb), derive_generator(hb)
            rng = np.random.default_rng(4)
            for _ in range(20):
                u = rng.integers(0, 2, size=(30, gen.inputs)).astype(np.uint8)
                c = gen.run(u, extra=4)
                assert not sf.run(c, extra=4).any()

    def test_shifted_isf_is_valid_and_different(self):
        bundle = derive_bundle(hb_311())
        alt = shifted_isf_matrix(bundle, [p("1"), p("D")])
        assert alt != bundle.isf.matrix
        assert (alt @ bundle.hb.transpose()).is_identity()


class TestBlockView:
    def test_block_parity_matches_spec(self):
        spec = example_311()
        S = block_parity_matrix(binary_transfer(spec))
        Q = RatMatrix.from_coeff_tensor(spec.q_coeffs).poly_entries()
        P = RatMatrix.from_coeff_tensor(spec.p_coeffs).poly_entries()
        expect = RatMatrix.from_polys([
            list(Q[0]) + list(P[0]),
            list(Q[1]) + list(P[1]),
        ])
        assert S == expect

    def test_block_syndrome_matches_stabilizer(self):
        spec = example_311()
        hb = binary_transfer(spec)
        S = block_parity_matrix(hb)
        rng = np.random.default_rng(5)
        for _ in range(25):
            f = ErrorFrame(rng.integers(0, 2, 60).astype(np.uint8))
            assert np.array_equal(block_syndrome(S, f.blocks(3)),
                                  syndrome_of(spec, f))

    def test_block_syndrome_is_odd_phase_of_sf(self):
        spec = example_311()
        hb = binary_transfer(spec)
        S = block_parity_matrix(hb)
        sf = derive_syndrome_former(hb)
        rng = np.random.default_rng(6)
        for _ in range(10):
            f = ErrorFrame(rng.integers(0, 2, 48).astype(np.uint8))
            blocks = f.blocks(3)
            ticks = np.zeros((2 * blocks.shape[0], 3), dtype=np.uint8)
            ticks[0::2] = blocks[:, :3]
            ticks[1::2] = blocks[:, 3:]
            full = sf.run(ticks)
            assert np.array_equal(full[1::2], block_syndrome(S, blocks))


class TestCosetCode:
    def test_structure_311(self):
        rows = coset_code_rows(hb_311())
        assert len(rows) == 4
        degs = sorted(max(p.degree for p in r) for r in rows)
        assert degs == [0, 0, 1, 1]
        assert minors_gcd(RatMatrix.from_polys(rows)).is_one()

    def test_rows_have_zero_syndrome(self):
        hb = hb_311()
        S = block_parity_matrix(hb)
        for row in coset_code_rows(hb):
            blocks = np.zeros((8, 6), dtype=np.uint8)
            for c, poly in enumerate(row):
                for d, cf in enumerate(poly.coeffs):
                    blocks[2 + d, c] = cf
            assert not block_syndrome(S, blocks, 10).any()

    def test_paths_span_window_kernel(self):
        # zero-terminated trellis paths must span the whole window kernel:
        # sum(TB - deg_i) == dim ker(unrolled syndrome map)
        hb = hb_311()
        S = block_parity_matrix(hb)
        rows = coset_code_rows(hb)
        TB = 7
        path_dim = sum(TB - max(p.degree for p in r) for r in rows)
        cols = []
        for idx in range(TB * 6):
            e = np.zeros((TB, 6), dtype=np.uint8)
            e[idx // 6, idx % 6] = 1
            cols.append(block_syndrome(S, e, TB + 1).reshape(-1))
        A = np.stack(cols, axis=1) % 2
        kdim = TB * 6 - _gf2_rank(A)
        assert path_dim == kdim

    def test_reversed_stabilizer_rows_in_kernel(self):
        spec = example_311()
        hb = binary_transfer(spec)
        S = block_parity_matrix(hb)
        m = spec.m
        for i in range(2):
            blocks = np.zeros((6, 6), dtype=np.uint8)
            for b in range(m + 1):
                blocks[m - b, :3] = spec.p_coeffs[b, i]
                blocks[m - b, 3:] = spec.q_coeffs[b, i]
            assert not block_syndrome(S, blocks, 7).any()


def _assert_row_reduced_kernel(S, rows):
    """rows is a row-reduced basis of the polynomial kernel of S: full-rank
    leading coefficient matrix, nondecreasing degrees, and rows @ S^T = 0."""
    degs = [max(p.degree for p in r) for r in rows]
    assert len(rows) == S.cols - rank(S)
    assert degs == sorted(degs)
    lead = np.array([[poly[d] for poly in r] for r, d in zip(rows, degs)],
                    dtype=np.uint8)
    assert gf_rank(lead, S.field) == len(rows)
    assert (RatMatrix.from_polys(rows) @ S.transpose()).is_zero()


class TestKernelBasis:
    @pytest.mark.parametrize("name,path", PATHS, ids=PATH_IDS)
    def test_code_bases_are_row_reduced(self, name, path):
        spec = CODES[name]
        S = (quaternary_transfer(spec).hq if path == "f4"
             else block_parity_matrix(binary_transfer(spec)))
        _assert_row_reduced_kernel(
            S, polynomial_kernel_basis(S, S.cols - S.rows))

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_random_parity_maps(self, data):
        field = data.draw(st.sampled_from([GF2, GF4]), label="field")
        r = data.draw(st.integers(1, 2), label="rows")
        lanes = data.draw(st.integers(r + 1, 4), label="lanes")
        m = data.draw(st.integers(0, 2), label="m")
        taps = np.array(data.draw(st.lists(
            st.integers(0, field.order - 1), min_size=(m + 1) * r * lanes,
            max_size=(m + 1) * r * lanes), label="taps"),
            dtype=np.uint8).reshape(m + 1, r, lanes)
        S = RatMatrix.from_coeff_tensor(taps, field)
        _assert_row_reduced_kernel(
            S, polynomial_kernel_basis(S, S.cols - rank(S)))


class TestCertificate:
    """One GF(q) full-row-rank test and one minimality count certify both
    polynomial kernel bases."""

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_full_row_rank_agrees_with_rational_rank(self, data):
        field = data.draw(st.sampled_from([GF2, GF4]), label="field")
        r = data.draw(st.integers(1, 3), label="rows")
        cols = data.draw(st.integers(1, 4), label="cols")
        m = data.draw(st.integers(0, 2), label="m")
        symbols = st.integers(0, field.order - 1)
        taps = np.array(data.draw(st.lists(
            symbols, min_size=(m + 1) * r * cols,
            max_size=(m + 1) * r * cols), label="taps"),
            dtype=np.uint8).reshape(m + 1, r, cols)
        rows = RatMatrix.from_coeff_tensor(taps, field).poly_entries()
        if r > 1 and data.draw(st.booleans(), label="dependent"):
            # the last row becomes a polynomial mix of the others
            mix = [Poly(data.draw(st.lists(symbols, min_size=1, max_size=2),
                                  label="mix"), field) for _ in rows[1:]]
            rows[-1] = [sum((a * row[c] for a, row in zip(mix, rows)),
                            Poly.zero(field)) for c in range(cols)]
        S = RatMatrix.from_polys(rows)
        assert full_row_rank(S) == (rank(S) == S.rows)

    def test_construction_runs_no_rational_rank_or_minors(self, monkeypatch,
                                                          tmp_path):
        # no decoder build, derive or verify does rational-function
        # arithmetic or works out a minors gcd: each runs over GF(q)
        def refuse(*args):
            raise AssertionError("construction left the GF(q) certificate")

        monkeypatch.setattr(qconvdec.algebra, "minors_gcd", refuse)
        monkeypatch.setattr(qconvdec.circuits, "minors_gcd", refuse)
        for name in ("__add__", "__sub__", "__mul__", "inverse"):
            monkeypatch.setattr(RationalFn, name, refuse)
        monkeypatch.setattr(RatMatrix, "__matmul__", refuse)
        for name, path in PATHS:
            (SyndromeDecoderF4 if path == "f4" else SyndromeDecoder)(
                CODES[name])
        SyndromeDecoder(parse_stabilizer(LONG_REACH_TEXT))
        texts = [spec_text(spec) for spec in CODES.values()]
        for i, text in enumerate(texts + [LONG_REACH_TEXT]):
            path = tmp_path / f"code{i}.qcc"
            path.write_text(text)
            assert main(["derive", str(path)]) == 0
            assert main(["verify", str(path), "--trials", "2"]) == 0

    def test_construction_derives_isf_and_one_coset_basis(self, monkeypatch):
        # a decoder runs the ISF and the coset trellis only: it derives no
        # generator or syndrome former and one kernel basis, tests H_b's
        # rank once, plus once in coset_code_rows on the binary path, and
        # multiplies no rational matrices
        calls = Counter()

        def count(module, name):
            fn = getattr(module, name)

            def counted(*args):
                calls[name] += 1
                return fn(*args)
            monkeypatch.setattr(module, name, counted)

        for name in ("derive_generator", "derive_syndrome_former",
                     "full_row_rank", "polynomial_kernel_basis"):
            count(qconvdec.circuits, name)
        count(qconvdec.decoder, "polynomial_kernel_basis")
        count(RatMatrix, "__matmul__")
        for name, path in PATHS:
            calls.clear()
            (SyndromeDecoderF4 if path == "f4" else SyndromeDecoder)(
                CODES[name])
            assert dict(calls) == {"polynomial_kernel_basis": 1,
                                   "full_row_rank": 2 if path == "bin" else 1
                                   }, (name, path)

    @pytest.mark.parametrize("path", ["bin", "f4"])
    def test_decoder_refuses_catastrophic_coset_basis(self, monkeypatch,
                                                      path):
        # construction derives no generator, so the coset basis count is
        # what refuses a catastrophic basis, on both paths
        for module in (qconvdec.circuits, qconvdec.decoder):
            monkeypatch.setattr(module, "polynomial_kernel_basis",
                                catastrophic_kernel_basis)
        with pytest.raises(CatastrophicGeneratorError, match=r"1\+D"):
            (SyndromeDecoderF4 if path == "f4" else SyndromeDecoder)(
                example_311())


def _gf2_rank(M):
    M = M.copy() % 2
    r = 0
    rows, cols = M.shape
    for c in range(cols):
        sel = next((i for i in range(r, rows) if M[i, c]), None)
        if sel is None:
            continue
        M[[r, sel]] = M[[sel, r]]
        for i in range(rows):
            if i != r and M[i, c]:
                M[i] ^= M[r]
        r += 1
    return r


def binary_candidates(hb):
    """The binary path's candidate builder: block-domain S and ISF."""
    return CandidateBuilder(block_parity_matrix(hb), block_isf_matrix(
        derive_inverse_syndrome_former(hb).matrix))


class TestCandidate:
    def test_candidate_matches_any_syndrome(self):
        hb = hb_311()
        cb = binary_candidates(hb)
        S = block_parity_matrix(hb)
        rng = np.random.default_rng(7)
        for _ in range(40):
            sigma = rng.integers(0, 2, size=(10, 2)).astype(np.uint8)
            sigma[-1:] = 0  # measured span ends quiet
            W = cb.build(sigma, 12)
            got = block_syndrome(S, W, 13)
            want = np.zeros((13, 2), dtype=np.uint8)
            want[:10] = sigma
            assert np.array_equal(got, want)

    def test_candidate_from_error_syndrome(self):
        spec = example_311()
        hb = binary_transfer(spec)
        cb = binary_candidates(hb)
        S = block_parity_matrix(hb)
        rng = np.random.default_rng(8)
        for _ in range(20):
            e = np.zeros((9, 6), dtype=np.uint8)
            e[:7] = rng.integers(0, 2, size=(7, 6))
            sigma = block_syndrome(S, e, 10)
            W = cb.build(sigma, 9)
            assert np.array_equal(block_syndrome(S, W, 10), sigma)

    def test_candidate_is_error_plus_codeword(self):
        # for any error e, the candidate for its syndrome differs from e by a
        # zero-syndrome frame (a valid codeword of the coset code)
        spec = example_311()
        hb = binary_transfer(spec)
        cb = binary_candidates(hb)
        S = block_parity_matrix(hb)
        rng = np.random.default_rng(9)
        for _ in range(25):
            e = np.zeros((10, 6), dtype=np.uint8)
            e[:8] = rng.integers(0, 2, size=(8, 6))
            sigma = block_syndrome(S, e, 11)
            W = cb.build(sigma, 10)
            assert not block_syndrome(S, W ^ e, 11).any()

    def test_second_isf_also_builds_candidates(self):
        hb = hb_311()
        bundle = derive_bundle(hb)
        S = block_parity_matrix(hb)
        cb = CandidateBuilder(S, block_isf_matrix(
            shifted_isf_matrix(bundle, [p("1"), p("D")])))
        sigma = np.zeros((5, 2), dtype=np.uint8)
        sigma[0, 1] = 1
        W = cb.build(sigma, 7)
        want = np.zeros((8, 2), dtype=np.uint8)
        want[0, 1] = 1
        assert np.array_equal(block_syndrome(S, W, 8), want)

    def test_rejects_syndrome_beyond_frame(self):
        cb = binary_candidates(hb_311())
        sigma = np.zeros((8, 2), dtype=np.uint8)
        sigma[6, 0] = 1
        with pytest.raises(ValueError, match="beyond the 6-block frame"):
            cb.build(sigma, 6)

    def test_rejects_isf_that_does_not_invert(self):
        hb = hb_311()
        # the tick-rate ISF is not a left inverse of the block-domain S
        L = RatMatrix([list(row) * 2 for row in
                       derive_inverse_syndrome_former(hb).matrix.entries])
        with pytest.raises(DerivationError, match="not a left inverse"):
            CandidateBuilder(block_parity_matrix(hb), L)


def isf_variants(decoder):
    """(id, block ISF) pairs around the decoder's own block maps: the ISF, a
    shifted one on the binary path, its rows swapped where r > 1, and two
    entries perturbed by 1 and by D^3."""
    S, L = decoder._block_maps(decoder.bundle)
    out = [("own", L)]
    if L.field is GF2:
        out.append(("shifted", block_isf_matrix(shifted_isf_matrix(
            decoder.bundle, [p("1"), p("D")]))))
    if L.rows > 1:
        out.append(("swapped", RatMatrix(L.entries[::-1], L.field)))
    rows = [list(row) for row in L.entries]
    rows[0][0] = rows[0][0] + RationalFn(Poly.one(L.field))
    rows[-1][-1] = rows[-1][-1] + RationalFn(Poly.monomial(3, field=L.field))
    out.append(("perturbed", RatMatrix(rows, L.field)))
    return S, out


class TestISFCheck:
    """CandidateBuilder's GF(q) check of N @ S^T = D^a (1 + D^P) I is the
    rational identity isf @ S^T = I."""

    @pytest.mark.parametrize("name,path", PATHS, ids=PATH_IDS)
    def test_accepts_exactly_the_left_inverses(self, name, path):
        decoder = (SyndromeDecoderF4 if path == "f4" else SyndromeDecoder)(
            CODES[name])
        S, variants = isf_variants(decoder)
        verdicts = {}
        for label, L in variants:
            try:
                CandidateBuilder(S, L)
                accepted = True
            except DerivationError as exc:
                assert "not a left inverse" in str(exc)
                accepted = False
            assert accepted == (L @ S.transpose()).is_identity(), label
            verdicts[label] = accepted
        assert verdicts["own"] and not verdicts["perturbed"]

    @pytest.mark.parametrize("name,path", PATHS, ids=PATH_IDS)
    def test_shape_mismatch_is_a_value_error(self, name, path):
        decoder = (SyndromeDecoderF4 if path == "f4" else SyndromeDecoder)(
            CODES[name])
        S, L = decoder._block_maps(decoder.bundle)
        zero = RationalFn.zero(L.field)
        wide = RatMatrix([list(row) + [zero] for row in L.entries], L.field)
        tall = RatMatrix([list(row) for row in L.entries]
                         + [[zero] * L.cols], L.field)
        for bad in (wide, tall, RatMatrix(L.entries[:1], L.field),
                    L.transpose()):
            if (bad.rows, bad.cols) == (S.rows, S.cols):
                continue
            with pytest.raises(ValueError, match="does not fit"):
                CandidateBuilder(S, bad)


class TestBlockISF:
    @pytest.mark.parametrize("name", CODES)
    def test_block_isf_inverts_block_parity(self, name):
        hb = binary_transfer(CODES[name])
        L = derive_inverse_syndrome_former(hb).matrix
        S = block_parity_matrix(hb)
        assert (block_isf_matrix(L) @ S.transpose()).is_identity()

    def test_shifted_isf_inverts_block_parity(self):
        hb = hb_311()
        alt = shifted_isf_matrix(derive_bundle(hb), [p("1"), p("D")])
        S = block_parity_matrix(hb)
        assert (block_isf_matrix(alt) @ S.transpose()).is_identity()

    def test_block_isf_is_tick_stream_folded(self):
        # sigma @ block ISF == the zero-stuffed syndrome streamed through L,
        # folded into (a | b) lanes (causal, delayed by the input advance)
        hb = hb_311()
        isf = derive_inverse_syndrome_former(hb)
        a = isf.input_advance
        M = TransferSystem(block_isf_matrix(isf.matrix))
        rng = np.random.default_rng(10)
        sigma = rng.integers(0, 2, size=(12, 2)).astype(np.uint8)
        ticks = np.zeros((24 + 2 * a, 2), dtype=np.uint8)
        ticks[1:24:2] = sigma
        v = isf.run(ticks)[a:]
        blocks = M.run(sigma, extra=M.input_advance)[M.input_advance:]
        assert np.array_equal(blocks[:, :3], v[0::2][:12])
        assert np.array_equal(blocks[:, 3:], v[1::2][:12])


def build_or_error(build, sigma, blocks):
    try:
        return build(sigma, blocks)
    except DerivationError as exc:
        return str(exc)


class TestCandidateReference:
    """The block-domain candidate map against the tick-rate reference: the
    same frame, or the same error text, for every code and path."""

    @pytest.mark.parametrize("name,path", PATHS, ids=PATH_IDS)
    def test_matches_reference(self, name, path):
        spec = CODES[name]
        f4 = path == "f4"
        decoder = (SyndromeDecoderF4 if f4 else SyndromeDecoder)(spec)
        rng = np.random.default_rng(11)
        outcomes = set()
        for blocks in list(range(spec.m + 2, 41)) + [300]:
            data = (blocks - spec.m - 1) * spec.n
            channel = decoder.measure(sample_error(
                ChannelParams(0.1), data, frame_rng(12, blocks)))
            uniform = rng.integers(0, 2, size=channel.shape).astype(np.uint8)
            for sigma in (channel, uniform):
                sym = syndrome_symbols(decoder, sigma)
                want = build_or_error(
                    lambda s, b: reference_build(decoder.bundle, s, b,
                                                 interleaved=not f4),
                    sym, blocks)
                got = build_or_error(decoder.candidates.build, sym, blocks)
                if isinstance(want, str):
                    assert got == want, (name, blocks)
                    outcomes.add(want)
                else:
                    assert np.array_equal(got, want), (name, blocks)
                    outcomes.add("frame")
        assert "frame" in outcomes
