import numpy as np
import pytest
from hypothesis import given, strategies as st

from qconvdec.algebra import GF2, GF4, RatMatrix, gf_convolve, parse_poly
from reference_data import CODES, REF_TRANSFER_311, REF_TRANSFER_311_F4
from reference_symbols import f4_to_binary_syndrome

from qconvdec.stabilizer import (
    ErrorFrame, F4LinearityError, SpecError, StabilizerSpec,
    binary_transfer, check_symplectic, example_311, parse_stabilizer,
    quaternary_transfer, syndrome_of,
)


def p(text):
    return parse_poly(text, GF2)


def p4(text):
    return parse_poly(text, GF4)


class TestParsing:
    def test_example_readoff(self):
        spec = example_311()
        assert (spec.n, spec.k, spec.m) == (3, 1, 1)
        P = RatMatrix.from_coeff_tensor(spec.p_coeffs)
        Q = RatMatrix.from_coeff_tensor(spec.q_coeffs)
        assert P == RatMatrix.from_polys([
            [p("1+D"), p("1"), p("1+D")],
            [p("0"), p("D"), p("D")],
        ])
        assert Q == RatMatrix.from_polys([
            [p("0"), p("D"), p("D")],
            [p("1+D"), p("1+D"), p("1")],
        ])

    def test_rejects_dependent_rows(self):
        with pytest.raises(SpecError, match="independent"):
            StabilizerSpec(n=3, k=1, m=1, generators=("IIIIII", "XXXXZY"))

    def test_block_code_case(self):
        spec = StabilizerSpec(n=2, k=1, m=0, generators=("XX",))
        assert RatMatrix.from_coeff_tensor(spec.p_coeffs) == \
            RatMatrix.from_polys([[p("1"), p("1")]])
        assert RatMatrix.from_coeff_tensor(spec.q_coeffs) == \
            RatMatrix.from_polys([[p("0"), p("0")]])

    def test_wrong_length(self):
        with pytest.raises(SpecError, match="length"):
            StabilizerSpec(n=3, k=1, m=1, generators=("XXXX", "ZZZZ"))

    def test_invalid_char(self):
        with pytest.raises(SpecError, match="Pauli"):
            StabilizerSpec(n=3, k=1, m=1, generators=("XXXXZA", "ZZZZYX"))

    def test_generator_count(self):
        with pytest.raises(SpecError, match="generators"):
            parse_stabilizer("qcc n=3 k=1 m=1\nXXXXZY\n")

    def test_header_errors(self):
        with pytest.raises(SpecError):
            parse_stabilizer("nothing here\nXX\n")
        with pytest.raises(SpecError):
            parse_stabilizer("qcc n=3 k=1\nXXXXZY\nZZZZYX\n")

    def test_comments_ignored(self):
        spec = parse_stabilizer("# c\nqcc n=2 k=1 m=0\n# mid\nXX\n")
        assert spec.generators == ("XX",)


class TestSymplectic:
    def test_example_passes(self):
        assert check_symplectic(example_311()).ok

    def test_mutation_fails_with_witness(self):
        # flip generator 1's last symbol Y -> X
        spec = StabilizerSpec(n=3, k=1, m=1, generators=("XXXXZX", "ZZZZYX"))
        res = check_symplectic(spec)
        assert not res.ok
        assert res.witness == (0, 0, (-1, 1))
        assert res.witness_text() == "witness entry 0,0 at block shifts -1, 1"

    def test_single_generator_diagonal(self):
        spec = StabilizerSpec(n=2, k=1, m=0, generators=("XZ",))
        assert check_symplectic(spec).ok

    def test_self_shift_anticommutation_detected(self):
        # YXXXZY anticommutes with its own one-block shift; the diagonal
        # entry of the commutation matrix must not collapse to zero
        spec = StabilizerSpec(n=3, k=1, m=1, generators=("YXXXZY", "ZZZZYX"))
        assert not check_symplectic(spec).ok

    @pytest.mark.parametrize("name", list(CODES))
    def test_matches_pauli_string_reference(self, name):
        # the code itself and 250 seeded mutations of 1-3 symbols each
        spec = CODES[name]
        rng = np.random.default_rng([2026, spec.n, spec.m])
        cases = [spec.generators]
        for _ in range(250):
            gens = [list(g) for g in spec.generators]
            for _ in range(int(rng.integers(1, 4))):
                gi = int(rng.integers(0, len(gens)))
                pos = int(rng.integers(0, len(gens[gi])))
                gens[gi][pos] = str(rng.choice(
                    [c for c in "IXYZ" if c != gens[gi][pos]]))
            cases.append(tuple("".join(g) for g in gens))
        failed = 0
        for gens in cases:
            try:
                mutated = StabilizerSpec(n=spec.n, k=spec.k, m=spec.m,
                                         generators=gens)
            except SpecError:
                continue  # dependent rows
            res = check_symplectic(mutated)
            assert (res.ok, res.witness) == _reference_symplectic(mutated)
            failed += not res.ok
        assert check_symplectic(spec).ok
        assert 100 <= failed < len(cases)

    def test_self_shift_matches_pauli_string_reference(self):
        spec = StabilizerSpec(n=3, k=1, m=1, generators=("YXXXZY", "ZZZZYX"))
        res = check_symplectic(spec)
        assert (res.ok, res.witness) == _reference_symplectic(spec)
        assert res.witness[:2] == (0, 0)

    def test_row_sum_preserves(self):
        spec = example_311()
        g1, g2 = spec.generators
        prod = _pauli_product(g1, g2)
        spec2 = StabilizerSpec(n=3, k=1, m=1, generators=(g1, prod))
        assert check_symplectic(spec2).ok

    def test_random_mutations_mostly_fail(self):
        rng = np.random.default_rng(7)
        spec = example_311()
        fails = 0
        trials = 100
        for _ in range(trials):
            gens = [list(g) for g in spec.generators]
            gi = rng.integers(0, len(gens))
            pos = rng.integers(0, len(gens[gi]))
            old = gens[gi][pos]
            gens[gi][pos] = rng.choice([c for c in "IXYZ" if c != old])
            try:
                mutated = StabilizerSpec(
                    n=3, k=1, m=1,
                    generators=tuple("".join(g) for g in gens))
            except SpecError:
                fails += 1  # dependent rows are also a detected corruption
                continue
            if not check_symplectic(mutated).ok:
                fails += 1
        assert fails >= 90


def _reference_symplectic(spec: StabilizerSpec):
    """(ok, witness) straight from the Pauli strings: generator i and
    generator j moved d blocks later anticommute when an odd number of
    positions hold two different non-identity Paulis."""
    n, m, gens = spec.n, spec.m, spec.generators
    for i, gi in enumerate(gens):
        for j, gj in enumerate(gens):
            shifts = []
            for d in range(-m, m + 1):
                clashes = 0
                for b in range(max(0, d), min(m, m + d) + 1):
                    for c in range(n):
                        a, o = gi[b * n + c], gj[(b - d) * n + c]
                        clashes += "I" not in (a, o) and a != o
                if clashes % 2:
                    shifts.append(d)
            if shifts:
                return False, (i, j, tuple(shifts))
    return True, None


def _pauli_product(a: str, b: str) -> str:
    fa = ErrorFrame.from_pauli(a)
    fb = ErrorFrame.from_pauli(b)
    return (fa ^ fb).to_pauli()


class TestBinaryTransfer:
    def test_reference_transfer_verbatim(self):
        hb = RatMatrix.from_coeff_tensor(binary_transfer(example_311()))
        assert hb == REF_TRANSFER_311

    def test_pure_z(self):
        spec = StabilizerSpec(n=2, k=1, m=0, generators=("ZZ",))
        hb = RatMatrix.from_coeff_tensor(binary_transfer(spec))
        assert hb == RatMatrix.from_polys([[p("D"), p("D")]])

    def test_m0_block(self):
        spec = StabilizerSpec(n=2, k=0, m=0, generators=("XX", "ZZ"))
        hb = RatMatrix.from_coeff_tensor(binary_transfer(spec))
        assert hb == RatMatrix.from_polys([
            [p("1"), p("1")],
            [p("D"), p("D")],
        ])


class TestQuaternaryTransfer:
    def test_reference_gf4_transfer(self):
        qt = quaternary_transfer(example_311())
        assert RatMatrix.from_coeff_tensor(qt.hq, GF4) == REF_TRANSFER_311_F4

    def test_syndrome_remap_roundtrip(self):
        qt = quaternary_transfer(example_311())
        rng = np.random.default_rng(3)
        sigma = rng.integers(0, 2, size=(11, 2)).astype(np.uint8)
        sym = qt.binary_to_f4_syndrome(sigma)
        back = f4_to_binary_syndrome(qt, sym)
        assert np.array_equal(back, sigma)

    def test_scaled_rows_reduce_to_one(self):
        # XX / ZZ: rows (1,1) and (w,w) span the F4 line through (1,1)
        spec = StabilizerSpec(n=2, k=0, m=0, generators=("XX", "ZZ"))
        qt = quaternary_transfer(spec)
        assert qt.hq.shape[1] == 1

    def test_refusal_when_not_f4_linear(self):
        spec = StabilizerSpec(n=4, k=2, m=0, generators=("XXXX", "ZZII"))
        with pytest.raises(F4LinearityError):
            quaternary_transfer(spec)


class TestFrames:
    def test_encoding_table(self):
        f = ErrorFrame.from_pauli("XZY")
        assert f.bits.tolist() == [1, 0, 0, 1, 1, 1]

    def test_all_identity(self):
        f = ErrorFrame.from_pauli("III")
        assert not f.bits.any()

    @given(st.text(alphabet="IXYZ", min_size=1, max_size=40))
    def test_roundtrip(self, s):
        assert ErrorFrame.from_pauli(s).to_pauli() == s

    def test_block_view_roundtrip(self):
        f = ErrorFrame.from_pauli("XZYIIX")
        assert ErrorFrame.from_blocks(f.blocks(3)) == f

    def test_odd_bits_rejected(self):
        with pytest.raises(ValueError):
            ErrorFrame(np.zeros(5, dtype=np.uint8))


class TestSyndrome:
    def test_all_identity_zero(self):
        spec = example_311()
        f = ErrorFrame.zeros(12)
        assert not syndrome_of(spec, f).any()

    def test_single_x_example(self):
        # X on qubit 0, 4 blocks: generator 1 silent, generator 2 fires at
        # block offsets 0 and 1 (coefficients of Q column 0 = 1+D)
        spec = example_311()
        f = ErrorFrame.zeros(12)
        f.bits[0] = 1
        sig = syndrome_of(spec, f)
        expected = np.zeros((4, 2), dtype=np.uint8)
        expected[0, 1] = 1
        expected[1, 1] = 1
        assert np.array_equal(sig, expected)

    def test_linearity(self):
        spec = example_311()
        rng = np.random.default_rng(5)
        for _ in range(20):
            e = ErrorFrame(rng.integers(0, 2, 24).astype(np.uint8))
            f = ErrorFrame(rng.integers(0, 2, 24).astype(np.uint8))
            lhs = syndrome_of(spec, e ^ f)
            rhs = syndrome_of(spec, e) ^ syndrome_of(spec, f)
            assert np.array_equal(lhs, rhs)

    def test_length_mismatch(self):
        spec = example_311()
        with pytest.raises(ValueError):
            syndrome_of(spec, ErrorFrame.zeros(4))

    def test_full_window_covers_support(self):
        spec = example_311()
        f = ErrorFrame.zeros(6)
        f.bits[-1] = 1  # Z on the last qubit
        full = gf_convolve(spec.syndrome_taps, f.blocks(3), GF2, 2 + spec.m)
        assert full.shape == (3, 2)
        assert full[2].any()  # the Z on the last qubit reaches block 2
        trunc = syndrome_of(spec, f)
        assert np.array_equal(full[:2], trunc)
