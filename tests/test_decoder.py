import numpy as np
import pytest

from qconvdec.algebra import GF2, parse_poly
from qconvdec.circuits import shifted_isf_matrix
from qconvdec.decoder import SyndromeDecoder, SyndromeDecoderF4
from qconvdec.stabilizer import (
    ErrorFrame, SpecError, StabilizerSpec, example_311, syndrome_of,
)
from qconvdec.simulate import metric_for
from qconvdec.trellis import BranchMetric, coset_leader_oracle


def p(t):
    return parse_poly(t, GF2)


@pytest.fixture(scope="module")
def decoder():
    return SyndromeDecoder(example_311())


@pytest.fixture(scope="module")
def decoder_f4():
    return SyndromeDecoderF4(example_311())


def random_error(rng, qubits, p_err=0.1):
    bits = (rng.random(2 * qubits) < p_err).astype(np.uint8)
    return ErrorFrame(bits)


class TestBinaryDecoder:
    def test_rejects_bad_spec(self):
        with pytest.raises(SpecError):
            SyndromeDecoder(StabilizerSpec(n=3, k=1, m=1,
                                           generators=("YXXXZY", "ZZZZYX")))

    def test_zero_syndrome_identity(self, decoder):
        sigma = np.zeros((8, 2), dtype=np.uint8)
        out = decoder.decode(sigma)
        assert not out.frame.bits.any()
        assert out.path_metric == 0

    def test_single_errors_recovered(self, decoder):
        # single X and Z errors are unique weight-1 leaders; a Y costs two
        # bits and ties with X+Z pairs, so only its weight is pinned
        for q in range(15):
            for pauli in "XYZ":
                e = ErrorFrame.from_pauli("I" * q + pauli + "I" * (14 - q))
                sigma = decoder.measure(e)
                out = decoder.decode(sigma)
                if pauli in "XZ":
                    assert out.frame == decoder.padded_frame(e), (q, pauli)
                else:
                    assert out.frame.bit_weight() == 2, (q, pauli)
                    assert np.array_equal(decoder.measure_raw(out.frame), sigma)

    def test_syndrome_consistency_always(self, decoder):
        rng = np.random.default_rng(0)
        for _ in range(30):
            e = random_error(rng, 15, 0.15)
            sigma = decoder.measure(e)
            out = decoder.decode(sigma)
            assert np.array_equal(decoder.measure_raw(out.frame), sigma)

    def test_weight_matches_oracle(self, decoder):
        rng = np.random.default_rng(1)
        for _ in range(15):
            e = random_error(rng, 15, 0.12)
            sigma = decoder.measure(e)
            out = decoder.decode(sigma)
            res = coset_leader_oracle(decoder.hb, sigma, sigma.shape[0])
            assert out.frame.bit_weight() == res.weight
            if res.unique:
                assert np.array_equal(out.frame.blocks(3), res.leader)

    def test_isf_independence_sample(self):
        base = SyndromeDecoder(example_311())
        alt_isf = shifted_isf_matrix(base.bundle, [p("1"), p("1")])
        alt = SyndromeDecoder(example_311(), isf_matrix=alt_isf)
        rng = np.random.default_rng(2)
        for _ in range(15):
            e = random_error(rng, 15, 0.12)
            sigma = base.measure(e)
            a = base.decode(sigma)
            b = alt.decode(sigma)
            assert a.path_metric == b.path_metric

    def test_padded_frame_rate(self, decoder):
        assert decoder.pad_qubits() == 6
        f = decoder.padded_frame(ErrorFrame.zeros(900))
        assert f.num_qubits == 906


class TestF4Decoder:
    def test_f4_syndrome_remap_consistency(self, decoder_f4):
        # the GF(4) syndrome stream of a frame must equal the remapped binary
        # syndrome, block for block
        rng = np.random.default_rng(3)
        for _ in range(25):
            e = random_error(rng, 12, 0.2)
            padded = ErrorFrame(np.concatenate(
                [e.bits, np.zeros(12, dtype=np.uint8)]))
            bin_sigma = syndrome_of(decoder_f4.spec, padded)
            f4_direct = decoder_f4.f4_syndrome(padded)
            f4_remap = decoder_f4.qt.binary_to_f4_syndrome(bin_sigma)
            assert np.array_equal(f4_direct, f4_remap)

    def test_symbol_frame_roundtrip(self, decoder_f4):
        rng = np.random.default_rng(4)
        e = random_error(rng, 12, 0.3)
        sym = decoder_f4.frame_to_symbols(e)
        assert decoder_f4.symbols_to_frame(sym) == e

    def test_zero_syndrome(self, decoder_f4):
        sigma = np.zeros((7, 2), dtype=np.uint8)
        out = decoder_f4.decode(sigma)
        assert not out.frame.bits.any()

    def test_single_errors_recovered(self, decoder_f4):
        # under the qubit-weight (symbol Hamming) metric every single Pauli
        # error, including Y, is a unique weight-1 leader
        metric = BranchMetric("pauli", (0, 1, 1, 1))
        for q in range(9):
            for pauli in "XYZ":
                e = ErrorFrame.from_pauli("I" * q + pauli + "I" * (8 - q))
                sigma = decoder_f4.measure(e)
                out = decoder_f4.decode(sigma, metric=metric)
                padded = ErrorFrame(np.concatenate(
                    [e.bits, np.zeros(12, dtype=np.uint8)]))
                assert out.frame == padded, (q, pauli)

    def test_agrees_with_binary_under_pauli_metric(self, decoder_f4):
        # same coset, same cost space: minimum path metrics coincide
        binary = SyndromeDecoder(example_311())
        metric = metric_for("pauli", 0.05)
        rng = np.random.default_rng(5)
        for _ in range(20):
            e = random_error(rng, 15, 0.1)
            sigma = binary.measure(e)
            a = binary.decode(sigma, metric=metric)
            b = decoder_f4.decode(sigma, metric=metric)
            assert a.path_metric == b.path_metric

    def test_certified_against_oracle_pauli_metric(self, decoder_f4):
        # the quaternary trellis must achieve the oracle's minimum Pauli cost
        binary = SyndromeDecoder(example_311())
        metric = metric_for("pauli", 0.05)
        rng = np.random.default_rng(7)
        for _ in range(60):
            e = random_error(rng, 15, 0.12)
            sigma = binary.measure(e)
            out = decoder_f4.decode(sigma, metric=metric)
            oracle = coset_leader_oracle(binary.hb, sigma, sigma.shape[0],
                                         metric=metric)
            assert out.path_metric == oracle.weight
            if oracle.unique:
                assert np.array_equal(out.frame.blocks(3), oracle.leader)
