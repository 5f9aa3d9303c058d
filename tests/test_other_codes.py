"""Pipeline-vs-oracle agreement on code shapes beyond the rate-1/3 workhorse:
single-generator [2,1,1], two-logical [4,2,1], and deeper-memory [3,1,2]
(whose generators share block-0 support, so some syndrome bit patterns are
physically unrealizable -- decoder and oracle must agree on those too)."""

import numpy as np
import pytest

from qconvdec.circuits import DerivationError
from qconvdec.decoder import SyndromeDecoder
from qconvdec.stabilizer import StabilizerSpec, check_symplectic
from qconvdec.oracle import coset_leader_oracle

from reference_simulate import padded_frame


def all_syndromes(data_blocks, total_blocks, streams):
    for sidx in range(1 << (data_blocks * streams)):
        sigma = np.zeros((total_blocks, streams), dtype=np.uint8)
        for j in range(data_blocks):
            for i in range(streams):
                sigma[j, i] = (sidx >> (j * streams + i)) & 1
        yield sidx, sigma


def check_agreement(spec, data_blocks, sample=None, seed=0):
    decoder = SyndromeDecoder(spec)
    nk = spec.n - spec.k
    total = data_blocks + spec.m + 1
    cases = list(all_syndromes(data_blocks, total, nk))
    if sample is not None and sample < len(cases):
        rng = np.random.default_rng(seed)
        idx = rng.choice(len(cases), size=sample, replace=False)
        cases = [cases[i] for i in sorted(idx)]
    realizable = unrealizable = 0
    for sidx, sigma in cases:
        try:
            oracle = coset_leader_oracle(decoder.hb, sigma, total)
        except ValueError:
            with pytest.raises(DerivationError):
                decoder.decode(sigma)
            unrealizable += 1
            continue
        out = decoder.decode(sigma)
        assert out.frame.bit_weight() == oracle.weight, (spec.generators, sidx)
        if oracle.unique:
            assert np.array_equal(out.frame.blocks(spec.n), oracle.leader)
        realizable += 1
    return realizable, unrealizable


def test_single_generator_code():
    spec = StabilizerSpec(n=2, k=1, m=1, generators=("IXXI",))
    assert check_symplectic(spec).ok
    realizable, unrealizable = check_agreement(spec, data_blocks=4)
    assert realizable == 16 and unrealizable == 0


def test_single_generator_code_mixed_paulis():
    spec = StabilizerSpec(n=2, k=1, m=1, generators=("XYYX",))
    assert check_symplectic(spec).ok
    realizable, unrealizable = check_agreement(spec, data_blocks=4)
    assert realizable == 16 and unrealizable == 0


def test_two_logical_qubit_code():
    spec = StabilizerSpec(n=4, k=2, m=1,
                          generators=("YZIYYXYZ", "YXIIXZXZ"))
    assert check_symplectic(spec).ok
    realizable, unrealizable = check_agreement(spec, data_blocks=4, sample=32)
    assert realizable == 32 and unrealizable == 0


def test_deeper_memory_code_with_unrealizable_syndromes():
    spec = StabilizerSpec(n=3, k=1, m=2,
                          generators=("IIZXXIZYZ", "IIZZZXZIZ"))
    assert check_symplectic(spec).ok
    realizable, unrealizable = check_agreement(spec, data_blocks=4, sample=24,
                                               seed=3)
    assert unrealizable > 0          # block-0 degeneracy forbids some patterns
    assert realizable + unrealizable == 24


def test_two_row_gf4_code():
    # GF(4)-linear [5,1,1] code whose quaternary transfer has two rows: the
    # 4x4 syndrome remap, the elimination-derived GF(4) ISF and the two-row
    # coset basis all get exercised; binary and GF(4) decoders must agree on
    # minimum Pauli cost
    from qconvdec.decoder import SyndromeDecoderF4
    from qconvdec.stabilizer import ErrorFrame, quaternary_transfer, syndrome_of
    from qconvdec.simulate import metric_for

    spec = StabilizerSpec(n=5, k=1, m=1, generators=(
        "IIIIIYXIYZ", "IIIIIXZIXY", "YYZYXYIXIZ", "XXYXZXIZIY"))
    assert check_symplectic(spec).ok
    qt = quaternary_transfer(spec)
    assert qt.hq.shape[1] == 2

    binary = SyndromeDecoder(spec)
    quaternary = SyndromeDecoderF4(spec)
    metric = metric_for("pauli", 0.05)
    rng = np.random.default_rng(11)
    for _ in range(25):
        e = ErrorFrame((rng.random(2 * 5 * 6) < 0.08).astype(np.uint8))
        sigma = binary.measure(e)
        a = binary.decode(sigma, metric=metric)
        b = quaternary.decode(sigma, metric=metric)
        assert a.path_metric == b.path_metric
        assert np.array_equal(syndrome_of(spec, b.frame), sigma)


def test_deeper_memory_code_channel_errors_decode():
    # syndromes that arise from actual channel errors are always realizable
    spec = StabilizerSpec(n=3, k=1, m=2,
                          generators=("IIZXXIZYZ", "IIZZZXZIZ"))
    decoder = SyndromeDecoder(spec)
    rng = np.random.default_rng(4)
    from qconvdec.stabilizer import ErrorFrame
    for _ in range(20):
        e = ErrorFrame((rng.random(2 * 12) < 0.1).astype(np.uint8))
        sigma = decoder.measure(e)
        out = decoder.decode(sigma)
        assert np.array_equal(decoder.measure_raw(out.frame), sigma)
        assert out.frame.bit_weight() <= padded_frame(decoder, e).bit_weight()
