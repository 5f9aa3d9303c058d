import numpy as np
import pytest

from qconvdec.algebra import (
    GF2, gf_convolve, pack_slices, pack_symbols, parse_poly, unpack_symbols,
)
from qconvdec.circuits import DerivationError
from qconvdec.decoder import SyndromeDecoder, SyndromeDecoderF4
from qconvdec.stabilizer import (
    ErrorFrame, SpecError, StabilizerSpec, example_311, parse_stabilizer,
    syndrome_of,
)
from qconvdec.simulate import ChannelParams, frame_rng, metric_for, sample_error
from qconvdec.oracle import coset_leader_oracle
from qconvdec.trellis import (
    INF, BranchMetric, TrellisError, _frame_levels, _metric_tables,
    viterbi_decode,
)

from reference_data import CODES, LONG_REACH_TEXT, PATH_IDS, PATHS
from reference_simulate import padded_frame
from reference_symbols import f4_syndrome, frame_to_symbols, syndrome_symbols
from reference_transfer import shifted_isf_matrix


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
                    assert out.frame == padded_frame(decoder, e), (q, pauli)
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
        f = padded_frame(decoder, ErrorFrame.zeros(900))
        assert f.num_qubits == 906


class TestSyndromeEntries:
    """``decode`` takes syndrome bits only. An entry of 2 used to pack as
    the next stream's bit (a 2 at block 2, stream 0 of [3,1,1] decoded to
    a frame that re-measures to [0, 1] there), and a 3 or -1 failed in a
    table gather with a bare IndexError."""

    @pytest.mark.parametrize("value,dtype", [(2, np.uint8), (3, np.int64),
                                             (-1, np.int64)],
                             ids=["uint8-2", "int64-3", "int64-minus1"])
    @pytest.mark.parametrize("path", ["bin", "f4"])
    def test_entry_outside_bits_rejected(self, value, dtype, path, decoder,
                                         decoder_f4):
        sigma = np.zeros((8, 2), dtype=dtype)
        sigma[2, 0] = value
        with pytest.raises(ValueError, match="0 or 1"):
            (decoder_f4 if path == "f4" else decoder).decode(sigma)

    @pytest.mark.parametrize("dtype", [bool, np.float64])
    @pytest.mark.parametrize("path", ["bin", "f4"])
    def test_bool_and_float_bits_decode(self, dtype, path, decoder,
                                        decoder_f4):
        dec = decoder_f4 if path == "f4" else decoder
        for i in range(5):
            sigma = dec.measure(sample_error(ChannelParams(0.05), 60,
                                             frame_rng(41, i)))
            want = dec.decode(sigma)
            got = dec.decode(sigma.astype(dtype))
            assert got.frame == want.frame
            assert (got.path_metric, got.tie_count) == (want.path_metric,
                                                        want.tie_count)

    @pytest.mark.parametrize("path", ["bin", "f4"])
    def test_strided_syndromes_decode(self, path, decoder, decoder_f4):
        # a column slice of a wider array and a Fortran-order copy decode
        # as their contiguous copy does
        dec = decoder_f4 if path == "f4" else decoder
        for i in range(5):
            sigma = dec.measure(sample_error(ChannelParams(0.05), 300,
                                             frame_rng(42, i)))
            want = dec.decode(sigma)
            wide = np.zeros((len(sigma), 5), dtype=sigma.dtype)
            wide[:, 1:5:2] = sigma
            for strided in (wide[:, 1:5:2], np.asfortranarray(sigma)):
                assert not strided.flags.c_contiguous
                got = dec.decode(strided)
                assert got.frame == want.frame
                assert (got.path_metric, got.tie_count) == (
                    want.path_metric, want.tie_count)


class TestPaddingCoversCandidateReach:
    @pytest.fixture(scope="class")
    def long_reach(self):
        return SyndromeDecoder(parse_stabilizer(LONG_REACH_TEXT))

    def test_pad_blocks_cover_reach(self, long_reach):
        assert long_reach.candidates.reach == 4
        assert long_reach.pad_blocks == long_reach.spec.m + 4

    def test_channel_frames_remeasure(self, long_reach):
        rng = np.random.default_rng(0)
        for _ in range(50):
            e = sample_error(ChannelParams(0.1), 4 * 20, rng)
            sigma = long_reach.measure(e)
            out = long_reach.decode(sigma)
            assert np.array_equal(long_reach.measure_raw(out.frame), sigma)


class TestSyndromeMap:
    """``syndrome_of``, ``measure`` and ``measure_raw`` run the frame's
    block bytes through the spec's syndrome kernel; each must equal the
    convolution of the frame's (blocks, 2n) layout with the taps."""

    @pytest.mark.parametrize("name", list(CODES))
    def test_matches_gf_convolve(self, name):
        spec = CODES[name]
        dec = SyndromeDecoder(spec)
        rng = np.random.default_rng(23)
        for blocks in (1, 2, 3, 7, 40):
            for p_err in (0.05, 0.5):
                f = random_error(rng, blocks * spec.n, p_err)
                want = gf_convolve(spec.syndrome_taps, f.blocks(spec.n), GF2)
                assert np.array_equal(syndrome_of(spec, f), want)
                assert np.array_equal(dec.measure_raw(f), want)
                padded = padded_frame(dec, f)
                want = gf_convolve(spec.syndrome_taps, padded.blocks(spec.n),
                                   GF2)
                assert np.array_equal(dec.measure(f), want)


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
            f4_direct = f4_syndrome(decoder_f4, padded)
            f4_remap = decoder_f4.qt.binary_to_f4_syndrome(bin_sigma)
            assert np.array_equal(f4_direct, f4_remap)

    def test_symbol_frame_roundtrip(self, decoder_f4):
        rng = np.random.default_rng(4)
        e = random_error(rng, 12, 0.3)
        sym = frame_to_symbols(decoder_f4.spec.n, e)
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


def _array_harness(decoder, sigma, metric):
    """The decode of ``sigma`` through the array API:
    ``candidates.build`` -> ``viterbi_decode`` -> ``symbols_to_frame``."""
    sym = syndrome_symbols(decoder, sigma)
    cand = decoder.candidates.build(sym, sym.shape[0])
    res = viterbi_decode(decoder.trellis, cand, metric)
    return decoder.symbols_to_frame(res.error), res.path_metric, res.tie_count


def _outcome(fn, *args):
    try:
        return fn(*args)
    except DerivationError as exc:
        return str(exc)


def _needs_repair(decoder, sigma):
    """Whether the unrepaired ISF candidate of ``sigma`` misses it: its
    syndrome, by the array convolution, against sigma zero-extended."""
    cands = decoder.candidates
    sym = syndrome_symbols(decoder, sigma)
    W = unpack_symbols(cands.isf.run_anticausal_words(
        pack_slices(sym, cands.bps), len(sym)), cands.lanes, cands.bps)
    resid = gf_convolve(cands.syndrome.taps, W, cands.field,
                        len(sym) + cands.m)
    resid[:len(sym)] ^= sym
    return bool(resid.any())


# paths whose ISF candidate left no head defect on any frame of the test
# below, so that they need no repair there
NO_REPAIR_PATHS = {("311", "f4"), ("211", "bin")}


class TestPackedDecode:
    """``decode`` carries packed blocks from the syndrome to the error
    labels; the array API must give the same frame, path metric and tie
    count, or the same error, and every head repair must go through the
    instance's ``candidates.repair_frame`` (which the benchmark's trace
    wraps)."""

    @pytest.mark.parametrize("metric_mode", ["hamming", "pauli"])
    @pytest.mark.parametrize("name,path", PATHS, ids=PATH_IDS)
    def test_matches_array_harness(self, name, path, metric_mode):
        spec = CODES[name]
        decoder = (SyndromeDecoderF4 if path == "f4" else SyndromeDecoder)(
            spec)
        metric = metric_for(metric_mode, 0.05)
        calls = []
        repair = decoder.candidates.repair_frame

        def counting(*args):
            calls.append(args)
            return repair(*args)

        decoder.candidates.repair_frame = counting
        rng = np.random.default_rng(5)
        repaired = failed = 0
        for i in range(24):
            channel = decoder.measure(sample_error(
                ChannelParams(0.05), spec.n * 20, frame_rng(31, i)))
            uniform = rng.integers(0, 2, size=channel.shape).astype(np.uint8)
            for sigma in (channel, uniform):
                needs = _needs_repair(decoder, sigma)
                del calls[:]
                want = _outcome(_array_harness, decoder, sigma, metric)
                harness_calls = len(calls)
                del calls[:]
                out = _outcome(decoder.decode, sigma, metric)
                assert len(calls) == harness_calls == needs, (name, i)
                if isinstance(want, str):
                    assert out == want, (name, i)
                    failed += 1
                else:
                    assert out.frame == want[0], (name, i)
                    assert (out.path_metric, out.tie_count) == want[1:]
                    repaired += needs
        assert bool(repaired) == ((name, path) not in NO_REPAIR_PATHS)


def _channel_words(decoder, sections, count, p=0.05):
    """(count, sections) packed syndrome words of channel frames whose data
    and padding blocks span ``sections`` blocks."""
    qubits = decoder.n * (sections - decoder.pad_blocks)
    return np.stack([pack_symbols(decoder.measure(sample_error(
        ChannelParams(p), qubits, frame_rng(sections, i))), 1)
        for i in range(count)])


def _raised(fn, *args):
    """(type, message) of the error ``fn(*args)`` raises."""
    with pytest.raises(ValueError) as info:
        fn(*args)
    return type(info.value), str(info.value)


class TestBatchDecode:
    """``decode_words`` on a (B, blocks) batch: each frame's labels, path
    metric and tie count equal those of its own ``decode_words``, on frames
    shorter than the composed levels and long enough for them, in batches
    that mix repaired and unrepaired frames; the batch's head repairs take
    one ``candidates.repair_frame`` call; and a batch raises what its first
    failing frame raises alone."""

    @pytest.mark.parametrize("metric_mode", ["hamming", "pauli"])
    @pytest.mark.parametrize("name,path", PATHS, ids=PATH_IDS)
    def test_matches_each_frame(self, name, path, metric_mode):
        decoder = (SyndromeDecoderF4 if path == "f4" else SyndromeDecoder)(
            CODES[name])
        metric = metric_for(metric_mode, 0.05)
        automaton = _metric_tables(decoder.trellis,
                                   metric or BranchMetric())[3]
        # one frame of 302 sections composes no level on most paths, and
        # a batch of 8 composes on every path
        assert sum(_frame_levels(automaton, -(-3002 // automaton.stride)))
        assert sum(_frame_levels(automaton, -(-302 // automaton.stride), 8))
        calls = []
        repair = decoder.candidates.repair_frame

        def counting(*args):
            calls.append(args)
            return repair(*args)

        decoder.candidates.repair_frame = counting
        mixed = False
        for sections, count in ((302, 8), (3002, 3)):
            s = _channel_words(decoder, sections, count)
            frames, repaired = [], 0
            for row in s:
                del calls[:]
                one = decoder.decode_words(row[None], metric)
                frames.append((one[0][0], one[1][0], one[2][0]))
                repaired += len(calls)
            mixed |= 0 < repaired < count
            del calls[:]
            labels, path_metric, ties = decoder.decode_words(s, metric)
            assert len(calls) == (repaired > 0)
            assert labels.shape == s.shape
            assert len(path_metric) == len(ties) == count
            for i, want in enumerate(frames):
                assert np.array_equal(labels[i], want[0]), (sections, i)
                assert (path_metric[i], ties[i]) == want[1:], (sections, i)
        assert mixed == ((name, path) not in NO_REPAIR_PATHS)

    def test_batch_of_one_is_its_frame(self, decoder):
        # decode is decode_words on a batch of one: its frame holds the
        # frame bits of the batch's one row of labels
        sigma = decoder.measure(sample_error(ChannelParams(0.05),
                                             decoder.n * 38, frame_rng(40, 0)))
        labels, path_metric, ties = decoder.decode_words(
            pack_symbols(sigma, 1)[None])
        out = decoder.decode(sigma)
        assert labels.shape == (1, len(sigma))
        assert np.array_equal(out.frame.block_bytes(decoder.n),
                              decoder.label_bytes.take(labels[0], axis=0))
        assert ([out.path_metric], [out.tie_count]) == (path_metric, ties)

    def test_first_failing_frame_raises(self):
        # [3,1,2] has unrealizable syndromes, which the candidate refuses;
        # with every Pauli forbidden, Viterbi refuses any other nonzero
        # syndrome. Each batch raises what decode raises on its first
        # failing frame, though the candidate runs on all its frames first
        decoder = SyndromeDecoder(CODES["312"])
        forbid = BranchMetric("pauli", (0, INF, INF, INF))
        rng = np.random.default_rng(3)
        clean = np.zeros((24, 2), dtype=np.uint8)
        channel = decoder.measure(sample_error(ChannelParams(0.05), 3 * 21,
                                               frame_rng(4, 0)))
        while True:
            bad = rng.integers(0, 2, size=clean.shape).astype(np.uint8)
            try:
                decoder.decode(bad)
            except DerivationError:
                break
        frames = {"clean": clean, "channel": channel, "bad": bad}
        for order in (("clean", "channel", "bad"), ("clean", "bad", "channel"),
                      ("bad", "channel"), ("channel", "clean")):
            s = np.stack([pack_symbols(frames[f], 1) for f in order])
            first = next(f for f in order if f != "clean")
            want = _raised(decoder.decode, frames[first], forbid)
            assert want[0] is (TrellisError if first == "channel"
                               else DerivationError)
            assert _raised(decoder.decode_words, s, forbid) == want, order
