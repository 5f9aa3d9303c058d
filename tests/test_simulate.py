import threading
import time
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qconvdec import simulate
from qconvdec.decoder import SyndromeDecoder, SyndromeDecoderF4
from qconvdec.simulate import (
    MAX_THREADS, ChannelParams, SimConfig, frame_rng, metric_for, run_frame,
    run_sweep, sample_error, syndrome_from_text, syndrome_to_text,
)
from qconvdec.stabilizer import example_311

import reference_simulate as ref
from reference_data import CODES, PATH_IDS, PATHS


class TestChannel:
    def test_probabilities(self):
        ch = ChannelParams(0.1)
        assert ch.p_x == ch.p_z == pytest.approx(0.09)
        assert ch.p_y == pytest.approx(0.01)
        total = ch.p_identity + ch.p_x + ch.p_z + ch.p_y
        assert total == pytest.approx(1.0)

    def test_rejects_bad_p(self):
        with pytest.raises(ValueError):
            ChannelParams(0.5)
        with pytest.raises(ValueError):
            ChannelParams(-0.01)

    def test_p_zero_all_identity(self):
        e = sample_error(ChannelParams(0.0), 100, frame_rng(1, 0))
        assert not e.bits.any()

    def test_marginals_within_3_sigma(self):
        # 10^6 qubits at p = 0.1: each Pauli frequency within 3 sigma
        n = 10 ** 6
        ch = ChannelParams(0.1)
        e = sample_error(ch, n, frame_rng(99, 0))
        x = e.x_part().astype(bool)
        z = e.z_part().astype(bool)
        counts = {
            "X": int((x & ~z).sum()),
            "Z": int((~x & z).sum()),
            "Y": int((x & z).sum()),
        }
        for pauli, prob in (("X", ch.p_x), ("Z", ch.p_z), ("Y", ch.p_y)):
            sigma = (n * prob * (1 - prob)) ** 0.5
            assert abs(counts[pauli] - n * prob) < 3 * sigma, pauli

    def test_fixed_seed_reproducible(self):
        a = sample_error(ChannelParams(0.05), 500, frame_rng(7, 3))
        b = sample_error(ChannelParams(0.05), 500, frame_rng(7, 3))
        assert a == b

    @pytest.mark.parametrize("p", [0.0, 0.01, 0.3])
    def test_matches_two_call_reference(self, p):
        # one random call per frame draws the stream of two calls of
        # ``qubits``: X bits from the first, Z bits from the second
        for qubits in (1, 2, 7, 900):
            got = sample_error(ChannelParams(p), qubits, frame_rng(3, qubits))
            want = ref.sample_error(ChannelParams(p), qubits,
                                    frame_rng(3, qubits))
            assert got.bits.dtype == np.uint8
            assert got == want, qubits

    def test_coupled_monotone_in_p(self):
        # same stream, larger p: flip set only grows
        a = sample_error(ChannelParams(0.02), 2000, frame_rng(5, 1))
        b = sample_error(ChannelParams(0.08), 2000, frame_rng(5, 1))
        assert not (a.bits & ~b.bits).any()


class TestFrameRng:
    """``frame_rng(seed, index)`` is ``default_rng([seed, index])``: the
    same stream on both sides of the uint32 fast path, and the same
    errors."""

    @pytest.mark.parametrize("seed", [0, 1, 311, 2 ** 32 - 1, 2 ** 32,
                                      2 ** 64])
    @pytest.mark.parametrize("index", [0, 5, 2 ** 32 - 1, 2 ** 32, 2 ** 64])
    def test_stream_is_default_rng(self, seed, index):
        got = frame_rng(seed, index).random(8)
        want = np.random.default_rng([seed, index]).random(8)
        assert np.array_equal(got, want)

    def test_bool_seeds_as_int(self):
        assert np.array_equal(frame_rng(True, 1).random(4),
                              frame_rng(1, 1).random(4))
        assert np.array_equal(frame_rng(2, False).random(4),
                              frame_rng(2, 0).random(4))

    @pytest.mark.parametrize("seed,index", [(-1, 0), (0, -1), (-2 ** 40, 3)])
    def test_negative_refused(self, seed, index):
        with pytest.raises(ValueError, match="expected non-negative integer"):
            frame_rng(seed, index)

    @pytest.mark.parametrize("seed,index",
                             [(3.0, 1), (3, 1.0), (2.0 ** 40, 0)])
    def test_non_integer_refused(self, seed, index):
        with pytest.raises(TypeError):
            frame_rng(seed, index)


class TestBatchDraw:
    """``sample_blocks`` draws and packs the p-major grid of every p with
    every stream at once; frame (r, i) is ``sample_error`` at ``p[r]`` from
    stream i, packed on its own."""

    @settings(deadline=None, max_examples=60)
    @given(st.integers(1, 6), st.integers(1, 40),
           st.lists(st.sampled_from([0.0, 0.001, 0.05, 0.2, 0.49]),
                    min_size=1, max_size=4),
           st.lists(st.integers(0, 2 ** 33), min_size=1, max_size=6))
    def test_rows_are_frames_of_one(self, n, blocks, ps, indices):
        qubits = n * blocks
        got = simulate.sample_blocks(ps, qubits,
                                     [frame_rng(9, i) for i in indices], n)
        assert got.shape == (len(ps) * len(indices), blocks, -(-n // 4))
        assert got.dtype == np.uint8
        grid = got.reshape(len(ps), len(indices), blocks, -1)
        for r, p in enumerate(ps):
            for c, i in enumerate(indices):
                want = sample_error(ChannelParams(p), qubits, frame_rng(9, i))
                assert np.array_equal(grid[r, c], want.block_bytes(n))
        # each index's flips at a lower p are a subset of those at a higher
        order = np.argsort(ps, kind="stable")
        for lower, higher in zip(order, order[1:]):
            assert not (grid[lower] & ~grid[higher]).any()


@pytest.fixture(scope="module")
def decoder():
    return SyndromeDecoder(example_311())


class TestRunFrame:
    def test_p_zero_clean(self, decoder):
        mism, ferr = run_frame(decoder, ChannelParams(0.0), 90, frame_rng(1, 0))
        assert mism == 0 and ferr == 0

    def test_injected_single_x_recovered(self, decoder):
        from qconvdec.stabilizer import ErrorFrame
        e = ErrorFrame.zeros(90)
        e.bits[42] = 1  # Z component of qubit 21
        sigma = decoder.measure(e)
        out = decoder.decode(sigma)
        assert out.frame == ref.padded_frame(decoder, e)

    def test_small_p_mostly_clean(self, decoder):
        errs = 0
        for i in range(30):
            mism, _ = run_frame(decoder, ChannelParams(0.005), 90,
                                frame_rng(11, i))
            errs += mism
        assert errs <= 5


@lru_cache(maxsize=None)
def path_decoder(name: str, path: str) -> SyndromeDecoder:
    return (SyndromeDecoderF4 if path == "f4" else SyndromeDecoder)(
        CODES[name])


class TestPackedFrame:
    """``run_frame`` keeps the frame packed from the draw to the score; it
    must score every frame as the bit-level reference does. ``[5,1,1]``
    blocks take two bytes and ``[4,2,1]`` blocks exactly one."""

    @pytest.mark.parametrize("metric_mode", ["hamming", "pauli"])
    @pytest.mark.parametrize("name,path", PATHS, ids=PATH_IDS)
    def test_matches_bit_reference(self, name, path, metric_mode):
        decoder = path_decoder(name, path)
        qubits = 20 * decoder.n
        mismatched = 0
        for p in (0.01, 0.05):
            params, metric = ChannelParams(p), metric_for(metric_mode, p)
            for i in range(20):
                got = run_frame(decoder, params, qubits, frame_rng(17, i),
                                metric)
                want = ref.run_frame(decoder, params, qubits,
                                     frame_rng(17, i), metric)
                assert got == want, (p, i)
                mismatched += got[0]
        assert mismatched


class TestSweep:
    def test_schema_and_determinism(self, decoder):
        cfg = SimConfig(spec=example_311(), frame_qubits=90, frames=20,
                        p_values=(0.0, 0.02), seed=42, stable_timing=True)
        r1 = run_sweep(cfg, decoder)
        r2 = run_sweep(cfg, decoder)
        assert r1.csv_text() == r2.csv_text()
        lines = r1.csv_text().strip().split("\n")
        assert lines[0].startswith("#")
        assert lines[1] == ("p,frames,qubit_errors,qubits_total,qber,"
                            "frame_errors,fer,seed,elapsed_ms")
        assert len(lines) == 4

    def test_thread_invariance(self, decoder):
        base = SimConfig(spec=example_311(), frame_qubits=90, frames=16,
                         p_values=(0.03,), seed=9, stable_timing=True)
        threaded = SimConfig(spec=example_311(), frame_qubits=90, frames=16,
                             p_values=(0.03,), seed=9, threads=4,
                             stable_timing=True)
        assert run_sweep(base, decoder).csv_text() == \
            run_sweep(threaded, decoder).csv_text()

    def test_p_zero_row(self, decoder):
        cfg = SimConfig(spec=example_311(), frame_qubits=90, frames=10,
                        p_values=(0.0,), seed=1, stable_timing=True)
        row = run_sweep(cfg, decoder).rows[0]
        assert row.qber == 0 and row.fer == 0
        assert row.qubits_total == 900

    def test_decoder_for_other_spec_refused(self, decoder):
        # a [2,1,1] sweep decoded by the [3,1,1] decoder would mix one code's
        # rate with the other's padding
        cfg = SimConfig(spec=CODES["211"], frame_qubits=90, frames=1,
                        p_values=(0.01,), seed=1, stable_timing=True)
        with pytest.raises(ValueError, match="different stabilizer spec"):
            run_sweep(cfg, decoder)
        cfg = SimConfig(spec=example_311(), frame_qubits=90, frames=1,
                        p_values=(0.01,), seed=1, stable_timing=True)
        assert run_sweep(cfg, decoder).rows[0].frames == 1

    def test_rate_info(self, decoder):
        cfg = SimConfig(spec=example_311(), frame_qubits=900, frames=1,
                        p_values=(0.0,), seed=1, stable_timing=True)
        res = run_sweep(cfg, decoder)
        assert "rate 300/906" in res.rate_info

    def test_bad_config(self):
        with pytest.raises(ValueError):
            SimConfig(spec=example_311(), frame_qubits=91, frames=10)
        with pytest.raises(ValueError):
            SimConfig(spec=example_311(), frame_qubits=90, frames=0)
        with pytest.raises(ValueError, match="flip probability"):
            SimConfig(spec=example_311(), p_values=(0.01, 0.7))
        with pytest.raises(ValueError, match="at least one p"):
            SimConfig(spec=example_311(), p_values=())

    @pytest.mark.parametrize("metric", ["Hamming", "pauli ", "", "ml"])
    def test_unknown_metric_refused(self, metric):
        # refused by the config, before a sweep builds a decoder
        with pytest.raises(ValueError, match="unknown metric mode"):
            SimConfig(spec=example_311(), frames=1, metric=metric)

    @pytest.mark.parametrize("threads", [0, -3, MAX_THREADS + 1, 10 ** 6])
    def test_thread_count_checked(self, threads):
        # refused by the config itself, before a sweep could start a pool of
        # that many workers (or silently run one)
        running = threading.active_count()
        with pytest.raises(ValueError, match="threads"):
            SimConfig(spec=example_311(), frames=1, threads=threads)
        assert threading.active_count() == running
        SimConfig(spec=example_311(), threads=MAX_THREADS)


class TestBatchedSweep:
    """``run_sweep`` decodes runs of same-metric frames in batches of about
    ``BATCH_SECTIONS`` sections; the batch size must not change a CSV
    byte, and the totals must be the bit-level reference's frame by
    frame."""

    @pytest.mark.parametrize("metric_mode", ["hamming", "pauli"])
    @pytest.mark.parametrize("name,path", PATHS, ids=PATH_IDS)
    def test_batch_size_keeps_csv(self, name, path, metric_mode,
                                  monkeypatch):
        decoder = path_decoder(name, path)
        qubits = 20 * decoder.n
        cfg = SimConfig(spec=CODES[name], frame_qubits=qubits, frames=5,
                        p_values=(0.01, 0.05, 0.1), seed=23,
                        metric=metric_mode, stable_timing=True)
        blocks = 20 + decoder.pad_blocks
        csvs = []
        # default batches, one frame each, and 3 frames that cut across p
        for sections in (simulate.BATCH_SECTIONS, 1, 3 * blocks):
            monkeypatch.setattr(simulate, "BATCH_SECTIONS", sections)
            csvs.append(run_sweep(cfg, decoder).csv_text())
        assert csvs[0] == csvs[1] == csvs[2]
        rows = run_sweep(cfg, decoder).rows
        for row in rows:
            metric = metric_for(metric_mode, row.p)
            want = [ref.run_frame(decoder, ChannelParams(row.p), qubits,
                                  frame_rng(23, i), metric)
                    for i in range(cfg.frames)]
            assert (row.qubit_errors, row.frame_errors) == tuple(
                map(sum, zip(*want)))
        assert sum(row.qubit_errors for row in rows)

    @pytest.mark.parametrize("sections", [simulate.BATCH_SECTIONS, 1])
    @pytest.mark.parametrize("metric_mode", ["hamming", "pauli"])
    def test_one_draw_per_index(self, decoder, monkeypatch, metric_mode,
                                sections):
        # every p row shares each index's stream: frames calls, not
        # frames x p
        calls = []

        def counted(seed, index):
            calls.append(index)
            return frame_rng(seed, index)

        monkeypatch.setattr(simulate, "BATCH_SECTIONS", sections)
        monkeypatch.setattr(simulate, "frame_rng", counted)
        cfg = SimConfig(spec=example_311(), frame_qubits=30, frames=4,
                        p_values=(0.01, 0.05, 0.1), seed=3,
                        metric=metric_mode, stable_timing=True)
        run_sweep(cfg, decoder)
        assert sorted(calls) == list(range(cfg.frames))

    def test_batch_time_split_by_frames(self, decoder):
        # one batch holds every row's frames: each row gets an equal share
        # of its time, and the shares add up to no more than the call
        cfg = SimConfig(spec=example_311(), frame_qubits=90, frames=4,
                        p_values=(0.01, 0.02, 0.05), seed=5)
        t0 = time.perf_counter()
        rows = run_sweep(cfg, decoder).rows
        wall_ms = 1000 * (time.perf_counter() - t0)
        elapsed = [row.elapsed_ms for row in rows]
        assert max(elapsed) - min(elapsed) <= 1
        assert sum(elapsed) <= wall_ms + len(rows)


class TestSyndromeText:
    def test_roundtrip(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            blocks = int(rng.integers(1, 12))
            sigma = rng.integers(0, 2, size=(blocks, 2)).astype(np.uint8)
            text = syndrome_to_text(sigma)
            back = syndrome_from_text(text, 2)
            assert np.array_equal(back, sigma)

    @settings(deadline=None)
    @given(st.integers(1, 5).flatmap(lambda r: st.tuples(
        st.just(r), st.lists(st.lists(st.integers(0, 1), min_size=r,
                                      max_size=r), max_size=40))))
    def test_roundtrip_property(self, case):
        streams, rows = case
        sigma = np.array(rows, dtype=np.uint8).reshape(-1, streams)
        back = syndrome_from_text(syndrome_to_text(sigma), streams)
        assert back.shape == sigma.shape
        assert np.array_equal(back, sigma)

    def test_matches_bit_reference(self):
        # writer and reader against the per-bit versions, on sizes whose bit
        # counts need not be a multiple of 4
        rng = np.random.default_rng(8)
        for _ in range(300):
            streams = int(rng.integers(1, 6))
            blocks = int(rng.integers(0, 80))
            sigma = rng.integers(0, 2, size=(blocks, streams)).astype(
                np.uint8)
            text = syndrome_to_text(sigma)
            assert text == ref.syndrome_to_text(sigma)
            back = syndrome_from_text(text, streams)
            assert back.dtype == np.uint8
            assert np.array_equal(back, ref.syndrome_from_hex(
                blocks, text.split(":")[1], streams))

    def test_reader_errors_match_bit_reference(self):
        # every payload length around the blocks*streams bits it must carry,
        # all zero or with one bit set at each place, in either letter case
        def outcome(fn, *args):
            try:
                return fn(*args).tolist()
            except ValueError as exc:
                return str(exc)

        for streams in (1, 2, 3):
            for blocks in range(0, 7):
                need = -(-blocks * streams // 4)
                for ndigits in range(max(1, need - 1), need + 3):
                    for val in (0, *(1 << i for i in range(4 * ndigits))):
                        for hex_s in (f"{val:0{ndigits}x}",
                                      f"{val:0{ndigits}X}"):
                            got = outcome(syndrome_from_text,
                                          f"{blocks}:{hex_s}\n", streams)
                            want = outcome(ref.syndrome_from_hex, blocks,
                                           hex_s, streams)
                            assert got == want, (blocks, streams, hex_s)

    def test_comments_and_errors(self):
        sigma = syndrome_from_text("# c\n2:f0\n", 2)
        assert sigma.shape == (2, 2)
        with pytest.raises(ValueError):
            syndrome_from_text("junk\n", 2)
        with pytest.raises(ValueError):
            syndrome_from_text("9:0\n", 2)
