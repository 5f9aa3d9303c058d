import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qconvdec.decoder import SyndromeDecoder
from qconvdec.simulate import (
    MAX_THREADS, ChannelParams, SimConfig, frame_rng, run_frame, run_sweep,
    sample_error, syndrome_from_text, syndrome_to_text,
)
from qconvdec.stabilizer import example_311


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

    def test_coupled_monotone_in_p(self):
        # same stream, larger p: flip set only grows
        a = sample_error(ChannelParams(0.02), 2000, frame_rng(5, 1))
        b = sample_error(ChannelParams(0.08), 2000, frame_rng(5, 1))
        assert not (a.bits & ~b.bits).any()


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
        assert out.frame == decoder.padded_frame(e)

    def test_small_p_mostly_clean(self, decoder):
        errs = 0
        for i in range(30):
            mism, _ = run_frame(decoder, ChannelParams(0.005), 90,
                                frame_rng(11, i))
            errs += mism
        assert errs <= 5


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

    @pytest.mark.parametrize("threads", [0, -3, MAX_THREADS + 1, 10 ** 6])
    def test_thread_count_checked(self, threads):
        # refused by the config itself, before a sweep could start a pool of
        # that many workers (or silently run one)
        running = threading.active_count()
        with pytest.raises(ValueError, match="threads"):
            SimConfig(spec=example_311(), frames=1, threads=threads)
        assert threading.active_count() == running
        SimConfig(spec=example_311(), threads=MAX_THREADS)


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

    def test_comments_and_errors(self):
        sigma = syndrome_from_text("# c\n2:f0\n", 2)
        assert sigma.shape == (2, 2)
        with pytest.raises(ValueError):
            syndrome_from_text("junk\n", 2)
        with pytest.raises(ValueError):
            syndrome_from_text("9:0\n", 2)
