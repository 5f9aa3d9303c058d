import numpy as np
import pytest

from qconvdec.algebra import GF2, RatMatrix, parse_poly
from qconvdec.circuits import TransferSystem, block_parity_matrix, \
    block_syndrome, coset_code_rows, derive_generator
from qconvdec.stabilizer import binary_transfer, example_311
from reference_data import REF_GENERATOR_F4

from qconvdec.trellis import (
    TrellisError, build_trellis, coset_leader_oracle,
    pauli_costs_for_channel, viterbi_decode,
)
from qconvdec.simulate import metric_for


def p(t, f=GF2):
    return parse_poly(t, f)


def hb_311():
    return binary_transfer(example_311())


def tick_gen_311():
    return derive_generator(hb_311())


class TestBuildTrellis:
    def test_rate_third_four_states(self):
        t = build_trellis(tick_gen_311())
        assert t.num_states == 4
        assert t.num_inputs == 2
        # zero input from zero state loops with all-zero output
        assert t.next_state[0, 0] == 0 and t.label[0, 0] == 0

    def test_identity_generator(self):
        g = TransferSystem(RatMatrix.from_polys([[p("1")]]))
        t = build_trellis(g)
        assert t.num_states == 1
        assert t.label[0, 1] == 1

    def test_gf4_sixteen_branches(self):
        t = build_trellis(TransferSystem(REF_GENERATOR_F4), kind="gf4")
        assert t.num_inputs == 16
        assert t.num_states == 16

    def test_coset_trellis_shape(self):
        rows = coset_code_rows(hb_311())
        t = build_trellis(TransferSystem(RatMatrix.from_polys(rows)),
                          kind="bit-paired")
        assert t.num_states == 4
        assert t.num_inputs == 16
        assert t.out_symbols == 6

    def test_all_states_reachable(self):
        t = build_trellis(tick_gen_311())
        seen = {0}
        frontier = [0]
        for _ in range(sum(t.row_degrees) + 1):
            frontier = [int(t.next_state[s, u]) for s in frontier
                        for u in range(t.num_inputs)]
            seen.update(frontier)
        assert seen == set(range(t.num_states))

    def test_labels_match_streaming(self):
        gen = tick_gen_311()
        t = build_trellis(gen)
        rng = np.random.default_rng(0)
        u = rng.integers(0, 2, size=(12, 1)).astype(np.uint8)
        streamed = gen.run(u)
        s = 0
        for j in range(12):
            lbl = int(t.label[s, int(u[j, 0])])
            got = [(lbl >> c) & 1 for c in range(3)]
            assert got == streamed[j].tolist()
            s = int(t.next_state[s, int(u[j, 0])])

    def test_state_cap(self):
        with pytest.raises(TrellisError):
            build_trellis(tick_gen_311(), max_states=2)

    def test_rational_rejected(self):
        from qconvdec.algebra import ratio
        sys = TransferSystem(RatMatrix([[ratio(p("1"), p("1+D"))]]))
        with pytest.raises(TrellisError):
            build_trellis(sys)


def _coset_trellis():
    rows = coset_code_rows(hb_311())
    return build_trellis(TransferSystem(RatMatrix.from_polys(rows)),
                         kind="bit-paired")


def _random_coset_codeword(trellis, sections, rng):
    s = 0
    out = []
    for j in range(sections):
        u = int(rng.integers(0, trellis.num_inputs)) if j < sections - 2 else 0
        out.append(int(trellis.label[s, u]))
        s = int(trellis.next_state[s, u])
    assert s == 0
    frame = np.zeros((sections, trellis.out_symbols), dtype=np.uint8)
    for j, v in enumerate(out):
        for c in range(trellis.out_symbols):
            frame[j, c] = (v >> c) & 1
    return frame


class TestViterbi:
    def test_codeword_decodes_to_itself(self):
        t = _coset_trellis()
        rng = np.random.default_rng(1)
        for _ in range(10):
            w = _random_coset_codeword(t, 9, rng)
            res = viterbi_decode(t, w)
            assert res.path_metric == 0
            assert not res.error.any()
            assert np.array_equal(res.codeword, w)

    def test_single_flip_corrected(self):
        t = _coset_trellis()
        rng = np.random.default_rng(2)
        for trial in range(20):
            w = _random_coset_codeword(t, 9, rng)
            pos = (int(rng.integers(0, 9)), int(rng.integers(0, 6)))
            w2 = w.copy()
            w2[pos] ^= 1
            res = viterbi_decode(t, w2)
            assert res.path_metric == 1
            expect = np.zeros_like(w)
            expect[pos] = 1
            assert np.array_equal(res.error, expect)

    def test_termination_observable(self):
        # truncate a codeword mid-path: free-end decoding accepts it at zero
        # cost, zero-terminated decoding must pay
        t = _coset_trellis()
        s = 0
        out = []
        for j in range(6):
            u = 5 if j < 5 else 9  # arbitrary nonzero inputs, never flushed
            out.append(int(t.label[s, u]))
            s = int(t.next_state[s, u])
        assert s != 0
        w = np.zeros((6, 6), dtype=np.uint8)
        for j, v in enumerate(out):
            for c in range(6):
                w[j, c] = (v >> c) & 1
        free = viterbi_decode(t, w, terminate=False)
        term = viterbi_decode(t, w, terminate=True)
        assert free.path_metric == 0
        assert term.path_metric > 0
        assert term.end_state == 0

    def test_path_metric_matches_recount(self):
        t = _coset_trellis()
        metric = metric_for("pauli", 0.05)
        rng = np.random.default_rng(3)
        w = rng.integers(0, 2, size=(8, 6)).astype(np.uint8)
        w[-2:] = 0
        res = viterbi_decode(t, w, metric)
        recount = 0
        for j in range(8):
            for c in range(3):
                recount += metric.qubit_cost(int(res.error[j, c]),
                                             int(res.error[j, c + 3]))
        assert recount == res.path_metric

    def test_bad_shape(self):
        t = _coset_trellis()
        with pytest.raises(TrellisError):
            viterbi_decode(t, np.zeros((4, 5), dtype=np.uint8))


class TestMetrics:
    def test_channel_table_monotone(self):
        # likelier Paulis cost less
        costs = pauli_costs_for_channel(0.9, 0.05, 0.01, 0.04)
        assert costs[0] == 0 < costs[1] < costs[2]
        assert costs[1] < costs[3] < costs[2]

    def test_pauli_table_on_bits_trellis_rejected(self):
        t = build_trellis(tick_gen_311())
        metric = metric_for("pauli", 0.05)
        with pytest.raises(TrellisError):
            metric.xor_table(t)


class TestOracle:
    def test_zero_syndrome(self):
        res = coset_leader_oracle(hb_311(), np.zeros((5, 2), dtype=np.uint8), 5)
        assert res.weight == 0
        assert not res.leader.any()

    def test_single_x_unique(self):
        spec = example_311()
        hb = hb_311()
        S = block_parity_matrix(hb)
        e = np.zeros((5, 6), dtype=np.uint8)
        e[0, 0] = 1  # X on qubit 0
        sigma = block_syndrome(S, e, 6)
        res = coset_leader_oracle(hb, sigma, 5)
        assert res.weight == 1
        assert res.unique
        assert np.array_equal(res.leader, e)

    def test_dp_matches_exhaustive(self):
        hb = hb_311()
        rng = np.random.default_rng(4)
        S = block_parity_matrix(hb)
        for _ in range(25):
            e = rng.integers(0, 2, size=(2, 6)).astype(np.uint8)
            sigma = block_syndrome(S, e, 3)
            a = coset_leader_oracle(hb, sigma, 2, mode="dp")
            b = coset_leader_oracle(hb, sigma, 2, mode="exhaustive")
            assert a.weight == b.weight
            assert a.count == b.count
            if a.unique:
                assert np.array_equal(a.leader, b.leader)

    def test_pauli_metric_mode(self):
        hb = hb_311()
        S = block_parity_matrix(hb)
        e = np.zeros((4, 6), dtype=np.uint8)
        e[1, 2] = 1
        e[1, 5] = 1  # Y on qubit 5
        sigma = block_syndrome(S, e, 5)
        metric = metric_for("pauli", 0.05)
        res = coset_leader_oracle(hb, sigma, 4, metric=metric)
        assert res.weight <= metric.pauli_costs[2]  # cost of the Y itself

    def test_unrealizable_rejected(self):
        # a syndrome claiming support after the frame ends
        sigma = np.zeros((7, 2), dtype=np.uint8)
        sigma[6, 0] = 1
        with pytest.raises(ValueError):
            coset_leader_oracle(hb_311(), sigma, 5)
