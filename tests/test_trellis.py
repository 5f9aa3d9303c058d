import tracemalloc
from contextlib import contextmanager
from functools import lru_cache
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qconvdec.algebra import GF2, GF4, Poly, RatMatrix, gf_convolve, parse_poly
from qconvdec.circuits import block_parity_matrix, coset_code_rows, \
    derive_generator, polynomial_kernel_basis
from qconvdec.decoder import SyndromeDecoder, SyndromeDecoderF4
from qconvdec.stabilizer import (
    GF4_DECODE_TO_PAULI, PAULI_TO_BITS, binary_transfer, example_311,
    quaternary_transfer,
)
from qconvdec.simulate import ChannelParams, frame_rng, metric_for, sample_error
from qconvdec import trellis as trellis_module
from qconvdec.levels import row_ids
from qconvdec.oracle import OracleCapError, coset_leader_oracle
from qconvdec.trellis import (
    _AUTOMATON_WORK, _CHUNK_BRANCHES, INF, BranchMetric,
    TrellisError, _automaton_levels, _frame_levels, _metric_tables,
    _with_strides, build_trellis, pack_sections,
    pauli_costs_for_channel,
    unpack_sections, viterbi_decode, viterbi_path,
)

from reference_data import CODES, PATH_IDS, PATHS, REF_GENERATOR_F4
from reference_symbols import syndrome_symbols
from reference_rational import system_of, tensor
import reference_trellis
import reference_viterbi


def p(t, f=GF2):
    return parse_poly(t, f)


def hb_311():
    return binary_transfer(example_311())


def tick_gen_311():
    return derive_generator(hb_311(), GF2).matrix


def build_trellis_of(gen, kind="bits"):
    """``build_trellis`` of a polynomial RatMatrix."""
    return build_trellis(tensor(gen), gen.field, kind)


def _branches(t):
    """(from state, label) of the branches into every state of a trellis,
    as (state, offset) arrays in (input, state) order: offset o comes from
    ``pred_state[o % P]`` with label ``pred_label[o % P] ^ parallel[o //
    P]``."""
    o = np.arange(t.num_inputs)
    preds = len(t.pred_state)
    return (t.pred_state[o % preds].T.astype(np.int64),
            (t.pred_label[o % preds]
             ^ t.parallel[o // preds, None]).T.astype(np.int64))


class TestBuildTrellis:
    def test_rate_third_four_states(self):
        t = build_trellis_of(tick_gen_311())
        assert t.num_states == 4
        assert t.num_inputs == 2
        # zero input from zero state loops with all-zero output
        froms, labels = _branches(t)
        assert froms[0, 0] == 0 and labels[0, 0] == 0

    def test_identity_generator(self):
        t = build_trellis_of(RatMatrix.from_polys([[p("1")]]))
        assert t.num_states == 1
        # input 1 is the second branch into the only state
        assert _branches(t)[1][0, 1] == 1

    def test_gf4_sixteen_branches(self):
        t = build_trellis_of(REF_GENERATOR_F4, kind="gf4")
        assert t.num_inputs == 16
        assert t.num_states == 16

    def test_coset_trellis_shape(self):
        rows = coset_code_rows(hb_311())
        t = build_trellis(rows, GF2, kind="bit-paired")
        assert t.num_states == 4
        assert t.num_inputs == 16
        assert t.out_symbols == 6

    def test_all_states_reachable(self):
        t = build_trellis_of(tick_gen_311())
        froms, _ = _branches(t)
        seen = {0}
        frontier = [0]
        for _ in range(sum(t.row_degrees) + 1):
            frontier = np.flatnonzero(np.isin(froms, frontier).any(axis=1))
            seen.update(frontier.tolist())
        assert seen == set(range(t.num_states))

    def test_labels_match_streaming(self):
        gen = tick_gen_311()
        t = build_trellis_of(gen)
        froms, labels = _branches(t)
        rng = np.random.default_rng(0)
        u = rng.integers(0, 2, size=(12, 1)).astype(np.uint8)
        streamed = system_of(gen).run(u)
        s = 0
        for j in range(12):
            # the one row's input is the newest symbol, bit 0, of the state
            # its branch enters
            (nxt, slot), = [(x, o) for x in range(t.num_states)
                            for o in range(t.num_inputs)
                            if froms[x, o] == s and x & 1 == u[j, 0]]
            lbl = int(labels[nxt, slot])
            got = [(lbl >> c) & 1 for c in range(3)]
            assert got == streamed[j].tolist()
            s = nxt

    def test_state_cap(self):
        # one row 1+D^21 needs 2^21 states, above the 2^20 budget
        gen = RatMatrix.from_polys([[p("1+D^21")]])
        assert _raises_before_allocating(TrellisError, build_trellis_of, gen)


def _assert_matches_reference_build(gen, kind="bits"):
    # into every state, the reference's branches in (input, state) order
    # are the layout's offsets 0 .. P M - 1
    got = build_trellis_of(gen, kind)
    want = reference_trellis.build_trellis(gen, kind)
    assert (got.num_states, got.num_inputs, got.row_degrees) == (
        want.num_states, want.num_inputs, want.row_degrees)
    for name, a, b in zip(("from state", "label"), _branches(got),
                          reference_viterbi.sorted_branches(want)):
        assert np.array_equal(a, b), name
    # stored in the narrowest dtypes that hold states and labels
    assert got.pred_state.dtype == np.min_scalar_type(got.num_states - 1)
    assert got.pred_label.dtype == got.parallel.dtype == np.min_scalar_type(
        (1 << got.label_bits) - 1)


def _coset_generator(name, path):
    """The coset-code generator and trellis kind a decoder path builds."""
    spec = CODES[name]
    if path == "f4":
        hq = quaternary_transfer(spec).hq
        rows = polynomial_kernel_basis(hq, GF4, hq.shape[2] - hq.shape[1])
        return RatMatrix.from_coeff_tensor(rows, GF4), "gf4"
    rows = coset_code_rows(binary_transfer(spec))
    return RatMatrix.from_coeff_tensor(rows), "bit-paired"


class TestBuildMatchesReference:
    """The closed-form build against the per-branch loop it replaced."""

    @pytest.mark.parametrize("name,path", PATHS, ids=PATH_IDS)
    def test_coset_generators(self, name, path):
        _assert_matches_reference_build(*_coset_generator(name, path))

    def test_tick_generator(self):
        _assert_matches_reference_build(tick_gen_311())

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_random_generators(self, data):
        # GF(2) up to degree 3 or GF(4) up to degree 2, degree-0 rows and
        # zero rows included
        field, top = data.draw(st.sampled_from([(GF2, 3), (GF4, 2)]),
                               label="field")
        rows = data.draw(st.integers(1, 3), label="rows")
        cols = data.draw(st.integers(1, 4), label="cols")
        gen = RatMatrix.from_polys([
            [Poly(data.draw(st.lists(st.integers(0, field.order - 1),
                                     max_size=d + 1), label="coeffs"), field)
             for _ in range(cols)]
            for d in data.draw(st.lists(st.integers(0, top), min_size=rows,
                                        max_size=rows), label="degrees")])
        _assert_matches_reference_build(gen)


def _coset_trellis():
    rows = coset_code_rows(hb_311())
    return build_trellis(rows, GF2, kind="bit-paired")


@lru_cache(maxsize=None)
def _reference(name, path):
    """The reference (state, input) tables of a decoder path's trellis."""
    return reference_trellis.build_trellis(*_coset_generator(name, path))


def _random_coset_codeword(trellis, sections, rng):
    """A codeword of random inputs, walked on the reference tables (equal
    to the layout's branches, by ``TestBuildMatchesReference``), whose last
    two sections flush the state to zero."""
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
            w = _random_coset_codeword(_reference("311", "bin"), 9, rng)
            res = viterbi_decode(t, w)
            assert res.path_metric == 0
            assert not res.error.any()
            assert np.array_equal(res.codeword, w)

    def test_single_flip_corrected(self):
        t = _coset_trellis()
        rng = np.random.default_rng(2)
        for trial in range(20):
            w = _random_coset_codeword(_reference("311", "bin"), 9, rng)
            pos = (int(rng.integers(0, 9)), int(rng.integers(0, 6)))
            w2 = w.copy()
            w2[pos] ^= 1
            res = viterbi_decode(t, w2)
            assert res.path_metric == 1
            expect = np.zeros_like(w)
            expect[pos] = 1
            assert np.array_equal(res.error, expect)

    def test_termination_observable(self):
        # truncate a codeword mid-path: zero-terminated decoding must pay
        ref = _reference("311", "bin")
        s = 0
        out = []
        for j in range(6):
            u = 5 if j < 5 else 9  # arbitrary nonzero inputs, never flushed
            out.append(int(ref.label[s, u]))
            s = int(ref.next_state[s, u])
        assert s != 0
        w = np.zeros((6, 6), dtype=np.uint8)
        for j, v in enumerate(out):
            for c in range(6):
                w[j, c] = (v >> c) & 1
        assert viterbi_decode(_coset_trellis(), w).path_metric > 0

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

    def test_memory_per_section(self):
        # the traced peak may grow by at most 128 B per section of frame
        t = _coset_trellis()
        rng = np.random.default_rng(13)

        def peak(sections):
            w = (rng.random((sections, 6)) < 0.01).astype(np.uint8)
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                viterbi_decode(t, w)
                return tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()

        viterbi_decode(t, np.zeros((3, 6), dtype=np.uint8))  # builds tables
        assert peak(30002) - peak(3002) <= 128 * 27000

    def test_many_states_memory(self):
        # 2^16 states entered from 16 predecessors each: the build and a
        # first 3-section decode, whose metric gets no automaton, peak below
        # 48 MiB traced, so no full-size int64 branch table is made
        gen = RatMatrix.from_polys([[p(x) for x in row] for row in (
            ("1+D^4", "D^4", "1", "0"), ("1+D^4", "1", "D", "1"),
            ("1+D^4", "D", "1", "1+D"), ("1+D^4", "1", "0", "D"))])
        w = np.zeros((3, 4), dtype=np.uint8)
        w[0, 1] = 1
        tracemalloc.start()
        try:
            t = build_trellis_of(gen)
            assert (t.num_states, t.num_inputs) == (1 << 16, 16)
            assert viterbi_decode(t, w).path_metric == 1
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 48 << 20


def _raises_before_allocating(error, fn, *args, **kwargs) -> bool:
    """True when fn raises ``error`` with a traced peak below 64 KiB."""
    tracemalloc.start()
    try:
        with pytest.raises(error):
            fn(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1] < 1 << 16
    finally:
        tracemalloc.stop()


@lru_cache(maxsize=None)
def _decoder(name, path):
    return (SyndromeDecoderF4 if path == "f4" else SyndromeDecoder)(CODES[name])


def _reference_candidates(decoder, sections, rng):
    """Channel candidates at p = 0.01 and 0.2, a uniformly random one and
    the all-zero one (every branch of a merge ties)."""
    t = decoder.trellis
    n = decoder.spec.n
    for p in (0.01, 0.2):
        error = sample_error(ChannelParams(p), n * sections,
                             frame_rng(sections, int(100 * p)))
        sigma = decoder.measure_raw(error)[:sections]
        yield decoder.candidates.build(syndrome_symbols(decoder, sigma),
                                       sections)
    yield rng.integers(0, 1 << t.bits_per_symbol,
                       size=(sections, t.out_symbols)).astype(np.uint8)
    yield np.zeros((sections, t.out_symbols), dtype=np.uint8)


# the forward passes of viterbi_decode: the metric's automaton at its own
# stride, the automaton at stride 1 under a zero stride budget, and section
# by section under a zero automaton budget
PASSES = ["automaton", "stride-1", "fallback"]
_BUDGETS = {"stride-1": "_STRIDE_WORK", "fallback": "_AUTOMATON_WORK"}


@contextmanager
def _forward_pass(name, trellis):
    """viterbi_decode on ``trellis`` with the named forward pass. The
    others set the kernel's cached tables aside, so that they are rebuilt
    under their zero budget, and put them back on exit."""
    if name == "automaton":
        yield
        return
    tables = trellis._tables
    saved = dict(tables)
    tables.clear()
    try:
        with mock.patch.object(trellis_module, _BUDGETS[name], 0):
            yield
    finally:
        tables.clear()
        tables.update(saved)


class TestViterbiReference:
    """Viterbi against the per-section reference on its own (state, input)
    tables: equal codeword, error, path metric and tie count on every code
    and path, across every chunk boundary, on each of the ``PASSES``."""

    @pytest.mark.parametrize("metric", ["hamming", "pauli"])
    @pytest.mark.parametrize("name,path", PATHS, ids=PATH_IDS)
    def test_matches_reference(self, name, path, metric):
        decoder = _decoder(name, path)
        t = decoder.trellis
        metric = (BranchMetric() if metric == "hamming"
                  else metric_for("pauli", 0.05))
        rng = np.random.default_rng(14)
        ties = 0
        for sections in _chunk_boundaries(t):
            for w in _reference_candidates(decoder, sections, rng):
                ties += _assert_matches_reference(t, _reference(name, path),
                                                  w, metric)
        assert ties > 0

    @pytest.mark.parametrize("metric", ["hamming", "pauli"])
    @pytest.mark.parametrize("name,path", PATHS, ids=PATH_IDS)
    def test_stride_tails_and_label_dtypes(self, name, path, metric):
        # frames of 1 .. 2k + 1 sections, shorter than one stride and
        # ending in every tail length, and of 60 sections, which reach the
        # highest vector ids, with their packed labels in each of uint8,
        # uint16 and int64 that holds them: the metric's stride and stride
        # 1 give the reference's path, metric and ties
        decoder = _decoder(name, path)
        t = decoder.trellis
        metric = (BranchMetric() if metric == "hamming"
                  else metric_for("pauli", 0.05))
        stride = _metric_tables(t, metric)[3].stride
        dtypes = [d for d in (np.uint8, np.uint16, np.int64)
                  if np.iinfo(d).max >= (1 << t.label_bits) - 1]
        rng = np.random.default_rng(17)
        frames = [(pack_sections(w, t), reference_viterbi.viterbi_decode(
                       _reference(name, path), w, metric))
                  for sections in [*range(1, 2 * stride + 2), 60]
                  for w in _reference_candidates(decoder, sections, rng)]
        for forward in ("automaton", "stride-1"):
            with _forward_pass(forward, t):
                for w, want in frames:
                    for dtype in dtypes:
                        labels, path_metric, ties = viterbi_path(
                            t, w.astype(dtype)[None], metric)
                        assert np.array_equal(unpack_sections(labels[0], t),
                                              want.codeword)
                        assert (path_metric, ties) == ([want.path_metric],
                                                       [want.tie_count])

    @pytest.mark.parametrize("metric", ["hamming", "pauli"])
    @pytest.mark.parametrize("name,path", PATHS, ids=PATH_IDS)
    def test_levels_match_reference(self, name, path, metric):
        # at _LEVEL_STEPS = _TOP_STRIDES = 1 a frame of b strides wants
        # floor(log2 b) composed levels: frames of 1 .. 16k + 1 sections
        # fall on both sides of each threshold up to 4 levels and, within
        # each level count, end in every tail length modulo the top stride;
        # each gives the reference's path, metric and ties
        decoder = _decoder(name, path)
        t = decoder.trellis
        metric = (BranchMetric() if metric == "hamming"
                  else metric_for("pauli", 0.05))
        automaton = _metric_tables(t, metric)[3]
        k = automaton.stride
        rng = np.random.default_rng(19)
        used = set()
        with mock.patch.object(trellis_module, "_LEVEL_STEPS", 1), \
                mock.patch.object(trellis_module, "_TOP_STRIDES", 1):
            for sections in range(1, 16 * k + 2):
                used.add(_frame_levels(automaton, -(-sections // k)))
                w = rng.integers(0, 1 << t.bits_per_symbol,
                                 size=(sections, t.out_symbols)).astype(
                                     np.uint8)
                want = reference_viterbi.viterbi_decode(
                    _reference(name, path), w, metric)
                labels, path_metric, ties = viterbi_path(
                    t, pack_sections(w, t)[None], metric)
                assert np.array_equal(unpack_sections(labels[0], t),
                                      want.codeword)
                assert (path_metric, ties) == ([want.path_metric],
                                               [want.tie_count])
        assert used == {tuple(0 if levels is None else levels.depth(wanted)
                              for levels in _automaton_levels(automaton))
                        for wanted in range(5)}

    @pytest.mark.parametrize("name,path", PATHS, ids=PATH_IDS)
    def test_long_frame_matches_stride_one(self, name, path):
        # a 3,002-section channel frame composes levels on every path, and
        # its labels, metric and ties equal those of the stride-1 pass,
        # which composes none
        decoder = _decoder(name, path)
        t = decoder.trellis
        w = pack_sections(next(_reference_candidates(
            decoder, 3002, np.random.default_rng(20))), t)[None]
        automaton = _metric_tables(t, BranchMetric())[3]
        assert sum(_frame_levels(automaton, -(-3002 // automaton.stride)))
        labels, path_metric, ties = viterbi_path(t, w)
        with _forward_pass("stride-1", t):
            one = _metric_tables(t, BranchMetric())[3]
            assert _frame_levels(one, 3002) == (0, 0)
            want = viterbi_path(t, w)
        assert np.array_equal(labels, want[0])
        assert (path_metric, ties) == want[1:]

    def test_matches_reference_with_unreached_states(self):
        # the tick-rate generator trellis reaches all 4 states only from the
        # second section on: ties between unreached branches are not counted
        t = build_trellis_of(tick_gen_311())
        ref = reference_trellis.build_trellis(tick_gen_311())
        rng = np.random.default_rng(15)
        for sections in _chunk_boundaries(t):
            for p in (0, 0.01, 0.2, 0.5):
                w = (rng.random((sections, 3)) < p).astype(np.uint8)
                _assert_matches_reference(t, ref, w, BranchMetric())

    @settings(max_examples=60, deadline=None)
    @given(degrees=st.lists(st.integers(0, 3), min_size=1, max_size=2),
           data=st.data())
    def test_random_generators_match_reference(self, degrees, data):
        # random feed-forward "bits" trellises of up to 2^6 states, on both
        # passes; a single row of degree d >= 2 enters each of its 2^d
        # states from only 2, and a degree-0 row adds parallel branches
        cols = data.draw(st.integers(1, 3), label="cols")
        rows = [[data.draw(st.integers(0, (1 << (d + 1)) - 1), label="taps")
                 for _ in range(cols)] for d in degrees]
        for row, d in zip(rows, degrees):
            row[0] |= 1 << d  # the row has degree d
        gen = RatMatrix.from_polys(
            [[_bits_poly(v) for v in row] for row in rows])
        t = build_trellis_of(gen)
        sections = data.draw(st.integers(1, 40), label="sections")
        flips = data.draw(st.floats(0, 1), label="flip rate")
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1),
                                              label="seed"))
        w = (rng.random((sections, cols)) < flips).astype(np.uint8)
        _assert_matches_reference(t, reference_trellis.build_trellis(gen), w,
                                  BranchMetric())

    def test_many_states_run_one_lane(self):
        # 2^10 states entered from 2 each: the automaton would pass its
        # budget, so every chunk runs section by section
        gen = RatMatrix.from_polys([[p("1+D^10"), p("1+D+D^10")]])
        t = build_trellis_of(gen)
        assert len(t.pred_state) == 2
        assert _metric_tables(t, BranchMetric())[3] is None
        chunk = _CHUNK_BRANCHES // (t.num_states * t.num_inputs)
        rng = np.random.default_rng(16)
        w = (rng.random((2 * chunk + 3, 2)) < 0.05).astype(np.uint8)
        w[-10:] = 0
        _assert_matches_reference(t, reference_trellis.build_trellis(gen), w,
                                  BranchMetric(), ["automaton"])


def _one_section(automaton):
    """(gain, ties, survivor predecessors, survivor labels) of an automaton
    per (vector, packed label), without the no-op label's column."""
    nvec, labels = automaton.step.shape
    gain, ties = automaton.tally.reshape(2, nvec, -1)[:, :, :labels]
    came = automaton.cols[automaton.col[:, :labels]]
    return gain, ties, came, automaton.label[:, :labels]


def _stride_entries(automaton):
    """Entries of an automaton's walk and traceback tables."""
    return (len(automaton.walk) * len(automaton.walk[0])
            + automaton.within.size + len(automaton.back)
            + automaton.back_within.size)


def _level_entries(levels):
    """Entries of one family's level tables; a map table that a repeating
    level shares with the level below counts once."""
    if levels is None:
        return 0
    tables = {id(a): a for a in (*levels.ids, *levels.maps) if a is not None}
    return sum(a.size for a in tables.values())


def _digits(count, base, places):
    """(count, places) base-``base`` digits of 0 .. count - 1, most
    significant first."""
    return np.arange(count)[:, None] // base ** np.arange(
        places - 1, -1, -1) % base


class TestAutomaton:
    """The metric automaton: its size on the five codes, its steps against
    add-compare-select on each vector, its stride tables against the
    one-section tables, and its budgets."""

    # normalised metric vectors reached, the same on both paths
    VECTORS = {"311": 18, "211": 3, "421": 18, "312": 172, "511": 66}
    # stride and stride-table entries, the same under both metrics
    STRIDES = {"311-bin": (2, 203106), "311-f4": (2, 191298),
               "211-bin": (9, 984150), "421-bin": (2, 444258),
               "312-bin": (1, 52456), "511-bin": (2, 1488018),
               "511-f4": (2, 1488018)}

    # distinct maps per level of the walk and of the traceback (None: no
    # composed level fits), and their tables' entries, the same under both
    # metrics; the walk's top of 18-point vector maps is kept raw, one row
    # per pair of maps below, and equal counts are a repeating level
    LEVELS = {"311-bin": ((65, 4225), (233, 233), 148355),
              "311-f4": ((65, 4225), (240, 240), 150710),
              "211-bin": ((3, 3), (3, 3), 39399),
              "421-bin": ((81, 6561), (240, 240), 214126),
              "312-bin": ((33, 1089), None, 193017),
              "511-bin": (None, (241, 244, 244), 173846),
              "511-f4": (None, (241, 244, 244), 173846)}

    @pytest.mark.parametrize("metric", [BranchMetric(),
                                        metric_for("pauli", 0.05)],
                             ids=["hamming", "pauli"])
    @pytest.mark.parametrize("name,path", PATHS, ids=PATH_IDS)
    def test_vector_counts(self, name, path, metric):
        t = _decoder(name, path).trellis
        automaton = _metric_tables(t, metric)[3]
        assert len(automaton.vectors) == self.VECTORS[name]

    @pytest.mark.parametrize("metric", [BranchMetric(),
                                        metric_for("pauli", 0.05)],
                             ids=["hamming", "pauli"])
    @pytest.mark.parametrize("name,path", PATHS, ids=PATH_IDS)
    def test_strides(self, name, path, metric):
        automaton = _metric_tables(_decoder(name, path).trellis, metric)[3]
        assert (automaton.stride, _stride_entries(automaton)) == (
            self.STRIDES[f"{name}-{path}"])
        assert _stride_entries(automaton) <= trellis_module._STRIDE_WORK

    @pytest.mark.parametrize("metric", [BranchMetric(),
                                        metric_for("pauli", 0.05)],
                             ids=["hamming", "pauli"])
    @pytest.mark.parametrize("name,path", PATHS, ids=PATH_IDS)
    def test_levels(self, name, path, metric):
        automaton = _metric_tables(_decoder(name, path).trellis, metric)[3]
        levels = _automaton_levels(automaton)
        counts = tuple(None if family is None
                       else tuple(len(m) for m in family.maps)
                       for family in levels)
        entries = sum(map(_level_entries, levels))
        assert (*counts, entries) == self.LEVELS[f"{name}-{path}"]
        assert (_stride_entries(automaton) + entries
                <= trellis_module._STRIDE_WORK)

    @pytest.mark.parametrize("path", ["bin", "f4"])
    def test_level_rule(self, path):
        # a 302-section [3,1,1] frame runs the bottom strides alone; a
        # 3,002-section one walks over 4-section and traces back over
        # 16-section strides. Levels are chosen on a batch's strides: ten
        # 302-section frames compose as one 3,002-section frame does, and
        # 108 of them (a sweep batch of 2^15 sections) stop at the 4
        # traceback levels that leave each frame 8 top strides, though one
        # frame of their total length takes 6
        automaton = _metric_tables(_decoder("311", path).trellis,
                                   BranchMetric())[3]
        assert automaton.stride == 2
        assert _frame_levels(automaton, 151) == (0, 0)
        assert _frame_levels(automaton, 1501) == (1, 3)
        assert _frame_levels(automaton, 151, 10) == (1, 3)
        assert _frame_levels(automaton, 151, 108) == (1, 4)
        assert _frame_levels(automaton, 151 * 108) == (1, 6)
        assert 151 >> 4 >= trellis_module._TOP_STRIDES > 151 >> 5

    @pytest.mark.parametrize("name,path", PATHS, ids=PATH_IDS)
    def test_steps_match_add_compare_select(self, name, path):
        # every (vector, label) step, against the metrics one section of
        # the trellis's own branches gives, less their least finite entry
        t = _decoder(name, path).trellis
        metric = metric_for("pauli", 0.05)
        automaton = _metric_tables(t, metric)[3]
        gain = _one_section(automaton)[0]
        froms, labels = _branches(t)
        cost_of = metric.xor_table(t)
        x = np.arange(len(cost_of))
        start = np.full(t.num_states, INF)
        start[0] = 0
        assert automaton.vectors[0].tolist() == start.tolist()
        for v, vec in enumerate(automaton.vectors):
            assert vec.min() == 0
            cand = vec[froms][..., None] + cost_of[labels[..., None] ^ x]
            after = np.minimum(cand.min(axis=1), INF)
            got = automaton.vectors[automaton.step[v]].T + gain[v]
            assert np.array_equal(np.minimum(got, INF), after)

    @pytest.mark.parametrize("metric", [BranchMetric(),
                                        metric_for("pauli", 0.05)],
                             ids=["hamming", "pauli"])
    @pytest.mark.parametrize("name,path", PATHS, ids=PATH_IDS)
    def test_survivors_and_ties_match_one_section(self, name, path, metric):
        # every (vector, label) survivor's predecessor and label, against
        # the branch at the first arg-minimum in (input, state) order into
        # each reached state (an unreached state keeps the last branch),
        # and every tie count, against the co-optimal branches less one
        # per reached state
        t = _decoder(name, path).trellis
        automaton = _metric_tables(t, metric)[3]
        _, all_ties, came, survivor_labels = _one_section(automaton)
        froms, labels = _branches(t)
        cost_of = metric.xor_table(t)
        x = np.arange(len(cost_of))
        per = t.num_inputs
        for v, vec in enumerate(automaton.vectors):
            cand = vec[froms][..., None] + cost_of[labels[..., None] ^ x]
            after = cand.min(axis=1)
            reached = after < INF
            survivor = np.where(reached, cand.argmin(axis=1), per - 1)
            ties = (((cand == after[:, None]) & reached[:, None]).sum(
                axis=(0, 1)) - reached.sum(axis=0))
            state = np.arange(t.num_states)[:, None]
            assert np.array_equal(came[v].T, froms[state, survivor])
            assert np.array_equal(survivor_labels[v].T,
                                  labels[state, survivor])
            assert np.array_equal(all_ties[v], ties)

    @pytest.mark.parametrize("name,path", PATHS, ids=PATH_IDS)
    def test_stride_tables_compose_one_section(self, name, path):
        # every walk row against k steps over one label of each class (the
        # no-op label keeps the vector), and every traceback row against k
        # survivor columns applied back from each state; the no-op label
        # gains and ties nothing and keeps every state
        automaton = _metric_tables(_decoder(name, path).trellis,
                                   metric_for("pauli", 0.05))[3]
        k = automaton.stride
        nvec, labels = automaton.step.shape
        nstates = automaton.vectors.shape[1]
        classes = automaton.classes
        assert classes.shape == (labels + 1,)
        # the first label of each class; the no-op label L keeps the vector
        member = np.unique(classes, return_index=True)[1]
        step = np.concatenate([automaton.step, np.arange(nvec)[:, None]],
                              axis=1)
        # each pair of labels in one class steps alike
        assert np.array_equal(step[:, member[classes]], step)
        keys = _digits(len(member) ** k, len(member), k)
        assert np.array_equal(keys @ automaton.class_weights,
                              np.arange(len(keys)))
        v = np.repeat(np.arange(nvec), len(keys))
        within = automaton.within.astype(np.int64)
        for i in range(k):
            assert np.array_equal(within[:, i], v * (labels + 1))
            v = step[v, member[np.tile(keys[:, i], nvec)]]
        assert np.array_equal(np.concatenate(automaton.walk), v)

        cols = automaton.cols
        assert np.array_equal(cols[automaton.col[:, labels]],
                              np.tile(np.arange(nstates), (nvec, 1)))
        assert not automaton.tally.reshape(2, nvec, -1)[:, :, labels].any()
        runs = _digits(len(cols) ** k, len(cols), k)
        assert np.array_equal(runs @ automaton.col_weights,
                              np.arange(len(runs)) * nstates)
        runs = np.repeat(runs, nstates, axis=0)
        s = np.tile(np.arange(nstates), len(cols) ** k)
        for i in reversed(range(k)):
            assert np.array_equal(automaton.back_within[:, i], s)
            s = cols[runs[:, i], s]
        assert np.array_equal(np.asarray(automaton.back), s)

    @pytest.mark.parametrize("name,path", PATHS, ids=PATH_IDS)
    def test_level_tables_compose(self, name, path):
        # each bottom key's map, and each level's map of every pair of maps
        # below (b after a at a n + b), against their composition; a
        # deduplicated level holds each of its maps once, and a repeating
        # level shares the map table below
        automaton = _metric_tables(_decoder(name, path).trellis,
                                   metric_for("pauli", 0.05))[3]
        nstates = automaton.vectors.shape[1]
        bottoms = (np.asarray(automaton.walk).T,
                   np.asarray(automaton.back).reshape(-1, nstates))
        for levels, bottom in zip(_automaton_levels(automaton), bottoms):
            if levels is None:
                continue
            assert np.array_equal(levels.maps[0][levels.ids[0]], bottom)
            for l in range(1, len(levels.ids)):
                below, (ids, maps) = levels.maps[l - 1], levels.level(l)
                a, b = np.divmod(np.arange(len(below) ** 2), len(below))
                assert np.array_equal(maps if ids is None else maps[ids],
                                      below[b[:, None], below[a]])
            for ids, maps in zip(levels.ids, levels.maps):
                if ids is not None:
                    assert len(np.unique(maps, axis=0)) == len(maps)
                    assert np.array_equal(np.unique(ids),
                                          np.arange(len(maps)))
            assert levels.repeats == (levels.maps[-1] is levels.maps[-2])

    def test_over_budget_has_no_levels(self):
        # under a zero stride budget the automaton runs at stride 1 and
        # even a 60,002-section frame composes no level
        t = _decoder("311", "bin").trellis
        with _forward_pass("stride-1", t):
            automaton = _metric_tables(t, BranchMetric())[3]
            assert automaton.stride == 1
            assert _automaton_levels(automaton) == (None, None)
            assert _frame_levels(automaton, 60002) == (0, 0)

    @pytest.mark.parametrize("metric", [BranchMetric(),
                                        metric_for("pauli", 0.05)],
                             ids=["hamming", "pauli"])
    @pytest.mark.parametrize("name,path", PATHS, ids=PATH_IDS)
    def test_row_ids_match_reference(self, name, path, metric):
        # the label classes and survivor columns the stride tables number:
        # their ids, id dtype and distinct rows in order of first
        # appearance equal the per-row dictionary's, by code (columns of
        # 4 states) and by bytes (classes over 18 vectors)
        automaton = _metric_tables(_decoder(name, path).trellis, metric)[3]
        nvec = len(automaton.vectors)
        nstates = automaton.vectors.shape[1]
        step, came = automaton.step, _one_section(automaton)[2]
        for rows, base in (
                (np.concatenate([step, np.arange(nvec, dtype=step.dtype)
                                 [:, None]], axis=1).T, nvec),
                (np.concatenate([np.arange(nstates, dtype=came.dtype)[None],
                                 came.reshape(-1, nstates)]), nstates)):
            ids, distinct = row_ids(rows, base)
            want_ids, want = reference_trellis.row_ids(rows)
            assert ids.dtype == want_ids.dtype
            assert np.array_equal(ids, want_ids)
            assert distinct.dtype == want.dtype
            assert np.array_equal(distinct, want)

    def test_over_budget_keeps_stride_one(self):
        # [3,1,1]'s tables under a stride budget one entry short of its
        # stride-2 tables: stride 1, at the traced peak of a zero budget,
        # below that of the stride-2 traceback table alone (125^2 x 4 x 2
        # one-byte entries)
        automaton = _metric_tables(_decoder("311", "bin").trellis,
                                   BranchMetric())[3]
        assert automaton.stride == 2
        one_section = (automaton.vectors, automaton.step,
                       *_one_section(automaton))

        def build(budget):
            with mock.patch.object(trellis_module, "_STRIDE_WORK", budget):
                tracemalloc.start()
                try:
                    built = _with_strides(*one_section)
                    return built, tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()

        short, peak = build(_stride_entries(automaton) - 1)
        zero, zero_peak = build(0)
        assert short.stride == zero.stride == 1
        assert _stride_entries(short) == _stride_entries(zero) < 2000
        assert peak <= zero_peak + 4096
        assert peak < 125 ** 2 * 4 * 2

    def test_over_budget_has_no_automaton(self):
        # 16 states entered from 2 each reach 191,335 normalised vectors
        # under Hamming: the build stops at the budget, and with a smaller
        # budget its traced peak shrinks to match (an unbounded build peaks
        # near 133 MB)
        t = build_trellis_of(RatMatrix.from_polys([[p("1+D+D^4"),
                                                    p("1+D^2+D^3+D^4")]]))
        assert (t.num_states, len(t.pred_state)) == (16, 2)
        assert _metric_tables(t, BranchMetric())[3] is None
        budget = _AUTOMATON_WORK >> 4
        t._tables.clear()
        with mock.patch.object(trellis_module, "_AUTOMATON_WORK", budget):
            tracemalloc.start()
            try:
                assert _metric_tables(t, BranchMetric())[3] is None
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak < 32 * budget

    def test_many_labels_bail_before_allocating(self):
        # 2^13 states x 256 labels pass the budget with the start vector
        # alone: the build returns at once, allocating no costs per
        # (label, predecessor, state), which would take 32 MB here
        polys = ["1+D^13"] + [f"1+D^{i}" for i in range(1, 8)]
        t = build_trellis_of(RatMatrix.from_polys([[p(x) for x in polys]]))
        assert (t.num_states, 1 << t.label_bits, len(t.pred_state)) == (
            8192, 256, 2)
        tracemalloc.start()
        try:
            assert _metric_tables(t, BranchMetric())[3] is None
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


class TestFold:
    """The parallel branches folded into the branch metric, against every
    state's branches read straight from the reference tables."""

    @pytest.mark.parametrize("metric", [
        BranchMetric(), metric_for("pauli", 0.05),
        BranchMetric("pauli", pauli_costs_for_channel(0.9, 0.05, 0.0, 0.05))],
        ids=["hamming", "pauli", "forbidden-y"])
    @pytest.mark.parametrize("name,path", PATHS, ids=PATH_IDS)
    def test_tables_match_brute_force(self, name, path, metric):
        t = _decoder(name, path).trellis
        ref = _reference(name, path)
        low, first, count, _ = _metric_tables(t, metric)
        cost_of = metric.xor_table(t)
        x = np.arange(len(cost_of))
        for state in range(t.num_states):
            froms = np.flatnonzero((ref.next_state == state).any(axis=1))
            assert t.pred_state[:, state].tolist() == froms.tolist()
            for slot, s in enumerate(froms):
                # the parallel branches from s into state, in input order
                branch = ref.label[s, ref.next_state[s] == state]
                costs = cost_of[branch[:, None] ^ x]
                folded = t.pred_label[slot, state] ^ x
                assert np.array_equal(low[folded], costs.min(axis=0))
                assert np.array_equal(first[folded], costs.argmin(axis=0))
                assert np.array_equal(count[folded],
                                      (costs == costs.min(axis=0)).sum(axis=0))


def _bits_poly(taps: int):
    """The GF(2) polynomial whose coefficient of D^i is bit i of ``taps``."""
    terms = [f"D^{i}" if i else "1" for i in range(taps.bit_length())
             if taps >> i & 1]
    return p("+".join(terms) or "0")


def _chunk_boundaries(trellis):
    """Section counts that end one section short of, on and one past each
    of the first two chunk boundaries of viterbi_decode: the forward pass
    carries its metrics across each boundary, and a one-section tail is a
    chunk of its own."""
    chunk = max(1, _CHUNK_BRANCHES // (trellis.num_states * trellis.num_inputs))
    return (1, chunk - 1, chunk, chunk + 1, 2 * chunk + 1)


def _assert_matches_reference(t, ref, w, metric, passes=PASSES):
    """viterbi_decode on trellis ``t`` against the reference decoder on
    ``ref``, the reference tables of the same generator; and viterbi_path
    on the (3, n) batch of w, w reversed and zeros, each row against the
    reference's decode of its frame."""
    want = reference_viterbi.viterbi_decode(ref, w, metric)
    frames = (w, w[::-1], np.zeros_like(w))
    rows = [want] + [reference_viterbi.viterbi_decode(ref, f, metric)
                     for f in frames[1:]]
    batch = np.stack([pack_sections(f, t) for f in frames])
    for name in passes:
        with _forward_pass(name, t):
            got = viterbi_decode(t, w, metric)
            labels, path_metric, ties = viterbi_path(t, batch, metric)
        assert np.array_equal(got.codeword, want.codeword)
        assert np.array_equal(got.error, want.error)
        assert (got.path_metric, got.tie_count) == (
            want.path_metric, want.tie_count)
        for i, row in enumerate(rows):
            assert np.array_equal(unpack_sections(labels[i], t),
                                  row.codeword), (name, i)
            assert (path_metric[i], ties[i]) == (
                row.path_metric, row.tie_count), (name, i)
    return want.tie_count


class TestForbiddenPaulis:
    """A Pauli of probability 0 costs INF: paths through it are unreachable
    and the sums saturate instead of wrapping int64."""

    def test_zero_probability_cost_is_inf(self):
        assert pauli_costs_for_channel(1.0, 0.0, 0.0, 0.0) == (0, INF, INF,
                                                               INF)
        assert metric_for("pauli", 0.0).pauli_costs == (0, INF, INF, INF)
        metric = BranchMetric("pauli", (0, INF, INF, INF))
        assert metric.xor_table(_coset_trellis()).tolist() == [0] + [INF] * 63

    @pytest.mark.parametrize("path", ["bin", "f4"])
    def test_no_allowed_path_raises(self, path):
        # [3,1,1] 900-qubit frames drawn at p = 0.05 and decoded under the
        # p = 0 metric: no error is allowed, so no path reaches the end (with
        # a forbidden cost of INF // 4, frame 3 wrapped int64 to a path
        # metric of -7205759403792793600)
        decoder = _decoder("311", path)
        metric = metric_for("pauli", 0.0)
        for frame in range(5):
            e = sample_error(ChannelParams(0.05), 900, frame_rng(1, frame))
            with pytest.raises(TrellisError, match="no zero-terminated path"):
                decoder.decode(decoder.measure(e), metric)

    def test_clean_frame_decodes(self):
        decoder = _decoder("311", "bin")
        out = decoder.decode(decoder.measure(sample_error(
            ChannelParams(0.0), 900, frame_rng(7, 0))), metric_for("pauli", 0))
        assert out.path_metric == 0 and not out.frame.bits.any()

    @pytest.mark.parametrize("forward", PASSES)
    def test_forbidden_y_never_decoded(self, forward):
        # Y forbidden, X and Z allowed: every frame decodes without a Y, at
        # the recounted path metric
        decoder = _decoder("311", "bin")
        metric = BranchMetric("pauli", pauli_costs_for_channel(
            0.9, 0.05, 0.0, 0.05))
        with _forward_pass(forward, decoder.trellis):
            for frame in range(5):
                e = sample_error(ChannelParams(0.05), 900, frame_rng(8, frame))
                out = decoder.decode(decoder.measure(e), metric)
                x, z = out.frame.bits[0::2], out.frame.bits[1::2]
                assert not (x & z).any()
                assert out.path_metric == metric.pauli_costs[1] * int(
                    (x | z).sum())


class TestMetrics:
    def test_channel_table_monotone(self):
        # likelier Paulis cost less
        costs = pauli_costs_for_channel(0.9, 0.05, 0.01, 0.04)
        assert costs[0] == 0 < costs[1] < costs[2]
        assert costs[1] < costs[3] < costs[2]

    @pytest.mark.parametrize("metric", [BranchMetric(),
                                        metric_for("pauli", 0.05)])
    def test_tables_match_per_label_loop(self, metric):
        # per-label, per-qubit loops: the reference for the numpy tables
        def loop_table(size, qubit_bits):
            return [sum(metric.qubit_cost(*qubit_bits(v, c)) for c in range(nq))
                    for v in range(size)]

        nq = 3
        paired = loop_table(1 << 6, lambda v, c: ((v >> c) & 1,
                                                  (v >> (nq + c)) & 1))
        assert metric.xor_table(_coset_trellis()).tolist() == paired
        assert metric.paired_table(nq).tolist() == paired
        gf4 = build_trellis_of(REF_GENERATOR_F4, kind="gf4")
        assert metric.xor_table(gf4).tolist() == loop_table(
            1 << 6, lambda v, c: PAULI_TO_BITS[
                GF4_DECODE_TO_PAULI[(v >> (2 * c)) & 3]])
        if metric.mode == "hamming":
            bits = build_trellis_of(tick_gen_311())
            assert metric.xor_table(bits).tolist() == [bin(v).count("1")
                                                       for v in range(8)]

    @pytest.mark.parametrize("kind", ["bit-paired", "gf4"])
    def test_pack_unpack_match_per_symbol_loop(self, kind):
        t = (_coset_trellis() if kind == "bit-paired" else
             build_trellis_of(REF_GENERATOR_F4, kind="gf4"))
        bps = t.bits_per_symbol
        rng = np.random.default_rng(12)
        frame = rng.integers(0, 1 << bps, size=(9, t.out_symbols)).astype(
            np.uint8)
        packed = [sum(int(sym) << (bps * c) for c, sym in enumerate(row))
                  for row in frame]
        assert pack_sections(frame, t).tolist() == packed
        assert np.array_equal(unpack_sections(packed, t), frame)

    @pytest.mark.parametrize("args,costs", [
        pytest.param(("foo",), None, id="unknown-mode"),
        pytest.param(("hamming", [0, 1, 2, 1]), None, id="hamming-costs"),
        pytest.param(("pauli",), None, id="no-costs"),
        pytest.param(("pauli", (0, 1, 2)), None, id="three-costs"),
        pytest.param(("pauli", (0, 1.5, 2, 1)), None, id="float-cost"),
        pytest.param(("pauli", "IXYZ"), None, id="text"),
        pytest.param(("pauli", [0, 1, 2, 1]), (0, 1, 2, 1), id="list"),
        pytest.param(("pauli", np.array([0, 1, 2, 1])), (0, 1, 2, 1),
                     id="numpy"),
        pytest.param(("pauli", (0, INF, INF, INF)), (0, INF, INF, INF),
                     id="forbidden"),
        pytest.param(("pauli", (0, -1, 2, 1)), None, id="negative-cost"),
        pytest.param(("pauli", (5, 1, 1, 1)), None, id="identity-cost"),
    ])
    def test_metric_inputs_checked(self, args, costs):
        # these used to fail at the first decode (a None or list cost table,
        # a missing Z cost) or, for 1.5, to decode silently as cost 1; a
        # negative cost decoded one Y on [3,1,1] to X on most qubits at path
        # metric -28, and an identity cost flagged every block
        if costs is None:
            with pytest.raises(ValueError):
                BranchMetric(*args)
            return
        metric = BranchMetric(*args)
        assert metric.pauli_costs == costs
        assert all(type(c) is int for c in metric.pauli_costs)
        hash(metric)  # the metric keys the per-trellis table cache

    def test_channel_costs_accepted(self):
        # the channel's costs pass the check: identity 0, the others
        # nonnegative, down to 0 next to p = 0.5
        for p in np.linspace(0.0001, 0.4999, 200):
            costs = metric_for("pauli", p).pauli_costs
            assert costs[0] == 0 and min(costs) >= 0, p
        assert metric_for("pauli", 0.4999999).pauli_costs == (0, 0, 0, 0)

    def test_pauli_table_on_bits_trellis_rejected(self):
        t = build_trellis_of(tick_gen_311())
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
        sigma = gf_convolve(S, e, GF2, 6)
        res = coset_leader_oracle(hb, sigma, 5)
        assert res.weight == 1
        assert res.unique
        assert np.array_equal(res.leader, e)

    def test_dp_matches_exhaustive(self):
        # 25 syndromes of random two-block frames per code, Hamming and the
        # channel Pauli metric
        for name in ("311", "211", "312", "421"):
            hb = binary_transfer(CODES[name])
            S = block_parity_matrix(hb)
            window = 2 + len(S) - 1
            rng = np.random.default_rng(4)
            for _ in range(25):
                e = rng.integers(0, 2, size=(2, S.shape[2])).astype(np.uint8)
                sigma = gf_convolve(S, e, GF2, window)
                for metric in (BranchMetric(), metric_for("pauli", 0.05)):
                    a = coset_leader_oracle(hb, sigma, 2, metric, mode="dp")
                    b = coset_leader_oracle(hb, sigma, 2, metric,
                                            mode="exhaustive")
                    assert a.weight == b.weight
                    assert a.count == b.count
                    if a.unique:
                        assert np.array_equal(a.leader, b.leader)
                    assert np.array_equal(
                        gf_convolve(S, b.leader, GF2, window), sigma)

    @pytest.mark.parametrize("name,blocks", [("211", 2), ("311", 1)])
    def test_exhaustive_matches_enumeration(self, name, blocks):
        # per-frame loop in enumeration order (bit i of v is lane i % lanes
        # of block i // lanes): ties keep the first minimum
        hb = binary_transfer(CODES[name])
        S = block_parity_matrix(hb)
        lanes = S.shape[2]
        window = blocks + len(S) - 1
        metric = metric_for("pauli", 0.05)
        wtab = metric.paired_table(hb.shape[2])
        rng = np.random.default_rng(5)
        for _ in range(10):
            e = rng.integers(0, 2, size=(blocks, lanes)).astype(np.uint8)
            sigma = gf_convolve(S, e, GF2, window)
            best = None
            for v in range(1 << (lanes * blocks)):
                f = np.array([(v >> i) & 1 for i in range(lanes * blocks)],
                             dtype=np.uint8).reshape(blocks, lanes)
                if not np.array_equal(gf_convolve(S, f, GF2, window), sigma):
                    continue
                w = sum(int(wtab[(v >> (lanes * j)) & ((1 << lanes) - 1)])
                        for j in range(blocks))
                if best is None or w < best[0]:
                    best = [w, 1, f]
                elif w == best[0]:
                    best[1] += 1
            res = coset_leader_oracle(hb, sigma, blocks, metric,
                                      mode="exhaustive")
            assert (res.weight, res.count) == tuple(best[:2])
            assert np.array_equal(res.leader, best[2])

    def test_exhaustive_cap(self):
        # 4 blocks of [3,1,1] are 24 frame bits: 2^24 rows
        sigma = np.zeros((5, 2), dtype=np.uint8)
        assert _raises_before_allocating(
            OracleCapError, coset_leader_oracle, hb_311(), sigma, 4,
            mode="exhaustive")

    def test_dp_cap(self):
        # 8 qubits per block are 16 lanes: 2^16 block values per table
        hb = tensor(RatMatrix.from_polys([[p("1+D^2")] * 8]))
        sigma = np.zeros((3, 1), dtype=np.uint8)
        assert _raises_before_allocating(
            OracleCapError, coset_leader_oracle, hb, sigma, 2, mode="dp")

    def test_pauli_metric_mode(self):
        hb = hb_311()
        S = block_parity_matrix(hb)
        e = np.zeros((4, 6), dtype=np.uint8)
        e[1, 2] = 1
        e[1, 5] = 1  # Y on qubit 5
        sigma = gf_convolve(S, e, GF2, 5)
        metric = metric_for("pauli", 0.05)
        res = coset_leader_oracle(hb, sigma, 4, metric=metric)
        assert res.weight <= metric.pauli_costs[2]  # cost of the Y itself

    def test_unrealizable_rejected(self):
        # a syndrome claiming support after the frame ends
        sigma = np.zeros((7, 2), dtype=np.uint8)
        sigma[6, 0] = 1
        with pytest.raises(ValueError):
            coset_leader_oracle(hb_311(), sigma, 5)
