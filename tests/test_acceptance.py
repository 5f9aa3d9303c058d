"""Acceptance criteria, one test per criterion, each printing a PASS line.

Tolerances are pinned here:
  1, 2, 3, 4, 5: exact (symbolic identities, bit equality, integer weights)
  6a: measured QBER nondecreasing across the p sweep (coupled RNG streams)
  6b: one-sided 95% Clopper-Pearson upper bound on decoded QBER below the
      raw channel qubit error rate 1-(1-p)^2, for p <= 0.01
  runtime budgets: c1 < 1 s, c2 < 1 s, c3+c4 < 120 s, c6 < 300 s single thread
"""

import hashlib
import time

import numpy as np
import pytest
from scipy.stats import beta

from qconvdec.algebra import GF2, GF4, RatMatrix, parse_poly
from qconvdec.circuits import (
    derive_bundle, derive_generator, derive_syndrome_former,
)
from qconvdec.decoder import SyndromeDecoder
from qconvdec.simulate import SimConfig, run_sweep
from qconvdec.stabilizer import (
    StabilizerSpec, binary_transfer, check_symplectic, example_311,
    quaternary_transfer,
)
from qconvdec.oracle import coset_leader_oracle

from reference_data import (
    REF_ALLONES_ISF_F4, REF_FIR_ISF_21, REF_GENERATOR_311, REF_GENERATOR_F4,
    REF_POLY_GP_21, REF_RATIONAL_GP_21, REF_RATIONAL_ISF_311,
    REF_TRANSFER_21, REF_TRANSFER_311, REF_TRANSFER_311_F4,
)
from reference_elimination import rank
from reference_rational import is_identity, is_zero, matmul, tensor, transpose
from reference_transfer import shifted_isf_matrix


def p(text, field=GF2):
    return parse_poly(text, field)


@pytest.fixture(scope="module")
def decoder():
    return SyndromeDecoder(example_311())


_sweep_cache = {}
# md5 of the criterion-6 CSV; the sweep's outputs may not move
CRITERION6_CSV_MD5 = "69704e4763f655327f463bced967cff7"


def _criterion6_config(threads=1):
    return SimConfig(
        spec=example_311(), frame_qubits=900, frames=1000,
        p_values=(0.001, 0.005, 0.01, 0.02, 0.05), seed=311,
        threads=threads, stable_timing=True)


def _criterion6_result(decoder, threads=1):
    key = threads
    if key not in _sweep_cache:
        _sweep_cache[key] = run_sweep(_criterion6_config(threads), decoder)
    return _sweep_cache[key]


def test_criterion_1_golden_fixtures():
    t0 = time.perf_counter()

    # [3,1,1] generator read-off reproduces the reference transfer matrix
    spec = example_311()
    hb = RatMatrix.from_coeff_tensor(binary_transfer(spec))
    assert hb == REF_TRANSFER_311

    # the known rational inverse syndrome former satisfies the left-inverse
    # identity; the reference generator satisfies the kernel identity and the
    # derivation reproduces it exactly
    assert is_identity(matmul(REF_RATIONAL_ISF_311, transpose(hb)))
    assert is_zero(matmul(REF_GENERATOR_311, transpose(hb)))
    assert derive_generator(tensor(hb), GF2).matrix == REF_GENERATOR_311

    # rate-1/2 classical code: known FIR ISF and both generator choices verify
    hb1 = REF_TRANSFER_21
    assert is_identity(matmul(REF_FIR_ISF_21, transpose(hb1)))
    assert is_zero(matmul(REF_RATIONAL_GP_21, transpose(hb1)))
    assert is_zero(matmul(REF_POLY_GP_21, transpose(hb1)))

    # GF(4) equivalents: transfer row, all-ones ISF, two-row generator
    qt = quaternary_transfer(spec)
    assert RatMatrix.from_coeff_tensor(qt.hq, GF4) == REF_TRANSFER_311_F4
    assert is_identity(matmul(REF_ALLONES_ISF_F4,
                              transpose(REF_TRANSFER_311_F4)))
    assert is_zero(matmul(REF_GENERATOR_F4, transpose(REF_TRANSFER_311_F4)))
    assert rank(REF_GENERATOR_F4) == 2

    dt = time.perf_counter() - t0
    assert dt < 1.0
    print(f"\nPASS criterion 1: golden fixtures exact ({dt:.2f}s)")


def test_criterion_2_symplectic_validation():
    t0 = time.perf_counter()
    spec = example_311()
    assert check_symplectic(spec).ok

    rng = np.random.default_rng(20100715)
    detected = 0
    for _ in range(100):
        gens = [list(g) for g in spec.generators]
        gi = int(rng.integers(0, len(gens)))
        pos = int(rng.integers(0, len(gens[gi])))
        old = gens[gi][pos]
        gens[gi][pos] = str(rng.choice([c for c in "IXYZ" if c != old]))
        try:
            mutated = StabilizerSpec(
                n=3, k=1, m=1, generators=tuple("".join(g) for g in gens))
        except Exception:
            detected += 1
            continue
        res = check_symplectic(mutated)
        if not res.ok:
            assert res.witness is not None and res.witness[2]
            detected += 1
    assert detected >= 90, f"only {detected}/100 mutations detected"
    dt = time.perf_counter() - t0
    assert dt < 1.0
    print(f"\nPASS criterion 2: symplectic validation "
          f"({detected}/100 mutations detected, {dt:.2f}s)")


def _all_1024_syndromes(blocks_total=7, data_blocks=5):
    for sidx in range(1 << (2 * data_blocks)):
        sigma = np.zeros((blocks_total, 2), dtype=np.uint8)
        for j in range(data_blocks):
            for i in range(2):
                sigma[j, i] = (sidx >> (2 * j + i)) & 1
        yield sidx, sigma


def test_criterion_3_ml_oracle_equivalence(decoder):
    t0 = time.perf_counter()
    metrics = {}
    nonunique = 0
    for sidx, sigma in _all_1024_syndromes():
        out = decoder.decode(sigma)
        oracle = coset_leader_oracle(decoder.hb, sigma, 7)
        assert out.frame.bit_weight() == oracle.weight, sidx
        if oracle.unique:
            assert np.array_equal(out.frame.blocks(3), oracle.leader), sidx
        else:
            nonunique += 1
        metrics[sidx] = out.path_metric
    dt = time.perf_counter() - t0
    assert dt < 120.0
    test_criterion_3_ml_oracle_equivalence.metrics = metrics
    print(f"\nPASS criterion 3: pipeline == coset-leader oracle on all 1024 "
          f"syndromes ({nonunique} non-unique leaders, {dt:.1f}s)")


def test_criterion_4_isf_independence(decoder):
    t0 = time.perf_counter()
    alt_isf = shifted_isf_matrix(decoder.bundle, [p("1"), p("1")])
    assert alt_isf != decoder.bundle.isf.matrix
    alt = SyndromeDecoder(example_311(), isf_matrix=alt_isf)
    base_metrics = getattr(test_criterion_3_ml_oracle_equivalence, "metrics",
                           None)
    for sidx, sigma in _all_1024_syndromes():
        got = alt.decode(sigma).path_metric
        want = (base_metrics[sidx] if base_metrics is not None
                else decoder.decode(sigma).path_metric)
        assert got == want, sidx
    dt = time.perf_counter() - t0
    print(f"\nPASS criterion 4: second ISF gives identical path metrics on "
          f"all 1024 syndromes ({dt:.1f}s)")


def test_criterion_5_roundtrip_and_kernel(decoder):
    t0 = time.perf_counter()
    bundles = {
        "[3,1,1]": decoder.bundle,
        "rate-1/2": derive_bundle(tensor(REF_TRANSFER_21), GF2),
    }
    rng = np.random.default_rng(5)
    for name, bundle in bundles.items():
        sf = derive_syndrome_former(bundle.hb, GF2)
        gen = derive_generator(bundle.hb, GF2)
        a = bundle.isf.input_advance
        for _ in range(1000):
            ticks = 2 * int(rng.integers(4, 61))
            s = rng.integers(0, 2, size=(ticks, bundle.r)).astype(np.uint8)
            z = sf.run(bundle.isf.run(s))
            assert np.array_equal(z[a:], s[: ticks - a]), name
            assert not z[:a].any(), name
        for _ in range(1000):
            ticks = int(rng.integers(4, 60))
            u = rng.integers(0, 2, size=(ticks, gen.inputs)).astype(np.uint8)
            c = gen.run(u, extra=4)
            assert not sf.run(c, extra=4).any(), name
    dt = time.perf_counter() - t0
    print(f"\nPASS criterion 5: SF.ISF identity and SF.GEN kernel, exact on "
          f"1000 random frames per code ({dt:.1f}s)")


def test_criterion_6_monte_carlo(decoder):
    t0 = time.perf_counter()
    result = _criterion6_result(decoder, threads=1)
    dt = time.perf_counter() - t0
    assert "rate 300/906" in result.rate_info

    qbers = [row.qber for row in result.rows]
    ps = [row.p for row in result.rows]
    # (a) nondecreasing in p
    for lo, hi in zip(qbers, qbers[1:]):
        assert lo <= hi, f"QBER not monotone: {qbers}"
    # (b) decoded below raw at 95% confidence for p <= 0.01
    details = []
    for row in result.rows:
        raw = 1.0 - (1.0 - row.p) ** 2
        k, n = row.qubit_errors, row.qubits_total
        upper95 = float(beta.ppf(0.95, k + 1, n - k)) if k < n else 1.0
        details.append(f"p={row.p}: qber={row.qber:.2e} raw={raw:.2e}")
        if row.p <= 0.01:
            assert upper95 < raw, (row.p, k, n, upper95, raw)
    assert dt < 300.0
    print(f"\nPASS criterion 6: Monte Carlo sweep, {result.rate_info}, "
          f"{dt:.0f}s\n  " + "\n  ".join(details))


def test_criterion_6_csv_md5(decoder):
    csv = _criterion6_result(decoder, threads=1).csv_text()
    assert hashlib.md5(csv.encode()).hexdigest() == CRITERION6_CSV_MD5


def test_criterion_7_determinism_and_threads(decoder):
    single = _criterion6_result(decoder, threads=1)
    multi = _criterion6_result(decoder, threads=4)
    assert single.csv_text() == multi.csv_text()
    print("\nPASS criterion 7: byte-identical CSV across thread counts "
          "(elapsed_ms pinned by stable timing)")
