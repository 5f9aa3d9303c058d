"""Pinned outputs of the five test-suite codes: the ``derive`` dump and the
decoded Pauli strings of seeded channel frames on every available path,
under Hamming and under the channel Pauli metric.

The fixture ``golden_decodes.json`` is the reference; refactors of the
algebra, the syndrome map or the decoder must reproduce it exactly. Re-record
it (only for an intended output change) with

    PYTHONPATH=src python tests/test_golden_decodes.py
"""

import contextlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from qconvdec.algebra import pack_symbols
from qconvdec.cli import main
from qconvdec.decoder import SyndromeDecoder, SyndromeDecoderF4
from qconvdec.simulate import ChannelParams, frame_rng, sample_error
from qconvdec.stabilizer import F4LinearityError, StabilizerSpec
from qconvdec.trellis import (
    BranchMetric, pauli_costs_for_channel, unpack_sections,
)

from reference_data import CODES, spec_text

FIXTURE = Path(__file__).with_name("golden_decodes.json")
FRAMES = 20
DATA_BLOCKS = 12
P_VALUES = (0.02, 0.05, 0.1)
SEED = 2010

def derive_dump(spec: StabilizerSpec) -> str:
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "code.qcc")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(spec_text(spec))
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(["derive", path]) == 0
    return out.getvalue()


def channel_metric(p: float) -> BranchMetric:
    ch = ChannelParams(p)
    return BranchMetric("pauli", pauli_costs_for_channel(
        ch.p_identity, ch.p_x, ch.p_y, ch.p_z))


def decoders(spec: StabilizerSpec) -> dict:
    out = {"bin": SyndromeDecoder(spec)}
    try:
        out["f4"] = SyndromeDecoderF4(spec)
    except F4LinearityError:
        pass
    return out


def decode_records(spec: StabilizerSpec) -> dict:
    """path -> metric -> list of [pauli string, path metric, ties]."""
    out = {}
    for path, decoder in decoders(spec).items():
        per_metric = {"hamming": [], "pauli": []}
        for i in range(FRAMES):
            p = P_VALUES[i % len(P_VALUES)]
            error = sample_error(ChannelParams(p), spec.n * DATA_BLOCKS,
                                 frame_rng(SEED, i))
            sigma = decoder.measure(error)
            for name, metric in (("hamming", None),
                                 ("pauli", channel_metric(p))):
                res = decoder.decode(sigma, metric=metric)
                per_metric[name].append([res.frame.to_pauli(),
                                         res.path_metric, res.tie_count])
        out[path] = per_metric
    return out


def batch_records(spec: StabilizerSpec) -> dict:
    """:func:`decode_records` of the same frames decoded in batches through
    ``decode_words``: all of a path's frames in one batch under Hamming,
    and those of each p in one batch under that p's Pauli metric."""
    out = {}
    for path, decoder in decoders(spec).items():
        p_of = [P_VALUES[i % len(P_VALUES)] for i in range(FRAMES)]
        words = np.stack([pack_symbols(decoder.measure(sample_error(
            ChannelParams(p), spec.n * DATA_BLOCKS, frame_rng(SEED, i))), 1)
            for i, p in enumerate(p_of)])
        per_metric = {"hamming": [None] * FRAMES, "pauli": [None] * FRAMES}
        batches = [("hamming", None, list(range(FRAMES)))]
        batches += [("pauli", channel_metric(p),
                     [i for i in range(FRAMES) if p_of[i] == p])
                    for p in P_VALUES]
        for name, metric, frames in batches:
            labels, path_metric, ties = decoder.decode_words(words[frames],
                                                             metric)
            for row, i in enumerate(frames):
                frame = decoder.symbols_to_frame(
                    unpack_sections(labels[row], decoder.trellis))
                per_metric[name][i] = [frame.to_pauli(), path_metric[row],
                                       ties[row]]
        out[path] = per_metric
    return out


def record() -> dict:
    return {code: {"derive": derive_dump(spec),
                   "decodes": decode_records(spec)}
            for code, spec in CODES.items()}


@pytest.fixture(scope="module")
def golden():
    return json.loads(FIXTURE.read_text(encoding="utf-8"))


@pytest.mark.parametrize("code", sorted(CODES))
def test_derive_dump_pinned(golden, code):
    assert derive_dump(CODES[code]) == golden[code]["derive"]


@pytest.mark.parametrize("code", sorted(CODES))
def test_decodes_pinned(golden, code):
    assert decode_records(CODES[code]) == golden[code]["decodes"]


@pytest.mark.parametrize("code", sorted(CODES))
def test_batch_decodes_pinned(golden, code):
    assert batch_records(CODES[code]) == golden[code]["decodes"]


if __name__ == "__main__":
    FIXTURE.write_text(json.dumps(record(), indent=1) + "\n", encoding="utf-8")
    sys.exit(0)
