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

import pytest

from qconvdec.cli import main
from qconvdec.decoder import SyndromeDecoder, SyndromeDecoderF4
from qconvdec.simulate import ChannelParams, frame_rng, sample_error
from qconvdec.stabilizer import F4LinearityError, StabilizerSpec
from qconvdec.trellis import BranchMetric, pauli_costs_for_channel

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


if __name__ == "__main__":
    FIXTURE.write_text(json.dumps(record(), indent=1) + "\n", encoding="utf-8")
    sys.exit(0)
