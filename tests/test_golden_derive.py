"""Pinned ``qconvdec derive`` output: stdout, stderr and exit code on the
five test-suite codes and the [4,3,2] long-reach code.

The fixture ``golden_derive.json`` is the reference; a change to how the
circuits are derived must print them byte for byte. Re-record it (only for
an intended output change) with

    PYTHONPATH=src python tests/test_golden_derive.py
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

from reference_data import CODES, LONG_REACH_TEXT, spec_text

FIXTURE = Path(__file__).with_name("golden_derive.json")

SPEC_TEXTS = {name: spec_text(spec) for name, spec in CODES.items()}
SPEC_TEXTS["432"] = LONG_REACH_TEXT


def run_derive(text: str) -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "code.qcc")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["derive", path])
    return {"stdout": out.getvalue(), "stderr": err.getvalue(), "exit": code}


@pytest.fixture(scope="module")
def golden():
    return json.loads(FIXTURE.read_text(encoding="utf-8"))


@pytest.mark.parametrize("code", sorted(SPEC_TEXTS))
def test_derive_output_pinned(golden, code):
    assert run_derive(SPEC_TEXTS[code]) == golden[code]


if __name__ == "__main__":
    FIXTURE.write_text(json.dumps(
        {code: run_derive(text) for code, text in SPEC_TEXTS.items()},
        indent=1) + "\n", encoding="utf-8")
    sys.exit(0)
