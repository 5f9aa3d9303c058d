import contextlib
import io
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import qconvdec.circuits
import qconvdec.cli
import qconvdec.simulate
from qconvdec.circuits import TransferSystem
from qconvdec.cli import main
from qconvdec.decoder import SyndromeDecoder
from qconvdec.simulate import syndrome_to_text
from qconvdec.stabilizer import EXAMPLE_311_TEXT, ErrorFrame, example_311

from reference_data import CODES, LONG_REACH_TEXT


@pytest.fixture
def spec_file(tmp_path):
    path = tmp_path / "code.qcc"
    path.write_text(EXAMPLE_311_TEXT)
    return str(path)


@pytest.fixture
def mutated_spec_file(tmp_path):
    path = tmp_path / "bad.qcc"
    path.write_text("qcc n=3 k=1 m=1\nXXXXZX\nZZZZYX\n")
    return str(path)


class TestDerive:
    def test_dump_contains_matrices(self, spec_file, capsys):
        assert main(["derive", spec_file]) == 0
        out = capsys.readouterr().out
        assert "H_b (2x3 over GF(2)):" in out
        assert "1+D^2 | 1+D^3 | 1+D^2+D^3" in out
        assert "ISF (" in out
        assert "GEN (" in out
        assert "D^2 | 1+D^2 | 1+D^2" in out
        assert "H_q (1x3 over GF(4)):" in out
        assert "1+D | 1+w*D | 1+w2*D" in out

    def test_missing_file(self, capsys):
        assert main(["derive", "/nonexistent.qcc"]) == 2


class TestVerify:
    def test_good_spec_passes(self, tmp_path, capsys):
        # every check passes on each suite code; the candidate round trip
        # draws realizable syndromes, so [3,1,2] and [5,1,1] reach it too
        for name, spec in CODES.items():
            path = tmp_path / f"{name}.qcc"
            path.write_text(f"qcc n={spec.n} k={spec.k} m={spec.m}\n"
                            + "\n".join(spec.generators) + "\n")
            assert main(["verify", str(path)]) == 0, name
            out = capsys.readouterr().out
            assert "FAIL" not in out, name
            assert "PASS  candidate round trip" in out, name

    def test_long_reach_isf_passes(self, tmp_path, capsys):
        # its candidate reaches 4 blocks past the syndrome: the decode and
        # round-trip checks run on the decoder's padding
        path = tmp_path / "long_reach.qcc"
        path.write_text(LONG_REACH_TEXT)
        assert main(["verify", str(path)]) == 0
        assert "FAIL" not in capsys.readouterr().out

    def test_mutated_spec_fails_with_witness(self, mutated_spec_file, capsys):
        assert main(["verify", mutated_spec_file]) == 1
        out = capsys.readouterr().out
        assert "FAIL  generator commutation" in out
        assert "witness" in out

    def test_corrupted_sf_realization_fails(self, spec_file, monkeypatch,
                                           capsys):
        # the streamed SF is checked against the block-domain syndrome map
        run = TransferSystem.run

        def corrupted(system, x, extra=0):
            out = run(system, x, extra)
            if system.role == "SF":
                out[-1] ^= 1
            return out

        monkeypatch.setattr(TransferSystem, "run", corrupted)
        assert main(["verify", spec_file]) == 1
        assert "FAIL  block syndrome matches streamed SF" in \
            capsys.readouterr().out

    def test_wrong_generator_fails(self, spec_file, monkeypatch, capsys):
        # the generator is derived for the check alone, so a G with
        # G @ H_b^T != 0 fails it
        monkeypatch.setattr(qconvdec.cli, "derive_generator",
                            lambda hb, field: TransferSystem(np.eye(
                                hb.shape[2], dtype=np.uint8)[None], field))
        assert main(["verify", spec_file]) == 1
        assert "FAIL  generator kernel identity" in capsys.readouterr().out

    def test_wrong_isf_fails(self, spec_file, monkeypatch, capsys):
        # the bundle takes the ISF unchecked, so verify reports a wrong one
        # itself, and stops before the decoder would refuse it
        derive = qconvdec.circuits.derive_inverse_syndrome_former

        def swapped(hb, field):
            isf = derive(hb, field)
            return TransferSystem(isf.num[:, ::-1], field, isf.den, role="ISF")

        monkeypatch.setattr(qconvdec.circuits,
                            "derive_inverse_syndrome_former", swapped)
        assert main(["verify", spec_file]) == 1
        captured = capsys.readouterr()
        assert "FAIL  ISF left inverse identity" in captured.out
        assert captured.err == ""

    def test_malformed_spec(self, tmp_path, capsys):
        path = tmp_path / "broken.qcc"
        path.write_text("qcc n=3 k=1 m=1\nXXAXZY\nZZZZYX\n")
        assert main(["verify", str(path)]) == 2


class TestDecode:
    def test_zero_syndrome_all_identity(self, spec_file, tmp_path, capsys):
        syn = tmp_path / "zero.syn"
        syn.write_text("4:00\n")
        assert main(["decode", spec_file, "--syndrome", str(syn)]) == 0
        out = capsys.readouterr().out.strip()
        assert out == "I" * 12

    def test_single_x_roundtrip(self, spec_file, tmp_path, capsys):
        decoder = SyndromeDecoder(example_311())
        e = ErrorFrame.from_pauli("XII" + "I" * 9)
        sigma = decoder.measure(e)
        syn = tmp_path / "x.syn"
        syn.write_text(syndrome_to_text(sigma) + "\n")
        assert main(["decode", spec_file, "--syndrome", str(syn)]) == 0
        out = capsys.readouterr().out.strip()
        assert out == "X" + "I" * 17  # padded span

    def test_f4_path(self, spec_file, tmp_path, capsys):
        decoder = SyndromeDecoder(example_311())
        e = ErrorFrame.from_pauli("IZI" + "I" * 9)
        sigma = decoder.measure(e)
        syn = tmp_path / "z.syn"
        syn.write_text(syndrome_to_text(sigma) + "\n")
        assert main(["decode", spec_file, "--syndrome", str(syn), "--f4"]) == 0
        out = capsys.readouterr().out.strip()
        assert out == "IZ" + "I" * 16


class TestSimulate:
    def test_csv_written(self, spec_file, tmp_path, capsys):
        out_csv = tmp_path / "res.csv"
        rc = main(["simulate", spec_file, "--p", "0.0,0.02", "--frames", "5",
                   "--frame-qubits", "90", "--seed", "3", "--out",
                   str(out_csv), "--stable-timing"])
        assert rc == 0
        text = out_csv.read_text()
        assert text.startswith("# qconvdec-sim-csv v1\n")
        assert "p,frames,qubit_errors" in text
        assert len(text.strip().split("\n")) == 4
        std = capsys.readouterr().out
        assert "rate 30/96" in std

    def test_bad_p_rejected(self, spec_file, tmp_path):
        rc = main(["simulate", spec_file, "--p", "0.7", "--frames", "2",
                   "--frame-qubits", "90", "--out", str(tmp_path / "x.csv")])
        assert rc == 2

    def test_every_p_checked_before_decoding(self, spec_file, capsys):
        # p = 0.7 fails before any frame at p = 0.01 is decoded
        with mock.patch("qconvdec.cli.run_sweep",
                        side_effect=AssertionError("decoded")):
            rc = main(["simulate", spec_file, "--p", "0.01,0.7",
                       "--frames", "1500"])
        assert rc == 2
        assert_one_error_line(capsys.readouterr())

    def test_out_opened_before_sweep(self, spec_file, tmp_path, capsys):
        # an --out in a missing directory used to fail only after the
        # whole sweep had run
        with mock.patch("qconvdec.cli.run_sweep",
                        side_effect=AssertionError("decoded")):
            rc = main(["simulate", spec_file, "--out",
                       str(tmp_path / "missing" / "x.csv")])
        assert rc == 2
        assert_one_error_line(capsys.readouterr())

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_argv_fuzz(self, tmp_path_factory, data):
        # every argv exits 0 or 2, and an exit of 2 prints one error line
        # and nothing on stdout; one argument ranges over bad values too,
        # the others over good ones, so that many calls run a sweep
        good = {"p": st.sampled_from(["0.01", "0,0.2", "1e-3,0.49"]),
                "frames": st.integers(1, 3),
                "frame-qubits": st.sampled_from([3, 30]),
                "seed": st.sampled_from([0, 2 ** 32, 2 ** 64]),
                "threads": st.integers(1, 64),
                "out": st.sampled_from([None, "x.csv"])}
        every = {"p": st.lists(st.sampled_from(
                     ["", "nan", "inf", "-0.1", "0.5", "0", "0.01"]),
                     min_size=1, max_size=3).map(",".join),
                 "frames": st.integers(-2, 3),
                 "frame-qubits": st.integers(-3, 30),
                 "seed": st.sampled_from([-2, 0, 2 ** 32, 2 ** 64]),
                 "threads": st.integers(-1, 65),
                 "out": st.sampled_from([None, "x.csv", "missing/x.csv"])}
        free = data.draw(st.sampled_from(sorted(every)), label="free")
        args = {name: data.draw((every if name == free else good)[name],
                                label=name) for name in every}
        tmp = tmp_path_factory.mktemp("sim")
        spec = tmp / "code.qcc"
        spec.write_text(EXAMPLE_311_TEXT)
        argv = ["simulate", str(spec), "--metric",
                data.draw(st.sampled_from(["hamming", "pauli"]))]
        argv += [f"--{name}={value if name != 'out' else tmp / value}"
                 for name, value in args.items() if value is not None]
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), \
                contextlib.redirect_stderr(stderr):
            rc = main(argv)
        assert rc in (0, 2), (argv, rc)
        if rc == 2:
            assert_one_error_line(mock.Mock(out=stdout.getvalue(),
                                            err=stderr.getvalue()))
        else:
            assert stderr.getvalue() == "", argv

    def test_thread_count_checked(self, spec_file, capsys):
        # --threads 0 used to run silently on one thread
        with mock.patch("qconvdec.cli.run_sweep",
                        side_effect=AssertionError("decoded")):
            rc = main(["simulate", spec_file, "--threads", "0",
                       "--frames", "10"])
        assert rc == 2
        assert_one_error_line(capsys.readouterr())


def assert_one_error_line(captured):
    lines = captured.err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), captured.err
    assert captured.out == ""


class TestInputContract:
    @pytest.mark.parametrize("flags", [[], ["--f4"]])
    @pytest.mark.parametrize("text", ["1:8", "0:0", "2:0"])
    def test_decode_needs_a_data_block(self, spec_file, tmp_path, capsys,
                                       flags, text):
        # [3,1,1] pads with m+1 = 2 blocks: 1:8 used to print YXI and 0:0 an
        # empty line
        syn = tmp_path / "short.syn"
        syn.write_text(text + "\n")
        assert main(["decode", spec_file, "--syndrome", str(syn)] + flags) == 2
        assert_one_error_line(capsys.readouterr())

    @pytest.mark.parametrize("text", ["4:-1", "4:0x3f", "4:3_f", "4:+3f",
                                      "-1:0"])
    def test_decode_malformed_syndrome_text(self, spec_file, tmp_path, capsys,
                                            text):
        # int(..., 16) used to take a sign, a 0x prefix and "_": 4:-1 decoded
        # as 4:ff, the next three as an all-zero syndrome, and -1:0 failed
        # with numpy's "negative dimensions" text
        syn = tmp_path / "bad.syn"
        syn.write_text(text + "\n")
        assert main(["decode", spec_file, "--syndrome", str(syn)]) == 2
        captured = capsys.readouterr()
        assert_one_error_line(captured)
        assert "'<blocks>:<hex>'" in captured.err

    @pytest.mark.parametrize("text", ["4:ffff", "4:ff1"])
    def test_decode_nonzero_bits_beyond_blocks(self, spec_file, tmp_path,
                                               capsys, text):
        # 4 blocks of [3,1,1] need 8 bits: the extra digits used to be
        # dropped, so both decoded like 4:ff and exited 0
        syn = tmp_path / "long.syn"
        syn.write_text(text + "\n")
        assert main(["decode", spec_file, "--syndrome", str(syn)]) == 2
        assert_one_error_line(capsys.readouterr())

    @pytest.mark.parametrize("p", ["-1", "0", "0.5", "0.6"])
    def test_decode_p_outside_open_interval(self, spec_file, tmp_path, capsys,
                                            p):
        syn = tmp_path / "zero.syn"
        syn.write_text("4:00\n")
        assert main(["decode", spec_file, "--syndrome", str(syn),
                     "--p", p]) == 2
        assert_one_error_line(capsys.readouterr())

    def test_decode_p_in_range(self, spec_file, tmp_path, capsys):
        decoder = SyndromeDecoder(example_311())
        sigma = decoder.measure(ErrorFrame.from_pauli("IYI" + "I" * 9))
        syn = tmp_path / "y.syn"
        syn.write_text(syndrome_to_text(sigma) + "\n")
        assert main(["decode", spec_file, "--syndrome", str(syn),
                     "--p", "0.05"]) == 0
        assert capsys.readouterr().out.strip() == "IY" + "I" * 16

    @pytest.mark.parametrize("trials", ["0", "-3"])
    def test_verify_needs_a_trial(self, spec_file, capsys, trials):
        # --trials 0 used to print PASS for the three checks that ran no
        # trial and exit 0
        assert main(["verify", spec_file, "--trials", trials]) == 2
        assert_one_error_line(capsys.readouterr())

    @pytest.mark.parametrize("argv", [
        pytest.param(["verify", "--seed", "-1"], id="verify"),
        pytest.param(["simulate", "--seed", "-5", "--frames", "1"],
                     id="simulate"),
    ])
    def test_negative_seed(self, spec_file, capsys, argv):
        # verify --seed -1 used to print two PASS lines before numpy's
        # "expected non-negative integer", which simulate printed alone
        assert main(argv[:1] + [spec_file] + argv[1:]) == 2
        captured = capsys.readouterr()
        assert_one_error_line(captured)
        assert "seed must be non-negative" in captured.err

    @pytest.mark.parametrize("qubits", ["0", "2", "-3"])
    def test_simulate_frame_below_one_block(self, spec_file, capsys, qubits):
        # --frame-qubits 0 used to die with an uncaught ZeroDivisionError
        assert main(["simulate", spec_file, "--frames", "1",
                     "--frame-qubits", qubits]) == 2
        assert_one_error_line(capsys.readouterr())

    def test_simulate_out_of_memory(self, spec_file, capsys, monkeypatch):
        # a 3e9-qubit frame used to die with numpy's _ArrayMemoryError
        # traceback from the channel draw; the draw here raises at once, so
        # the test allocates nothing
        def draw(p, qubits, rngs, n):
            raise MemoryError(f"Unable to allocate {qubits} draws")

        monkeypatch.setattr(qconvdec.simulate, "sample_blocks", draw)
        assert main(["simulate", spec_file, "--frames", "1",
                     "--frame-qubits", "3000000000"]) == 2
        captured = capsys.readouterr()
        assert_one_error_line(captured)
        assert "out of memory" in captured.err

    def test_spec_memory_beyond_generator_length(self, tmp_path, capsys):
        # the header's m used to size the coefficient tensors before the
        # generator lengths were checked: a numpy MemoryError traceback
        path = tmp_path / "huge.qcc"
        path.write_text("qcc n=2 k=1 m=100000000000\nIXXI\n")
        assert main(["derive", str(path)]) == 2
        assert_one_error_line(capsys.readouterr())

    @pytest.mark.parametrize("command", ["derive", "verify", "decode",
                                         "simulate"])
    def test_spec_without_logical_qubit(self, tmp_path, capsys, command):
        # k = 0 leaves the generator empty: every subcommand used to die
        # with an IndexError traceback from its determinant
        path = tmp_path / "k0.qcc"
        path.write_text("qcc n=1 k=0 m=0\nX\n")
        syn = tmp_path / "k0.syn"
        syn.write_text("4:0\n")
        extra = {"decode": ["--syndrome", str(syn)],
                 "simulate": ["--frames", "1", "--frame-qubits", "3"]}
        assert main([command, str(path)] + extra.get(command, [])) == 2
        assert capsys.readouterr().err.splitlines() == [
            "error: k = 0: no logical qubit to decode"]

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_random_specs(self, tmp_path_factory, data):
        # n <= 3, k < n, m <= 1 and random Pauli strings: derive and verify
        # exit 0, 1 or 2, and stderr is empty or one error line
        n = data.draw(st.integers(1, 3), label="n")
        k = data.draw(st.integers(0, n - 1), label="k")
        m = data.draw(st.integers(0, 1), label="m")
        gens = data.draw(st.lists(st.text("IXYZ", min_size=n * (m + 1),
                                          max_size=n * (m + 1)),
                                  min_size=n - k, max_size=n - k),
                         label="generators")
        path = tmp_path_factory.mktemp("spec") / "code.qcc"
        path.write_text(f"qcc n={n} k={k} m={m}\n" + "\n".join(gens) + "\n")
        for argv in (["derive", str(path)],
                     ["verify", str(path), "--trials", "3"]):
            err = io.StringIO()
            with contextlib.redirect_stderr(err), \
                    contextlib.redirect_stdout(io.StringIO()):
                assert main(argv) in (0, 1, 2)
            lines = err.getvalue().splitlines()
            assert lines == [] or (len(lines) == 1
                                   and lines[0].startswith("error: ")), lines
