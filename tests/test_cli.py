import pytest

from qconvdec.cli import main
from qconvdec.decoder import SyndromeDecoder
from qconvdec.simulate import syndrome_to_text
from qconvdec.stabilizer import EXAMPLE_311_TEXT, ErrorFrame, example_311


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
    def test_good_spec_passes(self, spec_file, capsys):
        assert main(["verify", spec_file]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out

    def test_mutated_spec_fails_with_witness(self, mutated_spec_file, capsys):
        assert main(["verify", mutated_spec_file]) == 1
        out = capsys.readouterr().out
        assert "FAIL  generator commutation" in out
        assert "witness" in out

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

    @pytest.mark.parametrize("qubits", ["0", "2", "-3"])
    def test_simulate_frame_below_one_block(self, spec_file, capsys, qubits):
        # --frame-qubits 0 used to die with an uncaught ZeroDivisionError
        assert main(["simulate", spec_file, "--frames", "1",
                     "--frame-qubits", qubits]) == 2
        assert_one_error_line(capsys.readouterr())
