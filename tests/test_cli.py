"""CLI surface: subcommands, output formats, exit codes."""

import numpy as np

from qfrelay.cli import main

GOLDEN_QUANTIZE = """\
method: H-APQ(qbar=2,m=2,n=2)
phase indices: 0 1 2 3
amplitude levels: 2 1 1 2
bits: 11
container: 0304020202000b1b60
"""


def test_quantize_golden_hand_trace(capsys):
    code = main([
        "quantize", "--spec", "HAPQ:qbar=2,m=2,n=2",
        "--input", "2+0j,0+1j,-1+0j,0-3j",
    ])
    assert code == 0
    out = capsys.readouterr().out
    lines = out.splitlines()
    x_line = [line for line in lines if line.startswith("x_R:")][0]
    values = [complex(part.strip()) for part in x_line[len("x_R:"):].split(",")]
    delta = 1 / np.sqrt(10)
    np.testing.assert_allclose(
        values, [2 * delta, 1j * delta, -delta, -2j * delta], atol=1e-9
    )
    rest = "\n".join(line for line in lines if not line.startswith("x_R:")) + "\n"
    assert rest == GOLDEN_QUANTIZE


def test_quantize_af_notes_no_encoding(capsys):
    code = main(["quantize", "--spec", "AF", "--input", "3+4j"])
    assert code == 0
    out = capsys.readouterr().out
    assert "no finite bit encoding" in out
    assert "0.6+0.8j" in out


def test_quantize_uapq_shows_bins(capsys):
    code = main(["quantize", "--spec", "UAPQ:q=8,qbar=4", "--input", "2+0j,0+1j"])
    assert code == 0
    out = capsys.readouterr().out
    assert "amplitude bins: 14 7" in out
    assert "bits: 16" in out


def test_quantize_rejects_bad_spec(capsys):
    assert main(["quantize", "--spec", "HAPQ:m=0,qbar=4", "--input", "1,1"]) == 1
    assert "error" in capsys.readouterr().err
    # a 2**300-entry phasor table cannot exist; the spec is refused up front
    assert main(["quantize", "--spec", "UPQ:q=300", "--input", "2+0j,0+1j"]) == 1
    assert "error: q must be at most 16, got 300" in capsys.readouterr().err


def test_quantize_numeric_error_exit_code(capsys):
    # zero received vector is a runtime numeric failure, not a usage error
    assert main(["quantize", "--spec", "AF", "--input", "0,0"]) == 2
    assert "numeric error" in capsys.readouterr().err


def test_quantize_rejects_non_finite_input(capsys):
    for spec in ("AF", "UPQ:q=8", "HAPQ:qbar=2,m=1"):
        assert main(["quantize", "--spec", spec, "--input", "nan,1"]) == 2
        captured = capsys.readouterr()
        assert "numeric error: received vector must be finite" in captured.err
        assert captured.out == ""


def test_quantize_rejects_a_zero_uapq_amplitude(capsys):
    assert main(["quantize", "--spec", "UAPQ:q=8,qbar=4", "--input", "1+0j,0+0j"]) == 2
    assert "numeric error: normalized amplitudes must lie in (0, 1]" in capsys.readouterr().err


def test_quantize_rejects_more_antennas_than_the_container_holds(capsys):
    # the state and symbols exist; the debug container's N_R byte cannot hold 256
    received = ",".join(["1+1j"] * 256)
    assert main(["quantize", "--spec", "UPQ:q=2", "--input", received]) == 2
    captured = capsys.readouterr()
    assert "numeric error: container holds at most 255 antennas, got N_R=256" in captured.err
    # the computed state is still reported; only the container line is missing
    lines = captured.out.splitlines()
    assert lines[0] == "method: U-PQ(q=2)"
    assert lines[1] == "x_R: " + ", ".join(["0.0625+0j"] * 256)
    assert lines[2] == "phase indices: " + " ".join(["0"] * 256)
    assert lines[3:] == ["bits: 512"]


def test_ber_rejects_a_candidate_count_above_the_cap(tmp_path, capsys):
    # parsed only: the sweep would enumerate C = 16**8 = 2**32 candidates
    config = tmp_path / "huge.cfg"
    config.write_text(
        "n_s = 8\nn_r = 4\nn_d = 4\nM = 16\nsnr_db_grid = 0\n"
        "trials_per_point = 1\nseed = 1\n[spec]\nkind = AF\n"
    )
    assert main(["ber", str(config)]) == 1
    err = capsys.readouterr().err
    assert "candidate count C = M**n_s = 4294967296 exceeds the cap of 65536" in err


def test_ber_rejects_an_snr_outside_the_range(tmp_path, capsys):
    # parsed only: at 4000 dB sigma2 would round to zero
    config = tmp_path / "loud.cfg"
    config.write_text(
        "n_s = 2\nn_r = 2\nn_d = 2\nM = 4\nsnr_db_grid = 0 4000\n"
        "trials_per_point = 1\nseed = 1\n[spec]\nkind = AF\n"
    )
    assert main(["ber", str(config)]) == 1
    assert "snr_db must be in [-1000, 1000], got 4000.0" in capsys.readouterr().err


def test_bits_subcommand(tmp_path, capsys):
    out_path = tmp_path / "bits.csv"
    code = main([
        "bits", "--nr-min", "2", "--nr-max", "16",
        "--spec", "HAPQ:qbar=4,m=2", "--spec", "UPQ:q=8",
        "--out", str(out_path),
    ])
    assert code == 0
    lines = out_path.read_text().splitlines()
    assert lines[0] == "n_r,method,q,qbar,m,family_n,n_b"
    assert len(lines) == 1 + 15 * 2
    table = {tuple(line.split(",")[:2]): line.split(",")[-1] for line in lines[1:]}
    assert table[("4", "H-APQ")] == "19"
    assert table[("8", "H-APQ")] == "44"
    assert table[("16", "H-APQ")] == "101"
    assert table[("16", "U-PQ")] == "128"


def test_bits_rejects_af():
    assert main(["bits", "--nr-min", "2", "--nr-max", "4", "--spec", "AF"]) == 1


def test_bits_rejects_bad_range():
    assert main(["bits", "--nr-min", "5", "--nr-max", "4", "--spec", "UPQ:q=8"]) == 1


def test_ber_subcommand(tmp_path):
    config = tmp_path / "sweep.cfg"
    config.write_text(
        "n_s = 2\nn_r = 2\nn_d = 2\nM = 4\nsnr_db_grid = 0 10\n"
        "trials_per_point = 50\nseed = 5\nworkers = 1\n\n"
        "[spec]\nkind = AF\n\n[spec]\nkind = HAPQ\nqbar = 3\nm = 1\n"
    )
    out_path = tmp_path / "ber.csv"
    code = main(["ber", str(config), "--out", str(out_path)])
    assert code == 0
    lines = out_path.read_text().splitlines()
    assert len(lines) == 1 + 2 * 2
    assert lines[1].startswith("AF,")


def test_ber_missing_config(capsys):
    assert main(["ber", "/does/not/exist.cfg"]) == 1
    assert "error" in capsys.readouterr().err


def test_usage_error_exit_code():
    assert main(["bogus-command"]) == 1
    assert main([]) == 1


def test_malformed_input_vector(capsys):
    for text in ("not-a-number", ""):
        assert main(["quantize", "--spec", "AF", "--input", text]) == 1
        assert "error: could not parse complex input" in capsys.readouterr().err
