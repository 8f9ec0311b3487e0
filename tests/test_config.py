"""Config file parsing: defaults, strictness, named validation errors."""

import dataclasses
import os

import pytest

from qfrelay import config
from qfrelay.config import (
    MAX_CANDIDATES,
    ConfigParseError,
    ConfigValidationError,
    SweepConfig,
    parse_config,
    parse_spec_string,
)
from qfrelay.quantizers import AF, HAPQ, UAPQ, UPQ, QuantizerSpec

MINIMAL = """
# minimal sweep
n_s = 4
n_r = 4
n_d = 4
M = 4
snr_db_grid = 0 5 10
trials_per_point = 100
seed = 42

[spec]
kind = AF

[spec]
kind = HAPQ
qbar = 4
m = 2
"""


def _write(tmp_path, text):
    path = tmp_path / "sweep.cfg"
    path.write_text(text)
    return str(path)


def test_minimal_config_with_defaults(tmp_path):
    cfg = parse_config(_write(tmp_path, MINIMAL))
    assert cfg.n_source == cfg.n_relay == cfg.n_dest == 4
    assert cfg.alphabet == 4
    assert cfg.snr_db_grid == (0.0, 5.0, 10.0)
    assert cfg.trials_per_point == 100
    assert cfg.seed == 42
    assert cfg.detector == "mismatched"
    assert cfg.marginal_samples == 64
    assert cfg.workers == (os.cpu_count() or 1)
    assert cfg.specs == (
        QuantizerSpec(AF),
        QuantizerSpec(HAPQ, phase_bits=4, group_size=2),
    )


def test_top_level_keys_cover_the_config_fields():
    names = [name for name, _ in config._TOP_FIELDS.values()]
    assert sorted(names) == sorted(
        field.name for field in dataclasses.fields(SweepConfig) if field.name != "specs"
    )


@pytest.mark.parametrize(
    "key", ["n_s", "n_r", "n_d", "M", "snr_db_grid", "trials_per_point", "seed"]
)
def test_every_required_key_is_named_when_missing(tmp_path, key):
    lines = [line for line in MINIMAL.splitlines() if not line.startswith(f"{key} =")]
    assert len(lines) == len(MINIMAL.splitlines()) - 1
    with pytest.raises(ConfigValidationError, match=f"^missing required key '{key}'$"):
        parse_config(_write(tmp_path, "\n".join(lines)))


def test_config_spec_kinds(tmp_path):
    text = MINIMAL + "\n[spec]\nkind = U-PQ\nq = 8\n\n[spec]\nkind = uapq\nq = 8\nqbar = 4\n"
    cfg = parse_config(_write(tmp_path, text))
    assert cfg.specs[2] == QuantizerSpec(UPQ, total_bits=8)
    assert cfg.specs[3] == QuantizerSpec(UAPQ, total_bits=8, phase_bits=4)


def test_missing_file():
    with pytest.raises(FileNotFoundError):
        parse_config("/nonexistent/sweep.cfg")


def test_parse_error_names_line(tmp_path):
    with pytest.raises(ConfigParseError, match="line 2"):
        parse_config(_write(tmp_path, "n_s = 4\nnot a key value line\n"))
    with pytest.raises(ConfigParseError, match="unknown section"):
        parse_config(_write(tmp_path, "[transmitter]\n"))


def test_unknown_key_rejected(tmp_path):
    with pytest.raises(ConfigValidationError, match="trails_per_point"):
        parse_config(_write(tmp_path, MINIMAL + "\ntrails_per_point = 3\n"))
    with pytest.raises(ConfigValidationError, match="unknown spec key"):
        parse_config(_write(tmp_path, MINIMAL + "\n[spec]\nkind = AF\nqq = 1\n"))


def test_validation_names_offending_field(tmp_path):
    bad_m = MINIMAL.replace("m = 2", "m = 0")
    with pytest.raises(ConfigValidationError, match="m"):
        parse_config(_write(tmp_path, bad_m))
    bad_grid = MINIMAL.replace("snr_db_grid = 0 5 10", "snr_db_grid = 10 5")
    with pytest.raises(ConfigValidationError, match="snr_db_grid not ascending"):
        parse_config(_write(tmp_path, bad_grid))
    with pytest.raises(ConfigValidationError, match="missing required key"):
        parse_config(_write(tmp_path, "n_s = 4\n[spec]\nkind = AF\n"))
    oversized = MINIMAL.replace("m = 2", "m = 8")
    with pytest.raises(ConfigValidationError, match="m=8"):
        parse_config(_write(tmp_path, oversized))
    wide_q = MINIMAL + "\n[spec]\nkind = UPQ\nq = 17\n"
    with pytest.raises(ConfigValidationError, match="q must be at most 16, got 17"):
        parse_config(_write(tmp_path, wide_q))
    wide_qbar = MINIMAL.replace("qbar = 4", "qbar = 17")
    with pytest.raises(ConfigValidationError, match="qbar must be at most 16, got 17"):
        parse_config(_write(tmp_path, wide_qbar))
    loud = MINIMAL.replace("snr_db_grid = 0 5 10", "snr_db_grid = 0 4000")
    with pytest.raises(ConfigValidationError, match=r"in \[-1000, 1000\], got 4000"):
        parse_config(_write(tmp_path, loud))


def test_spec_must_exist(tmp_path):
    head = MINIMAL.split("[spec]")[0]
    with pytest.raises(ConfigValidationError, match="spec"):
        parse_config(_write(tmp_path, head))


def test_duplicate_keys_rejected(tmp_path):
    with pytest.raises(ConfigValidationError, match="duplicate key"):
        parse_config(_write(tmp_path, "seed = 1\n" + MINIMAL))


def test_spec_string_parsing():
    assert parse_spec_string("AF") == QuantizerSpec(AF)
    assert parse_spec_string("UPQ:q=8") == QuantizerSpec(UPQ, total_bits=8)
    assert parse_spec_string("U-APQ:q=8,qbar=4") == QuantizerSpec(
        UAPQ, total_bits=8, phase_bits=4
    )
    assert parse_spec_string("HAPQ:qbar=4,m=2,n=3") == QuantizerSpec(
        HAPQ, phase_bits=4, group_size=2, level_exponent=3
    )
    with pytest.raises(ConfigValidationError):
        parse_spec_string("HAPQ:qbar=4,m=2,m=3")
    with pytest.raises(ConfigValidationError):
        parse_spec_string("WAT:q=1")


def test_sweep_config_direct_validation():
    spec = QuantizerSpec(AF)
    with pytest.raises(ConfigValidationError, match="M must be"):
        SweepConfig(4, 4, 4, 5, (spec,), (0.0,), 10, 1)
    with pytest.raises(ConfigValidationError, match="detector"):
        SweepConfig(4, 4, 4, 4, (spec,), (0.0,), 10, 1, detector="x")
    with pytest.raises(ConfigValidationError, match="trials_per_point"):
        SweepConfig(4, 4, 4, 4, (spec,), (0.0,), 0, 1)
    with pytest.raises(ConfigValidationError, match="snr_db must be in"):
        SweepConfig(4, 4, 4, 4, (spec,), (-1001.0, 0.0), 10, 1)
    # the bounds themselves are accepted, as are q = 16 and qbar = 15
    uapq16 = QuantizerSpec(UAPQ, total_bits=16, phase_bits=15)
    assert SweepConfig(4, 4, 4, 4, (uapq16,), (-1000.0, 1000.0), 10, 1).specs == (uapq16,)


def test_candidate_count_is_capped(tmp_path):
    # parsed only: running n_s = 8, M = 16 would enumerate 2**32 candidates
    huge = MINIMAL.replace("n_s = 4", "n_s = 8").replace("M = 4", "M = 16")
    message = f"candidate count C = M\\*\\*n_s = {16**8} exceeds the cap of {MAX_CANDIDATES}"
    with pytest.raises(ConfigValidationError, match=message):
        parse_config(_write(tmp_path, huge))
    # the cap itself is accepted: M = 16, n_s = 4 gives C = 2**16
    at_cap = MINIMAL.replace("M = 4", "M = 16")
    assert parse_config(_write(tmp_path, at_cap)).alphabet**4 == MAX_CANDIDATES
