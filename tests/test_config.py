"""Config file parsing: defaults, strictness, named validation errors."""

import dataclasses
import os
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qfrelay import config
from qfrelay.config import (
    MAX_CANDIDATES,
    MAX_TRIAL_BYTES,
    ConfigError,
    ConfigParseError,
    ConfigValidationError,
    SweepConfig,
    parse_config,
    parse_spec_string,
)
from qfrelay.engine import DETECTORS, count_errors
from qfrelay.link import PointConfig
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


def _refused(path, message):
    """parse_config rejects the file with ``message`` before 1 MiB is allocated."""
    tracemalloc.start()
    try:
        with pytest.raises(ConfigValidationError, match=message):
            parse_config(path)
        assert tracemalloc.get_traced_memory()[1] < 1 << 20
    finally:
        tracemalloc.stop()


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
    # bools are not counts: each of these used to construct
    with pytest.raises(ConfigValidationError, match="n_relay must be a positive int"):
        SweepConfig(4, True, 4, 4, (spec,), (0.0,), 10, 1)
    with pytest.raises(ConfigValidationError, match="trials_per_point"):
        SweepConfig(4, 4, 4, 4, (spec,), (0.0,), True, 1)
    # seeds take the stream-key rule that count_errors and run_trial apply
    for seed in (True, -1, 1.5):
        with pytest.raises(ConfigValidationError,
                           match=f"seed must be a non-negative int, got {seed!r}"):
            SweepConfig(4, 4, 4, 4, (spec,), (0.0,), 10, seed)
    # the non-empty rule is check_point's, as for count_errors
    with pytest.raises(ConfigValidationError, match="specs must hold at least one relay method"):
        SweepConfig(4, 4, 4, 4, (), (0.0,), 10, 1)
    # an entry that is not a spec used to raise AttributeError
    for entry in ("x", None):
        with pytest.raises(ConfigValidationError,
                           match=f"specs must hold QuantizerSpec entries, got {entry!r}"):
            SweepConfig(4, 4, 4, 4, (entry,), (0.0,), 10, 1)
    # a bare spec, an iterator and a generator used to raise TypeError
    for specs in (spec, iter([spec]), (entry for entry in [spec])):
        with pytest.raises(ConfigValidationError,
                           match="specs must be a list or tuple of relay methods"):
            SweepConfig(4, 4, 4, 4, specs, (0.0,), 10, 1)
    with pytest.raises(ConfigValidationError, match="workers"):
        SweepConfig(4, 4, 4, 4, (spec,), (0.0,), 10, 1, workers=True)
    # the bounds themselves are accepted, as are q = 16 and qbar = 15
    uapq16 = QuantizerSpec(UAPQ, total_bits=16, phase_bits=15)
    assert SweepConfig(4, 4, 4, 4, (uapq16,), (-1000.0, 1000.0), 10, 1).specs == (uapq16,)


def test_candidate_count_is_capped(tmp_path):
    # parsed only: running n_s = 8, M = 16 would enumerate 2**32 candidates
    huge = MINIMAL.replace("n_s = 4", "n_s = 8").replace("M = 4", "M = 16")
    message = f"candidate count C = M\\*\\*n_s = {16**8} exceeds the cap of {MAX_CANDIDATES}"
    with pytest.raises(ConfigValidationError, match=message):
        parse_config(_write(tmp_path, huge))
    # a count too long to print is shown as a power; it used to exit 2 with
    # Python's int-to-string digit limit
    longest = MINIMAL.replace("n_s = 4", "n_s = 5000").replace("M = 4", "M = 16")
    with pytest.raises(ConfigValidationError, match="C = M\\*\\*n_s = 16\\*\\*5000 exceeds"):
        parse_config(_write(tmp_path, longest))
    # the cap itself is accepted: M = 16, n_s = 4 gives C = 2**16
    at_cap = MINIMAL.replace("M = 4", "M = 16")
    assert parse_config(_write(tmp_path, at_cap)).alphabet**4 == MAX_CANDIDATES


def test_marginalized_block_stack_is_capped(tmp_path):
    # parsed only: one block stack, L * min(C, 16) * n_r * 16 bytes, is
    # 64 MiB at L = 65536 and n_r = 4, the largest accepted for C >= 16
    def with_samples(text, samples, detector="marginalized"):
        top = f"seed = 42\ndetector = {detector}\nmarginal_samples = {samples}\n"
        return text.replace("seed = 42\n", top)

    at_cap = with_samples(MINIMAL, 65536)
    assert parse_config(_write(tmp_path, at_cap)).marginal_samples == 65536
    over = with_samples(MINIMAL, 65537)
    message = (
        f"marginalized block stack marginal_samples \\* min\\(C, 16\\) \\* n_r \\* 16 = "
        f"{65537 * 16 * 4 * 16} bytes exceeds the cap of {MAX_TRIAL_BYTES}"
    )
    _refused(_write(tmp_path, over), message)
    # C = 16 fills the 16-candidate block: the same L is the largest accepted
    c16 = MINIMAL.replace("n_s = 4", "n_s = 2")
    assert parse_config(_write(tmp_path, with_samples(c16, 65536))).marginal_samples == 65536
    _refused(_write(tmp_path, with_samples(c16, 65537)), message)
    # C = 4 is a 4-candidate block, so four times the samples fit
    c4 = MINIMAL.replace("n_s = 4", "n_s = 1")
    assert parse_config(_write(tmp_path, with_samples(c4, 262144))).marginal_samples == 262144
    _refused(_write(tmp_path, with_samples(c4, 262145)), "block stack .* exceeds the cap")
    # the mismatched detector draws no relay-noise samples, so L does not bound it
    mismatched = with_samples(MINIMAL, 65537, detector="mismatched")
    assert parse_config(_write(tmp_path, mismatched)).detector == "mismatched"


@pytest.mark.parametrize("detector", ["mismatched", "marginalized"])
def test_candidate_products_are_capped(tmp_path, detector):
    # parsed only: C * max(n_r, n_d) * 16 bytes is 64 MiB at C = 2**16 and
    # a widest side of 64, the largest accepted, whichever side it is
    def shaped(n_r, n_d):
        return MINIMAL.replace("M = 4", "M = 16").replace(
            "n_r = 4\nn_d = 4", f"n_r = {n_r}\nn_d = {n_d}").replace(
            "seed = 42\n", f"seed = 42\ndetector = {detector}\n")

    for n_r, n_d in ((64, 4), (4, 64)):
        cfg = parse_config(_write(tmp_path, shaped(n_r, n_d)))
        assert (cfg.n_relay, cfg.n_dest) == (n_r, n_d)
    for n_r, n_d in ((65, 4), (4, 65)):
        message = (
            f"candidate products C \\* max\\(n_r, n_d\\) \\* 16 = {2**16 * 65 * 16} "
            f"bytes exceeds the cap of {MAX_TRIAL_BYTES}"
        )
        _refused(_write(tmp_path, shaped(n_r, n_d)), message)


def test_trial_draws_are_capped(tmp_path):
    # parsed only: at n_s = 1 and M = 2 one trial's draws, which the
    # n_d x n_r RD matrix dominates, outgrow its products and block stack.
    # n_r = n_d = 2045 is the largest square link accepted
    def square(n):
        return MINIMAL.replace("n_s = 4", "n_s = 1").replace("M = 4", "M = 2").replace(
            "n_r = 4\nn_d = 4", f"n_r = {n}\nn_d = {n}")

    assert parse_config(_write(tmp_path, square(2045))).n_relay == 2045
    # 4096 used to be accepted, and its default batch of 8 trials held
    # 2 GiB of RD link matrices
    for n in (2046, 4096):
        draws = (n + n + n * n + n + 2 * n) * 16
        message = (
            f"trial draws (n_r*n_s + n_d*n_s + n_d*n_r + n_r + 2*n_d + L*n_r) * 16 = {draws} "
            f"bytes exceeds the cap of {MAX_TRIAL_BYTES}"
        )
        _refused(_write(tmp_path, square(n)), re.escape(message))


@pytest.mark.parametrize("snr_db", ["3", None, 1j, True])
def test_snr_must_be_a_real_number(snr_db):
    # each used to raise a TypeError from the range comparison, but True,
    # which ran as a 1 dB point
    spec = QuantizerSpec(AF)
    message = f"snr_db must be a real number, got {snr_db!r}"
    with pytest.raises(ConfigValidationError, match=message):
        SweepConfig(4, 4, 4, 4, (spec,), (snr_db,), 10, 1)
    # a grid is checked point by point before it is compared
    with pytest.raises(ConfigValidationError, match=message):
        SweepConfig(4, 4, 4, 4, (spec,), (0.0, snr_db), 10, 1)
    with pytest.raises(ValueError, match=message):
        PointConfig(spec=spec, n_source=4, n_relay=4, n_dest=4, alphabet=4, snr_db=snr_db)


# the fields a link point shares across SweepConfig, PointConfig and
# count_errors
_POINT_FIELDS = ("n_source", "n_relay", "n_dest", "alphabet", "detector", "marginal_samples")
_ODD_VALUES = st.one_of(
    st.integers(-2, 3), st.booleans(), st.floats(), st.sampled_from(["3", "", *DETECTORS]),
    st.none(), st.integers(-2, 3).map(np.int64),
)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(_POINT_FIELDS), _ODD_VALUES)
def test_every_entry_checks_a_link_point_alike(field, value):
    point = {"n_source": 2, "n_relay": 2, "n_dest": 2, "alphabet": 4,
             "detector": "marginalized", "marginal_samples": 4, field: value}
    spec = QuantizerSpec(UPQ, total_bits=4)
    entries = (
        lambda: SweepConfig(specs=(spec,), snr_db_grid=(0.0,), trials_per_point=1, seed=0,
                            **point),
        lambda: PointConfig(spec=spec, snr_db=0.0, **point),
        # an empty trial range checks the point and runs nothing
        lambda: count_errors(specs=(spec,), snr_db=0.0, snr_index=0, seed=0, trial_start=0,
                             trial_stop=0, **point),
    )
    refusals = []
    for entry in entries:
        try:
            entry()
        except (ValueError, ConfigError) as exc:
            refusals.append(str(exc))
    assert len(refusals) in (0, len(entries)), refusals
    name = "M" if field == "alphabet" else field  # messages use the config key M
    assert all(message.startswith(f"{name} must") for message in refusals)
