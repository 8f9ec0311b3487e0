"""The batched engine must reproduce the single-trial reference bit for bit."""

import math

import numpy as np
import pytest
from test_kernel_oracles import _same_bits, _uapq_reference

from qfrelay import engine
from qfrelay.channel import (
    MAX_SNR_DB,
    _matvec,
    sample_channel,
    sample_noise,
    snr_db_to_sigma2,
    trial_stream,
)
from qfrelay.codebook import build_codebook
from qfrelay.config import MAX_CANDIDATES
from qfrelay.engine import CandidateBasis, candidate_relay_symbols, count_errors
from qfrelay.link import PointConfig, run_trial
from qfrelay.quantizers import (
    AF,
    HAPQ,
    TWO_PI,
    UAPQ,
    UPQ,
    QuantizerSpec,
    build_level_set,
    relay_symbols,
)

SPECS = (
    QuantizerSpec(AF),
    QuantizerSpec(UPQ, total_bits=8),
    QuantizerSpec(UAPQ, total_bits=8, phase_bits=4),
    QuantizerSpec(HAPQ, phase_bits=4, group_size=1, level_exponent=4),
    QuantizerSpec(HAPQ, phase_bits=4, group_size=2),
    QuantizerSpec(HAPQ, phase_bits=4, group_size=4),
)


def _relay_batch():
    """Random 4-antenna inputs with forced amplitude-tie and sector-boundary rows."""
    rng = trial_stream(0, 0, 0)
    y = rng.standard_normal((40, 16, 4)) + 1j * rng.standard_normal((40, 16, 4))
    y[0, 0] = np.array([1.0, 1.0, 1.0, 1.0])  # forced amplitude ties
    y[0, 1] = np.array([1j, 1.0, -1j, -1.0])
    y[0, 2] = np.array([1 + 1j, -1 + 1j, -1 - 1j, 1 - 1j])  # 2-bit sector boundaries
    return y


def test_candidate_symbols_match_public_quantizers():
    # one basis memoized across every spec, as the engine reuses it, must give
    # the same bytes as a fresh basis per spec, ties and boundary bins included
    y = _relay_batch()
    basis = CandidateBasis(y)
    for spec in SPECS:
        fast = candidate_relay_symbols(spec, basis)
        assert np.array_equal(fast, relay_symbols(y, spec)), spec.label()


# ---------------------------------------------------------------------------
# Formula oracles: run_trial and the engine share one quantizer, so these
# check it against the textbook expressions, written here without the
# package's kernels.  Comparisons are on raw bytes.
# ---------------------------------------------------------------------------

def _phase_oracle(y, bits):
    """Sector index ceil(theta * 2**bits / (2*pi) - 0.5) mod 2**bits."""
    theta = np.mod(np.angle(y), TWO_PI)
    theta[theta == TWO_PI] = 0.0
    return np.ceil(theta * (1 << bits) / TWO_PI - 0.5).astype(np.int64) % (1 << bits)


def _phasor_oracle(index, bits):
    return np.exp(1j * (TWO_PI * index / (1 << bits)))


def _norm_oracle(amps):
    return np.sqrt(np.einsum("...i,...i->...", amps, amps))


def _upq_oracle(y, spec):
    # e^{j 2 pi k / 2**q} / sqrt(N_R); N_R = 4 keeps the division exact
    index = _phase_oracle(y, spec.total_bits)
    return _phasor_oracle(index, spec.total_bits) / math.sqrt(y.shape[-1])


def _uapq_oracle(y, spec):
    amps = np.abs(y)
    ratios = np.minimum(amps / _norm_oracle(amps)[..., None], 1.0)
    top = (1 << spec.amplitude_bits) - 1
    bins = np.minimum(np.floor(ratios * (top + 1)).astype(np.int64), top)
    index = _phase_oracle(y, spec.phase_bits)
    return _uapq_reference(index, bins, spec.total_bits, spec.phase_bits)


def _hapq_oracle(y, spec):
    # levels from stable-argsort ranks, group_size antennas per level
    level_set = build_level_set(y.shape[-1], spec.group_size, spec.level_exponent)
    order = np.argsort(np.abs(y), axis=-1, kind="stable")
    ranks = np.argsort(order, axis=-1, kind="stable")
    level = np.minimum(ranks // spec.group_size, level_set.num_levels - 1)
    index = _phase_oracle(y, spec.phase_bits)
    return level_set.levels[level] * _phasor_oracle(index, spec.phase_bits)


def _af_oracle(y, spec):
    return y / _norm_oracle(np.abs(y))[..., None]


ORACLES = {UPQ: _upq_oracle, UAPQ: _uapq_oracle, HAPQ: _hapq_oracle, AF: _af_oracle}
# SPECS plus the low-bit specs whose sector boundaries the forced rows hit
ORACLE_SPECS = SPECS + (
    QuantizerSpec(UPQ, total_bits=1),
    QuantizerSpec(UPQ, total_bits=2),
    QuantizerSpec(UAPQ, total_bits=3, phase_bits=2),
    QuantizerSpec(HAPQ, phase_bits=2, group_size=2, level_exponent=1),
)


@pytest.mark.parametrize("spec", ORACLE_SPECS, ids=[spec.label() for spec in ORACLE_SPECS])
def test_relay_symbols_match_formula_oracles(spec):
    y = _relay_batch()
    assert _same_bits(relay_symbols(y, spec), ORACLES[spec.kind](y, spec))


def test_hapq_gain_phasor_table_matches_formula():
    rng = trial_stream(1, 0, 0)
    y = rng.standard_normal((100, 4)) + 1j * rng.standard_normal((100, 4))
    basis = CandidateBasis(y)
    spec = QuantizerSpec(HAPQ, phase_bits=3, group_size=2)
    fast = candidate_relay_symbols(spec, basis)
    assert _same_bits(fast, _hapq_oracle(y, spec))


@pytest.mark.parametrize("detector,samples", [("mismatched", 0), ("marginalized", 8)])
# +-MAX_SNR_DB are the grid's limits, sigma2 = 1e100 and 1e-100: the scores
# stay finite there, so no numpy warning fails the run, and counts still match
@pytest.mark.parametrize("snr_db", [2.0, 12.0, -MAX_SNR_DB, MAX_SNR_DB])
def test_engine_counts_equal_reference_trials(detector, samples, snr_db):
    seed = 20260401
    n_trials = 60
    for spec in SPECS:
        point = PointConfig(
            spec=spec, n_source=4, n_relay=4, n_dest=4, alphabet=4,
            snr_db=snr_db, snr_index=2, detector=detector,
            marginal_samples=max(1, samples),
        )
        reference = sum(
            run_trial(point, trial, seed).bit_errors for trial in range(n_trials)
        )
        batched = count_errors(
            4, 4, 4, 4, (spec,), snr_db, 2, seed, 0, n_trials,
            detector=detector, marginal_samples=max(1, samples), batch_size=13,
        )
        assert int(batched[0]) == reference, (spec.label(), detector, snr_db)


@pytest.mark.parametrize("detector", ["mismatched", "marginalized"])
def test_batched_scores_equal_reference_scores_bitwise(detector):
    # every score, not only the decision it leads to, must match the
    # batch-of-one reference call on the same trial
    codebook = build_codebook(4, 2)
    sigma2 = snr_db_to_sigma2(4.0)
    samples = 8 if detector == "marginalized" else 0
    sent, h_sr, h_sd, h_rd, y_sr, y_sd, z_rd, noise = engine._draw_batch(
        2, 4, 3, codebook, sigma2, 77, 1, range(13), samples
    )
    score, _ = engine._DETECTION[detector]
    shared = engine._shared_terms(y_sd, h_sd, h_sr, codebook.codewords, sigma2, noise)
    for spec in SPECS:
        y_rd = _matvec(h_rd, relay_symbols(y_sr, spec)) + z_rd
        batched = score(shared, spec, h_rd, y_rd, sigma2)
        for row in range(len(sent)):
            args = (y_sd[row], y_rd[row], h_sd[row], h_sr[row], h_rd[row],
                    codebook.codewords, spec)
            if detector == "mismatched":
                alone = engine.mismatched_metrics(*args)
            else:
                alone = engine.marginalized_scores(*args, sigma2, noise[row])
            assert np.array_equal(batched[row], alone), (spec.label(), row)


def test_engine_counts_do_not_depend_on_batch_size():
    specs = SPECS[:3]
    base = count_errors(4, 4, 4, 4, specs, 6.0, 1, 11, 0, 100, batch_size=100)
    for batch_size in (1, 7, 32, 257):
        again = count_errors(4, 4, 4, 4, specs, 6.0, 1, 11, 0, 100, batch_size=batch_size)
        assert np.array_equal(base, again)


def test_engine_counts_split_over_trial_ranges():
    specs = SPECS[:3]
    whole = count_errors(4, 4, 4, 4, specs, 6.0, 0, 22, 0, 90)
    parts = (
        count_errors(4, 4, 4, 4, specs, 6.0, 0, 22, 0, 37)
        + count_errors(4, 4, 4, 4, specs, 6.0, 0, 22, 37, 90)
    )
    assert np.array_equal(whole, parts)


def test_engine_shared_evaluation_equals_isolated():
    # evaluating many specs on one pass must equal one spec at a time
    joint = count_errors(4, 4, 4, 4, SPECS, 8.0, 3, 5, 0, 80)
    for index, spec in enumerate(SPECS):
        alone = count_errors(4, 4, 4, 4, (spec,), 8.0, 3, 5, 0, 80)
        assert alone[0] == joint[index], spec.label()


def test_engine_rejects_bad_detector():
    with pytest.raises(ValueError):
        count_errors(4, 4, 4, 4, SPECS[:1], 0.0, 0, 0, 0, 10, detector="bogus")


def _draws_trial_by_trial(n_source, n_relay, n_dest, codebook, sigma2, seed,
                          snr_index, trial, samples):
    # the documented stream order, one draw per quantity
    rng = trial_stream(seed, snr_index, trial)
    sent = rng.integers(codebook.n_messages)
    h_sr = sample_channel(n_relay, n_source, rng)
    h_sd = sample_channel(n_dest, n_source, rng)
    h_rd = sample_channel(n_dest, n_relay, rng)
    x = codebook.codewords[sent]
    y_sr = _matvec(h_sr, x) + sample_noise(n_relay, sigma2, rng)
    y_sd = _matvec(h_sd, x) + sample_noise(n_dest, sigma2, rng)
    z_rd = sample_noise(n_dest, sigma2, rng)
    noise = sample_noise((samples, n_relay), sigma2, rng) if samples else None
    return sent, h_sr, h_sd, h_rd, y_sr, y_sd, z_rd, noise


@pytest.mark.parametrize("samples", [0, 5])
def test_draw_batch_equals_trial_by_trial_draws(samples):
    codebook = build_codebook(4, 2)
    sigma2 = snr_db_to_sigma2(3.0)
    trials = range(40, 51)
    batch = engine._draw_batch(2, 3, 5, codebook, sigma2, 8, 2, trials, samples)
    if not samples:
        assert batch[-1] is None
    for row, trial in enumerate(trials):
        alone = _draws_trial_by_trial(2, 3, 5, codebook, sigma2, 8, 2, trial, samples)
        for name, got, want in zip(("sent", "h_sr", "h_sd", "h_rd", "y_sr", "y_sd",
                                    "z_rd", "noise"), batch, alone):
            if want is not None:
                assert np.array_equal(got[row], want), (name, trial)


def test_default_batch_fits_the_candidate_stack_budget():
    # criterion 7's mismatched shape (C = 4**4, N_R = 4), the marginalized
    # L = 64 shape, and the candidate cap
    assert engine._batch_size(256, 4, 0) == 64
    assert engine._batch_size(256, 4, 64) == 1
    assert engine._batch_size(MAX_CANDIDATES, 4, 0) == 1
