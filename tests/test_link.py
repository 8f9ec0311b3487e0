"""End-to-end relay link: detection oracles and the single-trial reference."""

import tracemalloc

import numpy as np
import pytest

from qfrelay.channel import NoiseModel, sample_links, sample_noise, trial_stream
from qfrelay.codebook import build_codebook
from qfrelay.engine import block_picks, marginalized_scores, mismatched_metrics
from qfrelay.link import PointConfig, relay_process, run_trial
from qfrelay.quantizers import (
    AF,
    HAPQ,
    UAPQ,
    UPQ,
    QuantizerSpec,
    relay_symbols,
)

ALL_SPECS = (
    QuantizerSpec(AF),
    QuantizerSpec(UPQ, total_bits=8),
    QuantizerSpec(UAPQ, total_bits=8, phase_bits=4),
    QuantizerSpec(HAPQ, phase_bits=4, group_size=1),
    QuantizerSpec(HAPQ, phase_bits=4, group_size=2),
    QuantizerSpec(HAPQ, phase_bits=4, group_size=4),
)


def _point(spec, snr_db=10.0, detector="mismatched", marginal_samples=16):
    return PointConfig(
        spec=spec, n_source=4, n_relay=4, n_dest=4, alphabet=4,
        snr_db=snr_db, snr_index=0, detector=detector,
        marginal_samples=marginal_samples,
    )


# ---------------------------------------------------------------------------
# relay_process
# ---------------------------------------------------------------------------

def test_relay_process_af_dispatch():
    rng = trial_stream(0, 0, 0)
    y = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    assert np.array_equal(relay_process(y, QuantizerSpec(AF)),
                          relay_symbols(y, QuantizerSpec(AF)))


def test_relay_process_codec_roundtrip_is_transparent():
    # store-to-memory then reload must reproduce the direct quantizer output
    rng = trial_stream(1, 0, 0)
    for spec in ALL_SPECS[1:]:
        for _ in range(50):
            y = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            assert np.array_equal(relay_process(y, spec), relay_symbols(y, spec))


def test_relay_process_hapq_full_group_equals_upq():
    rng = trial_stream(2, 0, 0)
    spec = QuantizerSpec(HAPQ, phase_bits=4, group_size=4)
    for _ in range(50):
        y = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        assert np.array_equal(relay_process(y, spec),
                              relay_symbols(y, QuantizerSpec(UPQ, total_bits=4)))


# ---------------------------------------------------------------------------
# Detectors
# ---------------------------------------------------------------------------

def test_mismatched_noiseless_exhaustive():
    # with vanishing noise every message must be recovered, for every spec
    sigma2 = 1e-30
    codebook = build_codebook(4, 4)
    rng = trial_stream(3, 0, 0)
    links = sample_links(4, 4, 4, rng)
    noise_model = NoiseModel(sigma2)
    for spec in ALL_SPECS:
        for sent in range(codebook.n_messages):
            x = codebook.codewords[sent]
            y_sr = links.h_sr @ x + sample_noise(4, sigma2, rng)
            y_sd = links.h_sd @ x + sample_noise(4, sigma2, rng)
            x_relay = relay_process(y_sr, spec)
            y_rd = links.h_rd @ x_relay + sample_noise(4, sigma2, rng)
            metrics = mismatched_metrics(
                y_sd, y_rd, links.h_sd, links.h_sr, links.h_rd,
                codebook.codewords, spec,
            )
            assert int(np.argmin(metrics)) == sent, (spec.label(), sent)
            # the true message's metric is numerically zero, the rest are
            # bounded away for a generic channel draw
            assert metrics[sent] < 1e-9
            others = np.delete(metrics, sent)
            assert others.min() > 1e-3


def test_mismatched_tie_break_is_smallest_index():
    codebook = build_codebook(4, 1)
    rng = trial_stream(4, 0, 0)
    links = sample_links(1, 1, 1, rng)
    # zero observations make all candidates equidistant in the SD term only;
    # whatever the metric, argmin must return the first minimizer
    y = np.zeros(1, dtype=complex)
    spec = QuantizerSpec(AF)
    metrics = mismatched_metrics(
        y, y, links.h_sd, links.h_sr, links.h_rd, codebook.codewords, spec
    )
    first = int(np.flatnonzero(metrics == metrics.min())[0])
    assert int(np.argmin(metrics)) == first
    # the engine's block search, which run_trial's argmin checks, agrees
    picks = block_picks(y[None], [y[None]], links.h_sd[None], links.h_sr[None],
                        links.h_rd[None], codebook.codewords, [spec], 1.0, None)
    assert picks[0, 0] == first


def test_marginalized_with_zero_samples_equals_mismatched():
    # a single all-zero relay-noise sample degenerates to the mismatched rule
    codebook = build_codebook(4, 4)
    rng = trial_stream(5, 0, 0)
    sigma2 = 0.5
    for spec in ALL_SPECS:
        for _ in range(20):
            links = sample_links(4, 4, 4, rng)
            sent = int(rng.integers(codebook.n_messages))
            x = codebook.codewords[sent]
            y_sr = links.h_sr @ x + sample_noise(4, sigma2, rng)
            y_sd = links.h_sd @ x + sample_noise(4, sigma2, rng)
            y_rd = links.h_rd @ relay_process(y_sr, spec) + sample_noise(4, sigma2, rng)
            scores = marginalized_scores(
                y_sd, y_rd, links.h_sd, links.h_sr, links.h_rd,
                codebook.codewords, spec, sigma2,
                np.zeros((1, 4), dtype=complex),
            )
            mismatched = int(np.argmin(mismatched_metrics(
                y_sd, y_rd, links.h_sd, links.h_sr, links.h_rd, codebook.codewords, spec,
            )))
            assert int(np.argmax(scores)) == mismatched


def test_marginalized_noiseless_exhaustive():
    sigma2 = 1e-30
    codebook = build_codebook(4, 4)
    rng = trial_stream(6, 0, 0)
    links = sample_links(4, 4, 4, rng)
    for spec in (ALL_SPECS[0], ALL_SPECS[2], ALL_SPECS[4]):
        for sent in range(0, codebook.n_messages, 17):
            x = codebook.codewords[sent]
            y_sr = links.h_sr @ x + sample_noise(4, sigma2, rng)
            y_sd = links.h_sd @ x + sample_noise(4, sigma2, rng)
            y_rd = links.h_rd @ relay_process(y_sr, spec) + sample_noise(4, sigma2, rng)
            scores = marginalized_scores(
                y_sd, y_rd, links.h_sd, links.h_sr, links.h_rd,
                codebook.codewords, spec, sigma2, sample_noise((8, 4), sigma2, rng),
            )
            detected = int(np.argmax(scores))
            assert detected == sent, (spec.label(), sent)


# ---------------------------------------------------------------------------
# run_trial
# ---------------------------------------------------------------------------

def test_run_trial_is_deterministic():
    point = _point(QuantizerSpec(HAPQ, phase_bits=4, group_size=2))
    first = run_trial(point, 17, 12345)
    second = run_trial(point, 17, 12345)
    assert first == second
    other_trial = run_trial(point, 18, 12345)
    other_seed = run_trial(point, 17, 54321)
    assert first != other_trial or first != other_seed


def test_run_trial_noiseless_has_no_errors():
    for spec in ALL_SPECS:
        point = _point(spec, snr_db=300.0)
        for trial in range(20):
            outcome = run_trial(point, trial, 99)
            assert outcome.bit_errors == 0
            assert outcome.detected == outcome.sent


def test_run_trial_total_bits():
    outcome = run_trial(_point(QuantizerSpec(AF)), 0, 1)
    assert outcome.total_bits == 8  # N_S * log2(M) = 4 * 2


def test_run_trial_marginalized_detector():
    point = _point(
        QuantizerSpec(UAPQ, total_bits=8, phase_bits=4),
        detector="marginalized", marginal_samples=4,
    )
    first = run_trial(point, 3, 7)
    second = run_trial(point, 3, 7)
    assert first == second


def test_point_config_validation():
    with pytest.raises(ValueError):
        _point(QuantizerSpec(AF), detector="oracle")
    with pytest.raises(ValueError):
        PointConfig(
            spec=QuantizerSpec(HAPQ, phase_bits=4, group_size=8),
            n_source=4, n_relay=4, n_dest=4, alphabet=4, snr_db=0.0,
        )
    # without the engine's check, these constructed and run_trial failed
    # later with a TypeError, or not at all
    for samples in (2.5, True, "3"):
        with pytest.raises(ValueError, match=f"marginal_samples must be a positive int, "
                                             f"got {samples!r}"):
            _point(QuantizerSpec(AF), detector="marginalized", marginal_samples=samples)
    with pytest.raises(ValueError, match="specs must hold QuantizerSpec entries, got 'x'"):
        _point("x")
    with pytest.raises(ValueError, match="M must be one of"):
        PointConfig(spec=QuantizerSpec(AF), n_source=4, n_relay=4, n_dest=4, alphabet=3,
                    snr_db=0.0)
    with pytest.raises(ValueError, match="snr_db must be in"):
        _point(QuantizerSpec(AF), snr_db=5000.0)
    # an over-cap point is refused before anything is allocated: run, it
    # would build a 2**32-row codebook
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=f"C = M\\*\\*n_s = {16**8} exceeds the cap"):
            PointConfig(spec=QuantizerSpec(AF), n_source=8, n_relay=4, n_dest=4,
                        alphabet=16, snr_db=0.0)
        assert tracemalloc.get_traced_memory()[1] < 1 << 20
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("value", [-1, 1.5, True, None])
def test_stream_keys_are_checked_at_entry(value):
    # a negative key failed inside SeedSequence without its name, a float
    # raised TypeError there, True ran as key 1, and a PointConfig with a
    # negative snr_index was built and failed only in run_trial
    point = _point(ALL_SPECS[1])
    for name, call in (
        ("trial_index", lambda: run_trial(point, value, 7)),
        ("seed", lambda: run_trial(point, 3, value)),
        ("snr_index", lambda: PointConfig(spec=ALL_SPECS[1], n_source=4, n_relay=4, n_dest=4,
                                          alphabet=4, snr_db=10.0, snr_index=value)),
    ):
        with pytest.raises(ValueError, match=f"{name} must be a non-negative int, got {value!r}"):
            call()
    assert run_trial(point, np.int64(3), np.uint16(7)) == run_trial(point, 3, 7)
