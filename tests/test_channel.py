"""Fading/noise generation statistics and stream reproducibility."""

import numpy as np
import pytest

from qfrelay.channel import (
    MAX_SNR_DB,
    LinkRealization,
    NoiseModel,
    apply_link,
    sample_channel,
    sample_links,
    sample_noise,
    snr_db_to_sigma2,
    trial_stream,
)


def test_snr_conversion():
    assert snr_db_to_sigma2(0.0) == 1.0
    assert snr_db_to_sigma2(10.0) == pytest.approx(0.1)
    assert snr_db_to_sigma2(20.0) == pytest.approx(0.01)
    assert snr_db_to_sigma2(300.0) == pytest.approx(1e-30)
    with pytest.raises(ValueError):
        snr_db_to_sigma2(float("nan"))
    assert snr_db_to_sigma2(MAX_SNR_DB) == pytest.approx(1e-100)
    assert snr_db_to_sigma2(-MAX_SNR_DB) == pytest.approx(1e100)
    # past the bound the power would overflow (-3100 dB) or reach zero
    # (4000 dB); a huge int is rejected without a float conversion
    for snr_db in (-3100.0, -1000.5, 1000.5, 4000.0, float("inf"), float("-inf"), 10**400):
        with pytest.raises(ValueError, match=r"snr_db must be in \[-1000, 1000\]"):
            snr_db_to_sigma2(snr_db)


def test_noise_model_validation():
    with pytest.raises(ValueError):
        NoiseModel(0.0)
    with pytest.raises(ValueError):
        NoiseModel(-1.0)


def test_channel_entry_statistics():
    # 10^6 draws; the sample mean of a unit-variance complex entry has a
    # standard deviation of ~1e-3 per part, so 0.01 is a wide gate
    rng = trial_stream(123, 0, 0)
    h = sample_channel(1000, 1000, rng)
    assert abs(h.real.mean()) < 0.01
    assert abs(h.imag.mean()) < 0.01
    assert abs(np.mean(np.abs(h) ** 2) - 1.0) < 0.01
    # real and imaginary parts carry half the power each
    assert abs(np.var(h.real) - 0.5) < 0.01
    assert abs(np.var(h.imag) - 0.5) < 0.01


def test_channel_determinism():
    a = sample_channel(4, 4, trial_stream(7, 1, 2))
    b = sample_channel(4, 4, trial_stream(7, 1, 2))
    assert np.array_equal(a, b)
    c = sample_channel(4, 4, trial_stream(7, 1, 3))
    assert not np.array_equal(a, c)
    d = sample_channel(4, 4, trial_stream(7, 2, 2))
    assert not np.array_equal(a, d)


def test_split_draws_match_block_draws():
    # the engine and the reference path may partition their draws
    # differently; the stream must not care
    block = trial_stream(99, 0, 5).standard_normal(10)
    rng = trial_stream(99, 0, 5)
    parts = np.concatenate([rng.standard_normal(3), rng.standard_normal(7)])
    assert np.array_equal(block, parts)


def test_sample_links_equals_three_channel_draws():
    links = sample_links(2, 3, 5, trial_stream(4, 1, 9))
    rng = trial_stream(4, 1, 9)
    assert np.array_equal(links.h_sr, sample_channel(3, 2, rng))
    assert np.array_equal(links.h_sd, sample_channel(5, 2, rng))
    assert np.array_equal(links.h_rd, sample_channel(5, 3, rng))
    with pytest.raises(ValueError):
        sample_links(2, 0, 5, rng)


def test_noise_variance():
    rng = trial_stream(11, 0, 0)
    z = sample_noise(200000, 0.25, rng)
    assert abs(np.mean(np.abs(z) ** 2) - 0.25) < 0.005
    z2 = sample_noise((100, 7), 1.0, rng)
    assert z2.shape == (100, 7)


def test_apply_link_noiseless_limit():
    rng = trial_stream(42, 0, 0)
    h = sample_channel(4, 4, rng)
    x = np.zeros(4, dtype=complex)
    x[0] = 1.0
    y = apply_link(h, x, NoiseModel(1e-30), rng)
    np.testing.assert_allclose(y, h @ x, atol=1e-12)


def test_apply_link_noise_statistics():
    h = np.eye(2, dtype=complex)
    x = np.array([1.0, 0.0], dtype=complex)
    rng = trial_stream(5, 0, 0)
    draws = np.array([apply_link(h, x, NoiseModel(0.5), rng) for _ in range(20000)])
    noise = draws - x
    assert abs(np.mean(np.abs(noise) ** 2) - 0.5) < 0.01


def test_apply_link_rejects_bad_input():
    rng = trial_stream(1, 0, 0)
    h = sample_channel(2, 2, rng)
    with pytest.raises(ValueError):
        apply_link(h, np.ones(3, dtype=complex) / np.sqrt(3), NoiseModel(1.0), rng)
    with pytest.raises(ValueError):
        apply_link(h, np.ones(2, dtype=complex), NoiseModel(1.0), rng)  # power 2


def test_link_realization_validation():
    rng = trial_stream(2, 0, 0)
    links = sample_links(3, 4, 5, rng)
    assert links.n_source == 3 and links.n_relay == 4 and links.n_dest == 5
    with pytest.raises(ValueError):
        LinkRealization(h_sr=links.h_sr, h_sd=links.h_sd, h_rd=links.h_rd[:, :3])
