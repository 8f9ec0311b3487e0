"""Rayleigh fading link generation and AWGN with reproducible trial streams.

Every Monte Carlo trial owns an independent random stream derived from
(seed, snr_index, trial_index) through a counter-based generator, so
results do not depend on execution order or on how trials are spread over
worker processes.  All three links of the two-slot relay protocol share
one noise variance; the transmit SNR is 1/sigma2 under unit signal power.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

_INV_SQRT2 = math.sqrt(0.5)


@dataclass(frozen=True)
class NoiseModel:
    """AWGN with per-entry complex variance sigma2."""

    sigma2: float

    def __post_init__(self):
        if not (math.isfinite(self.sigma2) and self.sigma2 > 0):
            raise ValueError(f"sigma2 must be positive and finite, got {self.sigma2!r}")


# widest transmit SNR magnitude in dB.  sigma2 then lies in [1e-100, 1e100],
# far from where 10**(-snr_db / 10) overflows (about -3090 dB) or rounds to
# zero (about 3240 dB), and both detectors' scores stay finite across it
MAX_SNR_DB = 1000.0


def snr_db_to_sigma2(snr_db):
    """Noise variance for a transmit SNR of snr_db decibels (SNR = 1/sigma2).

    snr_db must be a real number, and |snr_db| at most ``MAX_SNR_DB``; a
    string, None, a complex, NaN and anything wider raise ``ValueError``.
    """
    if not isinstance(snr_db, numbers.Real):
        raise ValueError(f"snr_db must be a real number, got {snr_db!r}")
    # comparisons reject NaN and never convert a huge int to float
    if not -MAX_SNR_DB <= snr_db <= MAX_SNR_DB:
        raise ValueError(f"snr_db must be in [-{MAX_SNR_DB:g}, {MAX_SNR_DB:g}], got {snr_db}")
    return 10.0 ** (-snr_db / 10.0)


def trial_stream(seed, snr_index, trial_index):
    """Independent, reproducible random stream for one simulation trial.

    The (seed, snr_index, trial_index) triple keys a Philox counter-based
    generator, so two trials with different indices are statistically
    independent and each is bit-reproducible regardless of scheduling.
    """
    sequence = np.random.SeedSequence(seed, spawn_key=(snr_index, trial_index))
    return np.random.Generator(np.random.Philox(sequence))


def sample_channel(rows, cols, rng):
    """rows x cols matrix of i.i.d. unit-variance circular complex Gaussians."""
    if rows < 1 or cols < 1:
        raise ValueError("channel dimensions must be at least 1")
    draws = rng.standard_normal((rows, cols, 2))
    return draws.view(np.complex128)[..., 0] * _INV_SQRT2


def sample_noise(shape, sigma2, rng):
    """Complex Gaussian noise with per-entry variance sigma2."""
    if np.isscalar(shape):
        shape = (shape,)
    draws = rng.standard_normal(tuple(shape) + (2,))
    return draws.view(np.complex128)[..., 0] * math.sqrt(sigma2 / 2.0)


def _matvec(h, x):
    # einsum keeps the reduction order identical for single vectors and
    # batches, which the engine relies on for bit reproducibility
    return np.einsum("...ij,...j->...i", h, x)


@dataclass(frozen=True, eq=False)
class LinkRealization:
    """One draw of the source-relay, source-destination and relay-destination links."""

    h_sr: np.ndarray
    h_sd: np.ndarray
    h_rd: np.ndarray

    def __post_init__(self):
        if self.h_sr.ndim != 2 or self.h_sd.ndim != 2 or self.h_rd.ndim != 2:
            raise ValueError("link matrices must be two-dimensional")
        if self.h_sr.shape[1] != self.h_sd.shape[1]:
            raise ValueError("source antenna counts disagree between SR and SD links")
        if self.h_rd.shape[1] != self.h_sr.shape[0]:
            raise ValueError("relay antenna counts disagree between SR and RD links")
        if self.h_rd.shape[0] != self.h_sd.shape[0]:
            raise ValueError("destination antenna counts disagree between SD and RD links")

    @property
    def n_source(self):
        return self.h_sr.shape[1]

    @property
    def n_relay(self):
        return self.h_sr.shape[0]

    @property
    def n_dest(self):
        return self.h_sd.shape[0]


def sample_links(n_source, n_relay, n_dest, rng):
    """Draw the three link matrices, in SR, SD, RD order.

    One draw covers all three; the stream gives the same numbers as three
    successive :func:`sample_channel` calls.
    """
    if min(n_source, n_relay, n_dest) < 1:
        raise ValueError("channel dimensions must be at least 1")
    sr = n_relay * n_source
    sd = sr + n_dest * n_source
    draws = rng.standard_normal((sd + n_dest * n_relay, 2))
    entries = draws.view(np.complex128)[:, 0] * _INV_SQRT2
    return LinkRealization(
        h_sr=entries[:sr].reshape(n_relay, n_source),
        h_sd=entries[sr:sd].reshape(n_dest, n_source),
        h_rd=entries[sd:].reshape(n_dest, n_relay),
    )


def apply_link(h, x, noise, rng):
    """Received vector h @ x + z with z ~ CN(0, sigma2 I).

    The transmit vector must satisfy the unit power constraint.
    """
    x = np.asarray(x, dtype=complex)
    if h.ndim != 2 or x.ndim != 1 or h.shape[1] != x.shape[0]:
        raise ValueError(f"dimension mismatch: {h.shape} vs {x.shape}")
    power = float(np.sum(np.abs(x) ** 2))
    if abs(power - 1.0) > 1e-9:
        raise ValueError(f"transmit power {power!r} violates the unit constraint")
    return _matvec(h, x) + sample_noise(h.shape[0], noise.sigma2, rng)
