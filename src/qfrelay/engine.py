"""Vectorized Monte Carlo engine for the relay link.

Evaluates batches of trials, and several relay methods per trial, on shared
channel draws.  Randomness stays per-trial: every trial draws its own
message, channels and noise from the stream keyed by (seed, snr_index,
trial_index), so counts are independent of batch size, worker count and
scheduling.  The single-trial reference path in :mod:`qfrelay.link` runs
through the same candidate-metric code with a batch of one, and the test
suite pins the two paths to bit-identical decisions.

The detectors are genie-aided: the destination knows all three link
matrices and the relay's quantization method.  The mismatched detector
scores each candidate message with the noiseless-relay surrogate; the
marginalized detector averages the relay-noise likelihood over shared
Monte Carlo samples (common random numbers across candidates) and serves
as the near-optimal oracle.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from . import quantizers as qz
from .channel import _matvec, sample_links, sample_noise, snr_db_to_sigma2, trial_stream
from .codebook import build_codebook

_MISMATCHED_BATCH = 256
# the marginalized candidate arrays are bandwidth-bound; small batches keep
# the (batch, samples, candidates, antennas) stacks near cache size
_MARGINALIZED_BATCH_BUDGET = 256


class CandidateBasis:
    """Polar view of candidate relay inputs with memoized shared pieces.

    The phase indices, amplitude sort ranks and vector norms are shared by
    every quantizer evaluated on the same candidates, so they are computed
    once per batch.
    """

    __slots__ = ("values", "theta", "amps", "_phase", "_ranks", "_norms")

    def __init__(self, values):
        self.values = values
        self.theta = np.angle(values)
        self.amps = np.abs(values)
        self._phase = {}
        self._ranks = None
        self._norms = None

    def phase_indices(self, bits):
        if bits not in self._phase:
            self._phase[bits] = qz.phase_index(self.theta, bits)
        return self._phase[bits]

    def ranks(self):
        if self._ranks is None:
            self._ranks = qz.oaq_sort_ranks(self.amps)
        return self._ranks

    def norms(self):
        if self._norms is None:
            self._norms = np.sqrt(np.einsum("...i,...i->...", self.amps, self.amps))
        return self._norms


@lru_cache(maxsize=None)
def _hapq_tables(phase_bits, group_size, level_exponent, n_antennas):
    level_set = qz.build_level_set(n_antennas, group_size, level_exponent)
    phasors = qz.sector_phasor(np.arange(1 << phase_bits), phase_bits)
    # entry [l-1, k] equals levels[l-1] * phasor[k], the same product the
    # scalar path computes elementwise
    gain_phasor = level_set.levels[:, None] * phasors[None, :]
    gain_phasor.flags.writeable = False
    return level_set, gain_phasor


def candidate_relay_symbols(spec, basis):
    """Relay transmit candidates for one method, from the shared basis."""
    n_antennas = basis.values.shape[-1]
    if spec.kind == qz.UPQ:
        indices = basis.phase_indices(spec.total_bits)
        return qz.upq_symbols_from_indices(indices, spec.total_bits, n_antennas)
    if spec.kind == qz.UAPQ:
        norms = basis.norms()
        if np.any(norms == 0.0):
            raise ValueError("candidate relay input has zero norm")
        ratios = basis.amps / norms[..., None]
        np.minimum(ratios, 1.0, out=ratios)
        bins = qz.amplitude_bin(ratios, spec.amplitude_bits)
        indices = basis.phase_indices(spec.phase_bits)
        return qz.uapq_symbols_from_parts(indices, bins, spec.total_bits, spec.phase_bits)
    if spec.kind == qz.HAPQ:
        level_set, gain_phasor = _hapq_tables(
            spec.phase_bits, spec.group_size, spec.level_exponent, n_antennas
        )
        # flat offset of entry [level - 1, phase index] in the row-major table
        flat = qz.oaq_levels_for_ranks(
            basis.ranks(), level_set.group_size, level_set.num_levels
        )
        flat -= 1
        flat *= gain_phasor.shape[1]
        flat += basis.phase_indices(spec.phase_bits)
        return gain_phasor.take(flat)
    return qz.af_relay_symbols(basis.values)


def _sq_dists(y, cands):
    """Squared distances sum_d |y_d - c_dc|^2 for candidate stacks.

    ``y`` has shape (..., D) and ``cands`` (..., D, C); leading dimensions
    must broadcast.  Expanded as |c|^2 - 2 Re(y^H c) + |y|^2 so the heavy
    term is a single contraction.
    """
    cross = np.einsum("...d,...dc->...c", y.conj(), cands).real
    cand_norm = (
        np.einsum("...dc,...dc->...c", cands.real, cands.real)
        + np.einsum("...dc,...dc->...c", cands.imag, cands.imag)
    )
    y_norm = np.einsum("...d,...d->...", y.real, y.real) + np.einsum(
        "...d,...d->...", y.imag, y.imag
    )
    return cand_norm - 2.0 * cross + y_norm[..., None]


def _candidate_products(h_sd, h_sr, codewords):
    """Direct-link candidates and relay-input candidates for all messages."""
    transmit = codewords.T  # (N_S, C)
    sd_cands = h_sd @ transmit
    relay_in = np.ascontiguousarray((h_sr @ transmit).transpose(0, 2, 1))
    return sd_cands, relay_in


def mismatched_metrics(y_sd, y_rd, h_sd, h_sr, h_rd, codewords, spec):
    """Reference per-candidate metric of the mismatched detector.

    Returns an array of shape (C,): squared SD distance plus squared RD
    distance against the noiseless-relay surrogate of each message.
    """
    sd_cands, relay_in = _candidate_products(h_sd[None], h_sr[None], codewords)
    basis = CandidateBasis(relay_in)
    relay_cands = candidate_relay_symbols(spec, basis)
    rd_cands = h_rd[None] @ relay_cands.transpose(0, 2, 1)
    metrics = _sq_dists(y_sd[None], sd_cands) + _sq_dists(y_rd[None], rd_cands)
    return metrics[0]


def marginalized_scores(y_sd, y_rd, h_sd, h_sr, h_rd, codewords, spec, sigma2, noise):
    """Reference per-candidate score of the marginalized detector.

    ``noise`` holds the shared relay-noise samples, shape (L, N_R).  The
    score of each candidate is -dSD/sigma2 plus a stable log-sum-exp of
    -dRD/sigma2 over the samples; higher is better.
    """
    scores = _marginalized_scores_batch(
        y_sd[None], y_rd[None], h_sd[None], h_sr[None], h_rd[None],
        codewords, spec, sigma2, noise[None],
    )
    return scores[0]


def _marginalized_scores_batch(y_sd, y_rd, h_sd, h_sr, h_rd, codewords, spec, sigma2, noise):
    sd_cands, relay_in = _candidate_products(h_sd, h_sr, codewords)
    sd_part = _sq_dists(y_sd, sd_cands) / -sigma2  # (B, C)
    noisy = relay_in[:, None, :, :] + noise[:, :, None, :]  # (B, L, C, N_R)
    basis = CandidateBasis(noisy)
    relay_cands = candidate_relay_symbols(spec, basis)
    rd_cands = h_rd[:, None] @ relay_cands.transpose(0, 1, 3, 2)  # (B, L, N_D, C)
    rd_scores = _sq_dists(y_rd[:, None, :], rd_cands) / -sigma2  # (B, L, C)
    peak = rd_scores.max(axis=1, keepdims=True)
    log_sum = peak[:, 0, :] + np.log(
        np.exp(rd_scores - peak).sum(axis=1)
    )
    return sd_part + log_sum


# ---------------------------------------------------------------------------
# Batched trial evaluation
# ---------------------------------------------------------------------------

def _draw_batch(n_source, n_relay, n_dest, codebook, sigma2, seed, snr_index,
                trials, marginal_samples):
    """Per-trial draws for a batch, in the documented stream order.

    Each trial consumes, in order: the message index, the SR, SD and RD
    link matrices, then the SR, SD and RD noise (the SR and SD received
    vectors are formed on the spot), and finally the detector's relay-noise
    samples when marginalizing.
    """
    batch = len(trials)
    sent = np.empty(batch, dtype=np.int64)
    h_sr = np.empty((batch, n_relay, n_source), dtype=complex)
    h_sd = np.empty((batch, n_dest, n_source), dtype=complex)
    h_rd = np.empty((batch, n_dest, n_relay), dtype=complex)
    y_sr = np.empty((batch, n_relay), dtype=complex)
    y_sd = np.empty((batch, n_dest), dtype=complex)
    z_rd = np.empty((batch, n_dest), dtype=complex)
    noise = None
    if marginal_samples:
        noise = np.empty((batch, marginal_samples, n_relay), dtype=complex)
    for row, trial in enumerate(trials):
        rng = trial_stream(seed, snr_index, trial)
        sent[row] = rng.integers(codebook.n_messages)
        links = sample_links(n_source, n_relay, n_dest, rng)
        h_sr[row] = links.h_sr
        h_sd[row] = links.h_sd
        h_rd[row] = links.h_rd
        x = codebook.codewords[sent[row]]
        y_sr[row] = _matvec(links.h_sr, x) + sample_noise(n_relay, sigma2, rng)
        y_sd[row] = _matvec(links.h_sd, x) + sample_noise(n_dest, sigma2, rng)
        z_rd[row] = sample_noise(n_dest, sigma2, rng)
        if marginal_samples:
            noise[row] = sample_noise((marginal_samples, n_relay), sigma2, rng)
    return sent, h_sr, h_sd, h_rd, y_sr, y_sd, z_rd, noise


def count_errors(n_source, n_relay, n_dest, alphabet, specs, snr_db, snr_index,
                 seed, trial_start, trial_stop, detector="mismatched",
                 marginal_samples=64, batch_size=None):
    """Bit-error counts per spec over a contiguous range of trial indices.

    All specs see the same trials (common random numbers), which is what
    makes method comparisons paired.  Returns an int64 array of
    ``len(specs)`` bit-error counts.
    """
    if detector not in ("mismatched", "marginalized"):
        raise ValueError(f"unknown detector {detector!r}")
    for spec in specs:
        spec.validate_for(n_relay)
    codebook = build_codebook(alphabet, n_source)
    sigma2 = snr_db_to_sigma2(snr_db)
    marginal = marginal_samples if detector == "marginalized" else 0
    if batch_size is None:
        if detector == "mismatched":
            batch_size = _MISMATCHED_BATCH
        else:
            batch_size = max(1, _MARGINALIZED_BATCH_BUDGET // max(1, marginal_samples))
    errors = np.zeros(len(specs), dtype=np.int64)
    for start in range(trial_start, trial_stop, batch_size):
        trials = range(start, min(start + batch_size, trial_stop))
        sent, h_sr, h_sd, h_rd, y_sr, y_sd, z_rd, noise = _draw_batch(
            n_source, n_relay, n_dest, codebook, sigma2, seed, snr_index,
            trials, marginal,
        )
        if detector == "mismatched":
            sd_cands, relay_in = _candidate_products(h_sd, h_sr, codebook.codewords)
            basis = CandidateBasis(relay_in)
            sd_dists = _sq_dists(y_sd, sd_cands)
            for spec_row, spec in enumerate(specs):
                x_relay = qz.relay_symbols(y_sr, spec)
                y_rd = _matvec(h_rd, x_relay) + z_rd
                relay_cands = candidate_relay_symbols(spec, basis)
                rd_cands = h_rd @ relay_cands.transpose(0, 2, 1)
                metrics = sd_dists + _sq_dists(y_rd, rd_cands)
                detected = np.argmin(metrics, axis=-1)
                errors[spec_row] += int(codebook.bit_errors(sent, detected).sum())
        else:
            sd_cands, relay_in = _candidate_products(h_sd, h_sr, codebook.codewords)
            sd_scores = _sq_dists(y_sd, sd_cands) / -sigma2
            noisy = relay_in[:, None, :, :] + noise[:, :, None, :]
            basis = CandidateBasis(noisy)
            for spec_row, spec in enumerate(specs):
                x_relay = qz.relay_symbols(y_sr, spec)
                y_rd = _matvec(h_rd, x_relay) + z_rd
                relay_cands = candidate_relay_symbols(spec, basis)
                rd_cands = h_rd[:, None] @ relay_cands.transpose(0, 1, 3, 2)
                rd_scores = _sq_dists(y_rd[:, None, :], rd_cands) / -sigma2
                peak = rd_scores.max(axis=1, keepdims=True)
                log_sum = peak[:, 0, :] + np.log(np.exp(rd_scores - peak).sum(axis=1))
                detected = np.argmax(sd_scores + log_sum, axis=-1)
                errors[spec_row] += int(codebook.bit_errors(sent, detected).sum())
    return errors
