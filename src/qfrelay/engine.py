"""Vectorized Monte Carlo engine for the relay link.

Evaluates batches of trials, and several relay methods per trial, on shared
channel draws.  Randomness stays per-trial: every trial draws its own
message, channels and noise from the stream keyed by (seed, snr_index,
trial_index), so counts are independent of batch size, worker count and
scheduling.  Each detector has one scoring function, which takes a batch:
the single-trial reference path in :mod:`qfrelay.link` calls it with a
batch of one and :func:`count_errors` with a batch of B, so the two paths
share every score bit for bit.

The detectors are genie-aided: the destination knows all three link
matrices and the relay's quantization method.  The mismatched detector
scores each candidate message with the noiseless-relay surrogate; the
marginalized detector averages the relay-noise likelihood over shared
Monte Carlo samples (common random numbers across candidates) and serves
as the near-optimal oracle.
"""

from __future__ import annotations

import numpy as np

from .channel import _matvec, sample_links, sample_noise, snr_db_to_sigma2, trial_stream
from .codebook import build_codebook
from .quantizers import CandidateBasis, candidate_relay_symbols, relay_symbols

# bytes of the complex (batch, [samples,] candidates, antennas) stack that
# sizes a batch: every spec's candidate work is bandwidth-bound, and at half
# of a 2 MiB L2 its temporaries stay near cache size
_CANDIDATE_STACK_BUDGET = 1 << 20


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


def _shared_terms(y_sd, h_sd, h_sr, codewords, sigma2, noise):
    """What every spec of a batch shares: the SD term and the candidate basis.

    Without relay-noise samples (``noise`` is None) this is the mismatched
    detector's squared SD distance and the noiseless relay-input basis.
    With samples of shape (B, L, N_R) it is the marginalized detector's
    -dSD/sigma2 and the basis of the noisy (B, L, C, N_R) stack.
    """
    sd_cands, relay_in = _candidate_products(h_sd, h_sr, codewords)
    sd_term = _sq_dists(y_sd, sd_cands)
    if noise is None:
        return sd_term, CandidateBasis(relay_in)
    noisy = relay_in[:, None, :, :] + noise[:, :, None, :]  # (B, L, C, N_R)
    return sd_term / -sigma2, CandidateBasis(noisy)


def _score_mismatched(shared, spec, h_rd, y_rd, sigma2):
    """(B, C) metrics of the mismatched detector; lower is better.

    Squared SD distance plus squared RD distance against the noiseless-relay
    surrogate of each message.  The common 1/sigma2 weight cancels, so
    ``sigma2`` is unused.
    """
    sd_term, basis = shared
    relay_cands = basis.held = candidate_relay_symbols(spec, basis)
    rd_cands = h_rd @ relay_cands.transpose(0, 2, 1)  # (B, N_D, C)
    return sd_term + _sq_dists(y_rd, rd_cands)


def _score_marginalized(shared, spec, h_rd, y_rd, sigma2):
    """(B, C) scores of the marginalized detector; higher is better.

    -dSD/sigma2 plus a stable log-sum-exp of -dRD/sigma2 over the shared
    relay-noise samples.
    """
    sd_term, basis = shared
    relay_cands = basis.held = candidate_relay_symbols(spec, basis)
    rd_cands = h_rd[:, None] @ relay_cands.transpose(0, 1, 3, 2)  # (B, L, N_D, C)
    rd_scores = _sq_dists(y_rd[:, None, :], rd_cands) / -sigma2  # (B, L, C)
    peak = rd_scores.max(axis=1, keepdims=True)
    return sd_term + (peak[:, 0, :] + np.log(np.exp(rd_scores - peak).sum(axis=1)))


# detector name -> (scoring function, the pick of the best candidate)
_DETECTION = {
    "mismatched": (_score_mismatched, np.argmin),
    "marginalized": (_score_marginalized, np.argmax),
}
DETECTORS = tuple(_DETECTION)


def mismatched_metrics(y_sd, y_rd, h_sd, h_sr, h_rd, codewords, spec):
    """Reference per-candidate metric of the mismatched detector.

    Returns an array of shape (C,): squared SD distance plus squared RD
    distance against the noiseless-relay surrogate of each message.
    """
    shared = _shared_terms(y_sd[None], h_sd[None], h_sr[None], codewords, None, None)
    return _score_mismatched(shared, spec, h_rd[None], y_rd[None], None)[0]


def marginalized_scores(y_sd, y_rd, h_sd, h_sr, h_rd, codewords, spec, sigma2, noise):
    """Reference per-candidate score of the marginalized detector.

    ``noise`` holds the shared relay-noise samples, shape (L, N_R).  The
    score of each candidate is -dSD/sigma2 plus a stable log-sum-exp of
    -dRD/sigma2 over the samples; higher is better.
    """
    shared = _shared_terms(
        y_sd[None], h_sd[None], h_sr[None], codewords, sigma2, noise[None]
    )
    return _score_marginalized(shared, spec, h_rd[None], y_rd[None], sigma2)[0]


# ---------------------------------------------------------------------------
# Batched trial evaluation
# ---------------------------------------------------------------------------

def _draw_batch(n_source, n_relay, n_dest, codebook, sigma2, seed, snr_index,
                trials, marginal_samples):
    """Per-trial draws for a batch, in the documented stream order.

    Each trial consumes, in order: the message index, the SR, SD and RD
    link matrices, then the SR, SD and RD noise, and finally the detector's
    relay-noise samples when marginalizing.  A trial's noise is one
    ``sample_noise`` draw: the stream gives the same numbers however its
    draws are split, so the SR and SD received vectors are formed for the
    whole batch once the loop is done.
    """
    batch = len(trials)
    sent = np.empty(batch, dtype=np.int64)
    h_sr = np.empty((batch, n_relay, n_source), dtype=complex)
    h_sd = np.empty((batch, n_dest, n_source), dtype=complex)
    h_rd = np.empty((batch, n_dest, n_relay), dtype=complex)
    # noise columns: SR [0, sd), SD [sd, rd), RD [rd, relay), relay samples after
    sd = n_relay
    rd = sd + n_dest
    relay = rd + n_dest
    noise = np.empty((batch, relay + marginal_samples * n_relay), dtype=complex)
    for row, trial in enumerate(trials):
        rng = trial_stream(seed, snr_index, trial)
        sent[row] = rng.integers(codebook.n_messages)
        links = sample_links(n_source, n_relay, n_dest, rng)
        h_sr[row] = links.h_sr
        h_sd[row] = links.h_sd
        h_rd[row] = links.h_rd
        noise[row] = sample_noise(noise.shape[1], sigma2, rng)
    x = codebook.codewords[sent]
    y_sr = _matvec(h_sr, x) + noise[:, :sd]
    y_sd = _matvec(h_sd, x) + noise[:, sd:rd]
    relay_noise = None
    if marginal_samples:
        relay_noise = noise[:, relay:].reshape(batch, marginal_samples, n_relay)
    return sent, h_sr, h_sd, h_rd, y_sr, y_sd, noise[:, rd:relay], relay_noise


def _batch_size(n_candidates, n_relay, marginal_samples):
    """Trials per batch whose candidate stack fits the byte budget, at least 1."""
    stack = n_candidates * n_relay * max(1, marginal_samples) * np.dtype(complex).itemsize
    return max(1, _CANDIDATE_STACK_BUDGET // stack)


def count_errors(n_source, n_relay, n_dest, alphabet, specs, snr_db, snr_index,
                 seed, trial_start, trial_stop, detector="mismatched",
                 marginal_samples=64, batch_size=None):
    """Bit-error counts per spec over a contiguous range of trial indices.

    All specs see the same trials (common random numbers), which is what
    makes method comparisons paired.  Returns an int64 array of
    ``len(specs)`` bit-error counts.
    """
    if detector not in _DETECTION:
        raise ValueError(f"unknown detector {detector!r}")
    score, pick = _DETECTION[detector]
    for spec in specs:
        spec.validate_for(n_relay)
    codebook = build_codebook(alphabet, n_source)
    sigma2 = snr_db_to_sigma2(snr_db)
    marginal = marginal_samples if detector == "marginalized" else 0
    if batch_size is None:
        batch_size = _batch_size(codebook.n_messages, n_relay, marginal)
    errors = np.zeros(len(specs), dtype=np.int64)
    for start in range(trial_start, trial_stop, batch_size):
        trials = range(start, min(start + batch_size, trial_stop))
        sent, h_sr, h_sd, h_rd, y_sr, y_sd, z_rd, noise = _draw_batch(
            n_source, n_relay, n_dest, codebook, sigma2, seed, snr_index,
            trials, marginal,
        )
        shared = _shared_terms(y_sd, h_sd, h_sr, codebook.codewords, sigma2, noise)
        for spec_row, spec in enumerate(specs):
            x_relay = relay_symbols(y_sr, spec)
            y_rd = _matvec(h_rd, x_relay) + z_rd
            detected = pick(score(shared, spec, h_rd, y_rd, sigma2), axis=-1)
            errors[spec_row] += int(codebook.bit_errors(sent, detected).sum())
    return errors
