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
as the near-optimal oracle.  Both scorers return a score, higher being
better, whose SD part is -dSD/weight (weight 1 or sigma2); the mismatched
score is the exactly negated metric.  Both detectors pick their candidate
by one block search (:func:`block_picks`) that maximizes that score over
candidates in blocks, 64 (mismatched) or 16 (marginalized) at a time, in
order of their SD part and stops once no unscored one can win; the pick
is exactly the argmin of the full metrics, which
:func:`mismatched_metrics` computes, or the argmax of the full scores,
which :func:`marginalized_scores` computes.  The single-trial reference
takes that argmin or argmax directly, so it checks the search rather than
sharing it.

:func:`check_point` is the one check of a link point (dims, M, a
non-empty spec list, detector and L), which ``SweepConfig``,
``PointConfig`` and :func:`count_errors` all call.  The keys of the trial
streams (seed, SNR index, trial indices) are checked once per call with
``quantizers.check_key``.  One byte rule, :func:`trial_bytes`, the
largest of a trial's draws, full-C products and marginalized block stack,
both sizes every batch (:func:`_batch_size`) and caps every point, at
``MAX_TRIAL_BYTES``; with ``MAX_CANDIDATES`` on C = M**n_s, those are the
two caps, which :mod:`qfrelay.config` re-exports.
"""

from __future__ import annotations

import math

import numpy as np

from .channel import _matvec, sample_links, sample_noise, snr_db_to_sigma2, trial_stream
from .codebook import SUPPORTED_ALPHABETS, build_codebook
from .quantizers import (CandidateBasis, candidate_relay_symbols, check_count, check_key,
                         relay_symbols)

# bytes a batch's largest array family, batch x :func:`trial_bytes`, may
# take: every spec's candidate work is bandwidth-bound, and at half of a
# 2 MiB L2 its temporaries stay near cache size
_CANDIDATE_STACK_BUDGET = 1 << 20
# candidates per block of the block search, per detector.  C = M**n_s is a
# power of two, so every block is full, and blocks whose width is a multiple
# of 16 score bit for bit as the full row does (widths that are not a
# multiple of 4 can differ in the last bit).  A marginalized block is an
# (L, width, N_R) stack, and at 4 dB most trials stop within two or three
# 16-wide ones; a mismatched round is cheap per candidate and pays numpy's
# per-call overhead once per spec, so its blocks are wider
MARGINAL_BLOCK = 16
MISMATCHED_BLOCK = 64


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


def _candidate_terms(y_sd, h_sd, h_sr, codewords, weight):
    """The SD part of every candidate's score and the relay inputs.

    Returns the (B, C) SD part -dSD/weight and the (B, C, N_R) relay-input
    candidates.  ``weight`` is sigma2 for the marginalized detector and 1.0
    for the mismatched one, where dividing by -1.0 is an exact negation.
    """
    sd_cands, relay_in = _candidate_products(h_sd, h_sr, codewords)
    return _sq_dists(y_sd, sd_cands) / -weight, relay_in


def _terms(sd_part, relay_in, noise):
    """The SD part and the candidate basis of (B, C, N_R) relay inputs.

    Without relay-noise samples (``noise`` is None) the basis holds the
    noiseless relay inputs; with samples of shape (B, L, N_R) it holds the
    noisy (B, L, C, N_R) stack.
    """
    stack = relay_in if noise is None else relay_in[:, None, :, :] + noise[:, :, None, :]
    return sd_part, CandidateBasis(stack)


def _score_mismatched(terms, spec, h_rd, y_rd, sigma2):
    """(B, C) scores of the mismatched detector; higher is better.

    The SD part -dSD less the squared RD distance against the
    noiseless-relay surrogate of each message.  Round-to-nearest is
    sign-symmetric, so this is exactly the negated metric -(dSD + dRD).
    The common 1/sigma2 weight cancels, so ``sigma2`` is unused.
    """
    sd_part, basis = terms
    relay_cands = basis.held = candidate_relay_symbols(spec, basis)
    rd_cands = h_rd @ relay_cands.transpose(0, 2, 1)  # (B, N_D, C)
    return sd_part - _sq_dists(y_rd, rd_cands)


def _score_marginalized(terms, spec, h_rd, y_rd, sigma2):
    """(B, C) scores of the marginalized detector; higher is better.

    The SD part -dSD/sigma2 plus a stable log-sum-exp of -dRD/sigma2 over
    the shared relay-noise samples.
    """
    sd_part, basis = terms
    relay_cands = basis.held = candidate_relay_symbols(spec, basis)
    rd_cands = h_rd[:, None] @ relay_cands.transpose(0, 1, 3, 2)  # (B, L, N_D, C)
    rd_scores = _sq_dists(y_rd[:, None, :], rd_cands) / -sigma2  # (B, L, C)
    peak = rd_scores.max(axis=1, keepdims=True)
    return sd_part + (peak[:, 0, :] + np.log(np.exp(rd_scores - peak).sum(axis=1)))


def block_picks(y_sd, y_rds, h_sd, h_sr, h_rd, codewords, specs, sigma2, noise):
    """(len(specs), B) candidates the detector picks, by block search.

    ``y_rds`` holds each spec's (B, N_D) RD observations.  With ``noise``
    None the detector is the mismatched one, and the pick is ``argmin`` of
    the :func:`mismatched_metrics` row; with the (B, L, N_R) relay-noise
    samples it is the marginalized one, and the pick is ``argmax`` of the
    :func:`marginalized_scores` row.  Equal optima go to the smallest
    index.  The search maximizes the score both scorers return, the
    mismatched one being the exactly negated metric.  Each trial's
    candidates are taken in blocks of ``MARGINAL_BLOCK`` or
    ``MISMATCHED_BLOCK`` in descending order of their SD part of the score,
    s(c) = -dSD/weight with weight sigma2 (marginalized) or 1 (mismatched),
    and most of them are never scored; a later block replaces the running
    best only with a strictly higher score, or an equal one at a smaller
    index.

    The bound.  dRD = |c|^2 - 2 Re(y^H c) + |y|^2 is exactly ||y - c||^2
    >= 0; the relay vector x has unit power, so |c| <= ||H_rd||_F and the
    rounding of that expansion over N_D terms stays below

        delta = (N_D + 4) 2**-50 (||H_rd||_F + ||y_rd||)**2 / weight.

    Mismatched: a score is -dSD - dRD <= s(c) + delta.  Marginalized: a
    score is s(c) + peak + log(sum_l exp(r_l - peak)), where r_l =
    -dRD_l/sigma2 and peak = max_l r_l.  Each summand is at most 1 and the
    peak's is exactly 1, so the rounded sum is at most L and the log term
    about log L, while r_l, hence peak, is at most delta.  Every score is
    thus at most s(c) + gap + delta, with gap = 0 (mismatched) or log L
    (marginalized), up to the rounding of the final additions, which
    slack = 2**-50 (|s(next)| + |best| + gap + delta) covers.  Once s(next)
    + gap + delta + slack < best, where s(next) is the trial's highest SD
    part not yet scored, no unscored candidate reaches the running best and
    the (spec, trial) pair stops.  At high SNR the marginalized delta grows
    and the search scores more blocks; it never changes a pick.
    """
    if noise is None:
        score, width, gap, weight = _score_mismatched, MISMATCHED_BLOCK, 0.0, 1.0
    else:
        score, width, gap, weight = (_score_marginalized, MARGINAL_BLOCK,
                                     math.log(noise.shape[1]), sigma2)
    sd_part, relay_in = _candidate_terms(y_sd, h_sd, h_sr, codewords, weight)
    # (len(specs), B): ||H_rd||_F + ||y_rd|| per spec and trial
    norms = np.linalg.norm(h_rd, axis=(1, 2)) + np.linalg.norm(np.stack(y_rds), axis=-1)
    delta = (h_rd.shape[1] + 4) * 2.0**-50 * norms**2 / weight
    batch, n_cand = sd_part.shape
    width = min(n_cand, width)
    if n_cand > width:
        order = np.argsort(-sd_part, axis=-1, kind="stable")
    else:
        order = np.broadcast_to(np.arange(n_cand), sd_part.shape)
    best = np.full((len(specs), batch), -np.inf)
    picks = np.full((len(specs), batch), n_cand)
    pending = np.ones((len(specs), batch), dtype=bool)
    for start in range(0, n_cand, width):
        active = np.flatnonzero(pending.any(axis=0))
        if not active.size:
            break
        cols = order[active, start:start + width]
        # the gathers copy exact values, so a block scores bit for bit as
        # the full row does at its candidates
        gather = active[:, None], cols
        terms = _terms(sd_part[gather], relay_in[gather],
                       None if noise is None else noise[active])
        h_rd_active = h_rd[active]
        for row, (spec, y_rd) in enumerate(zip(specs, y_rds)):
            live = pending[row, active]
            if not live.any():
                continue
            scores = score(terms, spec, h_rd_active, y_rd[active], sigma2)
            top = scores.max(axis=1)
            index = np.where(scores == top[:, None], cols, n_cand).min(axis=1)
            was = best[row, active]
            better = live & ((top > was) | ((top == was) & (index < picks[row, active])))
            best[row, active[better]] = top[better]
            picks[row, active[better]] = index[better]
        if start + width < n_cand:
            s_next = sd_part[active, order[active, start + width]]
            reach = s_next + gap + delta[:, active]
            reach += 2.0**-50 * (np.abs(s_next) + np.abs(best[:, active]) + gap
                                 + delta[:, active])
            pending[:, active] &= reach >= best[:, active]
    return picks


DETECTORS = ("mismatched", "marginalized")


def mismatched_metrics(y_sd, y_rd, h_sd, h_sr, h_rd, codewords, spec):
    """Reference per-candidate metric of the mismatched detector.

    Returns an array of shape (C,): squared SD distance plus squared RD
    distance against the noiseless-relay surrogate of each message; lower
    is better.  It is the exact negation of the mismatched score, taken as
    0.0 - score so that a zero reads +0.0, as dSD + dRD rounds it.
    """
    terms = _terms(*_candidate_terms(y_sd[None], h_sd[None], h_sr[None], codewords, 1.0), None)
    return 0.0 - _score_mismatched(terms, spec, h_rd[None], y_rd[None], None)[0]


def marginalized_scores(y_sd, y_rd, h_sd, h_sr, h_rd, codewords, spec, sigma2, noise):
    """Reference per-candidate score of the marginalized detector.

    ``noise`` holds the shared relay-noise samples, shape (L, N_R).  The
    score of each candidate is -dSD/sigma2 plus a stable log-sum-exp of
    -dRD/sigma2 over the samples; higher is better.
    """
    terms = _terms(*_candidate_terms(y_sd[None], h_sd[None], h_sr[None], codewords, sigma2),
                   noise[None])
    return _score_marginalized(terms, spec, h_rd[None], y_rd[None], sigma2)[0]


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


# caps on a link point, which check_point applies at every entry point.
# Largest candidate count C = M**n_s a sweep may enumerate
MAX_CANDIDATES = 1 << 16
# largest one-trial working set, :func:`trial_bytes`.  A batch holds at
# least one trial, and the temporaries around the largest array family take
# a few times its bytes, so an at-cap trial peaks near half a GiB
MAX_TRIAL_BYTES = 1 << 26


def trial_bytes(n_candidates, n_source, n_relay, n_dest, marginal_samples):
    """Bytes of one trial's largest complex array family, and its formula.

    The families are the trial's draws (link matrices, the three noise
    vectors and L = ``marginal_samples`` relay-noise samples), the SD and
    relay-input products of all C = ``n_candidates`` candidates, which both
    detectors build before the search, and the marginalized block stack,
    (L, min(C, ``MARGINAL_BLOCK``), N_R), which is 0 at L = 0 (the
    mismatched detector).  A mismatched round's (min(C,
    ``MISMATCHED_BLOCK``), N_R) stack never outgrows the products.
    """
    n_s, n_r, n_d, entry = n_source, n_relay, n_dest, np.dtype(complex).itemsize
    draws = (n_r * n_s + n_d * n_s + n_d * n_r + n_r + 2 * n_d + marginal_samples * n_r) * entry
    products = n_candidates * max(n_r, n_d) * entry
    stack = marginal_samples * min(n_candidates, MARGINAL_BLOCK) * n_r * entry
    return max(
        (draws, "trial draws (n_r*n_s + n_d*n_s + n_d*n_r + n_r + 2*n_d + L*n_r) * 16"),
        (products, "candidate products C * max(n_r, n_d) * 16"),
        (stack, f"marginalized block stack marginal_samples * min(C, {MARGINAL_BLOCK})"
                " * n_r * 16"),
        key=lambda family: family[0],
    )


def check_point(n_source, n_relay, n_dest, alphabet, specs, detector, marginal_samples):
    """The one check of a link point; raises ``ValueError`` naming the field.

    Dims are Python ints, as :func:`~qfrelay.codebook.build_codebook` needs,
    and L = ``marginal_samples`` a Python or numpy int, whichever the
    detector.  The point must also fit the caps above, so a point that
    passes runs in bounded memory.
    """
    for name, value in (("n_source", n_source), ("n_relay", n_relay), ("n_dest", n_dest)):
        check_count(name, value)
    check_count("marginal_samples", marginal_samples, (int, np.integer))
    if not isinstance(alphabet, int) or alphabet not in SUPPORTED_ALPHABETS:
        raise ValueError(f"M must be one of {SUPPORTED_ALPHABETS}, got {alphabet!r}")
    if detector not in DETECTORS:
        raise ValueError(f"detector must be one of {DETECTORS}, got {detector!r}")
    if not specs:
        raise ValueError(f"specs must hold at least one relay method, got {specs!r}")
    for spec in specs:
        spec.validate_for(n_relay)
    # M is a power of two, so C = 2**(n_s log2 M); past 64 antennas C is
    # shown as a power, having too many digits to print
    if n_source * (alphabet.bit_length() - 1) > MAX_CANDIDATES.bit_length() - 1:
        shown = alphabet**n_source if n_source <= 64 else f"{alphabet}**{n_source}"
        raise ValueError(
            f"candidate count C = M**n_s = {shown} exceeds the cap of {MAX_CANDIDATES}"
        )
    # a Python L, whose byte count a huge numpy L cannot wrap around in int64
    marginal = int(marginal_samples) if detector == "marginalized" else 0
    size, formula = trial_bytes(alphabet**n_source, n_source, n_relay, n_dest, marginal)
    if size > MAX_TRIAL_BYTES:
        raise ValueError(f"{formula} = {size} bytes exceeds the cap of {MAX_TRIAL_BYTES}")


def _batch_size(n_candidates, n_source, n_relay, n_dest, marginal_samples):
    """Trials per batch whose :func:`trial_bytes` fit the byte budget, at least 1."""
    size, _ = trial_bytes(n_candidates, n_source, n_relay, n_dest, marginal_samples)
    return max(1, _CANDIDATE_STACK_BUDGET // size)


def count_errors(n_source, n_relay, n_dest, alphabet, specs, snr_db, snr_index,
                 seed, trial_start, trial_stop, detector="mismatched",
                 marginal_samples=64, batch_size=None):
    """Bit-error counts per spec over a contiguous range of trial indices.

    All specs see the same trials (common random numbers), which is what
    makes method comparisons paired.  Returns an int64 array of
    ``len(specs)`` bit-error counts.
    """
    check_point(n_source, n_relay, n_dest, alphabet, specs, detector, marginal_samples)
    for name, key in (("seed", seed), ("snr_index", snr_index), ("trial_start", trial_start),
                      ("trial_stop", trial_stop)):
        check_key(name, key)
    if batch_size is not None:
        check_count("batch_size", batch_size, (int, np.integer))
    codebook = build_codebook(alphabet, n_source)
    sigma2 = snr_db_to_sigma2(snr_db)
    marginal = marginal_samples if detector == "marginalized" else 0
    if batch_size is None:
        batch_size = _batch_size(codebook.n_messages, n_source, n_relay, n_dest, marginal)
    errors = np.zeros(len(specs), dtype=np.int64)
    for start in range(trial_start, trial_stop, batch_size):
        trials = range(start, min(start + batch_size, trial_stop))
        sent, h_sr, h_sd, h_rd, y_sr, y_sd, z_rd, noise = _draw_batch(
            n_source, n_relay, n_dest, codebook, sigma2, seed, snr_index,
            trials, marginal,
        )
        y_rds = [_matvec(h_rd, relay_symbols(y_sr, spec)) + z_rd for spec in specs]
        detected = block_picks(y_sd, y_rds, h_sd, h_sr, h_rd, codebook.codewords, specs,
                               sigma2, noise)
        for spec_row, spec_picks in enumerate(detected):
            errors[spec_row] += int(codebook.bit_errors(sent, spec_picks).sum())
    return errors
