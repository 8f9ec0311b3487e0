"""Vectorized Monte Carlo engine for the relay link.

Evaluates batches of trials, and several relay methods per trial, on shared
channel draws.  Randomness stays per-trial: every trial draws its own
message, channels and noise from the stream keyed by (seed, snr_index,
trial_index), so counts are independent of batch size, worker count and
scheduling.  There is one scorer for both detectors (the mismatched one is
L = 1, weight 1), :func:`_score`, which takes a batch: the single-trial
reference path in :mod:`qfrelay.link` calls it with a batch of one and
:func:`count_errors` with a batch of B, so the two paths share every score
bit for bit.

The detectors are genie-aided: the destination knows all three link
matrices and the relay's quantization method.  The mismatched detector
scores each candidate message with the noiseless-relay surrogate; the
marginalized detector averages the relay-noise likelihood over shared
Monte Carlo samples (common random numbers across candidates) and serves
as the near-optimal oracle.  The score, higher being better, is the SD
part -dSD/weight plus a log-sum-exp of -dRD/weight over L relay vectors:
weight sigma2 and the L noisy samples when marginalizing, weight 1 and
the one noiseless relay input for the mismatched detector, whose score is
then exactly the negated metric -(dSD + dRD).  Both detectors pick their
candidate by one block search (:func:`block_picks`) that maximizes that
score over candidates in blocks, 64 (mismatched) or 16 (marginalized) at
a time, in order of their SD part and stops once no unscored one can win;
the pick is exactly the argmin of the full metrics, which
:func:`mismatched_metrics` computes, or the argmax of the full scores,
which :func:`marginalized_scores` computes.  The single-trial reference
takes that argmin or argmax directly, so it checks the search rather than
sharing it.

The search's stop bound rests on two facts about the RD distance dRD =
||y_rd - H_rd x||^2 of a relay vector x: it is never negative, and, since
every relay method sends unit power, it is never below the least distance
over all unit-power x.  :func:`_rd_floor` bounds that least distance from
below per (spec, trial) by Lagrangian weak duality on the trust-region
problem min ||y - H x||^2 s.t. ||x|| = 1 (Boyd and Vandenberghe, Convex
Optimization, 5.2; More and Sorensen, "Computing a trust region step",
1983): g(mu) = ||y||^2 - b^H (H^H H + mu I)^-1 b - mu, b = H^H y, for any
mu > -lambda_min(H^H H).  The floor is g at a few Newton steps for mu,
lowered by a rounding margin and by |mu| times the 1e-10 by which ||x||^2
may miss 1, and clamped at 0; :func:`block_picks` derives the rest.

:func:`check_point` is the one check of a link point (dims, M, a
non-empty list or tuple of ``QuantizerSpec`` entries, detector and L), which
``SweepConfig``, ``PointConfig`` and :func:`count_errors` all call.  The
keys of the trial streams (seed, SNR index, trial indices) are checked
once per call with ``quantizers.check_key``.  One byte rule,
:func:`trial_bytes`, the largest of a trial's draws, full-C products and
marginalized block stack, both sizes every batch (:func:`_batch_size`) and
caps every point, at ``MAX_TRIAL_BYTES``; with ``MAX_CANDIDATES`` on C =
M**n_s, those are the two caps, which :mod:`qfrelay.config` re-exports.
"""

from __future__ import annotations

import math

import numpy as np

from .channel import _matvec, sample_links, sample_noise, snr_db_to_sigma2, trial_stream
from .codebook import SUPPORTED_ALPHABETS, build_codebook
from .quantizers import (CandidateBasis, QuantizerSpec, candidate_relay_symbols, check_count,
                         check_key, relay_symbols)

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


def _candidate_products(y_sd, h_sd, h_sr, codewords, weight):
    """The SD part of every candidate's score and the relay inputs.

    Returns the (B, C) SD part -dSD/weight and the (B, C, N_R) relay-input
    candidates.  ``weight`` is sigma2 for the marginalized detector and 1.0
    for the mismatched one, where dividing by -1.0 is an exact negation.
    """
    transmit = codewords.T  # (N_S, C)
    relay_in = np.ascontiguousarray((h_sr @ transmit).transpose(0, 2, 1))
    return _sq_dists(y_sd, h_sd @ transmit) / -weight, relay_in


def _basis(relay_in, noise):
    """The (B, L, W, N_R) candidate basis of (B, W, N_R) relay inputs.

    Without relay-noise samples (``noise`` is None, the mismatched
    detector) it is a view of the noiseless inputs as L = 1; with samples
    of shape (B, L, N_R) it holds the noisy stack.
    """
    stack = relay_in[:, None] if noise is None else relay_in[:, None] + noise[:, :, None]
    return CandidateBasis(stack)


def _score(sd_part, basis, spec, h_rd, y_rd, weight):
    """(B, W) scores of either detector; higher is better.

    The SD part -dSD/weight plus a stable log-sum-exp of -dRD/weight over
    the basis's L relay vectors per candidate.  At L = 1 the log-sum-exp is
    its one term, which is returned as is; with the mismatched detector's
    weight 1 the score is then exactly the negated metric -(dSD + dRD).
    """
    relay_cands = basis.held = candidate_relay_symbols(spec, basis)
    batch, samples, width, n_relay = relay_cands.shape
    # one (N_D, N_R) @ (N_R, L*W) product per trial, not L small ones; each
    # entry is the same N_R-term sum, so the bits do not change
    stacked = relay_cands.reshape(batch, samples * width, n_relay).transpose(0, 2, 1)
    rd_scores = (_sq_dists(y_rd, h_rd @ stacked) / -weight).reshape(batch, samples, width)
    if samples == 1:
        return sd_part + rd_scores[:, 0]
    peak = rd_scores.max(axis=1, keepdims=True)
    return sd_part + (peak[:, 0, :] + np.log(np.exp(rd_scores - peak).sum(axis=1)))


# | ||x||^2 - 1 | of any relay vector stays below this: the level sets meet
# the power identity within 1e-12, and normalizing adds a few roundings
_POWER_TOL = 1e-10
# Newton steps of the floor's multiplier.  Every multiplier in the domain
# gives a valid floor, so the count trades tightness only: at the benchmark
# shapes four steps stop the search exactly where six do
_FLOOR_STEPS = 4
_TINY = float(np.finfo(float).tiny)


def _rd_floor(h_rd, y_rd):
    """(..., B) lower bounds on ||y - H x||^2 over every unit-power x.

    ``h_rd`` is (B, N_D, N_R) and ``y_rd`` (..., B, N_D).  For any mu >
    -lambda_min(H^H H), weak duality bounds the distance by the Lagrangian
    dual g(mu) = ||y||^2 - b^H (H^H H + mu I)^-1 b - mu, b = H^H y.  In the
    eigenbasis of the smaller Gram matrix, min(N_D, N_R) square, with
    eigenvalues l_i and weights d_i = |v_i^H b|^2 (or l_i |u_i^H y|^2 with
    H H^H, where mu > 0), g(mu) = ||y||^2 - sum_i d_i / (l_i + mu) - mu.
    It is concave, and its maximizer solves sum_i d_i / (l_i + mu)^2 = 1;
    mu starts at the left end of the domain, 2**-30 ||H||_F^2 inside it,
    which is wider than any eigenvalue's rounding, and takes Newton steps
    on the nearly linear 1 / sqrt(sum_i d_i / (l_i + mu)^2) = 1.  The bound
    is then lowered by 2**-36 (||y||^2 + (||H||_F^2 + |mu|)(1 + ||x(mu)||^2)),
    far above the rounding of the eigendecomposition and the sums, and by
    |mu| times ``_POWER_TOL`` for the relay's ||x||^2 - 1.  Any bound that
    is not positive and finite reads 0.
    """
    n_dest, n_relay = h_rd.shape[-2:]
    h_norm = np.einsum("bdr,bdr->b", h_rd.real, h_rd.real) + np.einsum(
        "bdr,bdr->b", h_rd.imag, h_rd.imag)
    y_norm = np.einsum("...d,...d->...", y_rd.real, y_rd.real) + np.einsum(
        "...d,...d->...", y_rd.imag, y_rd.imag)
    h_adj = h_rd.conj().transpose(0, 2, 1)
    # overflow or 0/0 at extreme inputs gives a non-finite bound, read as 0
    with np.errstate(all="ignore"):
        if n_relay <= n_dest:
            eig, vec = np.linalg.eigh(h_adj @ h_rd)
            proj = np.einsum("brk,bdr,...bd->...bk", vec, h_rd, y_rd.conj())
            weights = proj.real**2 + proj.imag**2
            low = -eig[:, 0]
        else:
            eig, vec = np.linalg.eigh(h_rd @ h_adj)
            eig = np.maximum(eig, 0.0)
            proj = np.einsum("bdk,...bd->...bk", vec, y_rd.conj())
            weights = eig * (proj.real**2 + proj.imag**2)
            low = 0.0
        left = low + (2.0**-30 * h_norm + _TINY)
        mu = np.broadcast_to(left, y_norm.shape)
        for _ in range(_FLOOR_STEPS):
            shift = eig + mu[..., None]
            terms = weights / (shift * shift)
            phi = terms.sum(axis=-1)
            step = phi * (np.sqrt(phi) - 1.0) / (terms / shift).sum(axis=-1)
            mu = np.maximum(left, mu + step)
        shift = eig + mu[..., None]
        terms = weights / shift
        dual = y_norm - terms.sum(axis=-1) - mu
        x_norm = (terms / shift).sum(axis=-1)
        dual -= (2.0**-36 * (y_norm + (h_norm + np.abs(mu)) * (1.0 + x_norm))
                 + np.abs(mu) * _POWER_TOL)
        return np.where((dual > 0.0) & (dual < np.inf), dual, 0.0)


def _in_reach(s_next, best, gap, delta, floor):
    """Whether a candidate of SD part ``s_next`` can still reach ``best``."""
    reach = s_next + gap - floor + delta
    reach += 2.0**-50 * (np.abs(s_next) + np.abs(best) + gap + delta + floor)
    return reach >= best


def block_picks(y_sd, y_rds, h_sd, h_sr, h_rd, codewords, specs, sigma2, noise):
    """(len(specs), B) candidates the detector picks, by block search.

    ``y_rds`` holds each spec's (B, N_D) RD observations.  With ``noise``
    None the detector is the mismatched one, and the pick is ``argmin`` of
    the :func:`mismatched_metrics` row; with the (B, L, N_R) relay-noise
    samples it is the marginalized one, and the pick is ``argmax`` of the
    :func:`marginalized_scores` row.  Equal optima go to the smallest
    index.  The search maximizes :func:`_score`, which for the mismatched
    detector is the exactly negated metric.  Each trial's candidates are
    taken in blocks of ``MARGINAL_BLOCK`` or ``MISMATCHED_BLOCK`` in
    descending order of their SD part of the score, s(c) = -dSD/weight with
    weight sigma2 (marginalized) or 1 (mismatched), and most of them are
    never scored; a later block replaces the running best only with a
    strictly higher score, or an equal one at a smaller index.

    The bound.  dRD = |c|^2 - 2 Re(y^H c) + |y|^2 is exactly ||y - c||^2,
    c = H_rd x; the relay vector x has unit power, so |c| <= ||H_rd||_F and
    the rounding of that expansion over N_D terms stays below

        delta = (N_D + 4) 2**-50 (||H_rd||_F + ||y_rd||)**2 / weight.

    Every dRD of a (spec, trial) pair, over all its candidates and samples,
    is also at least the pair's floor F, a lower bound on min ||y_rd -
    H_rd x||^2 over unit-power x (:func:`_rd_floor`, by weak duality), so
    r_l = -dRD_l/weight <= -F/weight + delta.  A score is s(c) + peak +
    log(sum_l exp(r_l - peak)) over a candidate's L relay vectors, with
    peak = max_l r_l; the mismatched detector has one, its noiseless relay
    input (L = 1), and a score of exactly s(c) + r_1.  Each summand is at
    most 1 and the peak's is exactly 1, so the rounded sum is at most L and
    the log term about gap = log L, 0 at L = 1.  Every score is thus at
    most s(c) + gap - F/weight + delta, up to the rounding of the final
    additions, which slack = 2**-50 (|s(next)| + |best| + gap + delta +
    F/weight) covers.  Once s(next) + gap - F/weight + delta + slack <
    best, where s(next) is the trial's highest SD part not yet scored, no
    unscored candidate reaches the running best and the (spec, trial) pair
    stops.  The floor is computed once, after the first block, for the
    trials that the bound with F = 0 keeps.  At 4 dB and L = 64, F/sigma2
    averages about 1 of the log L = 4.16 nats of the marginalized gap.  At
    high SNR the marginalized delta grows and the search scores more
    blocks; neither changes a pick.
    """
    width, weight = (MISMATCHED_BLOCK, 1.0) if noise is None else (MARGINAL_BLOCK, sigma2)
    gap = math.log(1 if noise is None else noise.shape[1])
    sd_part, relay_in = _candidate_products(y_sd, h_sd, h_sr, codewords, weight)
    y_rd_all = np.stack(y_rds)  # (len(specs), B, N_D)
    # (len(specs), B): ||H_rd||_F + ||y_rd|| per spec and trial
    norms = np.linalg.norm(h_rd, axis=(1, 2)) + np.linalg.norm(y_rd_all, axis=-1)
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
    floor = np.zeros((len(specs), batch))
    for start in range(0, n_cand, width):
        active = np.flatnonzero(pending.any(axis=0))
        if not active.size:
            break
        cols = order[active, start:start + width]
        # the gathers copy exact values, so a block scores bit for bit as
        # the full row does at its candidates
        gather = active[:, None], cols
        block_sd = sd_part[gather]
        basis = _basis(relay_in[gather], None if noise is None else noise[active])
        h_rd_active = h_rd[active]
        for row, (spec, y_rd) in enumerate(zip(specs, y_rds)):
            live = pending[row, active]
            if not live.any():
                continue
            scores = _score(block_sd, basis, spec, h_rd_active, y_rd[active], weight)
            top = scores.max(axis=1)
            index = np.where(scores == top[:, None], cols, n_cand).min(axis=1)
            was = best[row, active]
            better = live & ((top > was) | ((top == was) & (index < picks[row, active])))
            best[row, active[better]] = top[better]
            picks[row, active[better]] = index[better]
        if start + width < n_cand:
            s_next = sd_part[active, order[active, start + width]]
            pending[:, active] &= _in_reach(s_next, best[:, active], gap, delta[:, active],
                                            floor[:, active])
            if start == 0:
                # the trials the floor-free bound keeps get their floor once
                kept = active[pending[:, active].any(axis=0)]
                floor[:, kept] = _rd_floor(h_rd[kept], y_rd_all[:, kept]) / weight
                pending[:, kept] &= _in_reach(sd_part[kept, order[kept, width]],
                                              best[:, kept], gap, delta[:, kept],
                                              floor[:, kept])
    return picks


DETECTORS = ("mismatched", "marginalized")


def _reference_scores(y_sd, y_rd, h_sd, h_sr, h_rd, codewords, spec, weight, noise):
    """(C,) scores of one trial: :func:`_score` on a batch of one."""
    sd_part, relay_in = _candidate_products(y_sd[None], h_sd[None], h_sr[None], codewords, weight)
    basis = _basis(relay_in, None if noise is None else noise[None])
    return _score(sd_part, basis, spec, h_rd[None], y_rd[None], weight)[0]


def mismatched_metrics(y_sd, y_rd, h_sd, h_sr, h_rd, codewords, spec):
    """Reference per-candidate metric of the mismatched detector.

    Returns an array of shape (C,): squared SD distance plus squared RD
    distance against the noiseless-relay surrogate of each message; lower
    is better.  It is the exact negation of the mismatched score, taken as
    0.0 - score so that a zero reads +0.0, as dSD + dRD rounds it.
    """
    return 0.0 - _reference_scores(y_sd, y_rd, h_sd, h_sr, h_rd, codewords, spec, 1.0, None)


def marginalized_scores(y_sd, y_rd, h_sd, h_sr, h_rd, codewords, spec, sigma2, noise):
    """Reference per-candidate score of the marginalized detector.

    ``noise`` holds the shared relay-noise samples, shape (L, N_R).  The
    score of each candidate is -dSD/sigma2 plus a stable log-sum-exp of
    -dRD/sigma2 over the samples; higher is better.
    """
    return _reference_scores(y_sd, y_rd, h_sd, h_sr, h_rd, codewords, spec, sigma2, noise)


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
    # count_errors takes len(specs) and reads it once per batch, which a bare
    # spec, an iterator or a generator cannot serve
    if not isinstance(specs, (list, tuple)):
        raise ValueError(f"specs must be a list or tuple of relay methods, got {specs!r}")
    if not specs:
        raise ValueError(f"specs must hold at least one relay method, got {specs!r}")
    for spec in specs:
        if not isinstance(spec, QuantizerSpec):
            raise ValueError(f"specs must hold QuantizerSpec entries, got {spec!r}")
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
    ``len(specs)`` bit-error counts, zeros for an empty range; a reversed
    one (trial_start > trial_stop) is refused.
    """
    check_point(n_source, n_relay, n_dest, alphabet, specs, detector, marginal_samples)
    for name, key in (("seed", seed), ("snr_index", snr_index), ("trial_start", trial_start),
                      ("trial_stop", trial_stop)):
        check_key(name, key)
    if trial_start > trial_stop:
        raise ValueError(f"trial_start {trial_start} exceeds trial_stop {trial_stop}")
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
