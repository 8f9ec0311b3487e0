"""End-to-end message transmission over the two-slot relay protocol.

The source broadcasts a codeword in the first slot; the relay quantizes
what it received, stores the state through the bit codec (simulating a
write to and reload from relay memory), and retransmits in the second
slot.  The destination detects the message from the direct and relayed
observations with genie channel knowledge.

:func:`run_trial` is the single-trial reference path.  Its detectors score
through the engine's scoring function for each detector with a batch of
one, so the batched engine reproduces its outcomes bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import engine
from .bitcodec import decode_relay_state, encode_relay_state
from .channel import (
    NoiseModel,
    apply_link,
    sample_links,
    sample_noise,
    snr_db_to_sigma2,
    trial_stream,
)
from .codebook import build_codebook
from .quantizers import (AF, QuantizerSpec, check_count, relay_state, relay_symbols,
                         relay_symbols_from_state)


@dataclass(frozen=True)
class PointConfig:
    """One (method, SNR) operating point of a sweep."""

    spec: QuantizerSpec
    n_source: int
    n_relay: int
    n_dest: int
    alphabet: int
    snr_db: float
    snr_index: int = 0
    detector: str = "mismatched"
    marginal_samples: int = 64

    def __post_init__(self):
        engine.check_point(self.n_source, self.n_relay, self.n_dest, self.alphabet,
                           (self.spec,), self.detector, self.marginal_samples)
        snr_db_to_sigma2(self.snr_db)


@dataclass(frozen=True)
class TrialOutcome:
    """Result of one simulated message transmission."""

    sent: int
    detected: int
    bit_errors: int
    total_bits: int

    def __post_init__(self):
        if not 0 <= self.bit_errors <= self.total_bits:
            raise ValueError("bit_errors must lie in [0, total_bits]")


def relay_process(received, spec):
    """Relay processing dispatch, including the store/reload round trip.

    Quantizing methods capture the relay state, push it through the bit
    codec (memory write + reload) and rebuild the transmit vector from the
    decoded state; AF forwards the normalized received vector directly.
    """
    if spec.kind == AF:
        return relay_symbols(received, spec)
    state = relay_state(received, spec)
    restored = decode_relay_state(encode_relay_state(state))
    return relay_symbols_from_state(restored)


def detect_mismatched(y_sd, y_rd, links, codebook, spec, sigma2):
    """Most likely message under the noiseless-relay surrogate.

    Minimizes the summed squared SD and RD distances; with equal noise
    variance on both links the common 1/sigma2 weight cancels, so sigma2
    is accepted only for interface symmetry with the marginalized
    detector.  Ties resolve to the smallest message index.
    """
    del sigma2
    metrics = engine.mismatched_metrics(
        y_sd, y_rd, links.h_sd, links.h_sr, links.h_rd, codebook.codewords, spec
    )
    return int(np.argmin(metrics))


def detect_marginalized(y_sd, y_rd, links, codebook, spec, sigma2, n_samples, rng):
    """Near-ML detection marginalizing the relay noise by Monte Carlo.

    Draws ``n_samples`` relay-noise vectors from ``rng`` and shares them
    across all candidate messages (common random numbers), scoring each
    candidate by a numerically stable log-sum-exp of the relay-noise
    likelihood.
    """
    check_count("n_samples", n_samples, (int, np.integer))
    noise = sample_noise((n_samples, links.n_relay), sigma2, rng)
    scores = engine.marginalized_scores(
        y_sd, y_rd, links.h_sd, links.h_sr, links.h_rd,
        codebook.codewords, spec, sigma2, noise,
    )
    return int(np.argmax(scores))


def run_trial(point, trial_index, seed):
    """Simulate one two-slot transmission, reproducibly.

    The trial's stream is keyed by (seed, snr_index, trial_index) and is
    consumed in a fixed order: message, SR/SD/RD channels, SR/SD/RD noise,
    then the detector's relay-noise samples when marginalizing.
    """
    codebook = build_codebook(point.alphabet, point.n_source)
    sigma2 = snr_db_to_sigma2(point.snr_db)
    noise = NoiseModel(sigma2)
    rng = trial_stream(seed, point.snr_index, trial_index)

    sent = int(rng.integers(codebook.n_messages))
    links = sample_links(point.n_source, point.n_relay, point.n_dest, rng)
    x = codebook.codewords[sent]
    y_sr = apply_link(links.h_sr, x, noise, rng)
    y_sd = apply_link(links.h_sd, x, noise, rng)
    x_relay = relay_process(y_sr, point.spec)
    y_rd = apply_link(links.h_rd, x_relay, noise, rng)

    if point.detector == "mismatched":
        detected = detect_mismatched(y_sd, y_rd, links, codebook, point.spec, sigma2)
    else:
        detected = detect_marginalized(
            y_sd, y_rd, links, codebook, point.spec, sigma2,
            point.marginal_samples, rng,
        )
    bit_errors = int(codebook.bit_errors(sent, detected))
    return TrialOutcome(
        sent=sent,
        detected=detected,
        bit_errors=bit_errors,
        total_bits=codebook.bits_per_message,
    )
