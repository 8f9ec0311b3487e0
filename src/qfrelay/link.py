"""End-to-end message transmission over the two-slot relay protocol.

The source broadcasts a codeword in the first slot; the relay quantizes
what it received, stores the state through the bit codec (simulating a
write to and reload from relay memory), and retransmits in the second
slot.  The destination detects the message from the direct and relayed
observations with genie channel knowledge.

:func:`run_trial` is the single-trial reference path.  It detects with the
engine's reference detectors: the argmin of
:func:`~qfrelay.engine.mismatched_metrics`, or the argmax of
:func:`~qfrelay.engine.marginalized_scores` over L relay-noise samples it
draws from the trial's stream.  Both score with a batch of one through the
engine's scoring function for the detector, so the batched engine
reproduces its outcomes bit for bit; ties resolve to the smallest message
index.
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
from .quantizers import (AF, QuantizerSpec, check_key, relay_state, relay_symbols,
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
        check_key("snr_index", self.snr_index)


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


def run_trial(point, trial_index, seed):
    """Simulate one two-slot transmission, reproducibly.

    The trial's stream is keyed by (seed, snr_index, trial_index) and is
    consumed in a fixed order: message, SR/SD/RD channels, SR/SD/RD noise,
    then the detector's relay-noise samples when marginalizing.
    """
    check_key("trial_index", trial_index)
    check_key("seed", seed)
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

    observed = (y_sd, y_rd, links.h_sd, links.h_sr, links.h_rd, codebook.codewords, point.spec)
    if point.detector == "mismatched":
        detected = int(np.argmin(engine.mismatched_metrics(*observed)))
    else:
        samples = sample_noise((point.marginal_samples, point.n_relay), sigma2, rng)
        detected = int(np.argmax(engine.marginalized_scores(*observed, sigma2, samples)))
    bit_errors = int(codebook.bit_errors(sent, detected))
    return TrialOutcome(
        sent=sent,
        detected=detected,
        bit_errors=bit_errors,
        total_bits=codebook.bits_per_message,
    )
