"""Fixed unit-norm source codebooks built from per-antenna Gray-positioned PSK.

A message index in [0, M**N_S) decomposes into N_S base-M digits, the i-th
least significant digit riding on antenna i.  Each digit is placed on the
M-PSK circle at the sector selected by its Gray code, which for M = 4
yields the classic Gray-mapped QPSK labeling.  Bit errors are counted on
the binary digits of the sub-messages, log2(M) bits each.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .quantizers import check_count, sector_phasor

SUPPORTED_ALPHABETS = (2, 4, 8, 16)


def gray_code(values):
    """Binary-reflected Gray code of non-negative integers."""
    v = np.asarray(values)
    return v ^ (v >> 1)


@dataclass(frozen=True, eq=False)
class Codebook:
    """All M**N_S unit-norm codewords, indexed by zero-based message."""

    alphabet: int
    n_antennas: int
    codewords: np.ndarray

    @property
    def n_messages(self):
        return self.codewords.shape[0]

    @property
    def bits_per_digit(self):
        return self.alphabet.bit_length() - 1

    @property
    def bits_per_message(self):
        return self.n_antennas * self.bits_per_digit

    def digits(self, messages):
        """Base-M digits of messages, least significant digit first."""
        m = np.asarray(messages)[..., None]
        powers = self.alphabet ** np.arange(self.n_antennas)
        return (m // powers) % self.alphabet

    def bit_errors(self, sent, detected):
        """Differing sub-message bits between two message indices."""
        mismatched = self.digits(sent) ^ self.digits(detected)
        return np.bitwise_count(mismatched).sum(axis=-1)


# typed, so that True or a numpy int never hits the entry cached for 1 or an int
@lru_cache(maxsize=None, typed=True)
def build_codebook(alphabet, n_antennas):
    """Build the codebook for M-ary sub-messages on n_antennas antennas."""
    if alphabet not in SUPPORTED_ALPHABETS:
        raise ValueError(f"alphabet must be one of {SUPPORTED_ALPHABETS}, got {alphabet}")
    check_count("n_antennas", n_antennas)
    bits = alphabet.bit_length() - 1
    messages = np.arange(alphabet**n_antennas)
    powers = alphabet ** np.arange(n_antennas)
    digits = (messages[:, None] // powers) % alphabet
    codewords = sector_phasor(gray_code(digits), bits) / math.sqrt(n_antennas)
    codewords.flags.writeable = False
    return Codebook(alphabet=alphabet, n_antennas=n_antennas, codewords=codewords)
