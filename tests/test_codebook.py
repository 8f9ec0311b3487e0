"""Source codebook structure, Gray mapping and bit-error accounting."""

import math

import numpy as np
import pytest

from qfrelay.codebook import build_codebook, gray_code


def test_gray_adjacency():
    for alphabet in (2, 4, 8, 16):
        codes = gray_code(np.arange(alphabet))
        assert sorted(codes) == list(range(alphabet))  # bijection
        for k in range(alphabet - 1):
            assert bin(codes[k] ^ codes[k + 1]).count("1") == 1


def test_qpsk_single_antenna():
    cb = build_codebook(4, 1)
    assert cb.n_messages == 4
    np.testing.assert_allclose(np.abs(cb.codewords), 1.0, atol=1e-15)
    # messages 0..3 sit at Gray positions 0,1,3,2 on the QPSK circle
    expected = np.exp(1j * np.pi / 2 * np.array([0, 1, 3, 2]))
    np.testing.assert_allclose(cb.codewords[:, 0], expected, atol=1e-15)


def test_codebook_norms_exhaustive():
    cb = build_codebook(4, 4)
    assert cb.n_messages == 256
    norms = np.sum(np.abs(cb.codewords) ** 2, axis=1)
    np.testing.assert_array_less(np.abs(norms - 1.0), 1e-12)


def test_codeword_count_and_bits():
    for alphabet, n_antennas in ((2, 3), (4, 2), (8, 2), (16, 1)):
        cb = build_codebook(alphabet, n_antennas)
        assert cb.n_messages == alphabet**n_antennas
        assert cb.bits_per_message == n_antennas * int(math.log2(alphabet))


def test_digits_roundtrip():
    cb = build_codebook(4, 3)
    messages = np.arange(cb.n_messages)
    digits = cb.digits(messages)
    rebuilt = (digits * (4 ** np.arange(3))).sum(axis=1)
    assert np.array_equal(rebuilt, messages)


def test_bit_errors():
    cb = build_codebook(4, 2)
    assert cb.bit_errors(0, 0) == 0
    # message 1 differs from 0 in digit 0 only: 01 vs 00
    assert cb.bit_errors(0, 1) == 1
    assert cb.bit_errors(0, 3) == 2
    assert cb.bit_errors(0, 15) == 4  # both digits fully flipped
    # symmetric and vectorized
    sent = np.array([0, 5, 9])
    detected = np.array([15, 5, 6])
    errors = cb.bit_errors(sent, detected)
    assert errors.tolist() == [4, 0, cb.bit_errors(9, 6)]
    assert np.all(errors <= cb.bits_per_message)


def test_rejects_unsupported_alphabet():
    with pytest.raises(ValueError):
        build_codebook(3, 2)
    with pytest.raises(ValueError):
        build_codebook(4, 0)
    # a bool is not an antenna count, even once the codebook for 1 is cached
    build_codebook(4, 1)
    with pytest.raises(ValueError, match="n_antennas must be a positive int, got True"):
        build_codebook(4, True)
