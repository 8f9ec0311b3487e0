"""Candidate-quantization kernels against the plain numpy expressions they replace.

The kernels in ``qfrelay.quantizers`` take shortcuts (pairwise rank
counting, a sign-select phase wrap, in-place arithmetic, table gathers)
that must not change a single output bit.  Each test here keeps the
straightforward formula as the reference and compares raw bytes, so a
flipped signed zero or a last-digit rounding difference fails.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from qfrelay.quantizers import (
    HAPQ,
    TWO_PI,
    UAPQ,
    QuantizerSpec,
    RelayState,
    _rebuild,
    amplitude_bin,
    bin_center,
    oaq_sort_ranks,
    phase_index,
    sector_phasor,
    wrap_phase,
)


def _same_bits(actual, expected):
    actual = np.asarray(actual)
    expected = np.asarray(expected)
    return (
        actual.dtype == expected.dtype
        and actual.shape == expected.shape
        and actual.tobytes() == expected.tobytes()
    )


# ---------------------------------------------------------------------------
# O-AQ sort ranks
# ---------------------------------------------------------------------------

def _stable_argsort_ranks(amps):
    order = np.argsort(amps, axis=-1, kind="stable")
    ranks = np.empty_like(order)
    np.put_along_axis(
        ranks, order, np.broadcast_to(np.arange(amps.shape[-1]), order.shape), axis=-1
    )
    return ranks


# heavy ties (a three-value alphabet) and both zeros, besides general floats
_RANK_ELEMENTS = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, 2.0]),
    st.floats(-1e3, 1e3, allow_nan=False),
)


@settings(max_examples=300)
@given(
    st.integers(1, 9).flatmap(
        lambda n: arrays(
            np.float64,
            array_shapes(min_dims=0, max_dims=2, max_side=6).map(lambda s: s + (n,)),
            elements=_RANK_ELEMENTS,
        )
    )
)
def test_oaq_sort_ranks_matches_stable_argsort(amps):
    ranks = oaq_sort_ranks(amps)
    assert _same_bits(ranks, _stable_argsort_ranks(amps))
    assert ranks.flags.c_contiguous


def test_oaq_sort_ranks_ties_and_signed_zeros():
    for n in range(1, 10):
        rng = np.random.default_rng(n)
        tied = rng.integers(0, 3, size=(200, n)).astype(float)
        zeros = np.where(rng.integers(0, 2, size=(200, n)) == 1, -0.0, 0.0)
        for amps in (tied, zeros, np.moveaxis(tied.reshape(20, 10, n), 0, 1)):
            assert _same_bits(oaq_sort_ranks(amps), _stable_argsort_ranks(amps)), n


# ---------------------------------------------------------------------------
# Phase wrap and phase index
# ---------------------------------------------------------------------------

def _wrap_phase_reference(theta):
    wrapped = np.mod(np.asarray(theta, dtype=float), TWO_PI)
    wrapped[wrapped == TWO_PI] = 0.0
    return wrapped


def _phase_index_reference(theta, bits):
    sectors = 1 << bits
    scaled = np.ceil(_wrap_phase_reference(theta) * sectors / TWO_PI - 0.5)
    return scaled.astype(np.int64) % sectors


# edge angles of the |theta| <= 2*pi shortcut: signed zero, the smallest
# subnormal, negatives that round to 2*pi when wrapped, and the end points
_EDGE_ANGLES = [
    -0.0, 0.0, -5e-324, 5e-324, -1e-17, 1e-17, np.pi, -np.pi,
    -TWO_PI, TWO_PI, np.nextafter(-TWO_PI, 0.0), np.nextafter(TWO_PI, 0.0),
]
# outside [-2*pi, 2*pi] wrap_phase falls back to np.mod
_FAR_ANGLES = [np.nextafter(TWO_PI, 7.0), np.nextafter(-TWO_PI, -7.0), 7.0, -20.0, 1e6]


@settings(max_examples=300)
@given(
    arrays(
        np.float64,
        array_shapes(min_dims=1, max_dims=2, max_side=8),
        elements=st.one_of(st.sampled_from(_EDGE_ANGLES + _FAR_ANGLES), st.floats(-20.0, 20.0)),
    ),
    st.integers(1, 8),
)
def test_phase_index_matches_mod_formula(theta, bits):
    assert _same_bits(wrap_phase(theta), _wrap_phase_reference(theta))
    assert _same_bits(phase_index(theta, bits), _phase_index_reference(theta, bits))


@pytest.mark.parametrize("far", [False, True])
def test_phase_index_edge_angles(far):
    theta = np.array(_EDGE_ANGLES + (_FAR_ANGLES if far else []))
    assert _same_bits(wrap_phase(theta), _wrap_phase_reference(theta))
    assert not np.signbit(wrap_phase(theta)).any()
    for bits in range(1, 9):
        assert _same_bits(phase_index(theta, bits), _phase_index_reference(theta, bits))


def test_phase_checks_are_kept():
    for bad in (np.inf, -np.inf, np.nan):
        with pytest.raises(ValueError, match="phase must be finite"):
            phase_index(np.array([0.1, bad]), 3)
    with pytest.raises(ValueError):
        phase_index(np.array([0.1]), 0)
    assert phase_index(np.array([]), 2).shape == (0,)


# ---------------------------------------------------------------------------
# Amplitude bins and U-APQ symbols
# ---------------------------------------------------------------------------

def _amplitude_bin_reference(values, bits):
    bins = np.floor(np.asarray(values, dtype=float) * (1 << bits)).astype(np.int64)
    return np.minimum(bins, (1 << bits) - 1)


@settings(max_examples=200)
@given(
    arrays(
        np.float64,
        array_shapes(min_dims=0, max_dims=2, max_side=8),
        elements=st.one_of(st.sampled_from([1.0, 5e-324, 0.5]), st.floats(1e-300, 1.0)),
    ),
    st.integers(1, 10),
)
def test_amplitude_bin_matches_floor_formula(values, bits):
    assert _same_bits(amplitude_bin(values, bits), _amplitude_bin_reference(values, bits))


@pytest.mark.parametrize("bad", [np.nan, 0.0, -0.0, -0.5, 1.0000001, np.inf])
def test_amplitude_bin_still_rejects(bad):
    with pytest.raises(ValueError, match=r"normalized amplitudes must lie in \(0, 1\]"):
        amplitude_bin(np.array([0.5, bad, 0.25]), 3)
    with pytest.raises(ValueError):
        amplitude_bin(bad, 3)


def _uapq_reference(indices, bins, total_bits, phase_bits):
    centers = bin_center(bins, total_bits - phase_bits)
    gains = centers / np.sqrt(np.einsum("...i,...i->...", centers, centers))[..., None]
    return gains * sector_phasor(indices, phase_bits)


@settings(max_examples=200)
@given(st.integers(1, 6), st.integers(1, 6), st.integers(1, 8), st.integers(1, 5),
       st.integers(0, 2**32 - 1))
def test_uapq_symbols_match_product_formula(rows, n, phase_bits, amp_bits, seed):
    rng = np.random.default_rng(seed)
    indices = rng.integers(0, 1 << phase_bits, size=(rows, n))
    bins = rng.integers(0, 1 << amp_bits, size=(rows, n))
    total_bits = phase_bits + amp_bits
    spec = QuantizerSpec(UAPQ, total_bits=total_bits, phase_bits=phase_bits)
    assert _same_bits(
        _rebuild(spec, (indices, bins), n),
        _uapq_reference(indices, bins, total_bits, phase_bits),
    )


# ---------------------------------------------------------------------------
# H-APQ relay-state assignment check
# ---------------------------------------------------------------------------

def _hapq_state(assignment, group_size=2):
    return RelayState(
        spec=QuantizerSpec(HAPQ, phase_bits=2, group_size=group_size),
        phase_indices=(0,) * len(assignment),
        amplitude_assignment=tuple(assignment),
    )


def test_assignment_errors_keep_their_messages():
    with pytest.raises(ValueError, match=r"^level index 3 out of range 1\.\.2$"):
        _hapq_state((1, 2, 3, 2))
    with pytest.raises(ValueError, match=r"^level index 0 out of range 1\.\.2$"):
        _hapq_state((0, 1, 2, 2))
    with pytest.raises(
        ValueError,
        match=r"^level multiplicities \[3, 1\] violate the O-AQ grouping \[2, 2\]$",
    ):
        _hapq_state((1, 1, 1, 2))
    with pytest.raises(ValueError, match=r"^level index 4 out of range 1\.\.3$"):
        _hapq_state((1, 4, 2, 2, 1))
    with pytest.raises(TypeError):
        _hapq_state((1.0, 1.0, 2.0, 2.0))  # only integer levels index the counts


def test_assignment_check_accepts_every_valid_arrangement():
    rng = np.random.default_rng(12)
    for n, group_size in ((1, 1), (4, 2), (5, 2), (16, 3), (300, 1), (300, 7)):
        num_levels = -(-n // group_size)
        pool = [min(k // group_size, num_levels - 1) + 1 for k in range(n)]
        for _ in range(5):
            levels = rng.permutation(pool)
            _hapq_state([int(v) for v in levels], group_size)
            _hapq_state(list(levels), group_size)  # numpy integers, as before
        if n > 1:
            broken = [pool[-1]] + pool[1:]
            with pytest.raises(ValueError, match="level multiplicities"):
                _hapq_state(broken, group_size)
