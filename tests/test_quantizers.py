"""Quantizer kernels against independent oracles and frozen hand traces."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qfrelay.quantizers import (
    AF,
    HAPQ,
    TWO_PI,
    UAPQ,
    UPQ,
    QuantizerSpec,
    amplitude_bin,
    build_level_set,
    check_oaq_assignment,
    oaq_codeword_count,
    oaq_level_multiset,
    oaq_sort_ranks,
    ordered_amplitude_quantize,
    phase_index,
    quantizer_bits,
    relay_state,
    relay_symbols,
    relay_symbols_from_state,
    uniform_amplitude_quantize,
    uniform_phase_quantize,
    wrap_phase,
)


def spec_upq(q=8):
    return QuantizerSpec(UPQ, total_bits=q)


def spec_uapq(q=8, qbar=4):
    return QuantizerSpec(UAPQ, total_bits=q, phase_bits=qbar)


def spec_hapq(qbar=4, m=2, n=2):
    return QuantizerSpec(HAPQ, phase_bits=qbar, group_size=m, level_exponent=n)


# ---------------------------------------------------------------------------
# QuantizerSpec validation
# ---------------------------------------------------------------------------

def test_spec_validation():
    assert spec_hapq().level_exponent == 2  # default family
    with pytest.raises(ValueError):
        QuantizerSpec(UPQ)  # q missing
    with pytest.raises(ValueError):
        QuantizerSpec(UAPQ, total_bits=4, phase_bits=4)  # qbar must be < q
    with pytest.raises(ValueError):
        QuantizerSpec(UAPQ, total_bits=4, phase_bits=0)
    with pytest.raises(ValueError):
        QuantizerSpec(HAPQ, phase_bits=4, group_size=0)
    with pytest.raises(ValueError):
        QuantizerSpec(HAPQ, phase_bits=4, group_size=2, level_exponent=5)
    with pytest.raises(ValueError):
        QuantizerSpec(AF, total_bits=8)  # AF carries no parameters
    with pytest.raises(ValueError):
        QuantizerSpec("XYZ")
    with pytest.raises(ValueError):
        spec_hapq(m=5).validate_for(4)  # m exceeds antenna count


# ---------------------------------------------------------------------------
# Phase wrapping and phase quantization
# ---------------------------------------------------------------------------

def test_wrap_phase_identities():
    assert wrap_phase(0.0) == 0.0
    assert wrap_phase(-np.pi / 2) == pytest.approx(3 * np.pi / 2, abs=1e-15)
    assert wrap_phase(5 * np.pi / 2) == pytest.approx(np.pi / 2, abs=1e-15)
    for bad in (np.inf, -np.inf, np.nan):
        for theta in (bad, np.array([0.5, bad])):
            with pytest.raises(ValueError, match="^phase must be finite$"):
                wrap_phase(theta)
            with pytest.raises(ValueError, match="^phase must be finite$"):
                phase_index(theta, 3)


@given(st.floats(-1e6, 1e6))
def test_wrap_phase_domain(theta):
    wrapped = wrap_phase(theta)
    assert 0.0 <= wrapped < TWO_PI
    turns = (theta - wrapped) / TWO_PI
    assert abs(turns - round(turns)) < 1e-6


@settings(max_examples=300)
@given(st.one_of(st.floats(-1e6, 1e6), st.floats(-1e-20, 0.0),
                 st.sampled_from([-1e-20, -0.0, TWO_PI, -TWO_PI])),
       st.integers(1, 16))
def test_a_scalar_phase_is_entry_zero_of_its_array(theta, bits):
    # a scalar and an array take one path; the scalar comes back as a float
    # or an int with the bits of the one-element array's entry
    wrapped = wrap_phase(theta)
    assert type(wrapped) is float
    assert np.float64(wrapped).tobytes() == wrap_phase(np.array([theta]))[0].tobytes()
    index = phase_index(theta, bits)
    assert type(index) is int
    assert index == phase_index(np.array([theta]), bits)[0]


def _sector_membership_oracle(theta, bits):
    """Brute-force scan of the half-open sector intervals.

    Sector k covers ((2k-1)pi/2^q, (2k+1)pi/2^q]; sector 0 wraps around
    zero.  Exactly one sector contains any angle.
    """
    wrapped = wrap_phase(theta)
    sectors = 1 << bits
    half = np.pi / sectors
    hits = []
    for k in range(sectors):
        center = TWO_PI * k / sectors
        lo, hi = center - half, center + half
        if lo < wrapped <= hi:
            hits.append(k)
        # sector 0 also covers the wrap-around stretch (2*pi - half, 2*pi]
        if k == 0 and TWO_PI - half < wrapped <= TWO_PI:
            hits.append(0)
    assert len(hits) == 1, (theta, bits, hits)
    return hits[0]


def test_phase_quantize_examples():
    index, angle = uniform_phase_quantize(np.pi / 3, 2)
    assert (index, angle) == (1, np.pi / 2)
    for bits in (1, 3, 8):
        assert uniform_phase_quantize(0.0, bits) == (0, 0.0)
    # exact upper boundary of sector 0 stays in sector 0
    assert uniform_phase_quantize(np.pi / 4, 2) == (0, 0.0)
    with pytest.raises(ValueError):
        uniform_phase_quantize(0.1, 0)


@settings(max_examples=300)
@given(st.floats(-20.0, 20.0), st.integers(1, 8))
def test_phase_quantize_matches_interval_oracle(theta, bits):
    index, angle = uniform_phase_quantize(theta, bits)
    assert index == _sector_membership_oracle(theta, bits)
    assert angle == TWO_PI * index / (1 << bits)


def test_phase_quantize_sector_zero_boundary_exact():
    # pi / 2**bits is the only boundary that is exact in floats (the power
    # of two scaling cancels); the upper-inclusive rule must keep it in
    # sector 0 for every width
    for bits in range(1, 12):
        upper = np.pi / (1 << bits)
        assert uniform_phase_quantize(upper, bits) == (0, 0.0), bits
        index, _ = uniform_phase_quantize(upper * (1.0 + 1e-9), bits)
        assert index == 1, bits


# ---------------------------------------------------------------------------
# U-PQ
# ---------------------------------------------------------------------------

def test_upq_example():
    out = relay_symbols(np.array([1 + 0j, 1j]), spec_upq(2))
    expected = np.array([1.0, 1j]) / math.sqrt(2)
    np.testing.assert_allclose(out, expected, atol=1e-15)


def test_upq_unit_power_random():
    rng = np.random.default_rng(1)
    y = rng.standard_normal((500, 4)) + 1j * rng.standard_normal((500, 4))
    out = relay_symbols(y, spec_upq(3))
    np.testing.assert_array_less(
        np.abs(np.sum(np.abs(out) ** 2, axis=-1) - 1.0), 1e-12
    )


def test_upq_fixed_points():
    # inputs already at sector centers keep their phases
    bits = 3
    centers = TWO_PI * np.arange(1 << bits) / (1 << bits)
    y = 2.5 * np.exp(1j * centers)
    out = relay_symbols(y, spec_upq(bits))
    np.testing.assert_allclose(np.angle(out), np.angle(y), atol=1e-12)


def test_upq_rejects_empty():
    with pytest.raises(ValueError):
        relay_symbols(np.array([], dtype=complex), spec_upq(2))


# ---------------------------------------------------------------------------
# Uniform amplitude quantization
# ---------------------------------------------------------------------------

def _bin_center_oracle(value, bits):
    """Scan all bins [j/2^b, (j+1)/2^b) for the one containing value."""
    edges = [j / (1 << bits) for j in range((1 << bits) + 1)]
    if value == 1.0:
        return ((1 << bits) - 0.5) / (1 << bits)
    for j in range(1 << bits):
        if edges[j] <= value < edges[j + 1]:
            return (j + 0.5) / (1 << bits)
    raise AssertionError(f"no bin for {value}")


def test_uniform_amplitude_examples():
    assert uniform_amplitude_quantize(0.49, 1) == 0.25
    assert uniform_amplitude_quantize(1.0, 2) == 0.875
    out = uniform_amplitude_quantize(np.full(5, 0.3), 3)
    assert np.all(out == out[0])


@settings(max_examples=300)
@given(st.floats(1e-9, 1.0), st.integers(1, 10))
def test_uniform_amplitude_matches_bin_oracle(value, bits):
    assert uniform_amplitude_quantize(value, bits) == _bin_center_oracle(value, bits)


def test_uniform_amplitude_rejects_out_of_domain():
    for bad in (0.0, -0.1, 1.0000001, np.nan):
        with pytest.raises(ValueError):
            uniform_amplitude_quantize(bad, 2)
    with pytest.raises(ValueError):
        amplitude_bin(0.5, 0)


# ---------------------------------------------------------------------------
# U-APQ
# ---------------------------------------------------------------------------

def test_uapq_hand_example():
    # amplitudes (2, 1)/sqrt(5) fall in 4-bit bins 14 and 7
    y = np.array([2 + 0j, 1j])
    out = relay_symbols(y, spec_uapq(8, 4))
    centers = np.array([14.5 / 16, 7.5 / 16])
    gains = centers / math.hypot(*centers)
    expected = gains * np.array([1.0, 1j])
    np.testing.assert_allclose(out, expected, atol=1e-15)


def test_uapq_equal_amplitudes():
    # bit-identical amplitudes land in one bin, so renormalization forces
    # every gain to 1/sqrt(N_R)
    y = 3.7 * np.array([1.0, 1j, -1.0, -1j])
    out = relay_symbols(y, spec_uapq(6, 3))
    np.testing.assert_allclose(np.abs(out), 0.5, atol=1e-12)


def test_uapq_unit_power_random():
    rng = np.random.default_rng(2)
    y = rng.standard_normal((500, 8)) + 1j * rng.standard_normal((500, 8))
    out = relay_symbols(y, spec_uapq(8, 4))
    np.testing.assert_array_less(
        np.abs(np.sum(np.abs(out) ** 2, axis=-1) - 1.0), 1e-12
    )


def test_uapq_rejects_zero_vector():
    with pytest.raises(ValueError):
        relay_symbols(np.zeros(4, dtype=complex), spec_uapq(8, 4))
    with pytest.raises(ValueError):
        relay_symbols(np.ones(4, dtype=complex), spec_uapq(4, 4))


# ---------------------------------------------------------------------------
# Level sets
# ---------------------------------------------------------------------------

def test_level_set_examples():
    ls = build_level_set(4, 2, 2)
    assert ls.num_levels == 2
    assert ls.spacing == 1.0 / math.sqrt(10)
    np.testing.assert_allclose(ls.levels, [1 / math.sqrt(10), 2 / math.sqrt(10)])

    ls = build_level_set(4, 4, 2)
    assert ls.num_levels == 1
    np.testing.assert_allclose(ls.levels, [0.5])

    ls = build_level_set(4, 1, 2)
    assert ls.num_levels == 4
    assert ls.spacing == 1.0 / math.sqrt(30)
    np.testing.assert_allclose(ls.levels, np.arange(1, 5) / math.sqrt(30))


def test_level_set_power_identity_exhaustive():
    for n_antennas in range(1, 33):
        for group_size in range(1, n_antennas + 1):
            for exponent in (1, 2, 3, 4):
                ls = build_level_set(n_antennas, group_size, exponent)
                last = n_antennas - (ls.num_levels - 1) * group_size
                power = group_size * np.sum(ls.levels[:-1] ** 2) + last * ls.levels[-1] ** 2
                assert abs(power - 1.0) < 1e-12, (n_antennas, group_size, exponent)


def test_level_set_rejects_bad_group():
    for bad in (0, 5, -1):
        with pytest.raises(ValueError):
            build_level_set(4, bad)


def _closed_form_level_set(n_antennas, group_size, exponent):
    """Levels and spacing from K = ceil(n/m), m antennas per lower level."""
    num_levels = -(-n_antennas // group_size)
    last = n_antennas - (num_levels - 1) * group_size
    weight = group_size * sum(k**exponent for k in range(1, num_levels))
    weight += last * num_levels**exponent
    spacing = 1.0 / math.sqrt(weight)
    return spacing * np.arange(1, num_levels + 1, dtype=float) ** (0.5 * exponent), spacing


def test_grouping_read_from_the_multiset_is_bitwise_the_closed_form():
    for n_antennas in range(1, 65):
        for group_size in range(1, n_antennas + 1):
            pool = oaq_level_multiset(n_antennas, group_size)
            # ascending amplitudes: antenna i takes the level of rank i
            amps = np.arange(1.0, n_antennas + 1)
            _, levels = ordered_amplitude_quantize(amps, build_level_set(n_antennas, group_size))
            assert levels.tolist() == list(pool)
            num_levels = -(-n_antennas // group_size)
            count = math.prod(
                math.comb(n_antennas - k * group_size, group_size) for k in range(num_levels - 1)
            )
            assert oaq_codeword_count(n_antennas, group_size) == count
            for exponent in (1, 2, 3, 4):
                ls = build_level_set(n_antennas, group_size, exponent)
                levels, spacing = _closed_form_level_set(n_antennas, group_size, exponent)
                assert ls.num_levels == num_levels
                assert ls.spacing == spacing
                assert ls.levels.tobytes() == levels.tobytes()


@pytest.mark.parametrize("n_antennas,group_size",
                         [(0, 1), (4, 0), (4, 5), (4, True), (4, 2.0), (-1, 1), (True, 1)])
def test_invalid_groupings_raise_value_error(n_antennas, group_size):
    # the valid groupings sharing a cache key by equality are built first
    for n, m in ((4, 1), (4, 2), (1, 1)):
        build_level_set(n, m)
    with pytest.raises(ValueError):
        oaq_level_multiset(n_antennas, group_size)
    with pytest.raises(ValueError):
        check_oaq_assignment((1, 1, 2, 2), n_antennas, group_size)
    with pytest.raises(ValueError):
        oaq_codeword_count(n_antennas, group_size)
    with pytest.raises(ValueError):
        build_level_set(n_antennas, group_size)


# ---------------------------------------------------------------------------
# Ordered amplitude quantization
# ---------------------------------------------------------------------------

def _assignment_oracle(amps, group_size):
    """The unique valid assignment consistent with the tie-broken ordering.

    Enumerates every multiset permutation of the level pool and keeps the
    one where (amplitude, antenna index) order never decreases a level.
    """
    n = len(amps)
    num_levels = -(-n // group_size)
    pool = []
    for level in range(1, num_levels):
        pool.extend([level] * group_size)
    pool.extend([num_levels] * (n - (num_levels - 1) * group_size))
    valid = []
    for perm in set(itertools.permutations(pool)):
        ok = True
        for i in range(n):
            for j in range(n):
                if (amps[i], i) < (amps[j], j) and perm[i] > perm[j]:
                    ok = False
        if ok:
            valid.append(perm)
    assert len(valid) == 1, valid
    return valid[0]


def test_oaq_example():
    ls = build_level_set(4, 2, 2)
    gains, assignment = ordered_amplitude_quantize([0.3, 1.2, 0.7, 2.0], ls)
    assert tuple(assignment) == (1, 2, 1, 2)
    np.testing.assert_allclose(
        gains,
        np.array([1, 2, 1, 2]) / math.sqrt(10),
    )
    assert tuple(assignment) == _assignment_oracle([0.3, 1.2, 0.7, 2.0], 2)


def test_oaq_matches_enumeration_oracle():
    rng = np.random.default_rng(3)
    for _ in range(40):
        n = int(rng.integers(2, 7))
        group_size = int(rng.integers(1, n + 1))
        amps = rng.integers(0, 4, size=n).astype(float)  # coarse values force ties
        ls = build_level_set(n, group_size, 2)
        _, assignment = ordered_amplitude_quantize(amps, ls)
        assert tuple(assignment) == _assignment_oracle(list(amps), group_size)


def test_oaq_tie_break_by_index():
    ls = build_level_set(4, 2, 2)
    _, assignment = ordered_amplitude_quantize([1.0, 1.0, 1.0, 1.0], ls)
    assert tuple(assignment) == (1, 1, 2, 2)


def test_oaq_single_level():
    ls = build_level_set(4, 4, 2)
    gains, assignment = ordered_amplitude_quantize([0.1, 5.0, 2.0, 0.4], ls)
    assert tuple(assignment) == (1, 1, 1, 1)
    np.testing.assert_allclose(gains, 0.5)


def test_oaq_unit_power():
    rng = np.random.default_rng(4)
    for group_size in (1, 2, 3, 5):
        ls = build_level_set(5, group_size, 2)
        amps = rng.random((200, 5)) * 3
        gains, _ = ordered_amplitude_quantize(amps, ls)
        np.testing.assert_array_less(
            np.abs(np.sum(gains**2, axis=-1) - 1.0), 1e-12
        )


@settings(max_examples=200)
@given(
    st.lists(st.floats(0.0, 10.0), min_size=2, max_size=8),
    st.integers(1, 8),
)
def test_oaq_monotone_in_amplitude(amps, group_size):
    n = len(amps)
    group_size = 1 + group_size % n
    ls = build_level_set(n, group_size, 2)
    _, assignment = ordered_amplitude_quantize(amps, ls)
    for i in range(n):
        for j in range(n):
            if amps[i] > amps[j]:
                assert assignment[i] >= assignment[j]
            elif amps[i] == amps[j] and i < j:
                assert assignment[i] <= assignment[j]


def test_oaq_permutation_invariance():
    rng = np.random.default_rng(5)
    ls = build_level_set(6, 2, 2)
    amps = rng.permutation(np.linspace(0.2, 3.0, 6))  # distinct
    _, base = ordered_amplitude_quantize(amps, ls)
    for _ in range(10):
        perm = rng.permutation(6)
        _, permuted = ordered_amplitude_quantize(amps[perm], ls)
        assert np.array_equal(np.asarray(base)[perm], permuted)


def test_oaq_rank_paths_agree():
    # pairwise counting (small n) and argsort (large n) are interchangeable
    rng = np.random.default_rng(6)
    for n in (2, 4, 8, 12, 16):
        amps = rng.integers(0, 3, size=(100, n)).astype(float)
        small_path = oaq_sort_ranks(amps)
        order = np.argsort(amps, axis=-1, kind="stable")
        ranks = np.empty_like(order)
        np.put_along_axis(
            ranks, order, np.broadcast_to(np.arange(n), order.shape), axis=-1
        )
        assert np.array_equal(small_path, ranks)


def test_oaq_rejects_bad_input():
    ls = build_level_set(4, 2, 2)
    with pytest.raises(ValueError):
        ordered_amplitude_quantize([0.1, 0.2, 0.3], ls)  # length mismatch
    with pytest.raises(ValueError):
        ordered_amplitude_quantize([0.1, -0.2, 0.3, 0.4], ls)


@pytest.mark.parametrize("n", [4, 9])
def test_nan_amplitudes_never_reach_the_rank_kernel(n):
    # oaq_sort_ranks ranks NaN differently on its n <= 8 and n > 8 paths,
    # so every public entry point must reject NaN before ranking
    amps = np.linspace(0.1, 0.9, n)
    amps[1] = np.nan
    y = amps.astype(complex)
    spec = spec_hapq(m=2)
    with pytest.raises(ValueError):
        ordered_amplitude_quantize(amps, build_level_set(n, 2, 2))
    with pytest.raises(ValueError):
        relay_state(y, spec)
    with pytest.raises(ValueError):
        relay_symbols(y, spec)


# every relay entry point, run on one vector or (batch=True) on a relay batch
_ENTRIES = {
    "relay_symbols-AF": (lambda y: relay_symbols(y, QuantizerSpec(AF)), True),
    "relay_symbols-UPQ": (lambda y: relay_symbols(y, spec_upq()), True),
    "relay_symbols-UAPQ": (lambda y: relay_symbols(y, spec_uapq()), True),
    "relay_symbols-HAPQ": (lambda y: relay_symbols(y, spec_hapq()), True),
    "relay_state-UPQ": (lambda y: relay_state(y, spec_upq()), False),
    "relay_state-UAPQ": (lambda y: relay_state(y, spec_uapq()), False),
    "relay_state-HAPQ": (lambda y: relay_state(y, spec_hapq()), False),
    # each kind again at its widest bit budget (AF has none), H-APQ above
    # the gain-phasor table bound and rebuilt from its state
    "upq_relay_symbols": (lambda y: relay_symbols(y, spec_upq(16)), True),
    "uapq_relay_symbols": (lambda y: relay_symbols(y, spec_uapq(16, 15)), True),
    "hapq_relay_symbols": (
        lambda y: relay_symbols_from_state(relay_state(y, spec_hapq(qbar=16, m=1))), False),
    "af_relay_symbols": (lambda y: relay_symbols(y, QuantizerSpec(AF)), True),
}
_NON_FINITE = {
    "nan": np.nan,
    "inf": np.inf,
    "-inf": -np.inf,
    "nan+0j": complex(np.nan, 0),
    "0+infj": complex(0, np.inf),
}


@pytest.mark.parametrize("bad", _NON_FINITE.values(), ids=list(_NON_FINITE))
@pytest.mark.parametrize("entry", _ENTRIES.values(), ids=list(_ENTRIES))
def test_non_finite_input_is_rejected_at_the_entry(entry, bad):
    quantize, batched = entry
    good = np.array([0.3 + 0.1j, 1.0, -0.5j, 0.7 - 0.2j])
    y = good.copy()
    y[1] = bad
    with pytest.raises(ValueError, match="^received vector must be finite$"):
        quantize(y)
    if batched:
        with pytest.raises(ValueError, match="^received vector must be finite$"):
            quantize(np.stack([good, good, y]))
    quantize(good)


def test_wrapper_bit_budgets_take_the_spec_bounds():
    # a 2**17-entry table and an overflowing shift are refused, not built
    y = np.array([1 + 1j, 2 - 1j])
    for bits in (17, 64):
        with pytest.raises(ValueError, match=f"^q must be at most 16, got {bits}$"):
            relay_symbols(y, spec_upq(bits))
        with pytest.raises(ValueError, match=f"^qbar must be at most 16, got {bits}$"):
            relay_symbols(y, spec_hapq(qbar=bits, m=1))
    for total_bits, phase_bits in ((40, 20), (17, 4)):
        with pytest.raises(ValueError, match="must be at most 16"):
            relay_symbols(y, spec_uapq(total_bits, phase_bits))
    assert relay_symbols(y, spec_upq(16)).shape == (2,)
    assert relay_symbols(y, spec_uapq(16, 15)).shape == (2,)


def test_uapq_rejects_a_zero_amplitude():
    # a zero entry normalizes to 0, outside the (0, 1] the bins cover
    y = np.array([1 + 0j, 0j])
    message = r"^normalized amplitudes must lie in \(0, 1\]$"
    with pytest.raises(ValueError, match=message):
        relay_symbols(y, spec_uapq())
    with pytest.raises(ValueError, match=message):
        relay_state(y, spec_uapq())
    with pytest.raises(ValueError, match=message):
        relay_symbols(np.stack([np.ones(2), y]), spec_uapq(8, 4))


# ---------------------------------------------------------------------------
# H-APQ
# ---------------------------------------------------------------------------

def test_hapq_hand_trace():
    y = np.array([2 + 0j, 0 + 1j, -1 + 0j, 0 - 3j])
    state = relay_state(y, spec_hapq(qbar=2, m=2, n=2))
    symbols = relay_symbols_from_state(state)
    assert state.phase_indices == (0, 1, 2, 3)
    assert state.amplitude_assignment == (2, 1, 1, 2)
    delta = 1 / math.sqrt(10)
    expected = np.array([2 * delta, 1j * delta, -delta, -2j * delta])
    np.testing.assert_allclose(symbols, expected, atol=1e-15)


def test_hapq_group_of_all_equals_upq():
    rng = np.random.default_rng(7)
    for n_antennas in (1, 2, 4, 8):
        y = rng.standard_normal((200, n_antennas)) + 1j * rng.standard_normal(
            (200, n_antennas)
        )
        via_hapq = relay_symbols(y, spec_hapq(qbar=4, m=n_antennas))
        via_upq = relay_symbols(y, spec_upq(4))
        assert np.array_equal(via_hapq, via_upq)  # bitwise


def test_hapq_unit_power():
    rng = np.random.default_rng(8)
    y = rng.standard_normal((300, 6)) + 1j * rng.standard_normal((300, 6))
    for m in (1, 2, 3, 6):
        out = relay_symbols(y, spec_hapq(qbar=3, m=m))
        np.testing.assert_array_less(
            np.abs(np.sum(np.abs(out) ** 2, axis=-1) - 1.0), 1e-12
        )


# ---------------------------------------------------------------------------
# AF
# ---------------------------------------------------------------------------

def test_af_examples():
    np.testing.assert_allclose(relay_symbols([3 + 4j], QuantizerSpec(AF)), [0.6 + 0.8j])
    unit = np.array([0.6, 0.8j])
    np.testing.assert_allclose(relay_symbols(unit, QuantizerSpec(AF)), unit, atol=1e-15)
    rng = np.random.default_rng(9)
    y = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    out = relay_symbols(y, QuantizerSpec(AF))
    np.testing.assert_allclose(np.angle(out), np.angle(y), atol=1e-12)
    with pytest.raises(ValueError):
        relay_symbols(np.zeros(3, dtype=complex), QuantizerSpec(AF))


# ---------------------------------------------------------------------------
# Extreme finite magnitudes: the norm of AF and U-APQ
# ---------------------------------------------------------------------------

MAGNITUDES = (1e-300, 1e-250, 1e-200, 1e-160, 1e-154, 1e-100, 1.0, 1e100, 1e154, 1e200,
              1e250, 1e300)


@pytest.mark.parametrize("spec", [QuantizerSpec(AF), spec_uapq()], ids=["AF", "U-APQ"])
@pytest.mark.parametrize("scale", MAGNITUDES)
def test_unit_power_across_finite_magnitudes(spec, scale):
    # the squares of these amplitudes overflow or underflow from about
    # 1e+-154 on; the norm rescales those rows by a power of two
    rng = np.random.default_rng(12)
    y = (rng.standard_normal((50, 8)) + 1j * rng.standard_normal((50, 8))) * scale
    out = relay_symbols(y, spec)
    power = np.sum(np.abs(out) ** 2, axis=-1)
    np.testing.assert_array_less(np.abs(power - 1.0), 1e-12)
    # one vector goes through the same path as the batch
    assert np.array_equal(relay_symbols(y[3], spec), out[3])


def test_norm_rescaling_keeps_normal_rows_and_scales_exactly():
    from qfrelay.quantizers import CandidateBasis

    rng = np.random.default_rng(13)
    y = rng.standard_normal((6, 4)) + 1j * rng.standard_normal((6, 4))
    plain = CandidateBasis(y).norms()
    mixed = y.copy()
    mixed[1] *= 2.0**600  # squares overflow
    mixed[4] *= 2.0**-600  # squares underflow
    norms = CandidateBasis(mixed).norms()
    assert np.array_equal(norms[[0, 2, 3, 5]], plain[[0, 2, 3, 5]])
    assert norms[1] == np.ldexp(plain[1], 600)
    assert norms[4] == np.ldexp(plain[4], -600)
    for bad in (np.full(4, 1e308), np.full(4, 1e-320)):
        with pytest.raises(ValueError, match="norm lies outside"):
            relay_symbols(bad, QuantizerSpec(AF))


# ---------------------------------------------------------------------------
# The bounded H-APQ gain-phasor table
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("spec", [spec_hapq(qbar=2, m=1), spec_hapq(qbar=4, m=2),
                                  spec_hapq(qbar=8, m=3, n=4), spec_hapq(qbar=10, m=1, n=1)])
def test_hapq_entries_without_the_table_equal_the_table(spec, monkeypatch):
    from qfrelay import quantizers

    rng = np.random.default_rng(14)
    y = rng.standard_normal((40, 6)) + 1j * rng.standard_normal((40, 6))
    monkeypatch.setattr(quantizers, "_HAPQ_TABLE_ENTRIES", 1 << 20)
    table = relay_symbols(y, spec)
    monkeypatch.setattr(quantizers, "_HAPQ_TABLE_ENTRIES", 0)
    assert relay_symbols(y, spec).tobytes() == table.tobytes()


def test_hapq_relay_symbols_of_a_wide_budget_stay_small():
    # a (32 levels, 2**16) table would be 32 MiB; the entries are computed
    import tracemalloc

    from qfrelay.quantizers import _hapq_tables

    rng = np.random.default_rng(15)
    y = rng.standard_normal(32) + 1j * rng.standard_normal(32)
    spec = spec_hapq(qbar=16, m=1)
    _hapq_tables.cache_clear()
    tracemalloc.start()
    try:
        out = relay_symbols(y, spec)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 << 20
    assert _hapq_tables.cache_info().currsize == 0
    state = relay_state(y, spec)
    assert np.array_equal(out, relay_symbols_from_state(state))


# ---------------------------------------------------------------------------
# State capture and reconstruction
# ---------------------------------------------------------------------------

def test_state_reconstruction_is_bitwise():
    rng = np.random.default_rng(10)
    specs = [spec_upq(), spec_uapq(), spec_hapq(), spec_hapq(m=1, n=3)]
    for spec in specs:
        for _ in range(50):
            y = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            state = relay_state(y, spec)
            direct = relay_symbols(y, spec)
            assert np.array_equal(relay_symbols_from_state(state), direct)


def _decode(y, spec):
    # quantize, store and pack a relay state, then unpack and rebuild it, as a
    # relay does with a container whose spec and N_R come from its header
    from qfrelay.bitcodec import (
        decode_relay_state,
        encode_relay_state,
        pack_container,
        unpack_container,
    )

    data = pack_container(encode_relay_state(relay_state(y, spec)))
    return relay_symbols_from_state(decode_relay_state(unpack_container(data)))


def test_hapq_decode_builds_no_gain_phasor_table():
    # a decoded spec above the table bound rebuilds without a table, so a
    # container header cannot make the decoder build one of any size
    from qfrelay.quantizers import _hapq_tables

    spec = spec_hapq(qbar=16, m=1)
    y = np.array([1 + 2j, -0.5j, 3.0, -1 - 1j])
    _hapq_tables.cache_clear()
    decoded = _decode(y, spec)
    rebuilt = relay_symbols_from_state(relay_state(y, spec))
    assert _hapq_tables.cache_info().currsize == 0
    assert np.array_equal(decoded, relay_symbols(y, spec))
    assert np.array_equal(rebuilt, decoded)


def test_hapq_decode_keeps_the_table_cache_bounded(monkeypatch):
    # decoding small specs rebuilds through the candidate path's table cache,
    # which is bounded: however many small (spec, N_R) pairs it decodes, the
    # cache holds at most 64 tables of at most 4096 entries
    from qfrelay import quantizers

    tables = quantizers._hapq_tables
    sizes = []  # entries of every table the cache hands out

    def spy(*key):
        table = tables(*key)
        sizes.append(table.size)
        return table

    monkeypatch.setattr(quantizers, "_hapq_tables", spy)

    rng = np.random.default_rng(16)
    pairs = [(spec_hapq(qbar=qbar, m=m, n=n), n_r) for n_r in (2, 3, 4, 5)
             for qbar in (1, 2, 3, 4) for m in (1, 2) for n in (1, 2, 3)]
    tables.cache_clear()
    for spec, n_r in pairs:
        y = rng.standard_normal(n_r) + 1j * rng.standard_normal(n_r)
        calls = len(sizes)
        decoded = _decode(y, spec)
        assert len(sizes) == calls + 1  # the decode took its table
        assert decoded.tobytes() == relay_symbols(y, spec).tobytes(), (spec.label(), n_r)
    info = tables.cache_info()
    assert info.misses == len(pairs) > 64
    assert info.currsize <= 64
    assert max(sizes) <= quantizers._HAPQ_TABLE_ENTRIES


def test_state_validation():
    with pytest.raises(ValueError):
        relay_state(np.ones(4, dtype=complex), QuantizerSpec(AF))
    from qfrelay.quantizers import RelayState

    with pytest.raises(ValueError):
        RelayState(spec=spec_upq(q=2), phase_indices=(4, 0, 0, 0))  # index too wide
    for indices in ((-1, 0, 0, 0), (2**70, 0, 0, 0)):
        with pytest.raises(ValueError, match="^phase index out of range$"):
            RelayState(spec=spec_upq(q=2), phase_indices=indices)
    with pytest.raises(ValueError, match="^amplitude bin out of range$"):
        RelayState(spec=spec_uapq(q=4, qbar=2), phase_indices=(0, 1), amplitude_bins=(-1, 3))
    # a float index or bin is refused, not truncated on decode
    for indices in ((1.5, 0.0, 3, 2), (1.0, 0, 3, 2)):
        with pytest.raises(TypeError):
            RelayState(spec=spec_upq(q=2), phase_indices=indices)
    with pytest.raises(TypeError):
        RelayState(spec=spec_uapq(q=4, qbar=2), phase_indices=(0, 1), amplitude_bins=(0.5, 3.9))
    with pytest.raises(TypeError):
        RelayState(spec=spec_uapq(q=4, qbar=2), phase_indices=np.array([0.0, 1.0]),
                   amplitude_bins=(0, 3))
    # a bytes object holds its byte values, one entry per antenna
    assert RelayState(spec=spec_upq(q=2), phase_indices=b"\x00\x03\x01\x02").n_antennas == 4
    with pytest.raises(ValueError, match="^phase index out of range$"):
        RelayState(spec=spec_upq(q=2), phase_indices=b"\x00\x04\x01\x02")
    with pytest.raises(ValueError):
        RelayState(
            spec=spec_hapq(m=2),
            phase_indices=(0, 0, 0, 0),
            amplitude_assignment=(1, 1, 1, 2),  # multiplicity violated
        )
    with pytest.raises(TypeError):
        RelayState(
            spec=spec_hapq(m=2),
            phase_indices=(0, 0, 0, 0),
            amplitude_assignment=(True, True, 2, 2),  # a bool is not a level
        )


# ---------------------------------------------------------------------------
# Bit accounting
# ---------------------------------------------------------------------------

def _count_assignments_brute_force(n_antennas, group_size):
    num_levels = -(-n_antennas // group_size)
    pool = []
    for level in range(1, num_levels):
        pool.extend([level] * group_size)
    pool.extend([num_levels] * (n_antennas - (num_levels - 1) * group_size))
    return len(set(itertools.permutations(pool)))


def test_codeword_count_examples():
    assert oaq_codeword_count(4, 2) == 6
    assert oaq_codeword_count(8, 2) == 2520
    for n in (1, 3, 7, 16):
        assert oaq_codeword_count(n, n) == 1


def test_codeword_count_matches_enumeration():
    for n_antennas in range(1, 9):
        for group_size in range(1, n_antennas + 1):
            assert oaq_codeword_count(n_antennas, group_size) == (
                _count_assignments_brute_force(n_antennas, group_size)
            ), (n_antennas, group_size)


def test_codeword_count_big_values_exact():
    # far beyond 64-bit range; native integers keep this exact
    count = oaq_codeword_count(32, 1)
    assert count == math.factorial(32)
    assert count.bit_length() == 118


def test_quantizer_bits_known_savings():
    hapq = spec_hapq(qbar=4, m=2)
    assert [quantizer_bits(hapq, n) for n in (4, 8, 16)] == [19, 44, 101]
    assert quantizer_bits(spec_upq(q=8), 4) == 32
    assert [quantizer_bits(spec_uapq(), n) for n in (4, 8, 16)] == [32, 64, 128]


def test_quantizer_bits_monotone_in_group_size():
    for n_antennas in (2, 4, 8, 16, 32):
        bits = [
            quantizer_bits(spec_hapq(qbar=4, m=m), n_antennas)
            for m in range(1, n_antennas + 1)
        ]
        assert all(b1 >= b2 for b1, b2 in zip(bits, bits[1:])), (n_antennas, bits)


def test_quantizer_bits_rejects_af():
    with pytest.raises(ValueError):
        quantizer_bits(QuantizerSpec(AF), 4)
