"""Rank coding and payload serialization against enumeration oracles."""

import itertools
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qfrelay.bitcodec import (
    EncodedRelayState,
    decode_relay_state,
    encode_relay_state,
    pack_container,
    rank_assignment,
    unpack_container,
    unrank_assignment,
)
from qfrelay.quantizers import (
    HAPQ,
    UAPQ,
    UPQ,
    QuantizerSpec,
    RelayState,
    oaq_codeword_count,
    quantizer_bits,
)


def _all_assignments(n_antennas, group_size):
    """Every valid assignment, lexicographically sorted."""
    num_levels = -(-n_antennas // group_size)
    pool = []
    for level in range(1, num_levels):
        pool.extend([level] * group_size)
    pool.extend([num_levels] * (n_antennas - (num_levels - 1) * group_size))
    return sorted(set(itertools.permutations(pool)))


# ---------------------------------------------------------------------------
# Rank / unrank
# ---------------------------------------------------------------------------

def test_rank_examples():
    ordered = _all_assignments(4, 2)
    assert ordered[0] == (1, 1, 2, 2)
    assert ordered[5] == (2, 2, 1, 1)
    assert rank_assignment((1, 1, 2, 2), 4, 2) == 0
    assert unrank_assignment(0, 4, 2) == (1, 1, 2, 2)
    assert unrank_assignment(5, 4, 2) == (2, 2, 1, 1)
    for n in (1, 2, 5):
        assert rank_assignment((1,) * n, n, n) == 0


def test_rank_matches_lexicographic_enumeration():
    for n_antennas in range(1, 9):
        for group_size in range(1, n_antennas + 1):
            ordered = _all_assignments(n_antennas, group_size)
            assert len(ordered) == oaq_codeword_count(n_antennas, group_size)
            for expected_rank, assignment in enumerate(ordered):
                assert rank_assignment(assignment, n_antennas, group_size) == expected_rank
                assert unrank_assignment(expected_rank, n_antennas, group_size) == assignment


def test_rank_rejects_bad_input():
    with pytest.raises(ValueError):
        rank_assignment((1, 1, 1, 2), 4, 2)  # bad multiplicities
    with pytest.raises(ValueError):
        rank_assignment((1, 1, 2), 4, 2)  # wrong length
    with pytest.raises(TypeError):
        rank_assignment((1.0, 1.0, 2.0, 2.0), 4, 2)  # levels must be integers
    with pytest.raises(TypeError):
        rank_assignment((True, True, 2, 2), 4, 2)  # a bool is not a level
    with pytest.raises(ValueError):
        unrank_assignment(6, 4, 2)  # out of range
    with pytest.raises(ValueError):
        unrank_assignment(-1, 4, 2)


def test_rank_big_array_roundtrip():
    # rank values beyond 64 bits must survive the round trip
    rng = np.random.default_rng(0)
    n_antennas, group_size = 32, 1
    for _ in range(20):
        assignment = tuple(int(v) for v in rng.permutation(n_antennas) + 1)
        rank = rank_assignment(assignment, n_antennas, group_size)
        assert unrank_assignment(rank, n_antennas, group_size) == assignment
    total = oaq_codeword_count(n_antennas, group_size)
    assert rank_assignment(tuple(range(n_antennas, 0, -1)), n_antennas, group_size) == total - 1


# ---------------------------------------------------------------------------
# Random states for the codec
# ---------------------------------------------------------------------------

def _random_state(spec, n_antennas, rng):
    phase_width = spec.total_bits if spec.kind == UPQ else spec.phase_bits
    indices = tuple(int(v) for v in rng.integers(0, 1 << phase_width, n_antennas))
    if spec.kind == UPQ:
        return RelayState(spec=spec, phase_indices=indices)
    if spec.kind == UAPQ:
        bins = tuple(
            int(v) for v in rng.integers(0, 1 << spec.amplitude_bits, n_antennas)
        )
        return RelayState(spec=spec, phase_indices=indices, amplitude_bins=bins)
    total = oaq_codeword_count(n_antennas, spec.group_size)
    assignment = unrank_assignment(int(rng.integers(total)), n_antennas, spec.group_size)
    return RelayState(spec=spec, phase_indices=indices, amplitude_assignment=assignment)


def _spec_grid(n_antennas):
    specs = [
        QuantizerSpec(UPQ, total_bits=8),
        QuantizerSpec(UAPQ, total_bits=8, phase_bits=4),
        QuantizerSpec(UAPQ, total_bits=5, phase_bits=2),
    ]
    for m in {1, 2, n_antennas}:
        if m <= n_antennas:
            specs.append(QuantizerSpec(HAPQ, phase_bits=4, group_size=m))
    return specs


def test_encode_lengths_match_bit_accounting():
    rng = np.random.default_rng(1)
    hapq = QuantizerSpec(HAPQ, phase_bits=4, group_size=2)
    assert len(encode_relay_state(_random_state(hapq, 4, rng)).payload) == 19
    upq = QuantizerSpec(UPQ, total_bits=8)
    assert len(encode_relay_state(_random_state(upq, 8, rng)).payload) == 64


def test_codec_roundtrip_randomized():
    rng = np.random.default_rng(2)
    for n_antennas in (1, 2, 4, 7, 16):
        for spec in _spec_grid(n_antennas):
            for _ in range(100):
                state = _random_state(spec, n_antennas, rng)
                encoded = encode_relay_state(state)
                assert len(encoded.payload) == quantizer_bits(spec, n_antennas)
                assert decode_relay_state(encoded) == state


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**31), st.integers(2, 10), st.integers(1, 10), st.integers(1, 4))
def test_codec_roundtrip_property(entropy, n_antennas, group_size, phase_bits):
    group_size = 1 + group_size % n_antennas
    spec = QuantizerSpec(HAPQ, phase_bits=phase_bits, group_size=group_size)
    state = _random_state(spec, n_antennas, np.random.default_rng(entropy))
    assert decode_relay_state(encode_relay_state(state)) == state


def test_all_zero_payload_decodes_to_ground_state():
    spec = QuantizerSpec(HAPQ, phase_bits=4, group_size=2)
    n_bits = quantizer_bits(spec, 4)
    encoded = EncodedRelayState(spec=spec, n_antennas=4, payload=(0,) * n_bits)
    state = decode_relay_state(encoded)
    assert state.phase_indices == (0, 0, 0, 0)
    assert state.amplitude_assignment == unrank_assignment(0, 4, 2)


def test_truncated_payload_rejected():
    spec = QuantizerSpec(UPQ, total_bits=8)
    with pytest.raises(ValueError):
        EncodedRelayState(spec=spec, n_antennas=4, payload=(0,) * 31)
    with pytest.raises(ValueError):
        EncodedRelayState(spec=spec, n_antennas=4, payload=(0,) * 31 + (2,))


def test_payload_entries_are_checked_one_by_one():
    spec = QuantizerSpec(UPQ, total_bits=8)
    bits = encode_relay_state(RelayState(spec=spec, phase_indices=(1, 2))).payload
    with pytest.raises(ValueError):
        EncodedRelayState(spec=spec, n_antennas=2, payload=16)  # an int, not 16 bits
    with pytest.raises(ValueError):
        # two int64 entries fill 16 bytes of memory but are 2 bits
        EncodedRelayState(spec=spec, n_antennas=2, payload=np.array([0, 1]))
    as_array = EncodedRelayState(spec=spec, n_antennas=2, payload=np.array(bits))
    assert decode_relay_state(as_array) == RelayState(spec=spec, phase_indices=(1, 2))


def test_hapq_of_full_group_has_no_rank_bits():
    spec = QuantizerSpec(HAPQ, phase_bits=3, group_size=4)
    state = RelayState(
        spec=spec, phase_indices=(1, 2, 3, 4), amplitude_assignment=(1, 1, 1, 1)
    )
    encoded = encode_relay_state(state)
    assert len(encoded.payload) == 12
    assert decode_relay_state(encoded) == state


# ---------------------------------------------------------------------------
# Byte container
# ---------------------------------------------------------------------------

def test_container_golden_hand_trace():
    spec = QuantizerSpec(HAPQ, phase_bits=2, group_size=2)
    state = RelayState(
        spec=spec, phase_indices=(0, 1, 2, 3), amplitude_assignment=(2, 1, 1, 2)
    )
    encoded = encode_relay_state(state)
    assert encoded.payload == (0, 0, 0, 1, 1, 0, 1, 1, 0, 1, 1)
    assert pack_container(encoded).hex() == "0304020202000b1b60"


def test_container_roundtrip():
    rng = np.random.default_rng(3)
    for n_antennas in (1, 3, 4, 9):
        for spec in _spec_grid(n_antennas):
            state = _random_state(spec, n_antennas, rng)
            encoded = encode_relay_state(state)
            again = unpack_container(pack_container(encoded))
            assert again == encoded
            assert decode_relay_state(again) == state


def test_container_rejects_malformed():
    spec = QuantizerSpec(UPQ, total_bits=2)
    state = RelayState(spec=spec, phase_indices=(1, 2))
    blob = pack_container(encode_relay_state(state))
    with pytest.raises(ValueError):
        unpack_container(blob[:-1])  # truncated payload
    with pytest.raises(ValueError):
        unpack_container(bytes([99]) + blob[1:])  # unknown tag
    with pytest.raises(ValueError):
        unpack_container(blob + b"\x00")  # trailing bytes
    corrupted = bytearray(blob)
    corrupted[-1] |= 0x01  # nonzero padding bit
    with pytest.raises(ValueError):
        unpack_container(bytes(corrupted))
    with pytest.raises(ValueError):
        unpack_container(blob[:1] + bytes([0]) + blob[2:])  # N_R of zero
    upq8 = QuantizerSpec(UPQ, total_bits=8)
    blob16 = pack_container(encode_relay_state(RelayState(spec=upq8, phase_indices=(1, 2))))
    assert blob16[3:5] == (16).to_bytes(2, "big")
    with pytest.raises(ValueError):
        # 15 bits fit the 2-byte body and its padding bit is zero, but the
        # spec needs 16
        unpack_container(blob16[:3] + (15).to_bytes(2, "big") + blob16[5:])
    uapq = QuantizerSpec(UAPQ, total_bits=8, phase_bits=4)
    state = RelayState(spec=uapq, phase_indices=(3,), amplitude_bins=(5,))
    blob_uapq = bytearray(pack_container(encode_relay_state(state)))
    blob_uapq[3] = blob_uapq[2]  # qbar = q
    with pytest.raises(ValueError):
        unpack_container(bytes(blob_uapq))


def test_container_rejects_what_its_header_cannot_hold():
    upq2 = QuantizerSpec(UPQ, total_bits=2)
    too_many_antennas = EncodedRelayState(spec=upq2, n_antennas=256, payload=(0,) * 512)
    with pytest.raises(ValueError, match="at most 255 antennas, got N_R=256"):
        pack_container(too_many_antennas)
    wide = QuantizerSpec(UPQ, total_bits=300)
    with pytest.raises(ValueError, match=r"spec parameters of at most 255, got U-PQ\(q=300\)"):
        pack_container(EncodedRelayState(spec=wide, n_antennas=1, payload=(0,) * 300))
    long_spec = QuantizerSpec(HAPQ, phase_bits=255, group_size=1)
    n_bits = quantizer_bits(long_spec, 255)
    assert n_bits > 65535
    long_payload = EncodedRelayState(spec=long_spec, n_antennas=255, payload=(0,) * n_bits)
    with pytest.raises(ValueError, match=f"payloads of at most 65535 bits, got {n_bits}"):
        pack_container(long_payload)


# ---------------------------------------------------------------------------
# Byte layout against a per-bit reference packer
# ---------------------------------------------------------------------------

def _multinomial(counts):
    total = math.factorial(sum(counts))
    for c in counts:
        total //= math.factorial(c)
    return total


def _reference_rank(assignment):
    """Lexicographic rank by counting the arrangements that sort before it."""
    remaining = Counter(assignment)
    rank = 0
    for level in assignment:
        for smaller in sorted(remaining):
            if smaller >= level:
                break
            if remaining[smaller]:
                remaining[smaller] -= 1
                rank += _multinomial(remaining.values())
                remaining[smaller] += 1
        remaining[level] -= 1
    return rank


def _reference_container(state):
    """The module docstring's layout, one bit at a time, MSB first."""
    spec = state.spec
    n = state.n_antennas
    bits = []

    def push(value, width):
        bits.extend((value >> shift) & 1 for shift in range(width - 1, -1, -1))

    if spec.kind == UPQ:
        params = [spec.total_bits]
        for k in state.phase_indices:
            push(k, spec.total_bits)
    elif spec.kind == UAPQ:
        params = [spec.total_bits, spec.phase_bits]
        for k, b in zip(state.phase_indices, state.amplitude_bins):
            push(k, spec.phase_bits)
            push(b, spec.total_bits - spec.phase_bits)
    else:
        params = [spec.phase_bits, spec.group_size, spec.level_exponent]
        for k in state.phase_indices:
            push(k, spec.phase_bits)
        rank_width = (oaq_codeword_count(n, spec.group_size) - 1).bit_length()
        push(_reference_rank(state.amplitude_assignment), rank_width)
    packed = bytearray((len(bits) + 7) // 8)
    for i, bit in enumerate(bits):
        packed[i // 8] |= bit << (7 - i % 8)
    tag = {UPQ: 1, UAPQ: 2, HAPQ: 3}[spec.kind]
    head = bytes([tag, n, *params]) + len(bits).to_bytes(2, "big")
    return head + bytes(packed), len(bits)


def _shuffled_state(spec, n_antennas, rng):
    """A random state whose H-APQ assignment is a shuffled level pool (any width)."""
    if spec.kind != HAPQ:
        return _random_state(spec, n_antennas, rng)
    m = spec.group_size
    num_levels = -(-n_antennas // m)
    pool = [min(i // m, num_levels - 1) + 1 for i in range(n_antennas)]
    return RelayState(
        spec=spec,
        phase_indices=tuple(int(v) for v in rng.integers(0, 1 << spec.phase_bits, n_antennas)),
        amplitude_assignment=tuple(int(v) for v in rng.permutation(pool)),
    )


def test_container_matches_reference_packer():
    rng = np.random.default_rng(4)
    for n_antennas in (1, 3, 16, 32):
        specs = [
            QuantizerSpec(UPQ, total_bits=8),
            QuantizerSpec(UPQ, total_bits=5),
            QuantizerSpec(UAPQ, total_bits=8, phase_bits=4),
            QuantizerSpec(UAPQ, total_bits=5, phase_bits=2),
        ]
        # m = N_R leaves a single assignment: a zero-width rank field
        for m in sorted({1, 2, n_antennas}):
            if m <= n_antennas:
                specs.append(QuantizerSpec(HAPQ, phase_bits=4, group_size=m))
                specs.append(QuantizerSpec(HAPQ, phase_bits=3, group_size=m))
        for spec in specs:
            for _ in range(5):
                state = _shuffled_state(spec, n_antennas, rng)
                expected, n_bits = _reference_container(state)
                assert n_bits == quantizer_bits(spec, n_antennas)
                blob = pack_container(encode_relay_state(state))
                assert blob == expected
                assert decode_relay_state(unpack_container(blob)) == state


def test_wide_rank_field_layout():
    rng = np.random.default_rng(5)
    # 32! assignments: a 118-bit rank field after 32 x 4 phase bits
    spec = QuantizerSpec(HAPQ, phase_bits=4, group_size=1)
    assert (oaq_codeword_count(32, 1) - 1).bit_length() == 118
    extremes = [tuple(range(1, 33)), tuple(range(32, 0, -1))]
    for assignment in extremes + [tuple(int(v) + 1 for v in rng.permutation(32))]:
        indices = tuple(int(v) for v in rng.integers(0, 16, 32))
        state = RelayState(spec=spec, phase_indices=indices, amplitude_assignment=assignment)
        encoded = encode_relay_state(state)
        assert len(encoded.payload) == 246
        expected, _ = _reference_container(state)
        assert pack_container(encoded) == expected
        assert decode_relay_state(unpack_container(expected)) == state
