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
    check_oaq_assignment,
    oaq_codeword_count,
    oaq_level_multiset,
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
    # a bool is not a rank, as it is not a payload; True used to unrank as 1
    with pytest.raises(ValueError, match="rank must be in"):
        unrank_assignment(True, 4, 2)


# entries a stored or hand-built assignment may hold in place of a level
_LEVEL_ENTRIES = st.one_of(
    st.integers(-2, 12),
    st.booleans(),
    st.floats(allow_nan=True),
    st.integers(1, 4).map(float),
)


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_any_assignment_is_refused_or_round_trips(data):
    # a valid arrangement with a few entries swapped for ints, bools or
    # floats and its length perhaps changed: every public check refuses it
    # with ValueError or TypeError, or all accept it and it round-trips
    n_antennas = data.draw(st.integers(1, 9), label="n")
    group_size = data.draw(st.integers(1, n_antennas), label="m")
    assignment = list(data.draw(st.permutations(oaq_level_multiset(n_antennas, group_size))))
    for _ in range(data.draw(st.integers(0, 2), label="swaps")):
        assignment[data.draw(st.integers(0, n_antennas - 1))] = data.draw(_LEVEL_ENTRIES)
    resize = data.draw(st.sampled_from([0, 0, 0, -1, 1]), label="resize")
    assignment = tuple(assignment[:n_antennas + resize] + [1] * resize)
    spec = QuantizerSpec(HAPQ, phase_bits=2, group_size=group_size)
    checks = (
        lambda: check_oaq_assignment(assignment, n_antennas, group_size),
        lambda: rank_assignment(assignment, n_antennas, group_size),
        lambda: RelayState(spec, (0,) * n_antennas, amplitude_assignment=assignment),
    )
    accepted = []
    for check in checks:
        try:
            check()
        except (ValueError, TypeError):
            accepted.append(False)
        else:
            accepted.append(True)
    assert accepted in ([False] * 3, [True] * 3), (assignment, accepted)
    if accepted[0]:
        assert all(type(level) is int for level in assignment)
        rank = rank_assignment(assignment, n_antennas, group_size)
        assert unrank_assignment(rank, n_antennas, group_size) == assignment


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
    encoded = EncodedRelayState(spec=spec, n_antennas=4, value=0)
    assert encoded.payload == (0,) * quantizer_bits(spec, 4)
    state = decode_relay_state(encoded)
    assert state.phase_indices == (0, 0, 0, 0)
    assert state.amplitude_assignment == unrank_assignment(0, 4, 2)


def test_truncated_payload_rejected():
    spec = QuantizerSpec(UPQ, total_bits=8)
    # a 33-bit value does not fit the 32 bits of four 8-bit antennas
    with pytest.raises(ValueError, match=r"in \[0, 2\*\*32\), got 0x100000000$"):
        EncodedRelayState(spec=spec, n_antennas=4, value=1 << 32)
    blob = pack_container(EncodedRelayState(spec=spec, n_antennas=4, value=0))
    assert blob[3:5] == (32).to_bytes(2, "big")
    with pytest.raises(ValueError, match="payload holds 31 bits, spec requires 32"):
        unpack_container(blob[:3] + (31).to_bytes(2, "big") + blob[5:])


def test_payload_value_is_checked():
    spec = QuantizerSpec(UPQ, total_bits=8)
    for value in (True, 1.0, np.int64(1)):
        with pytest.raises(ValueError, match="payload must be an int"):
            EncodedRelayState(spec=spec, n_antennas=2, value=value)
    for value in (-1, 1 << 16):
        with pytest.raises(ValueError, match=r"payload must lie in \[0, 2\*\*16\)"):
            EncodedRelayState(spec=spec, n_antennas=2, value=value)
    widest = EncodedRelayState(spec=spec, n_antennas=2, value=(1 << 16) - 1)
    assert widest.payload == (1,) * 16
    assert unpack_container(pack_container(widest)) == widest
    assert decode_relay_state(widest) == RelayState(spec=spec, phase_indices=(255, 255))


def test_state_keeps_its_assignment_after_the_callers_list_changes():
    # RelayState keeps a tuple of the entries it checked, so a later change
    # to the caller's list reaches neither the state nor its encoding
    levels = [1, 2, 1, 2]
    spec = QuantizerSpec(HAPQ, phase_bits=2, group_size=2)
    state = RelayState(spec=spec, phase_indices=(0, 1, 2, 3), amplitude_assignment=levels)
    encoded = encode_relay_state(state)
    levels[:] = [1, 1, 1, 1]
    assert state.amplitude_assignment == (1, 2, 1, 2)
    assert encode_relay_state(state) == encoded
    assert decode_relay_state(encoded) == state
    # rank_assignment keeps its own check of what it is given
    message = r"level multiplicities \[4, 0\] violate the O-AQ grouping \[2, 2\]"
    with pytest.raises(ValueError, match=message):
        rank_assignment([1, 1, 1, 1], 4, 2)


@pytest.mark.parametrize("convert", [list, bytes, np.array], ids=["list", "bytes", "ndarray"])
@pytest.mark.parametrize("spec, fields", [
    (QuantizerSpec(UPQ, total_bits=3), {"phase_indices": (0, 7, 2, 5)}),
    (QuantizerSpec(UAPQ, total_bits=8, phase_bits=4),
     {"phase_indices": (0, 15, 2, 5), "amplitude_bins": (1, 0, 15, 3)}),
    (QuantizerSpec(HAPQ, phase_bits=2, group_size=2),
     {"phase_indices": (0, 1, 2, 3), "amplitude_assignment": (2, 1, 1, 2)}),
], ids=["UPQ", "UAPQ", "HAPQ"])
def test_state_fields_of_any_sequence_equal_the_tuple_state(convert, spec, fields):
    reference = RelayState(spec, **fields)
    state = RelayState(spec, **{name: convert(entries) for name, entries in fields.items()})
    assert state == reference
    assert hash(state) == hash(reference)
    assert all(type(getattr(state, name)) is tuple for name in fields)
    assert decode_relay_state(encode_relay_state(state)) == state


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
    assert encoded.value == 0b00011011011
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
    too_many_antennas = EncodedRelayState(spec=upq2, n_antennas=256, value=0)
    with pytest.raises(ValueError, match="at most 255 antennas, got N_R=256"):
        pack_container(too_many_antennas)
    # q and qbar above 16 are not specs at all, so no header byte overflows
    with pytest.raises(ValueError, match="q must be at most 16, got 300"):
        QuantizerSpec(UPQ, total_bits=300)
    with pytest.raises(ValueError, match="qbar must be at most 16, got 255"):
        QuantizerSpec(HAPQ, phase_bits=255, group_size=1)
    # and a header naming q = 17 names no spec
    blob = bytearray(pack_container(EncodedRelayState(spec=upq2, n_antennas=1, value=0)))
    blob[2] = 17
    with pytest.raises(ValueError, match="q must be at most 16, got 17"):
        unpack_container(bytes(blob))


def test_longest_payload_fits_the_bit_length_field():
    # the widest spec at the most antennas the container holds: 255 x 16
    # phase bits plus a ceil(log2(255!)) = 1676-bit rank, under 2**16
    spec = QuantizerSpec(HAPQ, phase_bits=16, group_size=1)
    n_bits = quantizer_bits(spec, 255)
    assert n_bits == 5756
    state = RelayState(
        spec=spec,
        phase_indices=tuple(range(65535, 65535 - 255, -1)),
        amplitude_assignment=tuple(range(255, 0, -1)),  # the largest rank
    )
    encoded = encode_relay_state(state)
    assert encoded.value.bit_length() == n_bits
    blob = pack_container(encoded)
    assert blob[:5] == bytes([3, 255, 16, 1, 2]) and blob[5:7] == n_bits.to_bytes(2, "big")
    assert len(blob) == 7 + (n_bits + 7) // 8
    again = unpack_container(blob)
    assert again == encoded
    assert decode_relay_state(again) == state


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
