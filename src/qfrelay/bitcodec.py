"""Bit-exact serialization of relay quantization states.

The payload layout is canonical: most significant bit first, antennas in
ascending index order.

  U-PQ   q bits of phase index per antenna.
  U-APQ  per antenna, qbar phase bits followed by q - qbar amplitude-bin
         bits.
  H-APQ  qbar phase bits per antenna, then the amplitude assignment encoded
         as its zero-based lexicographic rank among all valid assignments,
         occupying exactly ceil(log2(#assignments)) bits (zero bits when a
         single assignment exists).

Rank coding is what makes the H-APQ payload meet the information-theoretic
bit count instead of the naive ceil(log2(K)) bits per antenna.

The payload is one Python integer of exactly N_b bits, built with shifts
and masks in the same MSB-first layout: the first field occupies the most
significant bits.  ``EncodedRelayState.value`` is that integer, and encode,
pack, unpack and decode all pass it on as it is.
``EncodedRelayState.payload`` is a view derived from it: the same bits as a
tuple of 0/1 values, most significant first, for reading the layout.

A small byte container wraps a payload for debug dumps: one spec tag byte,
one antenna-count byte, the spec parameters (one byte each, in
``KIND_PARAMS`` order), a 2-byte big-endian bit length, then the payload
packed MSB-first with zero padding in the final byte.  Only N_R limits
what the container holds: it takes at most 255 antennas, and
:func:`pack_container` rejects more with a ``ValueError`` that names the
limit.  Every spec fits, because q and qbar are at most ``MAX_BITS`` (16),
m is at most N_R and n at most 4, so each parameter fits its byte; the
longest payload, H-APQ with qbar = 16 and m = 1 at N_R = 255, is 5756 bits,
well within the 2-byte bit length.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import lru_cache
from operator import index

from .quantizers import (
    HAPQ,
    KIND_PARAMS,
    UAPQ,
    UPQ,
    QuantizerSpec,
    RelayState,
    check_oaq_assignment,
    oaq_codeword_count,
    oaq_level_multiset,
    quantizer_bits,
)

_SPEC_TAGS = {UPQ: 1, UAPQ: 2, HAPQ: 3}
_TAG_KINDS = {tag: kind for kind, tag in _SPEC_TAGS.items()}

# the most antennas a container holds: N_R takes one header byte
MAX_ANTENNAS = 255

# ASCII binary digits -> bit values, for the payload view of format() output
_DIGITS_TO_BITS = bytes.maketrans(b"01", b"\x00\x01")


# ---------------------------------------------------------------------------
# Lexicographic ranking of O-AQ assignments
# ---------------------------------------------------------------------------

@lru_cache(maxsize=1024, typed=True)
def _assignment_layout(n_antennas, group_size):
    """(sorted level multiset, assignment count, rank width) of an O-AQ grouping."""
    total = oaq_codeword_count(n_antennas, group_size)
    pool = oaq_level_multiset(n_antennas, group_size)
    return pool, total, (total - 1).bit_length()


def rank_assignment(assignment, n_antennas, group_size):
    """Zero-based lexicographic rank of a valid O-AQ level assignment.

    Walks the positions keeping the arrangement count of the remaining
    multiset up to date incrementally: with t open positions and s remaining
    entries below the chosen level, the assignments starting with a smaller
    level number count * s / t, and choosing a level of multiplicity c
    leaves count * c / t arrangements; both are exact integers.
    """
    pool, count, _ = _assignment_layout(n_antennas, group_size)
    if len(assignment) != len(pool):
        raise ValueError(f"expected {len(pool)} level indices, got {len(assignment)}")
    check_oaq_assignment(assignment, n_antennas, group_size)
    remaining = list(pool)
    rank = 0
    for open_slots, level in zip(range(n_antennas, 1, -1), assignment):
        if count == 1:  # one level left: every later position is forced
            break
        smaller = bisect_left(remaining, level)
        if smaller:
            rank += count * smaller // open_slots
        count = count * (bisect_right(remaining, level) - smaller) // open_slots
        del remaining[smaller]
    return rank


def unrank_assignment(rank, n_antennas, group_size):
    """Inverse of :func:`rank_assignment`.

    At each position the level is the entry of the sorted remaining multiset
    at index floor(rank * t / count): the ranks starting with the j smallest
    remaining entries are exactly those below count * j / t.
    """
    pool, total, _ = _assignment_layout(n_antennas, group_size)
    if not isinstance(rank, int) or isinstance(rank, bool) or not 0 <= rank < total:
        raise ValueError(f"rank must be in [0, {total}), got {rank!r}")
    remaining = list(pool)
    count = total
    assignment = []
    for open_slots in range(n_antennas, 0, -1):
        if count == 1:
            assignment.extend(remaining)
            break
        level = remaining[rank * open_slots // count]
        smaller = bisect_left(remaining, level)
        if smaller:
            rank -= count * smaller // open_slots
        count = count * (bisect_right(remaining, level) - smaller) // open_slots
        del remaining[smaller]
        assignment.append(level)
    return tuple(assignment)


# ---------------------------------------------------------------------------
# Payload encode/decode
# ---------------------------------------------------------------------------

@lru_cache(maxsize=1024, typed=True)
def _payload_bits(spec, n_antennas):
    return quantizer_bits(spec, n_antennas)


@dataclass(frozen=True)
class EncodedRelayState:
    """A relay state serialized to one int of exactly quantizer_bits(spec, n) bits."""

    spec: QuantizerSpec
    n_antennas: int
    value: int

    def __post_init__(self):
        if not isinstance(self.value, int) or isinstance(self.value, bool):
            raise ValueError(f"payload must be an int, got {self.value!r}")
        n_bits = _payload_bits(self.spec, self.n_antennas)
        if self.value < 0 or self.value >> n_bits:
            raise ValueError(f"payload must lie in [0, 2**{n_bits}), got {self.value:#x}")

    @property
    def payload(self):
        """The payload bits as a tuple of 0/1 values, most significant first."""
        digits = format(self.value, f"0{_payload_bits(self.spec, self.n_antennas)}b")
        return tuple(digits.encode().translate(_DIGITS_TO_BITS))


def encode_relay_state(state):
    """Serialize a relay state into its exact N_b-bit payload."""
    spec = state.spec
    n = state.n_antennas
    value = 0
    if spec.kind == UPQ:
        width = spec.total_bits
        for k in map(index, state.phase_indices):
            value = (value << width) | k
    elif spec.kind == UAPQ:
        width, amp_width = spec.total_bits, spec.amplitude_bits
        for k, b in zip(map(index, state.phase_indices), map(index, state.amplitude_bins)):
            value = (value << width) | (k << amp_width) | b
    else:
        width = spec.phase_bits
        for k in map(index, state.phase_indices):
            value = (value << width) | k
        rank_width = _assignment_layout(n, spec.group_size)[2]
        rank = rank_assignment(state.amplitude_assignment, n, spec.group_size)
        value = (value << rank_width) | rank
    return EncodedRelayState(spec=spec, n_antennas=n, value=value)


def _fields(value, width, count):
    """``count`` fields of ``width`` bits from the top of ``value``, in order."""
    mask = (1 << width) - 1
    return tuple([(value >> shift) & mask for shift in range((count - 1) * width, -1, -width)])


def decode_relay_state(encoded):
    """Exact inverse of :func:`encode_relay_state`."""
    spec = encoded.spec
    n = encoded.n_antennas
    value = encoded.value
    if spec.kind == UPQ:
        return RelayState(spec=spec, phase_indices=_fields(value, spec.total_bits, n))
    if spec.kind == UAPQ:
        amp_width = spec.amplitude_bits
        pairs = _fields(value, spec.total_bits, n)
        amp_mask = (1 << amp_width) - 1
        return RelayState(
            spec=spec,
            phase_indices=tuple([pair >> amp_width for pair in pairs]),
            amplitude_bins=tuple([pair & amp_mask for pair in pairs]),
        )
    rank_width = _assignment_layout(n, spec.group_size)[2]
    rank = value & ((1 << rank_width) - 1)
    assignment = unrank_assignment(rank, n, spec.group_size)
    return RelayState(
        spec=spec,
        phase_indices=_fields(value >> rank_width, spec.phase_bits, n),
        amplitude_assignment=assignment,
    )


# ---------------------------------------------------------------------------
# Byte container for debug dumps
# ---------------------------------------------------------------------------

@lru_cache(maxsize=1024)
def _header_spec(kind, params):
    """The spec a container header names; specs are immutable, so shared."""
    return QuantizerSpec(kind, **dict(zip(KIND_PARAMS[kind], params)))


@lru_cache(maxsize=1024)
def _header(spec, n_antennas):
    """(container header up to the payload, payload bit length) of a spec at N_R."""
    if n_antennas > MAX_ANTENNAS:
        raise ValueError(f"container holds at most {MAX_ANTENNAS} antennas, got N_R={n_antennas}")
    n_bits = _payload_bits(spec, n_antennas)
    params = [getattr(spec, attr) for attr in KIND_PARAMS[spec.kind]]
    head = bytes([_SPEC_TAGS[spec.kind], n_antennas, *params])
    return head + n_bits.to_bytes(2, "big"), n_bits


def pack_container(encoded):
    """Byte container: tag, N_R, parameters, bit length, packed payload."""
    head, n_bits = _header(encoded.spec, encoded.n_antennas)
    n_bytes = (n_bits + 7) // 8
    return head + (encoded.value << (8 * n_bytes - n_bits)).to_bytes(n_bytes, "big")


def unpack_container(data):
    """Parse a byte container back into an :class:`EncodedRelayState`."""
    if len(data) < 2:
        raise ValueError("container too short")
    kind = _TAG_KINDS.get(data[0])
    if kind is None:
        raise ValueError(f"unknown spec tag {data[0]}")
    n_antennas = data[1]
    n_params = len(KIND_PARAMS[kind])
    header_len = 2 + n_params + 2
    if len(data) < header_len:
        raise ValueError("container header truncated")
    spec = _header_spec(kind, bytes(data[2 : 2 + n_params]))
    bit_len = int.from_bytes(data[2 + n_params : header_len], "big")
    body = data[header_len:]
    if len(body) != (bit_len + 7) // 8:
        raise ValueError("container payload length mismatch")
    padding = 8 * len(body) - bit_len
    value = int.from_bytes(body, "big")
    if value & ((1 << padding) - 1):
        raise ValueError("nonzero padding bits in container")
    expected = _payload_bits(spec, n_antennas)
    if bit_len != expected:
        raise ValueError(f"payload holds {bit_len} bits, spec requires {expected}")
    return EncodedRelayState(spec=spec, n_antennas=n_antennas, value=value >> padding)
