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

The codec packs the fields into one Python integer with shifts and masks,
in the same MSB-first layout: the first field occupies the most significant
bits.  ``EncodedRelayState.payload`` holds that integer's bits as a tuple
of 0/1 values, most significant first.

A small byte container wraps a payload for debug dumps: one spec tag byte,
one antenna-count byte, the spec parameters (one byte each), a 2-byte
big-endian bit length, then the payload packed MSB-first with zero padding
in the final byte.  The container therefore holds at most 255 antennas,
spec parameters of at most 255 and payloads of at most 65535 bits;
:func:`pack_container` rejects anything larger with a ``ValueError`` that
names the limit.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import lru_cache
from operator import index

from .quantizers import (
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

_SPEC_TAGS = {UPQ: 1, UAPQ: 2, HAPQ: 3}
_TAG_KINDS = {tag: kind for kind, tag in _SPEC_TAGS.items()}

_MAX_BYTE = 255
_MAX_PAYLOAD_BITS = 65535

# payload bit values <-> ASCII binary digits, for int(..., 2) and format()
_BITS_TO_DIGITS = bytes.maketrans(b"\x00\x01", b"01")
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
    if not isinstance(rank, int) or not 0 <= rank < total:
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


def _payload_bytes(payload):
    # one byte per entry: bytes() of an integer or of a buffer such as an
    # int64 array would not be; tuple() of a tuple is the tuple itself
    return bytes(tuple(payload))


def _payload_to_int(payload):
    return int(_payload_bytes(payload).translate(_BITS_TO_DIGITS), 2)


def _int_to_payload(value, n_bits):
    if n_bits == 0:
        return ()
    return tuple(format(value, f"0{n_bits}b").encode().translate(_DIGITS_TO_BITS))


@dataclass(frozen=True)
class EncodedRelayState:
    """A relay state serialized to exactly quantizer_bits(spec, n) bits."""

    spec: QuantizerSpec
    n_antennas: int
    payload: tuple

    def __post_init__(self):
        try:
            raw = _payload_bytes(self.payload)
        except (TypeError, ValueError):
            raw = None
        # what survives deleting the 0 and 1 bytes is a non-bit entry
        if raw is None or raw.translate(None, b"\x00\x01"):
            raise ValueError("payload must contain only 0/1 bits")
        expected = _payload_bits(self.spec, self.n_antennas)
        if len(raw) != expected:
            raise ValueError(f"payload holds {len(raw)} bits, spec requires {expected}")


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
    payload = _int_to_payload(value, _payload_bits(spec, n))
    return EncodedRelayState(spec=spec, n_antennas=n, payload=payload)


def _fields(value, width, count):
    """``count`` fields of ``width`` bits from the top of ``value``, in order."""
    mask = (1 << width) - 1
    return tuple([(value >> shift) & mask for shift in range((count - 1) * width, -1, -width)])


def decode_relay_state(encoded):
    """Exact inverse of :func:`encode_relay_state`."""
    spec = encoded.spec
    n = encoded.n_antennas
    value = _payload_to_int(encoded.payload)
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
    if kind == UPQ:
        return QuantizerSpec(UPQ, total_bits=params[0])
    if kind == UAPQ:
        return QuantizerSpec(UAPQ, total_bits=params[0], phase_bits=params[1])
    return QuantizerSpec(
        HAPQ, phase_bits=params[0], group_size=params[1], level_exponent=params[2]
    )


def _spec_params(spec):
    if spec.kind == UPQ:
        return [spec.total_bits]
    if spec.kind == UAPQ:
        return [spec.total_bits, spec.phase_bits]
    return [spec.phase_bits, spec.group_size, spec.level_exponent]


def pack_container(encoded):
    """Byte container: tag, N_R, parameters, bit length, packed payload."""
    spec = encoded.spec
    params = _spec_params(spec)
    n_bits = len(encoded.payload)
    if encoded.n_antennas > _MAX_BYTE:
        raise ValueError(
            f"container holds at most {_MAX_BYTE} antennas, got N_R={encoded.n_antennas}"
        )
    if max(params) > _MAX_BYTE:
        raise ValueError(
            f"container holds spec parameters of at most {_MAX_BYTE}, got {spec.label()}"
        )
    if n_bits > _MAX_PAYLOAD_BITS:
        raise ValueError(
            f"container holds payloads of at most {_MAX_PAYLOAD_BITS} bits, got {n_bits}"
        )
    n_bytes = (n_bits + 7) // 8
    body = _payload_to_int(encoded.payload) << (8 * n_bytes - n_bits)
    head = bytes([_SPEC_TAGS[spec.kind], encoded.n_antennas, *params])
    return head + n_bits.to_bytes(2, "big") + body.to_bytes(n_bytes, "big")


def unpack_container(data):
    """Parse a byte container back into an :class:`EncodedRelayState`."""
    if len(data) < 2:
        raise ValueError("container too short")
    kind = _TAG_KINDS.get(data[0])
    if kind is None:
        raise ValueError(f"unknown spec tag {data[0]}")
    n_antennas = data[1]
    n_params = 1 if kind == UPQ else 2 if kind == UAPQ else 3
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
    payload = _int_to_payload(value >> padding, bit_len)
    return EncodedRelayState(spec=spec, n_antennas=n_antennas, payload=payload)
