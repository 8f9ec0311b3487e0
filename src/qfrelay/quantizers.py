"""Relay quantization schemes for MIMO quantize-forward links.

Implements uniform phase quantization (U-PQ), uniform amplitude-phase
quantization (U-APQ), hybrid amplitude-phase quantization (H-APQ, built on
ordered amplitude quantization, O-AQ) and the amplify-forward baseline,
plus the memory-bit accounting for each method.

Every kernel treats the last axis as the antenna axis and any leading axes
as independent batch dimensions, so the same code serves a single received
vector and a large Monte Carlo batch of candidate vectors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

TWO_PI = 2.0 * math.pi

UPQ = "UPQ"
UAPQ = "UAPQ"
HAPQ = "HAPQ"
AF = "AF"
KINDS = (UPQ, UAPQ, HAPQ, AF)

# Human-readable method names, used for CSV labels and debug dumps.
METHOD_LABELS = {UPQ: "U-PQ", UAPQ: "U-APQ", HAPQ: "H-APQ", AF: "AF"}


def _require_positive_int(value, name):
    if not isinstance(value, int) or isinstance(value, bool) or value < 1:
        raise ValueError(f"{name} must be a positive integer, got {value!r}")


@dataclass(frozen=True)
class QuantizerSpec:
    """One relay processing method and its parameters.

    ``total_bits`` is the per-antenna bit budget of U-PQ and U-APQ
    (conventionally q), ``phase_bits`` the per-antenna phase budget of
    U-APQ and H-APQ (qbar), ``group_size`` the number of antennas sharing
    each amplitude level in H-APQ (m), and ``level_exponent`` the
    level-family exponent n that makes the H-APQ amplitude levels
    proportional to k**(n/2).  AF carries no parameters.
    """

    kind: str
    total_bits: int | None = None
    phase_bits: int | None = None
    group_size: int | None = None
    level_exponent: int | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown quantizer kind {self.kind!r}")
        if self.kind == UPQ:
            _require_positive_int(self.total_bits, "q")
            self._reject("phase_bits", "group_size", "level_exponent")
        elif self.kind == UAPQ:
            _require_positive_int(self.total_bits, "q")
            _require_positive_int(self.phase_bits, "qbar")
            if self.phase_bits >= self.total_bits:
                raise ValueError(
                    f"U-APQ needs qbar < q, got qbar={self.phase_bits} q={self.total_bits}"
                )
            self._reject("group_size", "level_exponent")
        elif self.kind == HAPQ:
            _require_positive_int(self.phase_bits, "qbar")
            _require_positive_int(self.group_size, "m")
            if self.level_exponent is None:
                object.__setattr__(self, "level_exponent", 2)
            _require_positive_int(self.level_exponent, "family_n")
            if self.level_exponent > 4:
                raise ValueError(f"family_n must be in 1..4, got {self.level_exponent}")
            self._reject("total_bits")
        else:  # AF carries no parameters
            self._reject("total_bits", "phase_bits", "group_size", "level_exponent")

    def _reject(self, *fields):
        for field in fields:
            if getattr(self, field) is not None:
                raise ValueError(f"{self.kind} does not take {field}")

    def validate_for(self, n_antennas):
        """Check the parts of the spec that depend on the array size."""
        _require_positive_int(n_antennas, "n_antennas")
        if self.kind == HAPQ and self.group_size > n_antennas:
            raise ValueError(
                f"H-APQ group size m={self.group_size} exceeds antenna count {n_antennas}"
            )

    @property
    def amplitude_bits(self):
        """U-APQ bits spent per antenna on the amplitude bin."""
        if self.kind != UAPQ:
            raise ValueError(f"{self.kind} has no amplitude-bin budget")
        return self.total_bits - self.phase_bits

    def label(self):
        name = METHOD_LABELS[self.kind]
        if self.kind == UPQ:
            return f"{name}(q={self.total_bits})"
        if self.kind == UAPQ:
            return f"{name}(q={self.total_bits},qbar={self.phase_bits})"
        if self.kind == HAPQ:
            return f"{name}(qbar={self.phase_bits},m={self.group_size},n={self.level_exponent})"
        return name


# ---------------------------------------------------------------------------
# Phase quantization
# ---------------------------------------------------------------------------

def wrap_phase(theta):
    """Reduce an angle (radians) to the canonical [0, 2*pi) domain.

    Exact shortcut: for |theta| <= 2*pi, fmod is exact, so np.mod(theta, 2*pi)
    is theta, or theta + 2*pi when theta < 0, which is what the array path adds.
    """
    arr = np.asarray(theta, dtype=float)
    if arr.ndim == 0:
        if not np.isfinite(arr):
            raise ValueError("phase must be finite")
        wrapped = np.mod(arr, TWO_PI)
        # mod can round up to exactly 2*pi for tiny negative inputs
        return 0.0 if wrapped == TWO_PI else float(wrapped)
    # min and max carry a NaN through, so every entry here is finite
    if arr.size and -TWO_PI <= arr.min() and arr.max() <= TWO_PI:
        wrapped = (arr < 0).astype(float)
        wrapped *= TWO_PI
        wrapped += arr
    elif not np.all(np.isfinite(arr)):
        raise ValueError("phase must be finite")
    else:
        wrapped = np.mod(arr, TWO_PI)
    wrapped[wrapped == TWO_PI] = 0.0
    return wrapped


def phase_index(theta, bits):
    """Sector index of the uniform phase quantizer.

    Sector k covers ((2k-1)*pi/2**bits, (2k+1)*pi/2**bits], i.e. the upper
    boundary belongs to the lower sector, and the result is in
    {0, ..., 2**bits - 1}.
    """
    _require_positive_int(bits, "phase bits")
    wrapped = wrap_phase(theta)
    sectors = 1 << bits
    if np.ndim(wrapped) == 0:
        return int(np.ceil(wrapped * sectors / TWO_PI - 0.5)) % sectors
    # ceil(theta * 2**bits / (2*pi) - 0.5) in the same operation order, in
    # the fresh array wrap_phase returned; the index is non-negative, so
    # masking equals the modulo
    wrapped *= sectors
    wrapped /= TWO_PI
    wrapped -= 0.5
    np.ceil(wrapped, out=wrapped)
    index = wrapped.astype(np.int64)
    index &= sectors - 1
    return index


def sector_angle(index, bits):
    """Reconstructed angle 2*pi*k / 2**bits for sector index k."""
    angle = np.asarray(index, dtype=float) * (TWO_PI / (1 << bits))
    if angle.ndim == 0:
        return float(angle)
    return angle


@lru_cache(maxsize=None)
def _phasor_table(bits):
    table = np.exp(1j * sector_angle(np.arange(1 << bits), bits))
    table.flags.writeable = False
    return table


def sector_phasor(index, bits):
    """Unit phasor exp(1j * sector_angle(index, bits))."""
    return _phasor_table(bits)[index]


def uniform_phase_quantize(theta, bits):
    """Quantize a phase, returning (sector index, reconstructed angle)."""
    index = phase_index(theta, bits)
    return index, sector_angle(index, bits)


# ---------------------------------------------------------------------------
# U-PQ
# ---------------------------------------------------------------------------

def upq_symbols_from_indices(indices, bits, n_antennas):
    """Relay symbols e^{j*angle}/sqrt(N_R) for stored phase indices."""
    scale = 1.0 / math.sqrt(n_antennas)
    return sector_phasor(indices, bits) * scale


def upq_relay_symbols(received, bits):
    """U-PQ relay output: quantized phases on the unit-power sphere."""
    y = np.asarray(received, dtype=complex)
    if y.shape[-1] == 0:
        raise ValueError("received vector must have at least one antenna")
    indices = phase_index(np.angle(y), bits)
    return upq_symbols_from_indices(indices, bits, y.shape[-1])


# ---------------------------------------------------------------------------
# Uniform amplitude quantization (the amplitude half of U-APQ)
# ---------------------------------------------------------------------------

def amplitude_bin(values, bits):
    """Bin index of a (0, 1] value under uniform quantization over [0, 1).

    A value of exactly 1.0 is clamped into the top bin.
    """
    _require_positive_int(bits, "amplitude bits")
    v = np.asarray(values, dtype=float)
    # min and max carry a NaN through, so the comparison rejects it
    if v.size and not (v.min() > 0.0 and v.max() <= 1.0):
        raise ValueError("normalized amplitudes must lie in (0, 1]")
    # truncation is floor on the positive values the check lets through
    bins = (v * (1 << bits)).astype(np.int64)
    return np.minimum(bins, (1 << bits) - 1, out=bins if bins.ndim else None)


def bin_center(bins, bits):
    """Reconstruction point (j + 0.5) / 2**bits of amplitude bin j."""
    return (np.asarray(bins, dtype=float) + 0.5) / (1 << bits)


@lru_cache(maxsize=None)
def _bin_center_table(bits):
    table = bin_center(np.arange(1 << bits), bits)
    table.flags.writeable = False
    return table


def uniform_amplitude_quantize(values, bits):
    """Map (0, 1] amplitudes to the centers of 2**bits uniform bins."""
    return bin_center(amplitude_bin(values, bits), bits)


# ---------------------------------------------------------------------------
# U-APQ
# ---------------------------------------------------------------------------

def _vector_norm(amps):
    return np.sqrt(np.einsum("...i,...i->...", amps, amps))


def uapq_symbols_from_parts(indices, bins, total_bits, phase_bits):
    """Relay symbols from stored U-APQ phase indices and amplitude bins."""
    gains = _bin_center_table(total_bits - phase_bits)[bins]
    gains /= _vector_norm(gains)[..., None]
    symbols = sector_phasor(indices, phase_bits)
    symbols *= gains
    return symbols


def uapq_amplitude_bins(amps, norms, amplitude_bits):
    """U-APQ amplitude bins: each amplitude over its vector's norm, binned.

    ``norms`` is ``_vector_norm(amps)``; callers that quantize one set of
    amplitudes under several budgets compute it once.
    """
    if np.any(norms == 0.0):
        raise ValueError("received vector has zero norm")
    ratios = amps / norms[..., None]
    # float roundoff can push the largest ratio a hair above 1
    np.minimum(ratios, 1.0, out=ratios)
    return amplitude_bin(ratios, amplitude_bits)


def uapq_parts_from_polar(theta, amps, total_bits, phase_bits):
    """Quantize polar components to U-APQ (phase index, amplitude bin) pairs."""
    bins = uapq_amplitude_bins(amps, _vector_norm(amps), total_bits - phase_bits)
    return phase_index(theta, phase_bits), bins


def uapq_relay_symbols(received, total_bits, phase_bits):
    """U-APQ relay output: quantized phases and renormalized binned amplitudes."""
    if not isinstance(phase_bits, int) or not isinstance(total_bits, int):
        raise ValueError("bit budgets must be integers")
    if not 1 <= phase_bits < total_bits:
        raise ValueError(f"U-APQ needs 1 <= qbar < q, got qbar={phase_bits} q={total_bits}")
    y = np.asarray(received, dtype=complex)
    indices, bins = uapq_parts_from_polar(
        np.angle(y), np.abs(y), total_bits, phase_bits
    )
    return uapq_symbols_from_parts(indices, bins, total_bits, phase_bits)


# ---------------------------------------------------------------------------
# H-APQ level sets and ordered amplitude quantization
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class LevelSet:
    """Ascending amplitude levels satisfying the unit transmit-power identity."""

    levels: np.ndarray
    spacing: float
    num_levels: int
    group_size: int
    n_antennas: int

    def __post_init__(self):
        if self.num_levels != -(-self.n_antennas // self.group_size):
            raise ValueError("num_levels must equal ceil(n_antennas / group_size)")
        if len(self.levels) != self.num_levels:
            raise ValueError("levels length must equal num_levels")
        if np.any(self.levels <= 0) or np.any(np.diff(self.levels) <= 0):
            raise ValueError("levels must be positive and strictly ascending")
        last_count = self.n_antennas - (self.num_levels - 1) * self.group_size
        power = (
            self.group_size * float(np.sum(self.levels[:-1] ** 2))
            + last_count * float(self.levels[-1] ** 2)
        )
        if abs(power - 1.0) >= 1e-12:
            raise ValueError(f"level set violates the power identity: {power!r}")


@lru_cache(maxsize=None)
def build_level_set(n_antennas, group_size, level_exponent=2):
    """Construct the H-APQ level set a_k = k**(n/2) * spacing.

    The spacing is fixed by unit transmit power: the lowest num_levels - 1
    levels are each used by group_size antennas and the top level by the
    remainder.
    """
    _require_positive_int(n_antennas, "n_antennas")
    _require_positive_int(level_exponent, "family_n")
    if not isinstance(group_size, int) or not 1 <= group_size <= n_antennas:
        raise ValueError(
            f"group size m must be in 1..{n_antennas}, got {group_size!r}"
        )
    num_levels = -(-n_antennas // group_size)
    last_count = n_antennas - (num_levels - 1) * group_size
    weight = group_size * sum(k**level_exponent for k in range(1, num_levels))
    weight += last_count * num_levels**level_exponent
    spacing = 1.0 / math.sqrt(weight)
    levels = spacing * np.arange(1, num_levels + 1, dtype=float) ** (0.5 * level_exponent)
    levels.flags.writeable = False
    return LevelSet(levels, spacing, num_levels, group_size, n_antennas)


def oaq_sort_ranks(amps):
    """Ascending sort rank of each antenna amplitude, ties broken by index.

    Exact for n <= 8: each pair i < j is compared once, and i ranks below j
    unless a[j] < a[i], which is the stable-sort order.

    Precondition: every amplitude is finite.  NaN has no defined rank, and
    the two paths rank it differently (the argsort path for n > 8 puts it
    last); this kernel does not check, so the public entry points
    (``ordered_amplitude_quantize`` and the H-APQ relay functions built on
    it) reject non-finite amplitudes before they get here.
    """
    a = np.asarray(amps, dtype=float)
    n = a.shape[-1]
    if n <= 8:
        # antenna-major rows keep every compare contiguous; rank j starts
        # at j (every i < j below it) and loses one per i that it beats
        rows = np.ascontiguousarray(np.moveaxis(a, -1, 0))
        ranks = np.empty(rows.shape, dtype=np.uint8)
        for j in range(n):
            ranks[j] = j
        lower = np.empty(rows.shape[1:], dtype=bool)
        step = lower.view(np.uint8)
        for i in range(n):
            for j in range(i + 1, n):
                np.less(rows[j], rows[i], out=lower)
                ranks[i] += step
                ranks[j] -= step
        return np.ascontiguousarray(np.moveaxis(ranks, 0, -1), dtype=np.intp)
    order = np.argsort(a, axis=-1, kind="stable")
    ranks = np.empty_like(order)
    np.put_along_axis(ranks, order, np.broadcast_to(np.arange(n), order.shape), axis=-1)
    return ranks


@lru_cache(maxsize=1024, typed=True)
def oaq_level_multiset(n_antennas, group_size):
    """Sorted level indices of every valid O-AQ assignment, as a tuple.

    Each level index appears once per antenna it is assigned to:
    group_size times for the lower levels, the remainder for the top one.
    """
    num_levels = -(-n_antennas // group_size)
    levels = []
    for level in range(1, num_levels):
        levels.extend([level] * group_size)
    levels.extend([num_levels] * (n_antennas - (num_levels - 1) * group_size))
    return tuple(levels)


def check_oaq_assignment(assignment, n_antennas, group_size):
    """Reject a level assignment whose multiplicities break the O-AQ grouping.

    Raises ``ValueError`` naming the first out-of-range level or the wrong
    multiplicities, and ``TypeError`` for an in-range level that is not an
    integer (a float such as 1.0 or a bool such as True included).
    """
    pool = oaq_level_multiset(n_antennas, group_size)
    # bytes() takes integers only, as the element-wise check does, and bools;
    # anything it refuses (a level above 255 too), a mismatch or a bool goes
    # to that check.  On a match a bool can only equal level 1, and the
    # level-1 entries sort first, group_size of them.
    try:
        levels = sorted(assignment)
        if bytes(levels) == bytes(pool) and bool not in map(type, levels[:group_size]):
            return
    except (TypeError, ValueError):
        pass
    num_levels = pool[-1]
    counts = [0] * num_levels
    for level in assignment:
        if not 1 <= level <= num_levels:
            raise ValueError(f"level index {level} out of range 1..{num_levels}")
        if isinstance(level, (bool, np.bool_)):
            raise TypeError(f"level index {level!r} is not an integer")
        counts[level - 1] += 1
    expected = [group_size] * (num_levels - 1)
    expected.append(n_antennas - (num_levels - 1) * group_size)
    if counts != expected:
        raise ValueError(f"level multiplicities {counts} violate the O-AQ grouping {expected}")


def oaq_levels_for_ranks(ranks, group_size, num_levels):
    """Level index (1-based) assigned to each ascending-sort rank."""
    return np.minimum(ranks // group_size, num_levels - 1) + 1


def ordered_amplitude_quantize(amps, level_set):
    """O-AQ: assign levels by amplitude rank, group_size antennas per level.

    Returns (per-antenna gains, per-antenna 1-based level indices).
    """
    a = np.asarray(amps, dtype=float)
    if a.shape[-1] != level_set.n_antennas:
        raise ValueError(
            f"expected {level_set.n_antennas} amplitudes, got {a.shape[-1]}"
        )
    if not np.all(np.isfinite(a)) or np.any(a < 0):
        raise ValueError("amplitudes must be finite and non-negative")
    ranks = oaq_sort_ranks(a)
    assignment = oaq_levels_for_ranks(ranks, level_set.group_size, level_set.num_levels)
    return level_set.levels[assignment - 1], assignment


def hapq_symbols_from_polar(theta, amps, phase_bits, level_set):
    """H-APQ kernel on polar components.

    Returns (relay symbols, phase indices, level assignment); accepts
    batched inputs.
    """
    indices = phase_index(theta, phase_bits)
    gains, assignment = ordered_amplitude_quantize(amps, level_set)
    return gains * sector_phasor(indices, phase_bits), indices, assignment


def hapq_relay_symbols(received, phase_bits, group_size, level_exponent=2):
    """H-APQ relay output together with its storable state."""
    y = np.asarray(received, dtype=complex)
    if y.ndim != 1:
        raise ValueError("hapq_relay_symbols expects a single received vector")
    level_set = build_level_set(y.shape[-1], group_size, level_exponent)
    symbols, indices, assignment = hapq_symbols_from_polar(
        np.angle(y), np.abs(y), phase_bits, level_set
    )
    spec = QuantizerSpec(
        HAPQ,
        phase_bits=phase_bits,
        group_size=group_size,
        level_exponent=level_exponent,
    )
    state = RelayState(
        spec=spec,
        phase_indices=tuple(int(k) for k in indices),
        amplitude_assignment=tuple(int(a) for a in assignment),
    )
    return symbols, state


# ---------------------------------------------------------------------------
# AF baseline
# ---------------------------------------------------------------------------

def af_symbols_from_norms(received, norms):
    """AF symbols from received vectors and their norms ``_vector_norm(|y|)``."""
    if np.any(norms == 0.0):
        raise ValueError("received vector has zero norm")
    return received / norms[..., None]


def af_relay_symbols(received):
    """Amplify-forward baseline: scale the received vector to unit power."""
    y = np.asarray(received, dtype=complex)
    return af_symbols_from_norms(y, _vector_norm(np.abs(y)))


# ---------------------------------------------------------------------------
# Relay state capture and reconstruction
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RelayState:
    """Stored quantization result: everything the relay keeps in memory.

    ``phase_indices`` always holds one sector index per antenna.  H-APQ
    states carry ``amplitude_assignment`` (1-based level index per
    antenna), U-APQ states carry ``amplitude_bins`` (uniform bin index per
    antenna), and U-PQ states carry neither.
    """

    spec: QuantizerSpec
    phase_indices: tuple
    amplitude_assignment: tuple = ()
    amplitude_bins: tuple = ()

    def __post_init__(self):
        spec = self.spec
        if spec.kind == AF:
            raise ValueError("AF keeps the continuous signal; it has no relay state")
        n = len(self.phase_indices)
        if n == 0:
            raise ValueError("relay state needs at least one antenna")
        spec.validate_for(n)
        pbits = spec.total_bits if spec.kind == UPQ else spec.phase_bits
        if min(self.phase_indices) < 0 or max(self.phase_indices) >= 1 << pbits:
            raise ValueError("phase index out of range")
        if spec.kind == UPQ:
            if self.amplitude_assignment or self.amplitude_bins:
                raise ValueError("U-PQ state carries no amplitude information")
        elif spec.kind == UAPQ:
            if self.amplitude_assignment:
                raise ValueError("U-APQ state uses amplitude_bins, not an assignment")
            if len(self.amplitude_bins) != n:
                raise ValueError("need one amplitude bin per antenna")
            bins = self.amplitude_bins
            if min(bins) < 0 or max(bins) >= 1 << spec.amplitude_bits:
                raise ValueError("amplitude bin out of range")
        else:  # HAPQ
            if self.amplitude_bins:
                raise ValueError("H-APQ state uses an assignment, not amplitude bins")
            if len(self.amplitude_assignment) != n:
                raise ValueError("need one level index per antenna")
            check_oaq_assignment(self.amplitude_assignment, n, spec.group_size)

    @property
    def n_antennas(self):
        return len(self.phase_indices)


def relay_state(received, spec):
    """Quantize a received vector and capture the storable state."""
    y = np.asarray(received, dtype=complex)
    if y.ndim != 1:
        raise ValueError("relay_state expects a single received vector")
    spec.validate_for(y.shape[-1])
    if spec.kind == UPQ:
        indices = phase_index(np.angle(y), spec.total_bits)
        return RelayState(spec=spec, phase_indices=tuple(int(k) for k in indices))
    if spec.kind == UAPQ:
        indices, bins = uapq_parts_from_polar(
            np.angle(y), np.abs(y), spec.total_bits, spec.phase_bits
        )
        return RelayState(
            spec=spec,
            phase_indices=tuple(int(k) for k in indices),
            amplitude_bins=tuple(int(b) for b in bins),
        )
    if spec.kind == HAPQ:
        _, state = hapq_relay_symbols(
            y, spec.phase_bits, spec.group_size, spec.level_exponent
        )
        return state
    raise ValueError("AF keeps the continuous signal; it has no relay state")


def relay_symbols_from_state(state):
    """Rebuild the relay transmit vector from a stored state."""
    spec = state.spec
    indices = np.asarray(state.phase_indices, dtype=np.int64)
    if spec.kind == UPQ:
        return upq_symbols_from_indices(indices, spec.total_bits, state.n_antennas)
    if spec.kind == UAPQ:
        bins = np.asarray(state.amplitude_bins, dtype=np.int64)
        return uapq_symbols_from_parts(indices, bins, spec.total_bits, spec.phase_bits)
    level_set = build_level_set(state.n_antennas, spec.group_size, spec.level_exponent)
    assignment = np.asarray(state.amplitude_assignment, dtype=np.int64)
    return level_set.levels[assignment - 1] * sector_phasor(indices, spec.phase_bits)


def relay_symbols(received, spec):
    """Dispatch to the relay processing of ``spec`` (no state capture).

    Accepts batched input with antennas on the last axis.
    """
    y = np.asarray(received, dtype=complex)
    spec.validate_for(y.shape[-1])
    if spec.kind == UPQ:
        return upq_relay_symbols(y, spec.total_bits)
    if spec.kind == UAPQ:
        return uapq_relay_symbols(y, spec.total_bits, spec.phase_bits)
    if spec.kind == HAPQ:
        level_set = build_level_set(y.shape[-1], spec.group_size, spec.level_exponent)
        symbols, _, _ = hapq_symbols_from_polar(
            np.angle(y), np.abs(y), spec.phase_bits, level_set
        )
        return symbols
    return af_relay_symbols(y)


# ---------------------------------------------------------------------------
# Bit accounting
# ---------------------------------------------------------------------------

def oaq_codeword_count(n_antennas, group_size):
    """Number of distinct O-AQ amplitude assignments, computed exactly.

    Equals n! / ((n - (K-1)m)! * (m!)**(K-1)) evaluated as a product of
    binomials so every intermediate stays an integer.
    """
    _require_positive_int(n_antennas, "n_antennas")
    if not isinstance(group_size, int) or not 1 <= group_size <= n_antennas:
        raise ValueError(
            f"group size m must be in 1..{n_antennas}, got {group_size!r}"
        )
    num_levels = -(-n_antennas // group_size)
    count = 1
    remaining = n_antennas
    for _ in range(num_levels - 1):
        count *= math.comb(remaining, group_size)
        remaining -= group_size
    return count


def assignment_rank_bits(n_antennas, group_size):
    """Bits needed to address one O-AQ assignment among all valid ones."""
    return (oaq_codeword_count(n_antennas, group_size) - 1).bit_length()


def quantizer_bits(spec, n_antennas):
    """Total relay memory bits N_b needed to store one quantized vector."""
    spec.validate_for(n_antennas)
    if spec.kind in (UPQ, UAPQ):
        return spec.total_bits * n_antennas
    if spec.kind == HAPQ:
        return spec.phase_bits * n_antennas + assignment_rank_bits(
            n_antennas, spec.group_size
        )
    raise ValueError("AF forwards the continuous signal; no finite bit count")
