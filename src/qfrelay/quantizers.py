"""Relay quantization schemes for MIMO quantize-forward links.

Implements uniform phase quantization (U-PQ), uniform amplitude-phase
quantization (U-APQ), hybrid amplitude-phase quantization (H-APQ, built on
ordered amplitude quantization, O-AQ) and the amplify-forward baseline,
plus the memory-bit accounting for each method.

Every method quantizes along one path.  The public entry points
(:func:`relay_symbols` and :func:`relay_state`) check their input once: it
must be complex-convertible, fit the spec's antenna count and be finite.
The checked vectors become a :class:`CandidateBasis`, their polar view with
the phase indices, amplitude ranks and norms memoized, and one per-kind
kernel in :func:`candidate_relay_symbols` maps that basis to relay symbols.
The engine builds the same basis over its candidate stacks, so a single
received vector, a relay batch and a Monte Carlo candidate stack are
quantized by the same code.  No kernel sees unchecked data; the last axis
is the antenna axis and any leading axes are independent inputs.  The
public helpers ``wrap_phase``, ``amplitude_bin`` and
``ordered_amplitude_quantize`` keep their own input checks.
"""

from __future__ import annotations

import math
from array import array
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

# The parameter schema of every relay method, the one place it is written.
# PARAM_KEYS maps each QuantizerSpec parameter attribute to its config and
# CSV key, in CSV column order; KIND_PARAMS lists the attributes each kind
# takes, in label and container-header order.  Labels write family_n as n.
PARAM_KEYS = {
    "total_bits": "q",
    "phase_bits": "qbar",
    "group_size": "m",
    "level_exponent": "family_n",
}
KIND_PARAMS = {
    UPQ: ("total_bits",),
    UAPQ: ("total_bits", "phase_bits"),
    HAPQ: ("phase_bits", "group_size", "level_exponent"),
    AF: (),
}
_LABEL_KEYS = {**PARAM_KEYS, "level_exponent": "n"}
# largest q and qbar a spec takes.  A b-bit budget builds 2**b-entry phasor
# and bin-center tables, so the largest is 2**16 complex entries, 1 MiB, and
# the int64 sector indices of phase_index cannot overflow
MAX_BITS = 16
_BIT_BUDGETS = ("total_bits", "phase_bits")


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
    proportional to k**(n/2).  AF carries no parameters.  ``KIND_PARAMS``
    says which parameters each kind takes.
    """

    kind: str
    total_bits: int | None = None
    phase_bits: int | None = None
    group_size: int | None = None
    level_exponent: int | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown quantizer kind {self.kind!r}")
        if self.kind == HAPQ and self.level_exponent is None:
            object.__setattr__(self, "level_exponent", 2)
        params = KIND_PARAMS[self.kind]
        for attr in params:
            value = getattr(self, attr)
            _require_positive_int(value, PARAM_KEYS[attr])
            if attr in _BIT_BUDGETS and value > MAX_BITS:
                raise ValueError(f"{PARAM_KEYS[attr]} must be at most {MAX_BITS}, got {value}")
        if self.kind == UAPQ and self.phase_bits >= self.total_bits:
            raise ValueError(
                f"U-APQ needs qbar < q, got qbar={self.phase_bits} q={self.total_bits}"
            )
        if self.kind == HAPQ and self.level_exponent > 4:
            raise ValueError(f"family_n must be in 1..4, got {self.level_exponent}")
        for attr in PARAM_KEYS:
            if attr not in params and getattr(self, attr) is not None:
                raise ValueError(f"{self.kind} does not take {attr}")

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
        params = ",".join(
            f"{_LABEL_KEYS[attr]}={getattr(self, attr)}" for attr in KIND_PARAMS[self.kind]
        )
        return f"{name}({params})" if params else name


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

    ``norms`` is ``CandidateBasis.norms()``, nonzero and shared by every
    budget quantized from the same amplitudes.
    """
    ratios = amps / norms[..., None]
    # float roundoff can push the largest ratio a hair above 1
    np.minimum(ratios, 1.0, out=ratios)
    return amplitude_bin(ratios, amplitude_bits)


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
    last); this kernel does not check, so the public entry points reject
    non-finite input before it gets here: ``ordered_amplitude_quantize``
    its amplitudes, and the entry check of ``relay_symbols`` and
    ``relay_state`` (which every relay function goes through) the received
    vector.
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


# ---------------------------------------------------------------------------
# The polar basis and the one kernel per kind
# ---------------------------------------------------------------------------

class CandidateBasis:
    """Polar view of relay inputs with memoized shared pieces.

    ``values`` holds complex relay inputs, antennas on the last axis: a
    single received vector, a relay batch of them, or the engine's
    candidate stacks.  The angles, amplitudes, phase indices, amplitude
    sort ranks, vector norms and H-APQ table offsets are shared by every
    quantizer evaluated on the same inputs, so each is computed once per
    basis, on first use: a kind computes only what it reads.  The inputs
    are finite: they passed the entry check of ``relay_symbols`` or
    ``relay_state``, or are products of finite draws.

    ``held`` keeps the last spec's candidate stack alive until the next
    spec's replaces it.  Freed when its scoring function returns, the whole
    per-spec working set would sit free at the top of the heap, malloc would
    hand it back to the OS, and every spec would page-fault it in again.
    """

    __slots__ = ("values", "_theta", "_amps", "_phase", "_ranks", "_norms", "_flat", "held")

    def __init__(self, values):
        self.values = values
        self._theta = None
        self._amps = None
        self._phase = {}
        self._ranks = None
        self._norms = None
        self._flat = {}
        self.held = None

    def theta(self):
        if self._theta is None:
            self._theta = np.angle(self.values)
        return self._theta

    def phase_indices(self, bits):
        if bits not in self._phase:
            self._phase[bits] = phase_index(self.theta(), bits)
        return self._phase[bits]

    def amps(self):
        if self._amps is None:
            self._amps = np.abs(self.values)
        return self._amps

    def ranks(self):
        if self._ranks is None:
            self._ranks = oaq_sort_ranks(self.amps())
        return self._ranks

    def norms(self):
        """Vector norms of the amplitudes; U-APQ and AF cannot scale a zero one."""
        if self._norms is None:
            norms = _vector_norm(self.amps())
            if np.any(norms == 0.0):
                raise ValueError("received vector has zero norm")
            self._norms = norms
        return self._norms

    def level_phase_offsets(self, level_set, phase_bits):
        """Flat offset of entry [level - 1, phase index] in the H-APQ table.

        The table is row-major, (levels, 2**phase_bits).  The level exponent
        only changes its entries, so specs differing in it share the offsets.
        """
        key = (level_set.group_size, phase_bits)
        if key not in self._flat:
            flat = oaq_levels_for_ranks(self.ranks(), level_set.group_size, level_set.num_levels)
            flat -= 1
            flat *= 1 << phase_bits
            flat += self.phase_indices(phase_bits)
            self._flat[key] = flat
        return self._flat[key]


@lru_cache(maxsize=None)
def _hapq_tables(phase_bits, group_size, level_exponent, n_antennas):
    level_set = build_level_set(n_antennas, group_size, level_exponent)
    phasors = sector_phasor(np.arange(1 << phase_bits), phase_bits)
    # entry [l-1, k] is levels[l-1] * phasor[k], the elementwise product
    gain_phasor = level_set.levels[:, None] * phasors[None, :]
    gain_phasor.flags.writeable = False
    return level_set, gain_phasor


def candidate_relay_symbols(spec, basis):
    """Relay symbols of one method from a basis: the kernel of every kind."""
    n_antennas = basis.values.shape[-1]
    if spec.kind == UPQ:
        indices = basis.phase_indices(spec.total_bits)
        return upq_symbols_from_indices(indices, spec.total_bits, n_antennas)
    if spec.kind == UAPQ:
        bins = uapq_amplitude_bins(basis.amps(), basis.norms(), spec.amplitude_bits)
        indices = basis.phase_indices(spec.phase_bits)
        return uapq_symbols_from_parts(indices, bins, spec.total_bits, spec.phase_bits)
    if spec.kind == HAPQ:
        level_set, gain_phasor = _hapq_tables(
            spec.phase_bits, spec.group_size, spec.level_exponent, n_antennas
        )
        return gain_phasor.take(basis.level_phase_offsets(level_set, spec.phase_bits))
    return basis.values / basis.norms()[..., None]


# ---------------------------------------------------------------------------
# Relay processing entry points
# ---------------------------------------------------------------------------

def _checked_received(received, spec):
    """The entry check: a complex array that fits ``spec``, every entry finite."""
    y = np.asarray(received, dtype=complex)
    spec.validate_for(y.shape[-1])
    if not np.isfinite(y).all():
        raise ValueError("received vector must be finite")
    return y


def relay_symbols(received, spec):
    """Relay processing of ``spec`` (no state capture).

    Accepts batched input with antennas on the last axis.
    """
    return candidate_relay_symbols(spec, CandidateBasis(_checked_received(received, spec)))


def upq_relay_symbols(received, bits):
    """U-PQ relay output: quantized phases on the unit-power sphere."""
    return relay_symbols(received, QuantizerSpec(UPQ, total_bits=bits))


def uapq_relay_symbols(received, total_bits, phase_bits):
    """U-APQ relay output: quantized phases and renormalized binned amplitudes.

    Every amplitude must be nonzero.  Over its vector's norm it lies in
    (0, 1], which the bins over [0, 1) cover with 1 clamped into the top
    bin; a zero entry raises "normalized amplitudes must lie in (0, 1]",
    and an all-zero vector "received vector has zero norm".
    """
    spec = QuantizerSpec(UAPQ, total_bits=total_bits, phase_bits=phase_bits)
    return relay_symbols(received, spec)


def hapq_relay_symbols(received, phase_bits, group_size, level_exponent=2):
    """H-APQ relay output for one received vector, with its storable state."""
    spec = QuantizerSpec(
        HAPQ,
        phase_bits=phase_bits,
        group_size=group_size,
        level_exponent=level_exponent,
    )
    state = relay_state(received, spec)
    return relay_symbols_from_state(state), state


def af_relay_symbols(received):
    """Amplify-forward baseline: scale the received vector to unit power."""
    return relay_symbols(received, QuantizerSpec(AF))


# ---------------------------------------------------------------------------
# Relay state capture and reconstruction
# ---------------------------------------------------------------------------

def _check_indices(entries, bits, name):
    """Check that a state field's entries lie in [0, 2**bits).

    One ``array`` pass raises ``TypeError`` for an entry ``operator.index``
    refuses (a float such as 1.5 or 1.0) and ``OverflowError`` for a
    negative or huge one, which becomes ``ValueError("<name> out of
    range")`` as a too-large entry does.  ``iter`` makes ``array`` read a
    bytes object as its byte values, not as machine words.
    """
    try:
        if max(array("L", iter(entries))) < 1 << bits:
            return
    except OverflowError:
        pass
    raise ValueError(f"{name} out of range")


@dataclass(frozen=True)
class RelayState:
    """Stored quantization result: everything the relay keeps in memory.

    ``phase_indices`` always holds one sector index per antenna.  H-APQ
    states carry ``amplitude_assignment`` (1-based level index per
    antenna), U-APQ states carry ``amplitude_bins`` (uniform bin index per
    antenna), and U-PQ states carry neither.  Every entry is an integer: a
    float, even 1.0, is a ``TypeError``.
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
        _check_indices(self.phase_indices, pbits, "phase index")
        if spec.kind == UPQ:
            if self.amplitude_assignment or self.amplitude_bins:
                raise ValueError("U-PQ state carries no amplitude information")
        elif spec.kind == UAPQ:
            if self.amplitude_assignment:
                raise ValueError("U-APQ state uses amplitude_bins, not an assignment")
            if len(self.amplitude_bins) != n:
                raise ValueError("need one amplitude bin per antenna")
            _check_indices(self.amplitude_bins, spec.amplitude_bits, "amplitude bin")
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
    """Quantize one received vector and capture the storable state."""
    if spec.kind == AF:
        raise ValueError("AF keeps the continuous signal; it has no relay state")
    if np.ndim(received) != 1:
        raise ValueError("relay_state expects a single received vector")
    basis = CandidateBasis(_checked_received(received, spec))
    if spec.kind == UPQ:
        return RelayState(spec, tuple(basis.phase_indices(spec.total_bits).tolist()))
    indices = tuple(basis.phase_indices(spec.phase_bits).tolist())
    if spec.kind == UAPQ:
        bins = uapq_amplitude_bins(basis.amps(), basis.norms(), spec.amplitude_bits)
        return RelayState(spec, indices, amplitude_bins=tuple(bins.tolist()))
    level_set = build_level_set(len(indices), spec.group_size, spec.level_exponent)
    levels = oaq_levels_for_ranks(basis.ranks(), spec.group_size, level_set.num_levels)
    return RelayState(spec, indices, amplitude_assignment=tuple(levels.tolist()))


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
