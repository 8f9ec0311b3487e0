"""Relay quantization schemes for MIMO quantize-forward links.

Implements uniform phase quantization (U-PQ), uniform amplitude-phase
quantization (U-APQ), hybrid amplitude-phase quantization (H-APQ, built on
ordered amplitude quantization, O-AQ) and the amplify-forward baseline,
plus the memory-bit accounting for each method.

Every quantizing method is written as two halves.  The quantize half maps
a :class:`CandidateBasis` (the polar view of checked inputs, with phase
indices, amplitude ranks and norms memoized) to the codes the relay stores:
the phase indices, plus U-APQ's amplitude bins or, for H-APQ, the flat
offsets (level - 1) * 2**qbar + phase index into its gain-phasor table.
The rebuild half maps those codes to relay symbols.  Every entry point is
made of the two: :func:`candidate_relay_symbols` rebuilds what it quantizes
(AF, which stores nothing, scales its input to unit power),
:func:`relay_state` keeps the quantized codes in a :class:`RelayState` and
:func:`relay_symbols_from_state` rebuilds from a state's codes.  The engine
builds the same basis over its candidate stacks, so a single received
vector, a relay batch, a Monte Carlo candidate stack and a stored state
reach one rebuild per method.

Every method is run through the same public entry points, which take a
:class:`QuantizerSpec` rather than a method's parameters:
``relay_symbols(y, spec)`` gives the transmit vector of any method, AF
included, and for the quantizing methods ``relay_state(y, spec)`` gives
the state a relay stores and ``relay_symbols_from_state(state)`` rebuilds
from it.  The two that take received input check it once: it must be
complex-convertible, fit the spec's antenna count and be finite.  No half
sees unchecked data; the last axis is the antenna axis and any leading
axes are independent inputs.  The public helpers ``wrap_phase``,
``amplitude_bin`` and ``ordered_amplitude_quantize`` keep their own input
checks.
"""

from __future__ import annotations

import math
from array import array
from collections import Counter
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


def check_count(name, value, kinds=int):
    """Raise ``ValueError`` naming ``name`` unless ``value`` is a positive
    instance of ``kinds`` (Python ints by default), bools excluded.

    The one positive-count rule of the package: spec parameters, antenna
    counts, link dims, sample, batch, trial and worker counts.
    """
    if not isinstance(value, kinds) or isinstance(value, bool) or value < 1:
        raise ValueError(f"{name} must be a positive int, got {value!r}")


def check_key(name, value):
    """Raise ``ValueError`` naming ``name`` unless ``value`` is a
    non-negative Python or numpy int, bools excluded.

    The one rule for the keys of a trial's random stream: seeds, SNR
    indices and trial indices, which the public entry points check once
    per call.
    """
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool) or value < 0:
        raise ValueError(f"{name} must be a non-negative int, got {value!r}")


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
            check_count(PARAM_KEYS[attr], value)
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
        check_count("n_antennas", n_antennas)
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

    A scalar gives a ``float`` and an array a fresh array.  Exact shortcut:
    for |theta| <= 2*pi, fmod is exact, so np.mod(theta, 2*pi) is theta, or
    theta + 2*pi when theta < 0, which is what the shortcut adds.
    """
    angles = np.atleast_1d(np.asarray(theta, dtype=float))
    # min and max carry a NaN through, so every entry here is finite
    if angles.size and -TWO_PI <= angles.min() and angles.max() <= TWO_PI:
        wrapped = (angles < 0).astype(float)
        wrapped *= TWO_PI
        wrapped += angles
    elif not np.all(np.isfinite(angles)):
        raise ValueError("phase must be finite")
    else:
        wrapped = np.mod(angles, TWO_PI)
    # a tiny negative input rounds up to exactly 2*pi, and 2*pi passes the
    # shortcut unchanged
    wrapped[wrapped == TWO_PI] = 0.0
    return float(wrapped[0]) if np.ndim(theta) == 0 else wrapped


def phase_index(theta, bits):
    """Sector index of the uniform phase quantizer.

    Sector k covers ((2k-1)*pi/2**bits, (2k+1)*pi/2**bits], i.e. the upper
    boundary belongs to the lower sector, and the result is in
    {0, ..., 2**bits - 1}: an ``int`` for a scalar, an int64 array otherwise.
    """
    check_count("phase bits", bits)
    wrapped = wrap_phase(np.atleast_1d(np.asarray(theta, dtype=float)))
    sectors = 1 << bits
    # ceil(theta * 2**bits / (2*pi) - 0.5) in the fresh array wrap_phase
    # returned; the index is non-negative, so masking equals the modulo
    wrapped *= sectors
    wrapped /= TWO_PI
    wrapped -= 0.5
    np.ceil(wrapped, out=wrapped)
    index = wrapped.astype(np.int64)
    index &= sectors - 1
    return int(index[0]) if np.ndim(theta) == 0 else index


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
# Uniform amplitude quantization (the amplitude half of U-APQ)
# ---------------------------------------------------------------------------

def amplitude_bin(values, bits):
    """Bin index of a (0, 1] value under uniform quantization over [0, 1).

    A value of exactly 1.0 is clamped into the top bin.
    """
    check_count("amplitude bits", bits)
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


def _vector_norm(amps):
    return np.sqrt(np.einsum("...i,...i->...", amps, amps))


# the smallest normal float; below its square root a sum of squares is
# subnormal or zero
_TINY = float(np.finfo(float).tiny)
_SQRT_TINY = math.sqrt(_TINY)


# ---------------------------------------------------------------------------
# H-APQ level sets and ordered amplitude quantization
# ---------------------------------------------------------------------------

@lru_cache(maxsize=1024, typed=True)
def oaq_level_multiset(n_antennas, group_size):
    """Sorted level indices of every valid O-AQ assignment, as a tuple.

    The one definition of the O-AQ grouping, which the level set, the
    assignment check and the codeword count read: the antennas in ascending
    amplitude order take levels 1, 2, ... in groups of ``group_size``, so
    there are K = ceil(n / m) levels, m antennas on each and the remainder
    on the top one.  Each level index appears once per antenna it is
    assigned to.  Raises ``ValueError`` unless both arguments are integers,
    not bools, with 1 <= group_size <= n_antennas.
    """
    check_count("n_antennas", n_antennas)
    if (not isinstance(group_size, int) or isinstance(group_size, bool)
            or not 1 <= group_size <= n_antennas):
        raise ValueError(f"group size m must be in 1..{n_antennas}, got {group_size!r}")
    return tuple(rank // group_size + 1 for rank in range(n_antennas))


@dataclass(frozen=True, eq=False)
class LevelSet:
    """Ascending amplitude levels satisfying the unit transmit-power identity."""

    levels: np.ndarray
    spacing: float
    num_levels: int
    group_size: int
    n_antennas: int

    def __post_init__(self):
        pool = oaq_level_multiset(self.n_antennas, self.group_size)
        if self.num_levels != pool[-1]:
            raise ValueError("num_levels must equal ceil(n_antennas / group_size)")
        if len(self.levels) != self.num_levels:
            raise ValueError("levels length must equal num_levels")
        if np.any(self.levels <= 0) or np.any(np.diff(self.levels) <= 0):
            raise ValueError("levels must be positive and strictly ascending")
        power = float(np.sum(self.levels[np.subtract(pool, 1)] ** 2))
        if abs(power - 1.0) >= 1e-12:
            raise ValueError(f"level set violates the power identity: {power!r}")


@lru_cache(maxsize=None, typed=True)
def build_level_set(n_antennas, group_size, level_exponent=2):
    """Construct the H-APQ level set a_k = k**(n/2) * spacing.

    The spacing is fixed by unit transmit power: the sum of a_k**2 over the
    O-AQ level multiset, one term per antenna, is 1.
    """
    check_count("family_n", level_exponent)
    pool = oaq_level_multiset(n_antennas, group_size)
    spacing = 1.0 / math.sqrt(sum(level**level_exponent for level in pool))
    levels = spacing * np.arange(1, pool[-1] + 1, dtype=float) ** (0.5 * level_exponent)
    levels.flags.writeable = False
    return LevelSet(levels, spacing, pool[-1], group_size, n_antennas)


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
    expected = list(Counter(pool).values())
    if counts != expected:
        raise ValueError(f"level multiplicities {counts} violate the O-AQ grouping {expected}")


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
    # a rank r < n takes level r // m + 1, at most K, as in the multiset
    assignment = oaq_sort_ranks(a) // level_set.group_size + 1
    return level_set.levels[assignment - 1], assignment


# ---------------------------------------------------------------------------
# The polar basis and the two halves of every quantizing method
# ---------------------------------------------------------------------------

class CandidateBasis:
    """Polar view of relay inputs with memoized shared pieces.

    ``values`` holds complex relay inputs, antennas on the last axis: a
    single received vector, a relay batch of them, or the engine's
    candidate stacks.  It is what the quantize half of every method reads.
    The angles, amplitudes, phase indices, amplitude sort ranks, vector
    norms and H-APQ table offsets are shared by every quantizer evaluated
    on the same inputs, so each is computed once per basis, on first use:
    a kind computes only what it reads.  The phase indices and the offsets
    are stored codes themselves, which the rebuild half turns into
    symbols.  The inputs are finite: they passed the entry check of
    ``relay_symbols`` or ``relay_state``, or are products of finite draws.

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
        """Vector norms of the amplitudes; U-APQ and AF cannot scale a zero one.

        A row whose sum of squares overflows, underflows to zero or loses
        bits as a subnormal is recomputed with its amplitudes scaled by an
        exact power of two, 2**-e for the frexp exponent e of its largest
        amplitude, and the norm scaled back by 2**e.  Every other row keeps
        the plain einsum's bits.  A norm outside [tiny, 1/tiny], tiny the
        smallest normal float, is rejected, as a zero one is: AF's complex
        division multiplies by 1/norm, which must be a normal float too.
        """
        if self._norms is None:
            amps = self.amps()
            norms = _vector_norm(amps)
            lossy = ~(norms > _SQRT_TINY) | np.isinf(norms)
            if lossy.any():
                norms = np.array(norms)  # a single vector's norm is a scalar
                scaled = amps[lossy]
                _, exponent = np.frexp(scaled.max(axis=-1))
                scaled = np.ldexp(scaled, -exponent[..., None])
                with np.errstate(over="ignore"):
                    norms[lossy] = np.ldexp(_vector_norm(scaled), exponent)
                if np.any(norms == 0.0):
                    raise ValueError("received vector has zero norm")
                if not np.all((norms >= _TINY) & (norms <= 1.0 / _TINY)):
                    raise ValueError(
                        f"received vector norm lies outside [{_TINY:.3g}, {1.0 / _TINY:.3g}]"
                    )
            self._norms = norms
        return self._norms

    def level_phase_offsets(self, group_size, phase_bits):
        """Flat offset of entry [level - 1, phase index] in the H-APQ table.

        The table is row-major, (levels, 2**phase_bits), and level - 1 is
        rank // group_size.  The level exponent only changes its entries, so
        specs differing in it share the offsets.
        """
        key = (group_size, phase_bits)
        if key not in self._flat:
            flat = self.ranks() // group_size
            flat *= 1 << phase_bits
            flat += self.phase_indices(phase_bits)
            self._flat[key] = flat
        return self._flat[key]


# largest (levels, 2**qbar) H-APQ gain-phasor table that is built and
# cached, 64 KiB, at most 64 of them; larger ones would grow with the inputs
# (32 MiB for one 32-antenna vector at qbar = 16, m = 1), so their entries
# are computed.  The table stays for the small specs the sweeps run: an
# entry is one complex gather from it, against a level gather, a phasor
# gather and a real x complex product without it (70 against 260 us for
# 65536 entries at qbar = 4, N_R = 4 on a 2-core Xeon, numpy 2.4)
_HAPQ_TABLE_ENTRIES = 4096


@lru_cache(maxsize=64)
def _hapq_tables(phase_bits, group_size, level_exponent, n_antennas):
    levels = build_level_set(n_antennas, group_size, level_exponent).levels
    # entry [l-1, k] is levels[l-1] * phasor[k], the elementwise product
    gain_phasor = levels[:, None] * _phasor_table(phase_bits)[None, :]
    gain_phasor.flags.writeable = False
    return gain_phasor


def _quantize(spec, basis):
    """The quantize half of a method: the codes the relay stores, as arrays.

    U-PQ stores its phase indices, U-APQ a pair of phase indices and
    amplitude bins, and H-APQ the flat offsets (level - 1) * 2**qbar +
    phase index of its gain-phasor table, which hold both of its fields.
    """
    if spec.kind == UPQ:
        return basis.phase_indices(spec.total_bits)
    if spec.kind == UAPQ:
        # each amplitude over its vector's norm, binned; float roundoff can
        # push the largest ratio a hair above 1.  The bins replace the ratios
        # before the phase indices are computed, which frees the float array
        # first: holding it cost the marginalized engine about 5%
        bins = basis.amps() / basis.norms()[..., None]
        bins = amplitude_bin(np.minimum(bins, 1.0, out=bins), spec.amplitude_bits)
        return basis.phase_indices(spec.phase_bits), bins
    return basis.level_phase_offsets(spec.group_size, spec.phase_bits)


def _rebuild(spec, codes, n_antennas):
    """The rebuild half of a method: relay symbols from its stored codes."""
    if spec.kind == UPQ:
        return sector_phasor(codes, spec.total_bits) * (1.0 / math.sqrt(n_antennas))
    if spec.kind == UAPQ:
        indices, bins = codes
        gains = _bin_center_table(spec.amplitude_bits)[bins]
        gains /= _vector_norm(gains)[..., None]
        symbols = sector_phasor(indices, spec.phase_bits)
        symbols *= gains
        return symbols
    bits = spec.phase_bits
    level_set = build_level_set(n_antennas, spec.group_size, spec.level_exponent)
    if level_set.num_levels << bits <= _HAPQ_TABLE_ENTRIES:
        return _hapq_tables(bits, spec.group_size, spec.level_exponent, n_antennas).take(codes)
    # the table's real x complex product, for the entries used only
    gains = level_set.levels.take(codes >> bits)
    return gains * _phasor_table(bits).take(codes & ((1 << bits) - 1))


def candidate_relay_symbols(spec, basis):
    """Relay symbols of one method from a basis: rebuild what is quantized.

    AF stores nothing; it scales its input to unit power.
    """
    if spec.kind == AF:
        return basis.values / basis.norms()[..., None]
    return _rebuild(spec, _quantize(spec, basis), basis.values.shape[-1])


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

    Accepts batched input with antennas on the last axis.  U-APQ needs
    every amplitude nonzero: over its vector's norm it lies in (0, 1],
    which the bins over [0, 1) cover with 1 clamped into the top bin; a
    zero entry raises "normalized amplitudes must lie in (0, 1]", and an
    all-zero vector "received vector has zero norm" (for AF too).
    """
    return candidate_relay_symbols(spec, CandidateBasis(_checked_received(received, spec)))


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
    codes = _quantize(spec, CandidateBasis(_checked_received(received, spec)))
    if spec.kind == UPQ:
        return RelayState(spec, tuple(codes.tolist()))
    if spec.kind == UAPQ:
        indices, bins = codes
        return RelayState(spec, tuple(indices.tolist()), amplitude_bins=tuple(bins.tolist()))
    bits = spec.phase_bits
    return RelayState(spec, tuple((codes & ((1 << bits) - 1)).tolist()),
                      amplitude_assignment=tuple(((codes >> bits) + 1).tolist()))


def relay_symbols_from_state(state):
    """Rebuild the relay transmit vector from a stored state's codes."""
    spec = state.spec
    codes = np.asarray(state.phase_indices, dtype=np.int64)
    if spec.kind == UAPQ:
        codes = codes, np.asarray(state.amplitude_bins, dtype=np.int64)
    elif spec.kind == HAPQ:
        # the H-APQ table offset (level - 1) * 2**qbar + phase index
        codes += (np.asarray(state.amplitude_assignment, dtype=np.int64) - 1) << spec.phase_bits
    return _rebuild(spec, codes, state.n_antennas)


# ---------------------------------------------------------------------------
# Bit accounting
# ---------------------------------------------------------------------------

def oaq_codeword_count(n_antennas, group_size):
    """Number of distinct O-AQ amplitude assignments, computed exactly.

    The arrangements of the level multiset: n! over the product of each
    level's multiplicity factorial, an exact integer division.
    """
    counts = Counter(oaq_level_multiset(n_antennas, group_size)).values()
    return math.factorial(n_antennas) // math.prod(map(math.factorial, counts))


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
