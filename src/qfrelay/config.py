"""Sweep configuration: flat key = value files with repeated [spec] blocks.

Example::

    # 4x4x4 link, QPSK sub-messages
    n_s = 4
    n_r = 4
    n_d = 4
    M = 4
    snr_db_grid = 0 2 4 6 8 10
    trials_per_point = 10000
    seed = 12345

    [spec]
    kind = AF

    [spec]
    kind = HAPQ
    qbar = 4
    m = 2

Unknown and repeated keys are rejected so typos fail loudly.  A top-level
key is required when its ``SweepConfig`` field has no default: n_s, n_r,
n_d, M, snr_db_grid, trials_per_point and seed.  A missing optional key
takes ``SweepConfig``'s default (``detector`` mismatched,
``marginal_samples`` 64), except ``workers``, which defaults to the
available cores; a sweep starts at most min(workers, tasks, cores) worker
processes.
``SweepConfig`` checks the link point (n_s, n_r, n_d, M, the specs,
detector and marginal_samples) through ``engine.check_point``, as
``PointConfig`` and ``count_errors`` do, and with it the two caps, which
live in :mod:`qfrelay.engine` next to the rule they bound; this module
re-exports them.  Both detectors search the candidate messages in blocks,
but first build products of all of them, so the candidate count C = M**n_s
may be at most ``MAX_CANDIDATES`` (2**16).  One trial's largest complex
array family, ``engine.trial_bytes``, which gives its formulas, may take
at most ``MAX_TRIAL_BYTES`` (64 MiB).
Every snr_db_grid point must lie within +-``channel.MAX_SNR_DB`` (1000 dB),
and q and qbar may be at most ``quantizers.MAX_BITS`` (16).
"""

from __future__ import annotations

import dataclasses
import os

from .channel import snr_db_to_sigma2
# the caps are re-exported, so qfrelay.config.MAX_CANDIDATES and
# qfrelay.config.MAX_TRIAL_BYTES resolve beside the config they bound
from .engine import MAX_CANDIDATES, MAX_TRIAL_BYTES, check_point
from .quantizers import KINDS, PARAM_KEYS, QuantizerSpec, check_count, check_key


class ConfigError(Exception):
    """Base class for configuration failures."""


class ConfigParseError(ConfigError):
    """The file is not syntactically a key = value / [spec] document."""


class ConfigValidationError(ConfigError):
    """The file parsed but a field is missing, unknown or out of range."""


_SPEC_KEYS = ("kind", *PARAM_KEYS.values())


@dataclasses.dataclass(frozen=True)
class SweepConfig:
    """Validated description of one BER sweep."""

    n_source: int
    n_relay: int
    n_dest: int
    alphabet: int
    specs: tuple
    snr_db_grid: tuple
    trials_per_point: int
    seed: int
    detector: str = "mismatched"
    marginal_samples: int = 64
    workers: int = 1

    def __post_init__(self):
        # the link point is checked by the engine; only the sweep's own
        # fields are checked here
        try:
            check_point(self.n_source, self.n_relay, self.n_dest, self.alphabet, self.specs,
                        self.detector, self.marginal_samples)
            check_count("trials_per_point", self.trials_per_point)
            check_count("workers", self.workers)
            check_key("seed", self.seed)
            if not self.snr_db_grid:
                raise ValueError("snr_db_grid must not be empty")
            # each point is checked, its type first, before the points are compared
            for snr_db in self.snr_db_grid:
                snr_db_to_sigma2(snr_db)
            if any(b <= a for a, b in zip(self.snr_db_grid, self.snr_db_grid[1:])):
                raise ValueError("snr_db_grid not ascending")
        except ValueError as exc:
            raise ConfigValidationError(str(exc)) from exc


def _parse_int(key, raw):
    try:
        return int(raw)
    except ValueError as exc:
        raise ConfigValidationError(f"{key} must be an integer, got {raw!r}") from exc


def _parse_grid(key, raw):
    try:
        return tuple(float(v) for v in raw.replace(",", " ").split())
    except ValueError as exc:
        raise ConfigValidationError(f"{key} must be a list of numbers, got {raw!r}") from exc


# config key -> (SweepConfig field, parser of its value text), one entry per
# field but specs, which the [spec] blocks give
_TOP_FIELDS = {
    "n_s": ("n_source", _parse_int),
    "n_r": ("n_relay", _parse_int),
    "n_d": ("n_dest", _parse_int),
    "M": ("alphabet", _parse_int),
    "snr_db_grid": ("snr_db_grid", _parse_grid),
    "trials_per_point": ("trials_per_point", _parse_int),
    "seed": ("seed", _parse_int),
    "detector": ("detector", lambda key, raw: raw),
    "marginal_samples": ("marginal_samples", _parse_int),
    "workers": ("workers", _parse_int),
}


def _insert(fields, key, value, known, noun, duplicate_noun=None):
    """Set ``fields[key] = value``; a key not in ``known``, or one already
    set, is rejected with ``noun`` (or ``duplicate_noun``) naming it."""
    if key not in known:
        raise ConfigValidationError(f"unknown {noun} {key!r}")
    if key in fields:
        raise ConfigValidationError(f"duplicate {duplicate_noun or noun} {key!r}")
    fields[key] = value


def _spec_from_fields(fields):
    """Build a QuantizerSpec from fields that ``_insert`` checked against
    ``_SPEC_KEYS``."""
    kind = fields.get("kind")
    if kind is None:
        raise ConfigValidationError("spec block is missing 'kind'")
    kind = kind.upper().replace("-", "")
    if kind not in KINDS:
        raise ConfigValidationError(f"unknown spec kind {fields['kind']!r}")
    values = {
        attr: _parse_int(key, fields[key])
        for attr, key in PARAM_KEYS.items()
        if key in fields
    }
    try:
        return QuantizerSpec(kind, **values)
    except ValueError as exc:
        raise ConfigValidationError(str(exc)) from exc


def parse_spec_string(text):
    """Parse a compact spec string such as ``HAPQ:qbar=4,m=2,n=2`` or ``AF``.

    ``n`` is accepted as shorthand for ``family_n``.
    """
    head, _, rest = text.partition(":")
    fields = {"kind": head.strip()}
    if rest.strip():
        for item in rest.split(","):
            key, sep, value = item.partition("=")
            if not sep:
                raise ConfigValidationError(f"malformed spec parameter {item!r}")
            key = key.strip()
            if key == "n":
                key = "family_n"
            _insert(fields, key, value.strip(), _SPEC_KEYS, "spec key", "spec parameter")
    return _spec_from_fields(fields)


def _parse_lines(text):
    top = {}
    spec_blocks = []
    current, known, noun = top, _TOP_FIELDS, "key"
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            if line != "[spec]":
                raise ConfigParseError(f"line {lineno}: unknown section {line!r}")
            current, known, noun = {}, _SPEC_KEYS, "spec key"
            spec_blocks.append(current)
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ConfigParseError(f"line {lineno}: expected 'key = value', got {raw_line!r}")
        _insert(current, key.strip(), value.strip(), known, noun)
    return top, spec_blocks


def parse_config(path):
    """Load and validate a sweep configuration file."""
    with open(path, "r", encoding="utf-8") as handle:
        top, spec_blocks = _parse_lines(handle.read())
    defaults = {field.name: field.default for field in dataclasses.fields(SweepConfig)}
    values = {"workers": os.cpu_count() or 1}  # a file's default is the core count
    for key, (name, parse) in _TOP_FIELDS.items():
        if key in top:
            values[name] = parse(key, top[key])
        elif defaults[name] is dataclasses.MISSING:
            raise ConfigValidationError(f"missing required key {key!r}")
    specs = tuple(_spec_from_fields(block) for block in spec_blocks)
    return SweepConfig(specs=specs, **values)
