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

Unknown keys are rejected so typos fail loudly.  ``detector`` (mismatched),
``marginal_samples`` (64) and ``workers`` (available cores) are optional.
The detectors score every candidate message, so the candidate count
C = M**n_s may be at most ``MAX_CANDIDATES`` (2**16).
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from .codebook import SUPPORTED_ALPHABETS
from .engine import DETECTORS
from .quantizers import KINDS, QuantizerSpec


class ConfigError(Exception):
    """Base class for configuration failures."""


class ConfigParseError(ConfigError):
    """The file is not syntactically a key = value / [spec] document."""


class ConfigValidationError(ConfigError):
    """The file parsed but a field is missing, unknown or out of range."""


_TOP_KEYS = (
    "n_s", "n_r", "n_d", "M", "snr_db_grid", "trials_per_point",
    "seed", "detector", "marginal_samples", "workers",
)
_SPEC_KEYS = ("kind", "q", "qbar", "m", "family_n")
# largest candidate count C = M**n_s a sweep may enumerate: a detector batch
# holds every candidate, and at the cap the relay inputs of a 256-trial
# mismatched batch at n_r = 4 already take 1 GiB
MAX_CANDIDATES = 1 << 16

_REQUIRED_TOP = ("n_s", "n_r", "n_d", "M", "snr_db_grid", "trials_per_point", "seed")


@dataclass(frozen=True)
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
        for name in ("n_source", "n_relay", "n_dest"):
            value = getattr(self, name)
            if not isinstance(value, int) or value < 1:
                raise ConfigValidationError(f"{name} must be a positive integer")
        if self.alphabet not in SUPPORTED_ALPHABETS:
            raise ConfigValidationError(
                f"M must be one of {SUPPORTED_ALPHABETS}, got {self.alphabet}"
            )
        candidates = self.alphabet**self.n_source
        if candidates > MAX_CANDIDATES:
            raise ConfigValidationError(
                f"candidate count C = M**n_s = {candidates} exceeds the cap of "
                f"{MAX_CANDIDATES}"
            )
        if not self.specs:
            raise ConfigValidationError("at least one [spec] block is required")
        for spec in self.specs:
            try:
                spec.validate_for(self.n_relay)
            except ValueError as exc:
                raise ConfigValidationError(str(exc)) from exc
        if not self.snr_db_grid:
            raise ConfigValidationError("snr_db_grid must not be empty")
        if any(b <= a for a, b in zip(self.snr_db_grid, self.snr_db_grid[1:])):
            raise ConfigValidationError("snr_db_grid not ascending")
        if not isinstance(self.trials_per_point, int) or self.trials_per_point < 1:
            raise ConfigValidationError("trials_per_point must be a positive integer")
        if not isinstance(self.seed, int) or self.seed < 0:
            raise ConfigValidationError("seed must be a non-negative integer")
        if self.detector not in DETECTORS:
            raise ConfigValidationError(f"detector must be one of {DETECTORS}")
        if not isinstance(self.marginal_samples, int) or self.marginal_samples < 1:
            raise ConfigValidationError("marginal_samples must be a positive integer")
        if not isinstance(self.workers, int) or self.workers < 1:
            raise ConfigValidationError("workers must be a positive integer")


def _parse_int(key, raw):
    try:
        return int(raw)
    except ValueError as exc:
        raise ConfigValidationError(f"{key} must be an integer, got {raw!r}") from exc


def spec_from_fields(fields):
    """Build a QuantizerSpec from config fields named kind/q/qbar/m/family_n."""
    unknown = set(fields) - set(_SPEC_KEYS)
    if unknown:
        raise ConfigValidationError(f"unknown spec key {sorted(unknown)[0]!r}")
    kind = fields.get("kind")
    if kind is None:
        raise ConfigValidationError("spec block is missing 'kind'")
    kind = kind.upper().replace("-", "")
    if kind not in KINDS:
        raise ConfigValidationError(f"unknown spec kind {fields['kind']!r}")
    values = {
        key: _parse_int(key, fields[key])
        for key in ("q", "qbar", "m", "family_n")
        if key in fields
    }
    try:
        return QuantizerSpec(
            kind,
            total_bits=values.get("q"),
            phase_bits=values.get("qbar"),
            group_size=values.get("m"),
            level_exponent=values.get("family_n"),
        )
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
            if key in fields:
                raise ConfigValidationError(f"duplicate spec parameter {key!r}")
            fields[key] = value.strip()
    return spec_from_fields(fields)


def _parse_lines(text):
    top = {}
    spec_blocks = []
    current = None  # None while in the top section
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            if line != "[spec]":
                raise ConfigParseError(f"line {lineno}: unknown section {line!r}")
            current = {}
            spec_blocks.append(current)
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ConfigParseError(f"line {lineno}: expected 'key = value', got {raw_line!r}")
        key = key.strip()
        value = value.strip()
        if current is None:
            if key not in _TOP_KEYS:
                raise ConfigValidationError(f"unknown key {key!r}")
            if key in top:
                raise ConfigValidationError(f"duplicate key {key!r}")
            top[key] = value
        else:
            if key not in _SPEC_KEYS:
                raise ConfigValidationError(f"unknown spec key {key!r}")
            if key in current:
                raise ConfigValidationError(f"duplicate spec key {key!r}")
            current[key] = value
    return top, spec_blocks


def parse_config(path):
    """Load and validate a sweep configuration file."""
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    top, spec_blocks = _parse_lines(text)
    for key in _REQUIRED_TOP:
        if key not in top:
            raise ConfigValidationError(f"missing required key {key!r}")
    try:
        grid = tuple(float(v) for v in top["snr_db_grid"].replace(",", " ").split())
    except ValueError as exc:
        raise ConfigValidationError(
            f"snr_db_grid must be a list of numbers, got {top['snr_db_grid']!r}"
        ) from exc
    specs = tuple(spec_from_fields(block) for block in spec_blocks)
    return SweepConfig(
        n_source=_parse_int("n_s", top["n_s"]),
        n_relay=_parse_int("n_r", top["n_r"]),
        n_dest=_parse_int("n_d", top["n_d"]),
        alphabet=_parse_int("M", top["M"]),
        specs=specs,
        snr_db_grid=grid,
        trials_per_point=_parse_int("trials_per_point", top["trials_per_point"]),
        seed=_parse_int("seed", top["seed"]),
        detector=top.get("detector", "mismatched"),
        marginal_samples=_parse_int(
            "marginal_samples", top.get("marginal_samples", "64")
        ),
        workers=_parse_int("workers", top.get("workers", str(os.cpu_count() or 1))),
    )
