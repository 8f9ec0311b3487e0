"""BER sweeps, memory-bit reports and CSV emission.

A sweep runs trials_per_point trials for every (spec, SNR) pair.  Work is
split into contiguous trial-index chunks handed to a process pool; because
every trial owns its stream and error counts are plain integer sums, the
CSV output is byte-identical for any worker count.
"""

from __future__ import annotations

import csv
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import astuple, dataclass, fields

import numpy as np

from . import engine
from .codebook import build_codebook
from .quantizers import AF, METHOD_LABELS, PARAM_KEYS, quantizer_bits

# each column is the BerRecord attribute of its name, M being ``alphabet``
CSV_COLUMNS = (
    "method", *PARAM_KEYS.values(), "n_s", "n_r", "n_d", "M", "snr_db", "trials",
    "bit_errors", "total_bits", "ber", "n_b", "seed", "stderr",
)


@dataclass(frozen=True)
class BerRecord:
    """One row of sweep output: a (method, SNR) point with its error counts."""

    method: str
    q: int | None
    qbar: int | None
    m: int | None
    family_n: int | None
    n_s: int
    n_r: int
    n_d: int
    alphabet: int
    snr_db: float
    trials: int
    bit_errors: int
    total_bits: int
    n_b: int | None
    seed: int

    @property
    def ber(self):
        return self.bit_errors / self.total_bits

    @property
    def stderr(self):
        """Monte Carlo standard error sqrt(p(1-p)/total_bits)."""
        p = self.ber
        return math.sqrt(p * (1.0 - p) / self.total_bits)

    def row(self):
        return [
            _cell(getattr(self, "alphabet" if column == "M" else column))
            for column in CSV_COLUMNS
        ]


def _cell(value):
    """One CSV cell: None (a parameter the method does not take, AF's n_b)
    is blank and a float keeps 10 significant digits."""
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.10g}"
    return str(value)


def _run_task(task):
    cfg, snr_index, start, stop = task
    counts = engine.count_errors(
        cfg.n_source, cfg.n_relay, cfg.n_dest, cfg.alphabet, cfg.specs,
        cfg.snr_db_grid[snr_index], snr_index, cfg.seed, start, stop,
        detector=cfg.detector, marginal_samples=cfg.marginal_samples,
    )
    return snr_index, counts


def _chunks(trials, workers):
    # enough chunks to keep the pool busy without drowning it in tasks
    size = max(256, -(-trials // max(1, workers * 8)))
    return [(start, min(start + size, trials)) for start in range(0, trials, size)]


def sweep_error_counts(cfg):
    """Bit-error counts, shape (len(specs), len(snr_db_grid)).

    The pool starts min(workers, tasks, cores) processes, so a large
    ``workers`` forks no more processes than there is work or cores for.
    """
    tasks = [
        (cfg, snr_index, start, stop)
        for snr_index in range(len(cfg.snr_db_grid))
        for start, stop in _chunks(cfg.trials_per_point, cfg.workers)
    ]
    counts = np.zeros((len(cfg.specs), len(cfg.snr_db_grid)), dtype=np.int64)
    workers = min(cfg.workers, len(tasks), os.cpu_count() or 1)
    if workers <= 1:
        results = map(_run_task, tasks)
        for snr_index, chunk_counts in results:
            counts[:, snr_index] += chunk_counts
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            for snr_index, chunk_counts in pool.map(_run_task, tasks):
                counts[:, snr_index] += chunk_counts
    return counts


def _spec_fields(spec):
    params = {key: getattr(spec, attr) for attr, key in PARAM_KEYS.items()}
    return {"method": METHOD_LABELS[spec.kind], **params}


def run_ber_sweep(cfg):
    """Run the configured sweep; one record per (spec, SNR) in that order."""
    counts = sweep_error_counts(cfg)
    bits_per_trial = build_codebook(cfg.alphabet, cfg.n_source).bits_per_message
    records = []
    for spec_index, spec in enumerate(cfg.specs):
        n_b = None if spec.kind == AF else quantizer_bits(spec, cfg.n_relay)
        for snr_index, snr_db in enumerate(cfg.snr_db_grid):
            records.append(
                BerRecord(
                    n_s=cfg.n_source,
                    n_r=cfg.n_relay,
                    n_d=cfg.n_dest,
                    alphabet=cfg.alphabet,
                    snr_db=float(snr_db),
                    trials=cfg.trials_per_point,
                    bit_errors=int(counts[spec_index, snr_index]),
                    total_bits=cfg.trials_per_point * bits_per_trial,
                    n_b=n_b,
                    seed=cfg.seed,
                    **_spec_fields(spec),
                )
            )
    return records


def write_ber_csv(records, stream):
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for record in records:
        writer.writerow(record.row())


# ---------------------------------------------------------------------------
# Memory-bit report
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MemoryRow:
    n_r: int
    method: str
    q: int | None
    qbar: int | None
    m: int | None
    family_n: int | None
    n_b: int


def memory_report(n_r_values, specs):
    """Exact relay memory bits for every (antenna count, method) pair."""
    return [
        MemoryRow(n_r=n_r, n_b=quantizer_bits(spec, n_r), **_spec_fields(spec))
        for n_r in n_r_values
        for spec in specs
    ]


def write_memory_csv(rows, stream):
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow([field.name for field in fields(MemoryRow)])
    for row in rows:
        writer.writerow([_cell(value) for value in astuple(row)])
