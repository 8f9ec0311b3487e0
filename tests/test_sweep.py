"""Sweep orchestration: record assembly, CSV shape, worker independence."""

import io

import numpy as np
import pytest

from qfrelay import sweep
from qfrelay.config import SweepConfig
from qfrelay.engine import count_errors
from qfrelay.quantizers import AF, HAPQ, UAPQ, UPQ, QuantizerSpec, quantizer_bits
from qfrelay.sweep import (
    CSV_COLUMNS,
    memory_report,
    run_ber_sweep,
    sweep_error_counts,
    write_ber_csv,
    write_memory_csv,
)

SPECS = (
    QuantizerSpec(AF),
    QuantizerSpec(UPQ, total_bits=8),
    QuantizerSpec(HAPQ, phase_bits=4, group_size=2),
)


def _config(trials=300, workers=1, snr=(0.0, 10.0)):
    return SweepConfig(
        n_source=4, n_relay=4, n_dest=4, alphabet=4, specs=SPECS,
        snr_db_grid=tuple(snr), trials_per_point=trials, seed=321,
        workers=workers,
    )


def test_records_are_ordered_and_consistent():
    cfg = _config()
    records = run_ber_sweep(cfg)
    assert len(records) == len(SPECS) * len(cfg.snr_db_grid)
    expected_order = [
        (spec, snr) for spec in SPECS for snr in cfg.snr_db_grid
    ]
    for record, (spec, snr) in zip(records, expected_order):
        assert record.snr_db == snr
        assert record.trials == cfg.trials_per_point
        assert record.total_bits == cfg.trials_per_point * 8
        assert record.ber == record.bit_errors / record.total_bits
        if spec.kind == AF:
            assert record.n_b is None
        else:
            assert record.n_b == quantizer_bits(spec, cfg.n_relay)


def test_counts_match_engine_directly():
    cfg = _config(trials=200)
    counts = sweep_error_counts(cfg)
    for snr_index, snr_db in enumerate(cfg.snr_db_grid):
        direct = count_errors(
            4, 4, 4, 4, SPECS, snr_db, snr_index, cfg.seed, 0, cfg.trials_per_point
        )
        assert np.array_equal(counts[:, snr_index], direct)


def test_csv_layout():
    records = run_ber_sweep(_config(trials=50))
    buffer = io.StringIO()
    write_ber_csv(records, buffer)
    lines = buffer.getvalue().splitlines()
    # the header as text, so a reordered parameter schema cannot move a column
    assert lines[0] == (
        "method,q,qbar,m,family_n,n_s,n_r,n_d,M,snr_db,trials,bit_errors,"
        "total_bits,ber,n_b,seed,stderr"
    )
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 1 + len(records)
    first = lines[1].split(",")
    assert first[0] == "AF"
    assert first[14] == ""  # n_b blank for AF
    hapq_line = lines[1 + 2 * 2].split(",")  # third spec, first SNR
    assert hapq_line[0] == "H-APQ"
    assert hapq_line[14] == "19"


def test_worker_counts_are_identical():
    # small sweep; byte-identical CSV at 1 and 4 workers
    outputs = []
    for workers in (1, 4):
        records = run_ber_sweep(_config(trials=400, workers=workers))
        buffer = io.StringIO()
        write_ber_csv(records, buffer)
        outputs.append(buffer.getvalue())
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("cores, pool_size", [(8, 4), (3, 3)])
def test_pool_is_bounded_by_tasks_and_cores(monkeypatch, cores, pool_size):
    # 300 trials at 2 SNRs make 4 tasks; the fake pool runs them in-process,
    # so the huge worker count never reaches a real ProcessPoolExecutor
    sizes = []

    class InlinePool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc_info):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(sweep, "ProcessPoolExecutor", InlinePool)
    monkeypatch.setattr(sweep.os, "cpu_count", lambda: cores)
    counts = sweep_error_counts(_config(workers=10**5))
    assert sizes == [pool_size]
    assert np.array_equal(counts, sweep_error_counts(_config(workers=1)))


def test_memory_report_values():
    hapq = QuantizerSpec(HAPQ, phase_bits=4, group_size=2)
    upq = QuantizerSpec(UPQ, total_bits=8)
    rows = memory_report((4, 8, 16), (hapq, upq))
    got = {(row.n_r, row.method): row.n_b for row in rows}
    assert got[(4, "H-APQ")] == 19
    assert got[(8, "H-APQ")] == 44
    assert got[(16, "H-APQ")] == 101
    assert got[(4, "U-PQ")] == 32
    assert got[(16, "U-PQ")] == 128
    buffer = io.StringIO()
    write_memory_csv(rows, buffer)
    lines = buffer.getvalue().splitlines()
    assert lines[0] == "n_r,method,q,qbar,m,family_n,n_b"
    assert lines[1] == "4,H-APQ,,4,2,2,19"
