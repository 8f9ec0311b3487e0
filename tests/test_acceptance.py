"""Acceptance suite: every criterion at its stated tolerance and budget.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail
line per criterion with its wall time.  Criterion 7 runs the full
10^5-trials-per-point sweep and dominates the runtime.
"""

import io
import itertools
import math
import os
import time
from contextlib import contextmanager

import numpy as np
import pytest

from qfrelay.bitcodec import (
    decode_relay_state,
    encode_relay_state,
    rank_assignment,
    unrank_assignment,
)
from qfrelay.config import SweepConfig
from qfrelay.quantizers import (
    AF,
    HAPQ,
    UAPQ,
    UPQ,
    QuantizerSpec,
    RelayState,
    oaq_codeword_count,
    quantizer_bits,
    relay_symbols,
)
from qfrelay.sweep import run_ber_sweep, write_ber_csv

WORKERS = os.cpu_count() or 1
SEED = 20260810


@contextmanager
def criterion(number, description, budget_s):
    start = time.perf_counter()
    try:
        yield
        elapsed = time.perf_counter() - start
        assert elapsed < budget_s, (
            f"criterion {number} took {elapsed:.1f}s, budget {budget_s}s"
        )
    except Exception:
        print(f"FAIL criterion {number}: {description}")
        raise
    print(f"PASS criterion {number}: {description} [{elapsed:.2f} s]")


def _hapq(m, n=2, qbar=4):
    return QuantizerSpec(HAPQ, phase_bits=qbar, group_size=m, level_exponent=n)


def _combined_se(rec_a, rec_b):
    return math.sqrt(rec_a.stderr**2 + rec_b.stderr**2)


# ---------------------------------------------------------------------------
# 1. Exact bit accounting
# ---------------------------------------------------------------------------

def test_criterion_1_bit_accounting():
    with criterion(1, "bit accounting N_b = 19/44/101 vs 32/64/128", 1.0):
        hapq = _hapq(m=2)
        upq = QuantizerSpec(UPQ, total_bits=8)
        uapq = QuantizerSpec(UAPQ, total_bits=8, phase_bits=4)
        for n_r, n_b, baseline, saving in ((4, 19, 32, 13), (8, 44, 64, 20), (16, 101, 128, 27)):
            assert quantizer_bits(hapq, n_r) == n_b
            assert quantizer_bits(upq, n_r) == baseline
            assert quantizer_bits(uapq, n_r) == baseline
            assert baseline - quantizer_bits(hapq, n_r) == saving


# ---------------------------------------------------------------------------
# 2. H-APQ with singleton groups stays below the 8-bit line
# ---------------------------------------------------------------------------

def test_criterion_2_memory_dominance():
    with criterion(2, "H-APQ(qbar=4, m=1) needs < 8*N_R bits for N_R in 2..20", 1.0):
        spec = _hapq(m=1)
        for n_r in range(2, 21):
            assert quantizer_bits(spec, n_r) < 8 * n_r, n_r


# ---------------------------------------------------------------------------
# 3. Power constraint across every method
# ---------------------------------------------------------------------------

def test_criterion_3_power_constraint():
    with criterion(3, "unit transmit power |x_R|^2 = 1 within 1e-12, all methods", 10.0):
        rng = np.random.default_rng(SEED)
        n_inputs = 10_000
        for n_r in (2, 4, 8, 16):
            specs = [
                QuantizerSpec(UPQ, total_bits=8),
                QuantizerSpec(UAPQ, total_bits=8, phase_bits=4),
                QuantizerSpec(AF),
            ]
            for m in sorted({1, 2, n_r // 2, n_r}):
                if m >= 1:
                    specs.append(_hapq(m=m))
            y = rng.standard_normal((n_inputs, n_r)) + 1j * rng.standard_normal(
                (n_inputs, n_r)
            )
            for spec in specs:
                power = np.sum(np.abs(relay_symbols(y, spec)) ** 2, axis=-1)
                worst = np.max(np.abs(power - 1.0))
                assert worst < 1e-12, (spec.label(), n_r, worst)


# ---------------------------------------------------------------------------
# 4. H-APQ with one group per array degenerates to U-PQ, bitwise
# ---------------------------------------------------------------------------

def test_criterion_4_equivalence_with_upq():
    with criterion(4, "H-APQ(qbar=4, m=N_R) outputs == U-PQ(q=4), bitwise", 10.0):
        rng = np.random.default_rng(SEED + 1)
        n_r = 4
        y = rng.standard_normal((10_000, n_r)) + 1j * rng.standard_normal((10_000, n_r))
        via_hapq = relay_symbols(y, _hapq(m=n_r))
        via_upq = relay_symbols(y, QuantizerSpec(UPQ, total_bits=4))
        assert np.array_equal(via_hapq, via_upq)


# ---------------------------------------------------------------------------
# 5. Combinatorial counting and rank coding against enumeration
# ---------------------------------------------------------------------------

def test_criterion_5_combinatorial_oracle():
    with criterion(5, "codeword counts match enumeration; rank/unrank bijective", 30.0):
        for n_r in range(1, 9):
            for m in range(1, n_r + 1):
                num_levels = -(-n_r // m)
                pool = []
                for level in range(1, num_levels):
                    pool.extend([level] * m)
                pool.extend([num_levels] * (n_r - (num_levels - 1) * m))
                enumerated = sorted(set(itertools.permutations(pool)))
                assert oaq_codeword_count(n_r, m) == len(enumerated)
                for expected_rank, assignment in enumerate(enumerated):
                    assert rank_assignment(assignment, n_r, m) == expected_rank
                    assert unrank_assignment(expected_rank, n_r, m) == assignment


# ---------------------------------------------------------------------------
# 6. Codec round trip at exact payload lengths
# ---------------------------------------------------------------------------

def test_criterion_6_codec_roundtrip():
    with criterion(6, "encode/decode identity on 10^4 random states per spec", 10.0):
        rng = np.random.default_rng(SEED + 2)
        cases = []
        for n_r in (4, 16):
            cases.append((QuantizerSpec(UPQ, total_bits=8), n_r))
            cases.append((QuantizerSpec(UAPQ, total_bits=8, phase_bits=4), n_r))
            for m in (1, 2, n_r):
                cases.append((_hapq(m=m), n_r))
        for spec, n_r in cases:
            n_bits = quantizer_bits(spec, n_r)
            phase_width = spec.total_bits if spec.kind == UPQ else spec.phase_bits
            total = oaq_codeword_count(n_r, spec.group_size) if spec.kind == HAPQ else 0
            for _ in range(10_000):
                indices = tuple(int(v) for v in rng.integers(0, 1 << phase_width, n_r))
                if spec.kind == UPQ:
                    state = RelayState(spec=spec, phase_indices=indices)
                elif spec.kind == UAPQ:
                    bins = tuple(
                        int(v) for v in rng.integers(0, 1 << spec.amplitude_bits, n_r)
                    )
                    state = RelayState(
                        spec=spec, phase_indices=indices, amplitude_bins=bins
                    )
                else:
                    assignment = unrank_assignment(
                        int(rng.integers(total)), n_r, spec.group_size
                    )
                    state = RelayState(
                        spec=spec,
                        phase_indices=indices,
                        amplitude_assignment=assignment,
                    )
                encoded = encode_relay_state(state)
                assert len(encoded.payload) == n_bits
                assert decode_relay_state(encoded) == state


# ---------------------------------------------------------------------------
# 7. BER orderings over the full sweep
# ---------------------------------------------------------------------------

def _sweep_records(specs, snr_grid, trials, detector="mismatched", seed=SEED):
    cfg = SweepConfig(
        n_source=4, n_relay=4, n_dest=4, alphabet=4, specs=tuple(specs),
        snr_db_grid=tuple(snr_grid), trials_per_point=trials, seed=seed,
        detector=detector, workers=WORKERS,
    )
    records = run_ber_sweep(cfg)
    by_spec = {}
    for spec, chunk in zip(specs, range(0, len(records), len(snr_grid))):
        by_spec[spec] = records[chunk : chunk + len(snr_grid)]
    return by_spec


def _assert_not_worse(better, worse, what):
    """better's BER may exceed worse's by at most 3 combined standard errors.

    Points where both methods logged fewer than 20 bit errors combined are
    below Monte Carlo resolution and are skipped (the criterion applies to
    measurable error rates).
    """
    for rec_b, rec_w in zip(better, worse):
        if rec_b.bit_errors + rec_w.bit_errors < 20:
            continue
        slack = 3.0 * _combined_se(rec_b, rec_w)
        assert rec_b.ber <= rec_w.ber + slack, (
            f"{what} at {rec_b.snr_db} dB: {rec_b.ber:.3e} > {rec_w.ber:.3e} + {slack:.3e}"
        )


@pytest.mark.slow
def test_criterion_7_ber_orderings():
    with criterion(7, "BER monotone in SNR and ordered across methods", 1800.0):
        af = QuantizerSpec(AF)
        uapq = QuantizerSpec(UAPQ, total_bits=8, phase_bits=4)
        families = {
            (m, n): _hapq(m=m, n=n) for m in (1, 2) for n in (1, 2, 3, 4)
        }
        specs = [af, uapq, families[(2, 2)], _hapq(m=4)]
        specs += [families[key] for key in families if families[key] not in specs]
        snr_grid = tuple(float(s) for s in range(0, 21, 2))
        by_spec = _sweep_records(specs, snr_grid, trials=100_000)

        # (a) every method's BER is non-increasing in SNR within 3 SE
        for spec, records in by_spec.items():
            for lower, higher in zip(records, records[1:]):
                slack = 3.0 * _combined_se(lower, higher)
                assert higher.ber <= lower.ber + slack, (
                    f"{spec.label()} not monotone between {lower.snr_db} and "
                    f"{higher.snr_db} dB"
                )

        # (b) AF <= U-APQ <= H-APQ(m=2) <= H-APQ(m=4) at each measurable point
        chain = [af, uapq, families[(2, 2)], _hapq(m=4)]
        for better, worse in zip(chain, chain[1:]):
            _assert_not_worse(
                by_spec[better], by_spec[worse],
                f"{better.label()} vs {worse.label()}",
            )

        # (c) the evenly spaced family n=2 never loses to n=4
        for m in (1, 2):
            _assert_not_worse(
                by_spec[families[(m, 2)]], by_spec[families[(m, 4)]],
                f"H-APQ m={m}: n=2 vs n=4",
            )


# ---------------------------------------------------------------------------
# 8. Noiseless correctness
# ---------------------------------------------------------------------------

def test_criterion_8_noiseless_correctness():
    with criterion(8, "BER exactly 0 at 300 dB for every method", 60.0):
        specs = [
            QuantizerSpec(AF),
            QuantizerSpec(UPQ, total_bits=8),
            QuantizerSpec(UAPQ, total_bits=8, phase_bits=4),
        ] + [_hapq(m=m, n=n) for m in (1, 2, 4) for n in (1, 2, 3, 4)]
        by_spec = _sweep_records(specs, (300.0,), trials=1_000)
        for spec, records in by_spec.items():
            assert records[0].bit_errors == 0, spec.label()


# ---------------------------------------------------------------------------
# 9. Marginalized detector is no worse than the mismatched one
# ---------------------------------------------------------------------------

@pytest.mark.slow
def test_criterion_9_detector_sanity():
    with criterion(9, "marginalized (L=64) <= mismatched + 3 SE", 600.0):
        specs = [
            QuantizerSpec(UAPQ, total_bits=8, phase_bits=4),
            _hapq(m=2),
        ]
        snr_grid = (4.0, 10.0, 16.0)
        trials = 20_000
        mismatched = _sweep_records(specs, snr_grid, trials, detector="mismatched")
        marginalized = _sweep_records(specs, snr_grid, trials, detector="marginalized")
        for spec in specs:
            for rec_marg, rec_mis in zip(marginalized[spec], mismatched[spec]):
                slack = 3.0 * _combined_se(rec_marg, rec_mis)
                assert rec_marg.ber <= rec_mis.ber + slack, (
                    f"{spec.label()} at {rec_marg.snr_db} dB: marginalized "
                    f"{rec_marg.ber:.3e} vs mismatched {rec_mis.ber:.3e}"
                )


# ---------------------------------------------------------------------------
# 10. Worker-count independence of the CSV
# ---------------------------------------------------------------------------

def test_criterion_10_determinism_across_workers():
    with criterion(10, "byte-identical CSV at workers = 1 and workers = 8", 120.0):
        outputs = []
        for workers in (1, 8):
            cfg = SweepConfig(
                n_source=4, n_relay=4, n_dest=4, alphabet=4,
                specs=(QuantizerSpec(AF), _hapq(m=2)),
                snr_db_grid=(0.0, 10.0, 20.0), trials_per_point=2_000,
                seed=SEED + 3, workers=workers,
            )
            buffer = io.StringIO()
            write_ber_csv(run_ber_sweep(cfg), buffer)
            outputs.append(buffer.getvalue())
        assert outputs[0] == outputs[1]
