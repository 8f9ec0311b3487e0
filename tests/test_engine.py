"""The batched engine must reproduce the single-trial reference bit for bit."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_kernel_oracles import _same_bits, _uapq_reference

from qfrelay import engine
from qfrelay.channel import (
    MAX_SNR_DB,
    _matvec,
    sample_channel,
    sample_noise,
    snr_db_to_sigma2,
    trial_stream,
)
from qfrelay.codebook import build_codebook
from qfrelay.config import MAX_CANDIDATES, parse_spec_string
from qfrelay.engine import CandidateBasis, candidate_relay_symbols, count_errors
from qfrelay.link import PointConfig, run_trial
from qfrelay.quantizers import (
    AF,
    HAPQ,
    TWO_PI,
    UAPQ,
    UPQ,
    QuantizerSpec,
    build_level_set,
    relay_symbols,
)

SPECS = (
    QuantizerSpec(AF),
    QuantizerSpec(UPQ, total_bits=8),
    QuantizerSpec(UAPQ, total_bits=8, phase_bits=4),
    QuantizerSpec(HAPQ, phase_bits=4, group_size=1, level_exponent=4),
    QuantizerSpec(HAPQ, phase_bits=4, group_size=2),
    QuantizerSpec(HAPQ, phase_bits=4, group_size=4),
)


def _relay_batch():
    """Random 4-antenna inputs with forced amplitude-tie and sector-boundary rows."""
    rng = trial_stream(0, 0, 0)
    y = rng.standard_normal((40, 16, 4)) + 1j * rng.standard_normal((40, 16, 4))
    y[0, 0] = np.array([1.0, 1.0, 1.0, 1.0])  # forced amplitude ties
    y[0, 1] = np.array([1j, 1.0, -1j, -1.0])
    y[0, 2] = np.array([1 + 1j, -1 + 1j, -1 - 1j, 1 - 1j])  # 2-bit sector boundaries
    return y


def test_candidate_symbols_match_public_quantizers():
    # one basis memoized across every spec, as the engine reuses it, must give
    # the same bytes as a fresh basis per spec, ties and boundary bins included
    y = _relay_batch()
    basis = CandidateBasis(y)
    for spec in SPECS:
        fast = candidate_relay_symbols(spec, basis)
        assert np.array_equal(fast, relay_symbols(y, spec)), spec.label()


# ---------------------------------------------------------------------------
# Formula oracles: run_trial and the engine share one quantizer, so these
# check it against the textbook expressions, written here without the
# package's kernels.  Comparisons are on raw bytes.
# ---------------------------------------------------------------------------

def _phase_oracle(y, bits):
    """Sector index ceil(theta * 2**bits / (2*pi) - 0.5) mod 2**bits."""
    theta = np.mod(np.angle(y), TWO_PI)
    theta[theta == TWO_PI] = 0.0
    return np.ceil(theta * (1 << bits) / TWO_PI - 0.5).astype(np.int64) % (1 << bits)


def _phasor_oracle(index, bits):
    return np.exp(1j * (TWO_PI * index / (1 << bits)))


def _norm_oracle(amps):
    return np.sqrt(np.einsum("...i,...i->...", amps, amps))


def _upq_oracle(y, spec):
    # e^{j 2 pi k / 2**q} / sqrt(N_R); N_R = 4 keeps the division exact
    index = _phase_oracle(y, spec.total_bits)
    return _phasor_oracle(index, spec.total_bits) / math.sqrt(y.shape[-1])


def _uapq_oracle(y, spec):
    amps = np.abs(y)
    ratios = np.minimum(amps / _norm_oracle(amps)[..., None], 1.0)
    top = (1 << spec.amplitude_bits) - 1
    bins = np.minimum(np.floor(ratios * (top + 1)).astype(np.int64), top)
    index = _phase_oracle(y, spec.phase_bits)
    return _uapq_reference(index, bins, spec.total_bits, spec.phase_bits)


def _hapq_oracle(y, spec):
    # levels from stable-argsort ranks, group_size antennas per level
    level_set = build_level_set(y.shape[-1], spec.group_size, spec.level_exponent)
    order = np.argsort(np.abs(y), axis=-1, kind="stable")
    ranks = np.argsort(order, axis=-1, kind="stable")
    level = np.minimum(ranks // spec.group_size, level_set.num_levels - 1)
    index = _phase_oracle(y, spec.phase_bits)
    return level_set.levels[level] * _phasor_oracle(index, spec.phase_bits)


def _af_oracle(y, spec):
    return y / _norm_oracle(np.abs(y))[..., None]


ORACLES = {UPQ: _upq_oracle, UAPQ: _uapq_oracle, HAPQ: _hapq_oracle, AF: _af_oracle}
# SPECS plus the low-bit specs whose sector boundaries the forced rows hit
ORACLE_SPECS = SPECS + (
    QuantizerSpec(UPQ, total_bits=1),
    QuantizerSpec(UPQ, total_bits=2),
    QuantizerSpec(UAPQ, total_bits=3, phase_bits=2),
    QuantizerSpec(HAPQ, phase_bits=2, group_size=2, level_exponent=1),
)


@pytest.mark.parametrize("spec", ORACLE_SPECS, ids=[spec.label() for spec in ORACLE_SPECS])
def test_relay_symbols_match_formula_oracles(spec):
    y = _relay_batch()
    assert _same_bits(relay_symbols(y, spec), ORACLES[spec.kind](y, spec))


def test_hapq_gain_phasor_table_matches_formula():
    rng = trial_stream(1, 0, 0)
    y = rng.standard_normal((100, 4)) + 1j * rng.standard_normal((100, 4))
    basis = CandidateBasis(y)
    spec = QuantizerSpec(HAPQ, phase_bits=3, group_size=2)
    fast = candidate_relay_symbols(spec, basis)
    assert _same_bits(fast, _hapq_oracle(y, spec))


@pytest.mark.parametrize("detector,samples", [("mismatched", 0), ("marginalized", 8)])
# +-MAX_SNR_DB are the grid's limits, sigma2 = 1e100 and 1e-100: the scores
# stay finite there, so no numpy warning fails the run, and counts still match
@pytest.mark.parametrize("snr_db", [2.0, 12.0, -MAX_SNR_DB, MAX_SNR_DB])
def test_engine_counts_equal_reference_trials(detector, samples, snr_db):
    seed = 20260401
    n_trials = 60
    # qbar = 11, m = 1 at N_R = 4 has 4 * 2**11 = 8192 table entries, above
    # _HAPQ_TABLE_ENTRIES, so both sides of the one H-APQ rebuild are pinned
    for spec in SPECS + (QuantizerSpec(HAPQ, phase_bits=11, group_size=1),):
        point = PointConfig(
            spec=spec, n_source=4, n_relay=4, n_dest=4, alphabet=4,
            snr_db=snr_db, snr_index=2, detector=detector,
            marginal_samples=max(1, samples),
        )
        reference = sum(
            run_trial(point, trial, seed).bit_errors for trial in range(n_trials)
        )
        batched = count_errors(
            4, 4, 4, 4, (spec,), snr_db, 2, seed, 0, n_trials,
            detector=detector, marginal_samples=max(1, samples), batch_size=13,
        )
        assert int(batched[0]) == reference, (spec.label(), detector, snr_db)


def _scorer(detector, sigma2):
    """A detector's batched scorer and the weight of its SD part -dSD/weight."""
    if detector == "mismatched":
        return engine._score_mismatched, 1.0
    return engine._score_marginalized, sigma2


@pytest.mark.parametrize("detector", ["mismatched", "marginalized"])
def test_batched_scores_equal_reference_scores_bitwise(detector):
    # every score, not only the decision it leads to, must match the
    # batch-of-one reference call on the same trial
    codebook = build_codebook(4, 2)
    sigma2 = snr_db_to_sigma2(4.0)
    samples = 8 if detector == "marginalized" else 0
    sent, h_sr, h_sd, h_rd, y_sr, y_sd, z_rd, noise = engine._draw_batch(
        2, 4, 3, codebook, sigma2, 77, 1, range(13), samples
    )
    score, weight = _scorer(detector, sigma2)
    candidates = engine._candidate_terms(y_sd, h_sd, h_sr, codebook.codewords, weight)
    terms = engine._terms(*candidates, noise)
    for spec in SPECS:
        y_rd = _matvec(h_rd, relay_symbols(y_sr, spec)) + z_rd
        batched = score(terms, spec, h_rd, y_rd, sigma2)
        for row in range(len(sent)):
            args = (y_sd[row], y_rd[row], h_sd[row], h_sr[row], h_rd[row],
                    codebook.codewords, spec)
            if detector == "mismatched":
                # the search's score is the exactly negated reference metric
                alone = -engine.mismatched_metrics(*args)
            else:
                alone = engine.marginalized_scores(*args, sigma2, noise[row])
            assert np.array_equal(batched[row], alone), (spec.label(), row)


def test_engine_counts_do_not_depend_on_batch_size():
    specs = SPECS[:3]
    base = count_errors(4, 4, 4, 4, specs, 6.0, 1, 11, 0, 100, batch_size=100)
    for batch_size in (1, 7, 32, 257):
        again = count_errors(4, 4, 4, 4, specs, 6.0, 1, 11, 0, 100, batch_size=batch_size)
        assert np.array_equal(base, again)


def test_engine_counts_split_over_trial_ranges():
    specs = SPECS[:3]
    whole = count_errors(4, 4, 4, 4, specs, 6.0, 0, 22, 0, 90)
    parts = (
        count_errors(4, 4, 4, 4, specs, 6.0, 0, 22, 0, 37)
        + count_errors(4, 4, 4, 4, specs, 6.0, 0, 22, 37, 90)
    )
    assert np.array_equal(whole, parts)


def test_engine_shared_evaluation_equals_isolated():
    # evaluating many specs on one pass must equal one spec at a time
    joint = count_errors(4, 4, 4, 4, SPECS, 8.0, 3, 5, 0, 80)
    for index, spec in enumerate(SPECS):
        alone = count_errors(4, 4, 4, 4, (spec,), 8.0, 3, 5, 0, 80)
        assert alone[0] == joint[index], spec.label()


def test_engine_rejects_bad_detector():
    with pytest.raises(ValueError):
        count_errors(4, 4, 4, 4, SPECS[:1], 0.0, 0, 0, 0, 10, detector="bogus")


@pytest.mark.parametrize("name, value, detector", [
    # without the check, L = 0 ran the mismatched detector instead
    ("marginal_samples", 0, "marginalized"),
    ("marginal_samples", -1, "marginalized"),
    ("marginal_samples", 2.0, "marginalized"),
    ("marginal_samples", 0, "mismatched"),
    # without the check, -3 counted no trial and 0 failed inside range()
    ("batch_size", -3, "mismatched"),
    ("batch_size", 0, "mismatched"),
    ("batch_size", 4.0, "marginalized"),
    # without the bool check, True ran batches of one or failed inside numpy
    ("marginal_samples", True, "marginalized"),
    ("batch_size", True, "mismatched"),
])
def test_engine_rejects_bad_sizes(name, value, detector):
    with pytest.raises(ValueError, match=f"{name} must be a positive int, got {value!r}"):
        count_errors(4, 4, 4, 4, SPECS[:1], 4.0, 0, 0, 0, 20, detector=detector,
                     **{name: value})


@pytest.mark.parametrize("n_source, alphabet, detector, samples, message", [
    # run, the first would build a 2**32-row codebook, 512 GiB of codewords
    (8, 16, "mismatched", 64, f"candidate count C = M\\*\\*n_s = {16**8} exceeds"),
    # a count with too many digits to print is shown as a power
    (5000, 16, "mismatched", 64, "candidate count C = M\\*\\*n_s = 16\\*\\*5000 exceeds"),
    # a numpy L whose block stack wraps around in int64 arithmetic
    (4, 4, "marginalized", np.int64(1 << 62), "marginalized block stack"),
])
def test_engine_rejects_over_cap_points_before_allocating(n_source, alphabet, detector,
                                                          samples, message):
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=message):
            count_errors(n_source, 4, 4, alphabet, SPECS[:1], 4.0, 0, 0, 0, 20,
                         detector=detector, marginal_samples=samples)
        assert tracemalloc.get_traced_memory()[1] < 1 << 20
    finally:
        tracemalloc.stop()


def test_engine_needs_a_spec():
    for specs, message in (
        # numpy's "need at least one array to stack" used to come from block_picks
        ((), r"specs must hold at least one relay method, got \(\)"),
        # an AttributeError on validate_for used to come from check_point
        (("x",), "specs must hold QuantizerSpec entries, got 'x'"),
        ((None,), "specs must hold QuantizerSpec entries, got None"),
        # a bare spec raised TypeError (not iterable) inside check_point, and
        # an iterator or a generator passed it to fail on len() in count_errors
        (QuantizerSpec(AF), "specs must be a list or tuple of relay methods, got QuantizerSpec"),
        (iter([QuantizerSpec(AF)]), "specs must be a list or tuple of relay methods, got <list_"),
        ((spec for spec in [QuantizerSpec(AF)]),
         "specs must be a list or tuple of relay methods, got <generator"),
    ):
        with pytest.raises(ValueError, match=message):
            count_errors(2, 2, 2, 4, specs, 2.0, 0, 7, 0, 3)


def test_engine_refuses_a_reversed_trial_range():
    # a swapped pair of bounds used to count nothing, as an empty range does
    af = [QuantizerSpec(AF)]
    with pytest.raises(ValueError, match="^trial_start 5 exceeds trial_stop 3$"):
        count_errors(2, 2, 2, 4, af, 2.0, 0, 7, 5, 3)
    assert count_errors(2, 2, 2, 4, af, 2.0, 0, 7, 3, 3).tolist() == [0]


_KEYS = ("snr_index", "seed", "trial_start", "trial_stop")


@pytest.mark.parametrize("name", _KEYS)
# a negative key failed inside SeedSequence without its name, a float raised
# TypeError there, and True ran as key 1
@pytest.mark.parametrize("value", [-1, 1.5, True, "1"])
def test_engine_checks_stream_keys_at_entry(name, value):
    keys = dict(zip(_KEYS, (0, 7, 0, 3)), **{name: value})
    with pytest.raises(ValueError, match=f"{name} must be a non-negative int, got {value!r}"):
        count_errors(2, 2, 2, 4, SPECS[:1], 2.0, **keys)


def test_engine_takes_numpy_int_sizes():
    # and numpy int stream keys
    base = count_errors(4, 4, 4, 4, SPECS[:2], 4.0, 1, 7, 2, 22, detector="marginalized",
                        marginal_samples=3, batch_size=7)
    again = count_errors(4, 4, 4, 4, SPECS[:2], 4.0, np.int64(1), np.uint32(7), np.int8(2),
                         np.int64(22), detector="marginalized",
                         marginal_samples=np.int64(3), batch_size=np.int32(7))
    assert np.array_equal(base, again)


def _draws_trial_by_trial(n_source, n_relay, n_dest, codebook, sigma2, seed,
                          snr_index, trial, samples):
    # the documented stream order, one draw per quantity
    rng = trial_stream(seed, snr_index, trial)
    sent = rng.integers(codebook.n_messages)
    h_sr = sample_channel(n_relay, n_source, rng)
    h_sd = sample_channel(n_dest, n_source, rng)
    h_rd = sample_channel(n_dest, n_relay, rng)
    x = codebook.codewords[sent]
    y_sr = _matvec(h_sr, x) + sample_noise(n_relay, sigma2, rng)
    y_sd = _matvec(h_sd, x) + sample_noise(n_dest, sigma2, rng)
    z_rd = sample_noise(n_dest, sigma2, rng)
    noise = sample_noise((samples, n_relay), sigma2, rng) if samples else None
    return sent, h_sr, h_sd, h_rd, y_sr, y_sd, z_rd, noise


@pytest.mark.parametrize("samples", [0, 5])
def test_draw_batch_equals_trial_by_trial_draws(samples):
    codebook = build_codebook(4, 2)
    sigma2 = snr_db_to_sigma2(3.0)
    trials = range(40, 51)
    batch = engine._draw_batch(2, 3, 5, codebook, sigma2, 8, 2, trials, samples)
    if not samples:
        assert batch[-1] is None
    for row, trial in enumerate(trials):
        alone = _draws_trial_by_trial(2, 3, 5, codebook, sigma2, 8, 2, trial, samples)
        for name, got, want in zip(("sent", "h_sr", "h_sd", "h_rd", "y_sr", "y_sd",
                                    "z_rd", "noise"), batch, alone):
            if want is not None:
                assert np.array_equal(got[row], want), (name, trial)


def _search_draws(n_source, samples, snr_db, n_trials, seed=31):
    """A batch and each SPECS entry's RD observations; ``samples`` 0 draws
    none of the marginalized detector's relay-noise samples."""
    codebook = build_codebook(4, n_source)
    sigma2 = snr_db_to_sigma2(snr_db)
    draws = engine._draw_batch(n_source, 4, 4, codebook, sigma2, seed, 0,
                               range(n_trials), samples)
    sent, h_sr, h_sd, h_rd, y_sr, y_sd, z_rd, noise = draws
    y_rds = [_matvec(h_rd, relay_symbols(y_sr, spec)) + z_rd for spec in SPECS]
    return codebook, sigma2, (y_sd, h_sd, h_sr, h_rd, noise), y_rds


def _full_pick(detector, args, sigma2, noise):
    """The single-trial reference pick: argmin or argmax of the full row."""
    if detector == "mismatched":
        return np.argmin(engine.mismatched_metrics(*args))
    return np.argmax(engine.marginalized_scores(*args, sigma2, noise))


def _assert_search_picks_the_full_optimum(detector, n_source, samples, snr_grid):
    """The block search picks np.argmin of the full metric row (mismatched)
    or np.argmax of the full score row (marginalized) on every trial,
    whatever the batch it runs in."""
    n_trials = 14
    default = engine._batch_size(4**n_source, n_source, 4, 4, samples)
    for snr_db in snr_grid:
        codebook, sigma2, arrays, y_rds = _search_draws(n_source, samples, snr_db, n_trials)
        y_sd, h_sd, h_sr, h_rd, noise = arrays
        want = np.array([
            [_full_pick(detector, (y_sd[t], y_rd[t], h_sd[t], h_sr[t], h_rd[t],
                                   codebook.codewords, spec),
                        sigma2, None if noise is None else noise[t])
             for t in range(n_trials)]
            for spec, y_rd in zip(SPECS, y_rds)
        ])
        for batch_size in (1, 7, default):
            got = np.concatenate([
                engine.block_picks(
                    y_sd[rows], [y_rd[rows] for y_rd in y_rds], h_sd[rows], h_sr[rows],
                    h_rd[rows], codebook.codewords, SPECS, sigma2,
                    None if noise is None else noise[rows])
                for rows in (slice(start, start + batch_size)
                             for start in range(0, n_trials, batch_size))
            ], axis=1)
            assert np.array_equal(got, want), (snr_db, batch_size)


@pytest.mark.parametrize("n_source", [1, 4], ids=["C=4", "C=256"])
@pytest.mark.parametrize("samples", [1, 3, 64])
def test_marginalized_search_picks_the_argmax_of_the_full_scores(n_source, samples):
    # at -MAX_SNR_DB every score ties and the smallest index must win
    _assert_search_picks_the_full_optimum(
        "marginalized", n_source, samples,
        (-MAX_SNR_DB, -10.0, 4.0, 16.0, 300.0, MAX_SNR_DB))


@pytest.mark.parametrize("n_source", [1, 4], ids=["C=4", "C=256"])
def test_mismatched_search_picks_the_argmin_of_the_full_metrics(n_source):
    _assert_search_picks_the_full_optimum(
        "mismatched", n_source, 0,
        (-MAX_SNR_DB, -10.0, 2.0, 10.0, 18.0, 300.0, MAX_SNR_DB))


def _assert_search_finds_adversarial_winners(detector, scores, monkeypatch):
    """The search maximizes the score each detector's scorer returns.  A
    score is at most its SD part plus a gap, log L or 0, less the trial's
    RD floor over its weight, and the search relies on no more than that.
    Synthetic scores below that bound make the search find: the candidate
    of lowest SD part, exactly at its bound, when scores fall as the SD
    part rises ("deep"); the first candidate of the second block, at
    exactly its bound and one ulp above the best of the first ("edge"); and
    the smallest index, wherever the SD order puts
    it, when all tie ("tied")."""
    # the mismatched delta grows with the squared SD parts the carrier
    # holds: at 10 dB it stays below 2e-11, so a bound short by 1e-9 fails
    # "edge"
    samples, snr_db = (64, -30.0) if detector == "marginalized" else (0, 10.0)
    codebook, sigma2, arrays, y_rds = _search_draws(4, samples, snr_db, 14)
    y_sd, h_sd, h_sr, h_rd, noise = arrays
    scorer, weight = _scorer(detector, sigma2)
    if detector == "mismatched":
        gap, width = 0.0, engine.MISMATCHED_BLOCK
    else:
        gap, width = math.log(64), engine.MARGINAL_BLOCK
    # the SD part of the search's score
    sd_part, _ = engine._candidate_terms(y_sd, h_sd, h_sr, codebook.codewords, weight)
    in_order = np.sort(sd_part, axis=-1)[:, ::-1]
    # each trial's RD row carries its SD parts to the synthetic scorer
    carrier = np.zeros_like(y_rds[0])
    carrier[:, 0] = in_order[:, 0] + 1j * in_order[:, -1]
    carrier[:, 1] = in_order[:, width]

    def synthetic(terms, spec, h_rd, y_rd, sigma2):
        part = terms[0]
        top, bottom, edge = y_rd[:, :1].real, y_rd[:, :1].imag, y_rd[:, 1:2].real
        # the part of the bound past the SD part: the gap less the floor
        # that every RD distance of the trial's relay vectors lies above
        reach = gap - engine._rd_floor(h_rd, y_rd)[:, None] / weight
        if scores == "deep":
            score = 2.0 * bottom + reach - part
        elif scores == "edge":
            below = np.where(part == top, np.nextafter(edge + reach, -np.inf),
                             bottom - 1.0 + reach)
            score = np.where(part == edge, edge + reach, below)
        else:
            score = np.broadcast_to(bottom + reach, part.shape)
        return score

    monkeypatch.setattr(engine, scorer.__name__, synthetic)
    want = synthetic((sd_part,), None, h_rd, carrier, None).argmax(axis=-1)
    got = engine.block_picks(y_sd, [carrier] * len(SPECS), h_sd, h_sr, h_rd,
                             codebook.codewords, SPECS, sigma2, noise)
    assert np.array_equal(got, np.broadcast_to(want, got.shape))
    # the case is only adversarial if winners lie beyond the first block
    rank = np.argsort(np.argsort(-sd_part, axis=-1, kind="stable"), axis=-1)
    assert (rank[np.arange(len(want)), want] >= width).sum() >= 7


@pytest.mark.parametrize("scores", ["deep", "edge", "tied"])
def test_marginalized_search_against_adversarial_scores(scores, monkeypatch):
    _assert_search_finds_adversarial_winners("marginalized", scores, monkeypatch)


@pytest.mark.parametrize("scores", ["deep", "edge", "tied"])
def test_mismatched_search_against_adversarial_scores(scores, monkeypatch):
    _assert_search_finds_adversarial_winners("mismatched", scores, monkeypatch)


def test_gathered_block_scores_equal_the_full_row_bitwise():
    # both detectors, blocks 16 and 64 wide, in SD order and shuffled
    rng = np.random.default_rng(3)
    shuffled = rng.permuted(np.tile(np.arange(256), (5, 1)), axis=1)
    for detector, samples in (("mismatched", 0), ("marginalized", 64)):
        codebook, sigma2, arrays, y_rds = _search_draws(4, samples, 6.0, 5, seed=9)
        y_sd, h_sd, h_sr, h_rd, noise = arrays
        score, weight = _scorer(detector, sigma2)
        sd_part, relay_in = engine._candidate_terms(
            y_sd, h_sd, h_sr, codebook.codewords, weight)
        full_terms = engine._terms(sd_part, relay_in, noise)
        order = np.argsort(-sd_part, axis=-1, kind="stable")
        blocks = [cols[:, start:start + width] for width in (16, 64)
                  for cols in (order, shuffled) for start in range(0, 256, width)]
        for spec, y_rd in zip(SPECS, y_rds):
            full = score(full_terms, spec, h_rd, y_rd, sigma2)
            for cols in blocks:
                # block_picks's gather of the block's candidates
                gather = np.arange(5)[:, None], cols
                terms = engine._terms(sd_part[gather], relay_in[gather], noise)
                block = score(terms, spec, h_rd, y_rd, sigma2)
                want = np.take_along_axis(full, cols, axis=1)
                assert block.tobytes() == want.tobytes(), (detector, spec.label())


def _complex_normal(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _per_sample_marginalized(sd_part, relay_cands, h_rd, y_rd, sigma2):
    """The marginalized score with one (N_D, N_R) @ (N_R, C) RD product per
    trial and sample, as the scorer once took it."""
    rd_cands = h_rd[:, None] @ relay_cands.transpose(0, 1, 3, 2)  # (B, L, N_D, C)
    rd_scores = engine._sq_dists(y_rd[:, None, :], rd_cands) / -sigma2  # (B, L, C)
    peak = rd_scores.max(axis=1, keepdims=True)
    return sd_part + (peak[:, 0, :] + np.log(np.exp(rd_scores - peak).sum(axis=1)))


def test_one_rd_product_per_trial_scores_bitwise_as_per_sample_products():
    # the scorer's one (N_D, N_R) @ (N_R, L*C) product per trial against the
    # B*L small products over the shape sweep, with link and observation
    # magnitudes from 1e-3 to 1e3
    rng = np.random.default_rng(21)
    af = QuantizerSpec(AF)
    scales = (1e-3, 1.0, 1e3)
    shapes = [(batch, samples, width, n_relay, n_dest)
              for batch in (1, 3, 8) for samples in (1, 7, 64) for width in (16, 64)
              for n_relay in (1, 2, 4, 5, 16) for n_dest in (1, 2, 4, 7)]
    for index, (batch, samples, width, n_relay, n_dest) in enumerate(shapes):
        h_scale, y_scale = scales[index % 3], scales[index // 3 % 3]
        stack = _complex_normal(rng, batch, samples, width, n_relay)
        h_rd = h_scale * _complex_normal(rng, batch, n_dest, n_relay)
        y_rd = y_scale * _complex_normal(rng, batch, n_dest)
        sd_part = -rng.random((batch, width))
        got = engine._score_marginalized((sd_part, CandidateBasis(stack)), af, h_rd, y_rd, 0.5)
        relay_cands = candidate_relay_symbols(af, CandidateBasis(stack))
        want = _per_sample_marginalized(sd_part, relay_cands, h_rd, y_rd, 0.5)
        assert got.tobytes() == want.tobytes(), (batch, samples, width, n_relay, n_dest)


def _dual_point(h, y):
    """The unit-power x = (H^H H + mu I)^-1 H^H y, mu found by bisection on
    ||x|| = 1 in the eigenbasis of H^H H, and the eigenvectors of H^H H."""
    eig, vec = np.linalg.eigh(h.conj().T @ h)
    proj = vec.conj().T @ (h.conj().T @ y)
    low = -eig[0] + 1e-12 * (1.0 + eig[-1])
    high = low + np.linalg.norm(proj) + 1.0
    for _ in range(200):
        mid = 0.5 * (low + high)
        if np.sum(np.abs(proj / (eig + mid)) ** 2) > 1.0:
            low = mid
        else:
            high = mid
    point = vec @ (proj / (eig + low))
    size = np.linalg.norm(point)
    return ([point / size] if size > 0.0 else []) + list(vec.T)


_FLOOR_SCALES = st.sampled_from((1e-3, 1e-2, 0.1, 1.0, 10.0, 1e2, 1e3))


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 16), st.integers(1, 16), st.integers(1, 3), _FLOOR_SCALES, _FLOOR_SCALES,
       st.sampled_from(("plain", "zero column", "zero y")), st.integers(0, 2**32 - 1))
def test_rd_floor_never_exceeds_a_unit_power_distance(n_dest, n_relay, batch, h_scale,
                                                      y_scale, case, seed):
    # the floor bounds ||y - H x||^2 from below for every unit-power x: random
    # ones, every relay method's symbols, the dual near-minimizer and the
    # eigenvectors of H^H H, for N_D below, at and above N_R
    rng = np.random.default_rng(seed)
    h_rd = h_scale * _complex_normal(rng, batch, n_dest, n_relay)
    # observations near the image of a unit-power x, as the relay sends
    sent = _complex_normal(rng, 2, batch, n_relay)
    sent /= np.linalg.norm(sent, axis=-1, keepdims=True)
    y_rd = (np.einsum("bdr,sbr->sbd", h_rd, sent)
            + y_scale * _complex_normal(rng, 2, batch, n_dest))
    if case == "zero column":
        h_rd[:, :, rng.integers(n_relay)] = 0.0
    elif case == "zero y":
        y_rd[:] = 0.0
    floor = engine._rd_floor(h_rd, y_rd)
    assert floor.shape == (2, batch) and np.all(np.isfinite(floor)) and np.all(floor >= 0.0)
    random = _complex_normal(rng, 16, n_relay)
    specs = [QuantizerSpec(UPQ, total_bits=3), QuantizerSpec(UAPQ, total_bits=6, phase_bits=3),
             QuantizerSpec(HAPQ, phase_bits=3, group_size=1),
             QuantizerSpec(HAPQ, phase_bits=3, group_size=n_relay)]
    relayed = [relay_symbols(random, spec) for spec in specs]
    for trial in range(batch):
        for row in range(2):
            h, y = h_rd[trial], y_rd[row, trial]
            xs = np.vstack([random / np.linalg.norm(random, axis=-1, keepdims=True),
                            *relayed, *_dual_point(h, y)])
            # the distance summed from the residual, and as the scorers
            # expand it, which the search's delta covers
            direct = np.sum(np.abs(y - xs @ h.T) ** 2, axis=-1)
            delta = (n_dest + 4) * 2.0**-50 * (np.linalg.norm(h) + np.linalg.norm(y)) ** 2
            expanded = engine._sq_dists(y, h @ xs.T)
            assert floor[row, trial] <= direct.min(), (case, row, trial)
            assert floor[row, trial] - delta <= expanded.min(), (case, row, trial)


def _scored_share(detector, samples, snr_db, monkeypatch):
    """Share of a 32-trial batch's candidates that one search over SPECS
    gathers, at C = 256."""
    scored = []
    real = engine._terms

    def counted(sd_part, relay_in, noise):
        # block_picks builds each block's basis once, from its gathered SD parts
        scored.append(sd_part.size)
        return real(sd_part, relay_in, noise)

    codebook, sigma2, arrays, y_rds = _search_draws(4, samples, snr_db, 32)
    y_sd, h_sd, h_sr, h_rd, noise = arrays
    monkeypatch.setattr(engine, "_terms", counted)
    engine.block_picks(y_sd, y_rds, h_sd, h_sr, h_rd, codebook.codewords,
                       SPECS, sigma2, noise)
    return sum(scored) / (32 * 256)


def test_marginalized_search_stops_early(monkeypatch):
    # the bound must let most trials stop after a few 16-candidate blocks at
    # the benchmark's shape: L = 64, 4 dB
    assert _scored_share("marginalized", 64, 4.0, monkeypatch) < 0.2


def test_mismatched_search_stops_early(monkeypatch):
    # and after the first 64-candidate block, for most trials, at the
    # mismatched benchmark's lowest grid point, 2 dB
    assert _scored_share("mismatched", 0, 2.0, monkeypatch) < 0.5


_BENCH_SPECS = {
    "marginalized": ("UAPQ:q=8,qbar=4", "HAPQ:qbar=4,m=2,n=2"),
    "mismatched": ("AF", "UAPQ:q=8,qbar=4", "HAPQ:qbar=4,m=2,n=2", "HAPQ:qbar=4,m=4,n=2",
                   "HAPQ:qbar=4,m=1,n=1", "HAPQ:qbar=4,m=1,n=2", "HAPQ:qbar=4,m=1,n=3",
                   "HAPQ:qbar=4,m=1,n=4", "HAPQ:qbar=4,m=2,n=1", "HAPQ:qbar=4,m=2,n=3",
                   "HAPQ:qbar=4,m=2,n=4"),
}


def _candidates_scored(detector, snr_db, batch_size, floored, monkeypatch):
    """Candidates the scorer scores, and the error counts, over three
    fixed-seed batches at a benchmark shape (4x4x4, M = 4, L = 64), with the
    RD floor in the stop bound or without it."""
    scorer, _ = _scorer(detector, 1.0)
    scored = [0]

    def counted(terms, spec, h_rd, y_rd, sigma2):
        scores = scorer(terms, spec, h_rd, y_rd, sigma2)
        scored[0] += scores.size
        return scores

    specs = [parse_spec_string(text) for text in _BENCH_SPECS[detector]]
    with monkeypatch.context() as patch:
        patch.setattr(engine, scorer.__name__, counted)
        if not floored:
            patch.setattr(engine, "_rd_floor", lambda h_rd, y_rd: np.zeros(y_rd.shape[:-1]))
        errors = [count_errors(4, 4, 4, 4, specs, snr_db, 0, seed, 0, batch_size,
                               detector=detector, marginal_samples=64).tolist()
                  for seed in range(3)]
    return scored[0], errors


@pytest.mark.parametrize("detector, snr_db, batch_size, with_floor, without_floor", [
    ("marginalized", 4.0, 8, 1680, 2128),
    ("mismatched", 2.0, 64, 181184, 215552),
], ids=["marginalized", "mismatched"])
def test_search_work_is_pinned(detector, snr_db, batch_size, with_floor, without_floor,
                               monkeypatch):
    # the number of candidates scored over three batches, with the RD floor
    # in the stop bound and without it, as pinned on one numpy build.  The
    # floor's last bits come from LAPACK, and a floor one ulp apart can flip
    # a stop decision at the edge, costing one block of every spec of one
    # trial; 2% leaves room for a few such flips.  The floor saves about a
    # fifth of the work, so a change that loosens the bound, or drops the
    # floor, still fails here loudly, not in a timing
    scored, errors = _candidates_scored(detector, snr_db, batch_size, True, monkeypatch)
    unfloored, same = _candidates_scored(detector, snr_db, batch_size, False, monkeypatch)
    assert same == errors
    assert scored == pytest.approx(with_floor, rel=0.02)
    assert unfloored == pytest.approx(without_floor, rel=0.02)
    assert scored < unfloored


def test_default_batch_fits_the_candidate_stack_budget():
    # criterion 7's mismatched shape (C = 4**4, N_R = N_D = 4), the
    # marginalized L = 64 shape, whose stack is one 16-candidate block, and
    # the candidate cap
    assert engine._batch_size(256, 4, 4, 4, 0) == 64
    assert engine._batch_size(256, 4, 4, 4, 64) == 16
    assert engine._batch_size(MAX_CANDIDATES, 4, 4, 4, 0) == 1
    # a 4 KiB block at L = 1, but the SD and relay-input products of all
    # 2**16 candidates take 4 MiB per trial
    assert engine._batch_size(MAX_CANDIDATES, 4, 4, 4, 1) == 1
    # the wider of N_R and N_D sizes the products
    assert engine._batch_size(1 << 12, 3, 4, 16, 1) == 1
    assert engine._batch_size(1 << 12, 3, 16, 4, 1) == 1
    # at C = 2 the draws, whose RD matrix alone is 4 MiB at 512 x 512,
    # size the batch; they used to be left out, giving 64 trials
    assert engine.trial_bytes(2, 1, 512, 512, 0)[1].startswith("trial draws")
    assert engine._batch_size(2, 1, 512, 512, 0) == 1


@pytest.mark.parametrize("n_source, n_relay, n_dest, alphabet, detector, samples", [
    (4, 4, 4, 4, "mismatched", 64),
    (4, 4, 4, 4, "marginalized", 64),
    (1, 512, 512, 2, "mismatched", 64),
    (3, 16, 16, 16, "mismatched", 64),
    (4, 4, 4, 4, "marginalized", 1024),
    (4, 4, 4, 4, "marginalized", 4096),
])
def test_default_batch_peaks_within_its_trial_bytes(n_source, n_relay, n_dest, alphabet,
                                                    detector, samples):
    # one default batch of each method peaks within 8 times the bytes it
    # was sized by: the temporaries around the largest array family take a
    # few times its bytes, whether that family is the draws (512 x 512), the
    # products (C = 4096) or the block stack (L >= 64).  Methods sharing a
    # batch also share its candidate basis, which keeps each one's memoized
    # pieces, so a batch of several methods can peak higher (see ROADMAP)
    marginal = samples if detector == "marginalized" else 0
    size, _ = engine.trial_bytes(alphabet**n_source, n_source, n_relay, n_dest, marginal)
    batch = engine._batch_size(alphabet**n_source, n_source, n_relay, n_dest, marginal)
    build_codebook(alphabet, n_source)  # cached across calls, so not a batch's memory
    for spec in SPECS:
        tracemalloc.start()
        try:
            count_errors(n_source, n_relay, n_dest, alphabet, (spec,), 4.0, 0, 0, 0, batch,
                         detector=detector, marginal_samples=samples)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * batch * size, spec
