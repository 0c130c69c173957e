import functools
import hashlib
import os
import re
import subprocess
import sys
import threading
import warnings

import numpy as np
import pytest

import auxcount
from auxcount import (
    ConfigError,
    Frame,
    QualityProfile,
    SweepError,
    allocate,
    difference_estimate,
    estimate_histogram,
    exact_hh_design_variance,
    hh_estimate,
    pps_wr,
    proposition1_sweep,
    run_replications,
    srs_estimate,
    srs_wor,
    stratified_estimate,
    stratify_by_prediction,
)
from auxcount import classifier_sim, montecarlo
from auxcount.montecarlo import HISTOGRAM_MAX_BINS, HistogramBin

from conftest import _ids, traced


@pytest.fixture(autouse=True, scope="module")
def _numpy_probed():
    """A run probes numpy once per process, on its first call: probe here,
    so that tests which patch the probe's parts find its verdict cached."""
    assert montecarlo._numpy_agrees()


def _small_pps_frame():
    rng = np.random.default_rng(17)
    N, t = 50, 5
    labels = np.zeros(N)
    labels[:t] = 1
    probs = np.where(labels == 1, rng.uniform(0.5, 0.95, N), rng.uniform(0.02, 0.3, N))
    return Frame(_ids("u", N), probs, labels)


def _stratified_frame():
    rng = np.random.default_rng(23)
    N = 400
    labels = np.zeros(N)
    labels[:16] = 1
    probs = np.where(labels == 1, rng.uniform(0.3, 0.9, N), rng.uniform(0.01, 0.6, N))
    return Frame(_ids("s", N), probs, labels)


PAIRINGS = [
    ("pps", "hh"),
    ("srs", "srs"),
    ("srs", "diff"),
    ("stratified", "strat_srs"),
    ("stratified", "strat_diff"),
]
STRATIFIED_KW = dict(tau=0.5, allocation="proportional")


def _run_kw(design):
    return STRATIFIED_KW if design == "stratified" else {}


def _replicate_alone(frame, design, estimator, n, rng):
    """One replicate through the public API: (total Estimate, zero-stratum Estimate)."""
    if design == "pps":
        return hh_estimate(pps_wr(frame, n, rng)), None
    if design == "srs":
        est_fn = srs_estimate if estimator == "srs" else difference_estimate
        return est_fn(srs_wor(frame, n, rng)), None
    strat = stratify_by_prediction(frame, STRATIFIED_KW["tau"])
    sizes = allocate(frame, strat, n, STRATIFIED_KW["allocation"])
    components = []
    for name in ("one", "zero"):  # one shared generator, stratum one first
        if sizes[name]:
            sample = srs_wor(frame, sizes[name], rng, stratum=(name, strat[name]))
            diff = name == "zero" and estimator == "strat_diff"
            components.append((name, (difference_estimate if diff else srs_estimate)(sample)))
    return stratified_estimate(components), dict(components).get("zero")


def _assert_alone(rep, frame, replicates):
    """Each of these replicates of a run equals the same replicate drawn alone."""
    for r in replicates:
        rng = np.random.default_rng((*rep.seed, r))
        alone, zero = _replicate_alone(frame, rep.design, rep.estimator, rep.n, rng)
        assert (alone.total, alone.variance) == (rep.estimates[r], rep.estimated_variances[r]), r
        if zero is not None:
            assert zero.total == rep.zero_stratum_estimates[r], r


def _assert_block_ends_alone(rep, frame, rows, lo=0, hi=None):
    """The first and last replicate of each block of ``rows`` in replicates
    lo..hi-1 of a run (all of them by default) equal the same replicates
    drawn alone."""
    hi = rep.R if hi is None else hi
    starts = range(lo, hi, rows)
    _assert_alone(rep, frame, sorted({*starts, *(min(s + rows, hi) - 1 for s in starts)}))


def _digests(rep):
    arrays = (rep.estimates, rep.estimated_variances, rep.zero_stratum_estimates)
    return tuple(None if a is None else hashlib.sha256(a.tobytes()).hexdigest() for a in arrays)


class TestReplicateRng:
    def test_streams_keyed_by_replicate(self):
        a, c = montecarlo._replicate_states(5, 3, 5)
        b = montecarlo._replicate_states(5, 3, 4)[0]
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_composite_seed(self):
        a = montecarlo._replicate_states((5, 1), 0, 1)
        b = montecarlo._replicate_states((5, 2), 0, 1)
        assert not np.array_equal(a, b)

    # one- to five-int seeds, and ints of one to three 32-bit words: with
    # the replicate index, two to seven entropy words, so both SeedSequence's
    # zero padding (under 4 words) and its extra mixing (over 4) run
    @pytest.mark.parametrize(
        "seed",
        [0, 1, 2**32 - 1, 2**32, 2**70, np.int64(7),
         (5,), (5, 1), (5, 1, 2), (5, 1, 2, 3), (5, 1, 2, 3, 4), (2**70, 2**32, 9)],
        ids=repr,
    )
    def test_bulk_seeding_is_seed_sequence(self, seed):
        key = seed if isinstance(seed, tuple) else (int(seed),)
        R = 10_000
        states = montecarlo._replicate_states(seed, 0, R)
        assert states.shape == (R, 4) and states.dtype == np.uint64
        for r in (0, 1, 17, R - 1):
            words = np.random.SeedSequence(key + (r,)).generate_state(4, np.uint64)
            assert np.array_equal(states[r], words)
            expected = np.random.default_rng(key + (r,))
            bulk = montecarlo._generator(states[r])
            assert bulk.bit_generator.state == expected.bit_generator.state
            assert np.array_equal(bulk.random(4), expected.random(4))

    @pytest.mark.parametrize("seed", [7, (5, 1, 2, 3, 4), 2**70], ids=repr)
    @pytest.mark.parametrize("a,b,c", [(1, 2, 3), (5, 6, 300), (17, 290, 291), (99, 4000, 9000)])
    def test_bulk_seeding_splits_anywhere(self, seed, a, b, c):
        whole = montecarlo._replicate_states(seed, a, c)
        parts = [montecarlo._replicate_states(seed, lo, hi) for lo, hi in ((a, b), (b, c))]
        assert np.array_equal(whole, np.concatenate(parts))

    # Traced bytes of one hash pass at its largest, as a multiple of the
    # seed words it returns: eight uint64 half-word arrays and their stack
    # peaked at 4.9 times them, half-words written into the words' own
    # bytes at 2.1.
    def test_bulk_seeding_holds_few_temporaries(self):
        rows = montecarlo._BLOCK_DRAWS
        states, _, peak = traced(lambda: montecarlo._replicate_states(7, 0, rows))
        assert states.shape == (rows, 4)
        assert peak <= 3.0 * states.nbytes

    def test_replicate_index_is_one_seed_word(self):
        with pytest.raises(ValueError, match=re.escape("[0, 2**32)")):
            montecarlo._replicate_states(5, -1, 0)
        with pytest.raises(ValueError, match=re.escape("[0, 2**32)")):
            montecarlo._replicate_states(5, 2**32, 2**32 + 1)


class TestBlockDraws:
    """A run's block draws are numpy's, bit for bit: row r holds what
    ``np.random.default_rng((seed, r))`` gives by ``integers(slots,
    size=n)`` then ``random(n)``, whether the block computes them from raw
    words or redraws a row through numpy."""

    def _block(self, slots, n, R, monkeypatch):
        redraws = []  # generators built, which a raw block does only to redraw a row
        generator = montecarlo._generator
        monkeypatch.setattr(
            montecarlo, "_generator", lambda words: redraws.append(1) or generator(words)
        )
        raw = montecarlo._draws_raw(slots)
        states = montecarlo._replicate_states(29, 0, R)
        j, u = montecarlo._block_draws(states, n, slots, raw)
        monkeypatch.undo()
        for r in range(R):
            rng = np.random.default_rng((29, r))
            assert np.array_equal(j[r], rng.integers(slots, size=n)), r
            assert np.array_equal(u[r].view(np.uint64), rng.random(n).view(np.uint64)), r
        return raw, len(redraws)

    # the acceptance and 2022 frame sizes, 32-bit ranges whose Lemire
    # rejection zone is empty (2), one half in 2**32 (3, 2**32 - 1) or about
    # half (2**31 + 1) or 30% (3e9 + 1) of all halves; odd n leaves a
    # word's high half unused
    @pytest.mark.parametrize(
        "slots", [2, 3, 190_944, 1_463_762, 2**31 + 1, 3_000_000_001, 2**32 - 1]
    )
    @pytest.mark.parametrize("n", [2, 3, 299, 500])
    def test_raw_block_draws_are_numpys(self, slots, n, monkeypatch):
        R = 40
        raw, redraws = self._block(slots, n, R, monkeypatch)
        assert raw  # the words were drawn raw
        if slots == 2:
            assert redraws == 0
        if slots in (2**31 + 1, 3_000_000_001):
            assert redraws > 0
            if n == 2:  # rows with no rejected half were computed from raw words
                assert redraws < R

    # numpy's integers(1) draws no words, and 2**32 slots or more need
    # 64-bit halves: those blocks call numpy
    @pytest.mark.parametrize("slots", [1, 2**32, 2**33 + 5])
    def test_numpy_draws_other_slot_counts(self, slots, monkeypatch):
        raw, redraws = self._block(slots, 3, 10, monkeypatch)
        assert not raw and redraws == 10

    def test_consecutive_raw_blocks_share_no_memory(self):
        # a block's draws are arrays of its own, never views of arrays
        # that the next block of its range writes again
        slots, n = 190_944, 7
        states = montecarlo._replicate_states(29, 0, 8)
        first = montecarlo._block_draws(states[:4], n, slots, True)
        second = montecarlo._block_draws(states[4:], n, slots, True)
        for a in first:
            for b in second:
                assert not np.shares_memory(a, b)


class TestHistogram:
    def test_zeros_get_their_own_bin(self):
        values = [0.0, 0.0, 0.0, 5.0, 6.0, 7.0, 8.0, 9.0]
        bins = estimate_histogram(values)
        assert bins[0] == HistogramBin(0.0, 0.0, 3)
        assert sum(b.count for b in bins) == len(values)

    def test_constant_nonzero_values(self):
        bins = estimate_histogram([4.0] * 10)
        assert bins == (HistogramBin(4.0, 4.0, 10),)

    def test_counts_always_sum(self):
        rng = np.random.default_rng(2)
        values = np.concatenate([np.zeros(100), rng.normal(50, 10, 900)])
        bins = estimate_histogram(values)
        assert sum(b.count for b in bins) == 1000

    def test_empty_input(self):
        with pytest.raises(ValueError):
            estimate_histogram([])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_values_are_refused_by_name(self, bad):
        # refused before any bin is made, so numpy never warns on NaN arithmetic
        with pytest.raises(ValueError, match="finite"):
            estimate_histogram([0.0, 1.0, bad, 3.0])

    def test_far_outlier_caps_the_bin_count(self):
        # Freedman-Diaconis alone would ask for about 8 million bins here
        rng = np.random.default_rng(4)
        values = np.concatenate([rng.normal(0.0, 1.0, 9_999), [1e7], np.zeros(5)])
        bins = estimate_histogram(values)
        assert HistogramBin(0.0, 0.0, 5) in bins
        assert len(bins) == HISTOGRAM_MAX_BINS + 1
        assert sum(b.count for b in bins) == values.size
        assert bins[-1].hi == 1e7

    def test_bins_under_the_cap_are_freedman_diaconis(self):
        rng = np.random.default_rng(8)
        values = rng.gamma(2.0, 50.0, 5_000)
        counts, edges = np.histogram(values, bins=np.histogram_bin_edges(values, bins="fd"))
        bins = estimate_histogram(values)
        assert [b.count for b in bins] == counts.tolist()
        assert [b.lo for b in bins] + [bins[-1].hi] == edges.tolist()


class TestRunValidation:
    def test_pairings_are_the_library_table(self):
        # a pairing added to the table must reach every test parametrized by PAIRINGS
        table = [(d, e) for d, names in montecarlo._VALID_PAIRS.items() for e in names]
        assert PAIRINGS == table

    def test_design_estimator_pairing(self):
        # every design and estimator, and one unknown of each: a run is
        # refused exactly when the pairing table lacks its pair
        fr = _stratified_frame()
        for design in (*montecarlo.DESIGN_CHOICES, "cluster"):
            for estimator in (*montecarlo.ESTIMATOR_CHOICES, "ratio"):
                kw = dict(design=design, estimator=estimator, n=20, R=2, seed=1)
                if (design, estimator) in PAIRINGS:
                    run_replications(fr, **kw, **_run_kw(design))
                else:
                    with pytest.raises(ConfigError):
                        run_replications(fr, **kw, **_run_kw(design))
        with pytest.raises(ConfigError) as refused:
            run_replications(fr, design="pps", estimator="diff", n=20, R=2, seed=1)
        assert str(refused.value) == (
            "no run pairs design 'pps' with estimator 'diff'; valid runs: "
            f"{montecarlo._VALID_PAIRS}"
        )

    def test_stratified_needs_tau_and_allocation(self):
        with pytest.raises(ConfigError, match="tau"):
            run_replications(
                _stratified_frame(), design="stratified", estimator="strat_srs",
                n=20, R=2, seed=1,
            )

    @pytest.mark.parametrize("design,estimator", [("pps", "hh"), ("srs", "diff")])
    @pytest.mark.parametrize("setting", [dict(allocation="bogus"), dict(tau=0.5)])
    def test_tau_and_allocation_only_for_stratified(self, design, estimator, setting):
        with pytest.raises(ConfigError, match="only to stratified"):
            run_replications(
                _stratified_frame(), design=design, estimator=estimator,
                n=20, R=2, seed=1, **setting,
            )

    def test_unlabeled_frame_rejected(self):
        fr = Frame(_ids("u", 10), np.full(10, 0.4))
        with pytest.raises(ValueError, match="labeled"):
            run_replications(fr, design="pps", estimator="hh", n=4, R=2, seed=1)

    def test_size_limits(self):
        fr = _small_pps_frame()
        with pytest.raises(ValueError):
            run_replications(fr, design="pps", estimator="hh", n=1, R=2, seed=1)
        with pytest.raises(ValueError):
            run_replications(fr, design="pps", estimator="hh", n=5, R=0, seed=1)
        with pytest.raises(ValueError, match="exceeds N=50"):
            run_replications(fr, design="srs", estimator="srs", n=51, R=2, seed=1)
        # with replacement, PPS may draw more than N times
        run_replications(fr, design="pps", estimator="hh", n=51, R=2, seed=1)

    @pytest.mark.parametrize("seed", [-1, (3, -1)])
    def test_negative_seed_refused_before_any_replicate(self, seed, monkeypatch):
        with pytest.raises(ValueError) as seed_sequence:
            np.random.SeedSequence(-1)
        monkeypatch.setattr(montecarlo, "_generator", None)  # a replicate would fail
        with pytest.raises(ValueError, match=re.escape(str(seed_sequence.value))):
            run_replications(_small_pps_frame(), design="pps", estimator="hh", n=5, R=2, seed=seed)

    @pytest.mark.parametrize("R", [2**32, 2**40])
    def test_replicate_count_below_2_32(self, R, monkeypatch):
        monkeypatch.setattr(montecarlo, "_generator", None)
        with pytest.raises(ValueError, match=re.escape("below 2**32")):
            run_replications(_small_pps_frame(), design="pps", estimator="hh", n=5, R=R, seed=1)

    @pytest.mark.parametrize("se", [0.0, -0.0, -1.0, np.nan, np.inf])
    def test_baseline_se_refused_before_any_replicate(self, se, monkeypatch):
        monkeypatch.setattr(montecarlo, "_block_draws", None)  # a block would fail
        with pytest.raises(ValueError, match="baseline SE must be positive and finite"):
            run_replications(
                _small_pps_frame(), design="pps", estimator="hh", n=5, R=2, seed=1,
                srs_baseline_se=se,
            )

    def test_single_replicate_warns(self):
        with pytest.warns(UserWarning, match="R=1"):
            rep = run_replications(
                _small_pps_frame(), design="pps", estimator="hh", n=5, R=1, seed=1
            )
        assert rep.empirical_se == 0.0


class TestRunReplications:
    def test_hh_moments_match_closed_form(self):
        fr = _small_pps_frame()
        exact = exact_hh_design_variance(fr, 10)
        rep = run_replications(fr, design="pps", estimator="hh", n=10, R=2000, seed=3)
        band = 3 * rep.empirical_se / np.sqrt(rep.R)
        assert abs(rep.empirical_mean - fr.true_total) < band
        assert rep.empirical_se**2 == pytest.approx(exact, rel=0.1)
        assert rep.mean_estimated_variance == pytest.approx(exact, rel=0.1)
        assert rep.bias == rep.empirical_mean - fr.true_total
        assert sum(b.count for b in rep.bins) == rep.R

    @pytest.mark.parametrize("design,estimator", PAIRINGS)
    def test_deterministic_and_worker_independent(self, design, estimator):
        # any replicate reproduces alone from np.random.default_rng((seed,
        # r)), so whoever computes it gets the same value, bit for bit, as
        # the public samplers and estimators
        fr = _stratified_frame()
        kw = dict(design=design, estimator=estimator, n=20, R=40, seed=11, **_run_kw(design))
        a = run_replications(fr, **kw)
        b = run_replications(fr, **kw)
        assert np.array_equal(a.estimates, b.estimates)
        assert np.array_equal(a.estimated_variances, b.estimated_variances)
        assert (a.zero_stratum_estimates is None) == (design != "stratified")
        for r in (0, 17, 39):
            rng = np.random.default_rng((11, r))
            alone, zero = _replicate_alone(fr, design, estimator, 20, rng)
            assert (alone.total, alone.variance) == (
                a.estimates[r], a.estimated_variances[r]
            )
            if zero is not None:
                assert zero.total == a.zero_stratum_estimates[r]

    @pytest.mark.parametrize("design,estimator", PAIRINGS)
    def test_runs_across_blocks_match_replicates_alone(self, design, estimator):
        fr, n, R, seed = _stratified_frame(), 200, 700, 31
        rows = montecarlo._BLOCK_DRAWS // n
        assert R > 2 * rows and R % rows  # three or more blocks, the last one partial
        rep = run_replications(
            fr, design=design, estimator=estimator, n=n, R=R, seed=seed, **_run_kw(design)
        )
        _assert_block_ends_alone(rep, fr, rows)

    def _hash_passes(self, monkeypatch):
        """Record run_replications' (start, stop) calls of _replicate_states."""
        calls, states = [], montecarlo._replicate_states

        def recording(seed, start, stop):
            calls.append((start, stop))
            return states(seed, start, stop)

        monkeypatch.setattr(montecarlo, "_replicate_states", recording)
        return calls

    @pytest.mark.parametrize("design,estimator", PAIRINGS)
    def test_runs_across_hash_passes_match_replicates_alone(
        self, design, estimator, monkeypatch
    ):
        # blocks of 7 replicates, hashed 21 blocks (147 replicates) at a
        # time: three passes, the last one and the last block partial; one
        # range, so the passes are one list
        monkeypatch.setattr(montecarlo, "_BLOCK_DRAWS", 150)
        monkeypatch.setattr(classifier_sim, "_usable_cpus", lambda: 1)
        calls = self._hash_passes(monkeypatch)
        fr, n, R, seed = _stratified_frame(), 20, 400, 31
        rep = run_replications(
            fr, design=design, estimator=estimator, n=n, R=R, seed=seed, **_run_kw(design)
        )
        assert calls == [(0, 147), (147, 294), (294, 400)]
        _assert_block_ends_alone(rep, fr, 7)

    @pytest.mark.parametrize(
        "block_draws,n,R",
        [(None, 3, 70_000), (None, 400, 20), (None, 20, 2), (150, 20, 400), (64, 7, 300),
         (64, 2, 33), (64, 64, 5), (64, 100, 130)],
    )
    def test_hash_passes_tile_the_run(self, block_draws, n, R, monkeypatch):
        if block_draws is not None:
            monkeypatch.setattr(montecarlo, "_BLOCK_DRAWS", block_draws)
        monkeypatch.setattr(classifier_sim, "_usable_cpus", lambda: 1)
        calls = self._hash_passes(monkeypatch)
        run_replications(_stratified_frame(), design="srs", estimator="srs", n=n, R=R, seed=2)
        # in order, without gap or overlap, each pass at most _BLOCK_DRAWS replicates
        assert [start for start, _ in calls] == [0] + [stop for _, stop in calls[:-1]]
        assert calls[-1][1] == R
        assert all(0 < stop - start <= montecarlo._BLOCK_DRAWS for start, stop in calls)

    def test_each_range_tiles_its_own_hash_passes(self, monkeypatch):
        # two ranges of 200 replicates; each range's blocks hold 150 // (20 * 2)
        # = 3 replicates and its passes 3 * (150 // 6) = 75, so that both
        # ranges together hold about what one range's 7 and 147 hold
        monkeypatch.setattr(montecarlo, "_BLOCK_DRAWS", 150)
        monkeypatch.setattr(classifier_sim, "_usable_cpus", lambda: 2)
        calls = self._hash_passes(monkeypatch)
        fr = _stratified_frame()
        rep = run_replications(fr, design="pps", estimator="hh", n=20, R=400, seed=31)
        assert [c for c in calls if c[0] < 200] == [(0, 75), (75, 150), (150, 200)]
        assert [c for c in calls if c[0] >= 200] == [(200, 275), (275, 350), (350, 400)]
        for lo in (0, 200):
            _assert_block_ends_alone(rep, fr, 3, lo, lo + 200)

    # sha256 of (estimates, estimated_variances, zero_stratum_estimates) on
    # _stratified_frame() at n=20, R=50, seed=11, recorded while each
    # replicate still built a Sample and an Estimate
    GOLDEN = {
        ("pps", "hh"): (
            "5c2760a0e69bc79cd991c741697ed953fd4c4f8436d379affdb00213b9985daa",
            "609446083bebad1a422356d079834db227b1bce0e2e2cba016dd5a57d018a8db",
            None,
        ),
        ("srs", "srs"): (
            "059398fb17df83ac539506ca274159b2cb65bf9f5e54635bf1da712d1a2db37a",
            "8748544b03511c8964acfbfbae6ed2cb9854d0094024f5039049f785b6ee476a",
            None,
        ),
        ("srs", "diff"): (
            "a10c2d10271c40e2ae7bb8ff707919aa391e7fbfe147dcf770afd5b309d1e2b3",
            "05d6459014320ad1ea21c879b2b528262a955f4ab9ce618497b22a03a249ea97",
            None,
        ),
        ("stratified", "strat_srs"): (
            "856831b4fc557b99b09284b723762d220cb176242c538ad614b2a53bb3d3b4da",
            "b7b6d81ab262b652204bdb1aefad768aac4da67da9735c60ef181e933c124c6f",
            "4d7d4ef21744b714668a7ccad23b4135f8430c11ae75520e0f5c21748f5084bf",
        ),
        ("stratified", "strat_diff"): (
            "52517e058324f03fc225c81dd98d194f4e195983cd23b638449f60ec4d8bf80c",
            "97f09368bc24b2a0bc08ac4bf639140459e167b572ebba2ebdafc1b1c1624311",
            "767920ed5f1d38ffbb16ba8c24ad4895a4c337580ce08138c1f46e5246b5805f",
        ),
    }

    @pytest.mark.parametrize("design,estimator", PAIRINGS)
    def test_replicate_bytes_are_pinned(self, design, estimator):
        rep = run_replications(
            _stratified_frame(), design=design, estimator=estimator,
            n=20, R=50, seed=11, **_run_kw(design),
        )
        assert _digests(rep) == self.GOLDEN[design, estimator]

    def test_census_srs_is_exact_every_time(self):
        N = 30
        labels = np.zeros(N)
        labels[:4] = 1
        fr = Frame(_ids("v", N), np.full(N, 0.2), labels)
        rep = run_replications(fr, design="srs", estimator="srs", n=30, R=50, seed=1)
        assert rep.empirical_se == 0.0
        assert rep.empirical_mean == 4.0
        assert rep.mean_estimated_variance == 0.0

    def test_deff_is_squared_se_ratio(self):
        fr = _small_pps_frame()
        rep = run_replications(
            fr, design="pps", estimator="hh", n=8, R=100, seed=2, srs_baseline_se=3.0
        )
        assert rep.deff_vs_srs == pytest.approx((rep.empirical_se / 3.0) ** 2, rel=1e-12)

    def test_stratified_tracks_zero_stratum(self):
        fr = _stratified_frame()
        rep = run_replications(
            fr, design="stratified", estimator="strat_srs",
            n=40, R=60, seed=7, tau=0.5, allocation="proportional",
        )
        assert rep.zero_stratum_estimates is not None
        assert not np.isnan(rep.zero_stratum_estimates).any()
        assert 0.0 <= rep.zero_stratum_empty_fraction <= 1.0

    def test_single_stratum_frame_has_no_zero_fraction(self):
        # every score above tau: the zero stratum holds no units
        labels = np.zeros(40)
        labels[:3] = 1
        fr = Frame(_ids("h", 40), np.full(40, 0.8), labels)
        rep = run_replications(
            fr, design="stratified", estimator="strat_srs",
            n=10, R=20, seed=4, tau=0.5, allocation="proportional",
        )
        assert rep.zero_stratum_empty_fraction is None
        assert rep.empirical_mean == pytest.approx(3.0 * 40 / 40, abs=3.0)

    def test_one_unit_stratum_is_a_census(self):
        # a single unit scores above tau: stratum one is sampled in full
        labels = np.zeros(40)
        labels[:3] = 1
        fr = Frame(_ids("k", 40), np.where(np.arange(40) == 0, 0.9, 0.2), labels)
        rep = run_replications(
            fr, design="stratified", estimator="strat_srs",
            n=10, R=30, seed=5, tau=0.5, allocation="proportional",
        )
        assert np.isfinite(rep.estimated_variances).all()
        assert np.isfinite(rep.mean_estimated_variance)

    def test_no_zero_stratum_positives_means_always_empty(self):
        labels = np.zeros(60)
        labels[:2] = 1
        fr = Frame(_ids("b", 60), np.where(labels == 1, 0.9, 0.1), labels)
        rep = run_replications(
            fr, design="stratified", estimator="strat_srs",
            n=12, R=200, seed=3, tau=0.5, allocation="proportional",
        )
        assert rep.zero_stratum_empty_fraction == 1.0
        assert estimate_histogram(rep.zero_stratum_estimates) == (HistogramBin(0.0, 0.0, 200),)
        # stratum one (the two positives) is a census, so every total is 2
        assert rep.bins == (HistogramBin(2.0, 2.0, 200),)

    def test_one_unit_pps_frame_matches_replicates_alone(self):
        # numpy's integers(1) consumes no words, so each replicate's
        # uniforms are its stream's first doubles
        fr = Frame(["only"], [0.3], [1.0])
        rep = run_replications(fr, design="pps", estimator="hh", n=5, R=12, seed=8)
        for r in range(12):
            alone, _ = _replicate_alone(fr, "pps", "hh", 5, np.random.default_rng((8, r)))
            assert (alone.total, alone.variance) == (rep.estimates[r], rep.estimated_variances[r])
        assert rep.estimates.tolist() == [1.0] * 12

    def test_summary_dict_is_json_shaped(self):
        rep = run_replications(
            _small_pps_frame(), design="pps", estimator="hh", n=8, R=30, seed=11
        )
        d = rep.summary_dict()
        assert d["R"] == 30
        assert d["seed"] == [11]
        assert all(len(row) == 3 for row in d["histogram"])
        assert "estimates" not in d


class TestRangeSplit:
    """A PPS run whose blocks draw raw words runs one contiguous range of
    replicates per usable CPU, through the runner that also slices score
    simulation; the bytes are the same for every count."""

    @pytest.mark.parametrize("block_draws", [None, 150])
    @pytest.mark.parametrize("design,estimator", PAIRINGS)
    def test_bytes_do_not_depend_on_the_cpu_count(
        self, design, estimator, block_draws, monkeypatch
    ):
        if block_draws is not None:  # several blocks and hash passes in every range
            monkeypatch.setattr(montecarlo, "_BLOCK_DRAWS", block_draws)
        runs = []  # (digests, ranges run, threads that drew blocks)
        runner, draws = classifier_sim._run_ranges, montecarlo._block_draws
        ranges, threads = [], set()
        monkeypatch.setattr(
            classifier_sim, "_run_ranges",
            lambda run, stop, k: runner(lambda *a: ranges.append(a) or run(*a), stop, k),
        )
        monkeypatch.setattr(
            montecarlo, "_block_draws",
            lambda *a: threads.add(threading.current_thread()) or draws(*a),
        )
        fr = _stratified_frame()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # threads trade the interpreter often
        try:
            for cpus in (1, 2, 3, 7):
                monkeypatch.setattr(classifier_sim, "_usable_cpus", lambda: cpus)
                ranges.clear()
                threads.clear()
                rep = run_replications(
                    fr, design=design, estimator=estimator, n=20, R=300, seed=5,
                    **_run_kw(design),
                )
                runs.append((_digests(rep), len(ranges), len(threads)))
        finally:
            sys.setswitchinterval(interval)
        assert len({digests for digests, _, _ in runs}) == 1
        if design == "pps":  # a range per CPU, each drawn on a thread of its own
            assert [r for _, r, _ in runs] == [1, 2, 3, 7]
            assert [t for _, _, t in runs][:2] == [1, 2]
        else:
            assert [r for _, r, _ in runs] == [1, 1, 1, 1]
            assert [t for _, _, t in runs] == [1, 1, 1, 1]
        _assert_alone(rep, fr, range(rep.R))

    def test_redrawn_rows_past_the_first_range_match_replicates_alone(self, monkeypatch):
        # 2**32 % 59,722 is 1.4e-5 of 2**32, the share of halves Lemire's rule
        # rejects, so about 1.4% of rows of 1,000 draws redraw through numpy
        N, n, R, seed = 59_722, 1_000, 400, 3
        labels = np.zeros(N)
        labels[::500] = 1
        fr = Frame(_ids("z", N), np.linspace(0.01, 0.9, N), labels)
        redrawn = []  # a raw block builds a generator only to redraw a row
        generator = montecarlo._generator
        monkeypatch.setattr(
            montecarlo, "_generator", lambda words: redrawn.append(words) or generator(words)
        )
        monkeypatch.setattr(classifier_sim, "_usable_cpus", lambda: 2)
        rep = run_replications(fr, design="pps", estimator="hh", n=n, R=R, seed=seed)
        monkeypatch.undo()
        states = montecarlo._replicate_states(seed, 0, R)
        rows = sorted(int(np.flatnonzero((states == w).all(axis=1))[0]) for w in redrawn)
        assert any(r < R // 2 for r in rows) and any(r >= R // 2 for r in rows), rows
        _assert_alone(rep, fr, range(rep.R))

    @pytest.mark.parametrize("failing", ["worker", "caller"])
    @pytest.mark.parametrize("work", ["replicates", "scores"])
    def test_a_range_error_reaches_the_caller_and_no_thread_outlives_it(
        self, work, failing, monkeypatch
    ):
        import scipy.special

        # a replicate range fails in its block draws, a score range in its inverse CDF
        module, name = {
            "replicates": (montecarlo, "_block_draws"), "scores": (scipy.special, "betaincinv")
        }[work]
        caller, inner = threading.current_thread(), getattr(module, name)

        def failing_inner(*args, **kwargs):
            if (threading.current_thread() is caller) == (failing == "caller"):
                raise RuntimeError(f"{failing} range failed")
            return inner(*args, **kwargs)

        monkeypatch.setattr(module, name, failing_inner)
        monkeypatch.setattr(classifier_sim, "_usable_cpus", lambda: 3)
        fr = _small_pps_frame()
        before = threading.active_count()
        with pytest.raises(RuntimeError, match=f"{failing} range failed"):
            if work == "replicates":
                run_replications(fr, design="pps", estimator="hh", n=5, R=30, seed=1)
            else:
                classifier_sim.simulate_predictions(fr, QualityProfile.symmetric(2.0), seed=1)
        assert threading.active_count() == before

    @pytest.mark.parametrize("work", ["k1", "k1_rows_stop", "srs_at_2_cpus"])
    def test_a_run_of_one_range_starts_no_thread(self, work, monkeypatch):
        # the caller runs the one range, and the pool, given no other, starts no thread
        before, counts = threading.active_count(), []

        def run(lo, hi):
            counts.append(threading.active_count())

        if work == "srs_at_2_cpus":
            runner = classifier_sim._run_ranges
            monkeypatch.setattr(
                classifier_sim, "_run_ranges",
                lambda inner, stop, k: runner(lambda *a: run(*a) or inner(*a), stop, k),
            )
            monkeypatch.setattr(classifier_sim, "_usable_cpus", lambda: 2)
            run_replications(_stratified_frame(), design="srs", estimator="srs", n=20, R=300,
                             seed=5)
        else:
            rows = 300 if work == "k1_rows_stop" else None
            assert list(classifier_sim._run_ranges(run, 300, 1, rows)) == [(0, 300)]
        assert counts == [before]
        assert threading.active_count() == before


class TestNumpyProbe:
    """Runs check once per process that numpy seeds and draws as the
    emulation computes, and take numpy's own path where it does not."""

    def _fresh_probe(self, monkeypatch):
        probe = functools.cache(montecarlo._numpy_agrees.__wrapped__)
        monkeypatch.setattr(montecarlo, "_numpy_agrees", probe)
        return probe

    def test_probe_rows_compute_and_redraw(self, monkeypatch):
        redraws = []
        generator = montecarlo._generator
        monkeypatch.setattr(
            montecarlo, "_generator", lambda words: redraws.append(1) or generator(words)
        )
        assert self._fresh_probe(monkeypatch)()
        # only slot count 2**31 + 1 redraws, and not every row
        assert 0 < len(redraws) < montecarlo._PROBE_ROWS

    @pytest.mark.parametrize("design,estimator", PAIRINGS)
    def test_a_numpy_unlike_the_emulation_runs_numpys_own_path(
        self, design, estimator, monkeypatch
    ):
        probe = self._fresh_probe(monkeypatch)
        monkeypatch.setattr(montecarlo, "_MULT_A", montecarlo._MULT_A ^ 2)  # a seed hash constant
        monkeypatch.setattr(classifier_sim, "_usable_cpus", lambda: 3)
        calls = []  # (thread, raw or not, n) of each block, the probe's of n = 3 too
        draws = montecarlo._block_draws

        def draw(states, n, slots, raw):
            calls.append((threading.current_thread(), raw, n))
            return draws(states, n, slots, raw)

        monkeypatch.setattr(montecarlo, "_block_draws", draw)
        fr = _stratified_frame()
        kw = dict(design=design, estimator=estimator, n=20, R=50, seed=11, **_run_kw(design))
        with pytest.warns(RuntimeWarning, match=re.escape(f"numpy {np.__version__} seeds")):
            rep = run_replications(fr, **kw)
        assert probe() is False
        assert _digests(rep) == TestRunReplications.GOLDEN[design, estimator]
        assert {c for c in calls if c[2] == 20} == {(threading.current_thread(), False, 20)}
        _assert_alone(rep, fr, range(rep.R))
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # once per process
            assert _digests(run_replications(fr, **kw)) == _digests(rep)


class TestSweep:
    def _frame(self):
        N = 400
        labels = np.zeros(N)
        labels[:20] = 1
        return Frame(_ids("w", N), np.full(N, 0.5), labels)

    def test_two_point_sweep_improves(self):
        pts = proposition1_sweep(self._frame(), (0.5, 0.3), n=20, R=60, seed=9)
        assert len(pts) == 2
        assert pts[1].sharpness > pts[0].sharpness
        assert pts[1].exact_variance < pts[0].exact_variance
        for p in pts:
            assert p.realized_loss == pytest.approx(p.target_loss, rel=0.1)
            assert p.empirical_variance > 0

    def test_target_validation(self):
        fr = self._frame()
        with pytest.raises(ValueError, match="no loss targets"):
            proposition1_sweep(fr, (), n=20, R=10, seed=1)
        with pytest.raises(ValueError, match="strictly decreasing"):
            proposition1_sweep(fr, (0.3, 0.3), n=20, R=10, seed=1)
        with pytest.raises(ValueError, match="positive"):
            proposition1_sweep(fr, (0.5, -0.1), n=20, R=10, seed=1)
        with pytest.raises(ValueError, match="positive and finite"):
            proposition1_sweep(fr, (np.inf, 0.3), n=20, R=10, seed=1)

    def test_points_are_pinned(self):
        # the values of the sweep that simulated every calibrated frame twice
        pts = proposition1_sweep(self._frame(), (0.5, 0.3), n=20, R=60, seed=9)
        assert [
            (p.realized_loss, p.sharpness, p.exact_variance, p.empirical_variance)
            for p in pts
        ] == [
            (0.4915815113832606, 1.5, 354.2901149811939, 262.483942696578),
            (0.30190023606420063, 1.9375, 103.02861446730417, 118.6510020668721),
        ]

    def test_uncalibratable_target_names_the_point(self):
        with pytest.raises(SweepError, match="sweep point 0"):
            proposition1_sweep(self._frame(), (2.0,), n=20, R=10, seed=1)


def test_import_leaves_scipy_stats_unloaded():
    # a fresh interpreter, since this test session imports scipy.stats itself
    src = os.path.dirname(os.path.dirname(auxcount.__file__))
    code = "import sys, auxcount; print('scipy.stats' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": src},
    ).stdout
    assert out.strip() == "False"


def test_import_loads_no_scipy():
    # scipy.special is imported only when scores are simulated
    src = os.path.dirname(os.path.dirname(auxcount.__file__))
    code = (
        "import sys\n"
        "scipy = lambda: sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
        "import auxcount; print(scipy())\n"
        "import auxcount.cli; print(scipy())\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": src},
    ).stdout
    assert out.split("\n") == ["[]", "[]", ""]


def test_import_loads_no_thread_pool():
    # concurrent.futures is imported only when a run or a score simulation
    # starts threads, so no command that needs none pays its import
    src = os.path.dirname(os.path.dirname(auxcount.__file__))
    code = "import sys, auxcount.cli; print('concurrent.futures' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": src},
    ).stdout
    assert out.strip() == "False"
