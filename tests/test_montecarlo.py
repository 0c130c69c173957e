import os
import subprocess
import sys

import numpy as np
import pytest

import auxcount
from auxcount import (
    ConfigError,
    Frame,
    SweepError,
    estimate_histogram,
    exact_hh_design_variance,
    hh_estimate,
    pps_wr,
    proposition1_sweep,
    replicate_rng,
    run_replications,
)
from auxcount.montecarlo import HISTOGRAM_MAX_BINS, HistogramBin

from conftest import _ids


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


class TestReplicateRng:
    def test_streams_keyed_by_replicate(self):
        a = replicate_rng(5, 3).random(4)
        b = replicate_rng(5, 3).random(4)
        c = replicate_rng(5, 4).random(4)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_composite_seed(self):
        a = replicate_rng((5, 1), 0).random(4)
        b = replicate_rng((5, 2), 0).random(4)
        assert not np.array_equal(a, b)


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
    def test_design_estimator_pairing(self):
        fr = _small_pps_frame()
        with pytest.raises(ConfigError, match="does not apply"):
            run_replications(fr, design="pps", estimator="srs", n=5, R=2, seed=1)
        with pytest.raises(ConfigError, match="unknown design"):
            run_replications(fr, design="cluster", estimator="hh", n=5, R=2, seed=1)
        with pytest.raises(ConfigError, match="unknown estimator"):
            run_replications(fr, design="pps", estimator="ratio", n=5, R=2, seed=1)

    def test_stratified_needs_tau_and_allocation(self):
        with pytest.raises(ConfigError, match="tau"):
            run_replications(
                _stratified_frame(), design="stratified", estimator="strat_srs",
                n=20, R=2, seed=1,
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

    def test_deterministic_and_worker_independent(self):
        # any replicate reproduces alone from replicate_rng(seed, r), so
        # whoever computes it gets the same value
        fr = _small_pps_frame()
        kw = dict(design="pps", estimator="hh", n=8, R=40, seed=11)
        a = run_replications(fr, **kw)
        b = run_replications(fr, **kw)
        assert np.array_equal(a.estimates, b.estimates)
        assert np.array_equal(a.estimated_variances, b.estimated_variances)
        for r in (0, 17, 39):
            alone = hh_estimate(pps_wr(fr, 8, replicate_rng(11, r)))
            assert (alone.total, alone.variance) == (
                a.estimates[r], a.estimated_variances[r]
            )

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

    def test_summary_dict_is_json_shaped(self):
        rep = run_replications(
            _small_pps_frame(), design="pps", estimator="hh", n=8, R=30, seed=11
        )
        d = rep.summary_dict()
        assert d["R"] == 30
        assert d["seed"] == [11]
        assert all(len(row) == 3 for row in d["histogram"])
        assert "estimates" not in d


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
