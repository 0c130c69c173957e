import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from auxcount import (
    DESIGN_PPS,
    DESIGN_SRS,
    Estimate,
    Frame,
    PROB_FLOOR,
    VarianceUndefinedError,
    census_estimate,
    confidence_interval,
    design_effect,
    difference_estimate,
    equivalent_srs_n,
    estimate_record,
    exact_hh_design_variance,
    hh_estimate,
    srs_estimate,
    srs_se_for_total,
    stratified_estimate,
    under_reporting,
)
from auxcount import estimators
from auxcount.estimators import RECORD_FIELDS

from conftest import (
    _ids,
    make_sample,
    register_pps_sample,
    register_stratified_samples,
)


def _pps(pi, y, parent_N=100, aux_total=1.0):
    return make_sample(DESIGN_PPS, y, np.multiply(pi, aux_total), parent_N, aux_total)


def _srs(y, p_hat=None, parent_N=100, aux_total=1.0):
    return make_sample(DESIGN_SRS, y, p_hat, parent_N, aux_total)


class TestHansenHurwitz:
    def test_perfect_classifier_recovers_total_exactly(self):
        # 2 positives, scores equal labels: every draw lands on a positive
        # with pi = 1/2, so each expanded draw is the true total
        s = _pps([0.5, 0.5, 0.5, 0.5], [1, 1, 1, 1], aux_total=2.0)
        e = hh_estimate(s)
        assert e.total == 2.0
        assert e.variance == 0.0

    def test_constant_scores_reduce_to_expansion(self):
        # flat p_hat = 0.3 over N=10: pi = 0.1, y/pi in {0, 10}
        s = _pps([0.1] * 5, [1, 0, 1, 0, 0], parent_N=10, aux_total=3.0)
        e = hh_estimate(s)
        assert e.total == pytest.approx(4.0)
        assert e.variance == pytest.approx(6.0)  # var([10,0,10,0,0], ddof=1)/5

    def test_hand_computed_variance(self):
        s = _pps([0.1, 0.5, 0.05], [1, 0, 1], aux_total=1.0)
        e = hh_estimate(s)
        assert e.total == pytest.approx(10.0)
        assert e.variance == pytest.approx(100.0 / 3.0)

    def test_single_draw_has_no_variance(self):
        e = hh_estimate(_pps([0.25], [1], aux_total=1.0))
        assert e.total == 4.0
        assert e.variance is None
        assert e.se is None
        with pytest.raises(VarianceUndefinedError):
            confidence_interval(e)

    def test_input_checks(self):
        with pytest.raises(ValueError, match="PPS_WR"):
            hh_estimate(_srs([1]))
        with pytest.raises(ValueError, match="label"):
            hh_estimate(_pps([0.5, 0.5], [1, np.nan]))


class TestExactHHVariance:
    def test_no_positives(self):
        fr = Frame(_ids("u", 4), [0.2, 0.3, 0.1, 0.4], np.zeros(4))
        assert exact_hh_design_variance(fr, 10) == 0.0

    def test_perfect_classifier_vanishes(self):
        probs = np.concatenate([np.full(3, 1.0), np.full(7, 0.0)])
        fr = Frame(_ids("u", 10), probs, (probs > 0.5).astype(float))
        # clamping nudges 1.0 and 0.0 slightly off, so near zero, not exact
        assert exact_hh_design_variance(fr, 5) < 1e-4

    def test_hand_computed(self):
        fr = Frame(_ids("u", 4), [0.4, 0.1, 0.3, 0.2], [1, 1, 0, 0])
        # sum over positives of 1/pi = 2.5 + 10, minus t^2 = 4, over n = 5
        assert exact_hh_design_variance(fr, 5) == pytest.approx(1.7, abs=1e-12)

    def test_requires_labels_and_positive_n(self):
        fr = Frame(_ids("u", 2), [0.4, 0.6])
        with pytest.raises(ValueError):
            exact_hh_design_variance(fr, 5)
        labeled = Frame(_ids("u", 2), [0.4, 0.6], [1, 0])
        with pytest.raises(ValueError):
            exact_hh_design_variance(labeled, 0)


class TestSrsEstimate:
    def test_hand_computed(self):
        s = _srs([1, 0, 0, 1, 1], parent_N=10)
        e = srs_estimate(s)
        assert e.total == pytest.approx(6.0)
        assert e.variance == pytest.approx(3.0)

    def test_all_zero_sample(self):
        e = srs_estimate(_srs([0, 0, 0, 0], parent_N=40))
        assert e.total == 0.0
        assert e.variance == 0.0

    def test_census_has_zero_variance(self):
        e = srs_estimate(_srs([1, 0, 1, 0, 0, 0], parent_N=6))
        assert e.total == pytest.approx(2.0)
        assert e.variance == 0.0

    def test_duplicate_units_rejected(self):
        s = _srs([1, 0], parent_N=10)
        with pytest.raises(ValueError, match="distinct"):
            dataclasses.replace(s, unit_ids=np.array(["a", "a"], dtype=object))

    def test_census_of_one_unit_has_zero_variance(self):
        for y in (0, 1):
            e = srs_estimate(_srs([y], parent_N=1))
            assert (e.total, e.variance) == (float(y), 0.0)
        d = difference_estimate(_srs([1], p_hat=[0.3], parent_N=1, aux_total=0.3))
        assert d.total == pytest.approx(1.0)
        assert d.variance == 0.0

    def test_more_draws_than_units_rejected(self):
        with pytest.raises(ValueError, match=r"selection probability 1\.33+ not in \(0, 1\]"):
            _srs([1, 1, 0, 0], parent_N=3)


class TestCensusEstimate:
    def test_values(self):
        e = census_estimate(7, 50)
        assert (e.total, e.variance, e.n, e.N) == (7.0, 0.0, 50, 50)

    def test_bounds(self):
        with pytest.raises(ValueError):
            census_estimate(-1, 10)
        with pytest.raises(ValueError):
            census_estimate(11, 10)


class TestDifferenceEstimate:
    def test_exact_when_scores_equal_labels(self):
        y = [1.0, 0.0, 1.0, 0.0, 0.0]
        s = _srs(y, p_hat=y, parent_N=100, aux_total=17.0)
        e = difference_estimate(s)
        assert e.total == 17.0
        assert e.variance == 0.0

    def test_all_negative_draws_shrink_the_score_total(self):
        p_hat = [0.001, 0.003, 0.006, 0.01, 0.004, 0.002, 0.005, 0.007, 0.008, 0.004]
        s = _srs([0] * 10, p_hat=p_hat, parent_N=1000, aux_total=5.0)
        e = difference_estimate(s)
        assert e.total == pytest.approx(5.0 - 1000 * np.mean(p_hat))
        assert e.variance > 0

    def test_zero_scores_reduce_to_expansion(self):
        y = [1, 0, 0, 1, 1]
        d = difference_estimate(_srs(y, p_hat=[0.0] * 5, parent_N=10, aux_total=0.0))
        plain = srs_estimate(_srs(y, parent_N=10))
        assert d.total == pytest.approx(plain.total)
        assert d.variance == pytest.approx(plain.variance)

    def test_missing_scores_rejected(self):
        s = _srs([1, 0], p_hat=[0.4, np.nan], parent_N=10)
        with pytest.raises(ValueError, match="score"):
            difference_estimate(s)


def reference_hh(x):
    """The np.mean / np.var form of the Hansen-Hurwitz kernel, which
    estimators._hh must reproduce bit for bit."""
    n = x.size
    return float(np.mean(x)), float(np.var(x, ddof=1)) / n if n >= 2 else None


def reference_expansion(v, N, base=0.0):
    """The np.mean / np.var form of the expansion kernel, which
    estimators._expansion must reproduce bit for bit."""
    n = v.size
    if n > N:
        raise ValueError(f"n={n} exceeds N={N}")
    total = base + N * float(np.mean(v))
    if n == N:
        return total, 0.0
    if n < 2:
        return total, None
    return total, N * N * (1.0 - n / N) * float(np.var(v, ddof=1)) / n


_KERNEL_VALUES = (
    # HH draws y / pi: 0, or up to aux_total / PROB_FLOOR for a positive at the score floor
    st.just(0.0) | st.floats(1.0, 1e4 / PROB_FLOOR),
    st.floats(-1.0, 1.0),  # difference residuals y - p_hat
    st.sampled_from([0.0, 1.0]),  # labels
)


@st.composite
def _kernel_inputs(draw):
    """(values, N, base): a kernel's draws, the frame size and the base total."""
    n = draw(st.integers(1, 600) | st.sampled_from([1, 2]))
    values = draw(st.sampled_from(_KERNEL_VALUES))
    form = draw(st.sampled_from(["free", "constant", "zero"]))
    if form == "free":
        x = draw(arrays(np.float64, n, elements=values))
    else:
        x = np.full(n, draw(values) if form == "constant" else 0.0)
    N = n + draw(st.sampled_from([0, 1]) | st.integers(2, 10**6))  # n = N, N - 1 or less
    base = draw(st.just(0.0) | st.floats(0.0, 1e6))
    return x, N, base


class TestKernels:
    @settings(max_examples=400, deadline=None)
    @given(_kernel_inputs())
    @example((np.array([3.0]), 1, 0.0))
    @example((np.array([3.0]), 2, 0.5))
    @example((np.array([0.0, 1e10]), 2, 0.0))
    @example((np.array([0.0, 1e10]), 3, 7.0))
    @example((np.full(500, 0.25), 190_944, 0.0))
    @example((np.zeros(500), 500, 0.0))
    def test_same_bits_as_numpy_mean_and_var(self, case):
        x, N, base = case
        assert estimators._hh(x) == reference_hh(x)
        assert estimators._expansion(x, N, base) == reference_expansion(x, N, base)


def _kernel_blocks():
    """(B, n) blocks of draws, with n = 20,000 past numpy's 8,192-element buffer."""
    rng = np.random.default_rng(77)
    for n in (1, 2, 8, 9, 500, 20_000):
        hh = np.where(rng.random((3, n)) < 0.02, 1.0 / rng.uniform(PROB_FLOOR, 1.0, (3, n)), 0.0)
        residuals = rng.uniform(-1.0, 1.0, (3, n))
        labels = (rng.random((3, n)) < 0.5).astype(np.float64)
        constant = np.array([np.zeros(n), np.full(n, 0.25), np.full(n, 1e4 / PROB_FLOOR)])
        for block in (hh, residuals, labels, constant):
            yield block


def _row(value, b):
    """Row b of a kernel's output; None, and a census's variance 0.0, hold for every row."""
    return value if value is None or np.ndim(value) == 0 else value[b]


class TestKernelBlocks:
    @pytest.mark.parametrize("block", list(_kernel_blocks()), ids=lambda b: f"{b.shape}")
    def test_every_row_has_the_reference_bits(self, block):
        n = block.shape[1]
        t, v = estimators._hh(block)
        for b, row in enumerate(block):
            assert (t[b], _row(v, b)) == reference_hh(row)
        for N, base in ((n, 0.0), (n + 1, 3.5), (190_944, 0.0)):
            t, v = estimators._expansion(block, N, base)
            for b, row in enumerate(block):
                assert (t[b], _row(v, b)) == reference_expansion(row, N, base)


class TestStratifiedEstimate:
    def test_sums_independent_strata(self):
        one = srs_estimate(_srs([1, 1, 1, 0], parent_N=8))
        zero = srs_estimate(_srs([0, 0, 1, 0, 0], parent_N=50))
        e = stratified_estimate([("one", one), ("zero", zero)])
        assert e.total == pytest.approx(one.total + zero.total)
        assert e.variance == pytest.approx(one.variance + zero.variance)
        assert e.n == 9
        assert e.N == 58
        assert dict(e.components)["one"] is one

    def test_two_empty_strata(self):
        a = srs_estimate(_srs([0, 0], parent_N=4))
        b = srs_estimate(_srs([0, 0], parent_N=4))
        e = stratified_estimate([("one", a), ("zero", b)])
        assert e.total == 0.0
        assert e.variance == 0.0

    def test_large_one_stratum(self):
        # 60 positives in 100 draws from a 7697-unit stratum
        y = [1.0] * 60 + [0.0] * 40
        e = srs_estimate(_srs(y, parent_N=7697))
        assert round(e.total) == 4618

    def test_rejects_bad_component_sets(self):
        a = srs_estimate(_srs([0, 0], parent_N=4))
        with pytest.raises(ValueError, match="no stratum"):
            stratified_estimate([])
        with pytest.raises(ValueError, match="duplicate"):
            stratified_estimate([("one", a), ("one", a)])
        single = hh_estimate(_pps([0.25], [1], aux_total=1.0))
        with pytest.raises(VarianceUndefinedError):
            stratified_estimate([("one", a), ("zero", single)])


class TestRegisterScaleReconstructions:
    """Single annotated samples sized like a national register year."""

    def test_pps_record(self):
        e = hh_estimate(register_pps_sample())
        assert e.total == pytest.approx(6051.0, abs=1e-9)
        assert abs(e.se - 548.0) <= 1.0

    def test_stratified_expansion_record(self):
        one, zero_srs, _ = register_stratified_samples()
        e = stratified_estimate(
            [("one", srs_estimate(one)), ("zero", srs_estimate(zero_srs))]
        )
        assert round(e.total) == 4618
        assert abs(e.se - 263.0) <= 1.0

    def test_stratified_difference_record(self):
        # the zero sample's score spread was solved so the pair prints
        # as (6193, 1220); closed form, so tight tolerances hold
        one, _, zero_diff = register_stratified_samples()
        e = stratified_estimate(
            [("one", srs_estimate(one)), ("zero", difference_estimate(zero_diff))]
        )
        assert e.total == pytest.approx(6193.0, abs=1e-6)
        assert e.se == pytest.approx(1220.0, abs=1e-6)


class TestIntervalsAndEffects:
    def test_degenerate_interval(self):
        e = Estimate("SRS", 100.0, 25.0, n=10, N=50)
        assert confidence_interval(e, z=0.0) == (100.0, 100.0)

    def test_proportion_interval(self):
        # disagreement-analysis scale: 4232 of 6876 at proportion SE 0.035
        se_total = 0.035 * 6876
        e = Estimate("STRAT", 4232.0, se_total**2, n=200, N=6876)
        lo, hi = confidence_interval(e, z=1.96)
        assert lo / 6876 == pytest.approx(0.55, abs=0.01)
        assert hi / 6876 == pytest.approx(0.69, abs=0.01)

    def test_z_validation(self):
        e = Estimate("SRS", 1.0, 1.0, n=2, N=4)
        with pytest.raises(ValueError):
            confidence_interval(e, z=-1.0)
        with pytest.raises(ValueError, match=r"no minus sign, got -0\.0"):
            confidence_interval(e, z=-0.0)
        assert confidence_interval(e, z=0.0) == (1.0, 1.0)

    @pytest.mark.parametrize("z", [np.nan, np.inf, 1e308])
    def test_z_without_a_finite_interval_is_refused(self, z):
        e = Estimate("SRS", 1.0, 4.0, n=2, N=4)
        with pytest.raises(ValueError, match=re.escape(f"z {z!r} and se 2.0 give no finite")):
            confidence_interval(e, z=z)
        # a zero se keeps a huge z's interval finite, but not an infinite z's
        zero_se = Estimate("SRS", 1.0, 0.0, n=4, N=4)
        if z == 1e308:
            assert confidence_interval(zero_se, z=z) == (1.0, 1.0)
        else:
            with pytest.raises(ValueError, match="no finite interval"):
                confidence_interval(zero_se, z=z)

    def test_design_effect_values(self):
        assert design_effect(Estimate("HH", 0.0, 102.0**2, n=5, N=10), 600.0) == pytest.approx(
            0.0289
        )
        assert design_effect(116.0, 600.0) == pytest.approx(0.0374, abs=5e-5)
        assert design_effect(600.0, 600.0) == 1.0

    def test_design_effect_overflows_to_inf(self):
        # the ratio is finite, but its square is past the largest double
        assert design_effect(11.5, 1e-160) == math.inf
        assert design_effect(11.5, 1e-300) == math.inf
        assert design_effect(11.5, 1e-320) == math.inf
        assert design_effect(3.0, 7.0) == (3.0 / 7.0) ** 2

    def test_design_effect_errors(self):
        for baseline in (0.0, -1.0, math.nan, math.inf):  # all outside (0, inf)
            with pytest.raises(ValueError, match="baseline SE must be positive and finite"):
                design_effect(100.0, baseline)
        undef = Estimate("HH", 4.0, None, n=1, N=10)
        with pytest.raises(VarianceUndefinedError):
            design_effect(undef, 600.0)


class TestSrsPlanning:
    def test_census_se_is_zero(self):
        assert srs_se_for_total(500, 0.3, 500) == 0.0

    def test_hand_computed_se(self):
        assert srs_se_for_total(400, 0.5, 100) == pytest.approx(17.3422, abs=1e-4)

    def test_half_prevalence_scaling(self):
        # for large N and p = 0.5, SE ~ N * 0.5 / sqrt(n) = N/20 at n = 100
        N = 2_000_000
        assert srs_se_for_total(N, 0.5, 100) == pytest.approx(N / 20, rel=1e-3)

    def test_se_decreases_with_n(self):
        ses = [srs_se_for_total(10_000, 0.01, n) for n in (50, 200, 1000, 5000)]
        assert ses == sorted(ses, reverse=True)
        assert len(set(ses)) == len(ses)

    def test_equivalent_n_inverts_the_se(self):
        rng = np.random.default_rng(8)
        for _ in range(60):
            N = int(rng.integers(50, 100_000))
            p = float(rng.uniform(0.001, 0.6))
            target = float(rng.uniform(0.2, 2.0) * srs_se_for_total(N, p, max(2, N // 10)))
            n = equivalent_srs_n(N, p, target)
            assert srs_se_for_total(N, p, n) <= target + 1e-9
            if n > 1:
                assert srs_se_for_total(N, p, n - 1) > target

    @pytest.mark.parametrize("p", [0.0, 1.0])
    def test_a_frame_of_one_class_needs_one_draw(self, p):
        # every unit alike: one draw gives the total with SE 0
        assert equivalent_srs_n(1000, p, 1e-12) == 1

    def test_tiny_target_needs_census(self):
        assert equivalent_srs_n(1000, 0.25, 1e-12) == 1000

    def test_rare_frame_planning_scale(self):
        N = 944 + 190_000
        n = equivalent_srs_n(N, 944 / N, 102.0)
        assert 15_000 <= n <= 16_500

    def test_validation(self):
        with pytest.raises(ValueError, match="unachievable"):
            equivalent_srs_n(1000, 0.25, 0.0)
        with pytest.raises(ValueError):
            srs_se_for_total(1, 0.5, 1)
        with pytest.raises(ValueError):
            srs_se_for_total(100, 1.5, 10)


class TestUnderReporting:
    def test_shifted_interval(self):
        e = Estimate("HH", 6051.0, 548.0**2, n=200, N=1_463_762)
        u = under_reporting(e, 2695.0, z=2.0)
        assert (u.point, u.lo, u.hi) == (3356.0, 2260.0, 4452.0)
        assert not u.truncated

    def test_fully_confirmed(self):
        e = Estimate("SRS", 40.0, 0.0, n=10, N=10)
        u = under_reporting(e, 40.0, z=2.0)
        assert (u.point, u.lo, u.hi) == (0.0, 0.0, 0.0)
        assert not u.truncated

    def test_confirmed_above_interval_truncates(self):
        e = Estimate("SRS", 100.0, 4.0, n=10, N=50)
        u = under_reporting(e, 200.0, z=1.96)
        assert (u.point, u.lo, u.hi) == (0.0, 0.0, 0.0)
        assert u.truncated

    def test_negative_confirmed_rejected(self):
        e = Estimate("SRS", 100.0, 4.0, n=10, N=50)
        with pytest.raises(ValueError):
            under_reporting(e, -1.0)


class TestEstimateRecord:
    def test_layout(self):
        e = Estimate("HH", 100.0, 25.0, n=10, N=1000)
        rec = estimate_record(e, z=2.0, baseline_se=10.0)
        assert tuple(rec) == RECORD_FIELDS
        assert rec["ci_lo"] == 90.0
        assert rec["ci_hi"] == 110.0
        assert rec["deff"] == pytest.approx(0.25)

    def test_deff_optional(self):
        e = Estimate("SRS", 10.0, 4.0, n=5, N=20)
        assert estimate_record(e)["deff"] is None

    def test_refuses_undefined_variance(self):
        e = Estimate("HH", 4.0, None, n=1, N=10)
        with pytest.raises(VarianceUndefinedError):
            estimate_record(e)
