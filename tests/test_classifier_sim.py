import hashlib
import math
import sys

import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings, strategies as st
from scipy.stats import ks_2samp

from auxcount import (
    CalibrationError,
    ConfusionCounts,
    Frame,
    QualityProfile,
    UndefinedMetricError,
    calibrate_profile,
    confusion_counts,
    f1_from_counts,
    population_loss,
    simulate_predictions,
)
from auxcount import classifier_sim
from auxcount.population import PROB_FLOOR

from conftest import _ids


def _label_frame(N, t, fill=0.5):
    labels = np.zeros(N)
    labels[:t] = 1.0
    return Frame(_ids("c", N), np.full(N, fill), labels)


class TestQualityProfile:
    def test_validation(self):
        with pytest.raises(ValueError):
            QualityProfile(shape_pos=(0.0, 1.0), shape_neg=(1.0, 1.0))
        with pytest.raises(ValueError):
            QualityProfile(shape_pos=(1.0, 1.0), shape_neg=(1.0, -2.0))

    def test_symmetric(self):
        p = QualityProfile.symmetric(4.0)
        assert p.shape_pos == (4.0, 0.25)
        assert p.shape_neg == (0.25, 4.0)


class TestSimulatePredictions:
    def test_sharp_profile_separates_classes(self):
        fr = _label_frame(4000, 2000)
        prof = QualityProfile(shape_pos=(50.0, 1.0), shape_neg=(1.0, 50.0))
        sim = simulate_predictions(fr, prof, seed=3)
        pos = sim.aux_probs[sim.labels == 1.0]
        neg = sim.aux_probs[sim.labels == 0.0]
        assert np.median(pos) > 0.9
        assert np.median(neg) < 0.1

    def test_uninformative_profile_classes_indistinguishable(self):
        fr = _label_frame(6000, 3000)
        prof = QualityProfile(shape_pos=(1.0, 1.0), shape_neg=(1.0, 1.0))
        sim = simulate_predictions(fr, prof, seed=4)
        pos = sim.aux_probs[sim.labels == 1.0]
        neg = sim.aux_probs[sim.labels == 0.0]
        assert ks_2samp(pos, neg).pvalue > 0.01

    def test_same_seed_bitwise_identical(self):
        fr = _label_frame(500, 100)
        prof = QualityProfile.symmetric(3.0)
        a = simulate_predictions(fr, prof, seed=11)
        b = simulate_predictions(fr, prof, seed=11)
        assert np.array_equal(a.aux_probs, b.aux_probs)

    def test_needs_labels(self):
        fr = Frame(["a", "b"], [0.5, 0.5])
        with pytest.raises(ValueError):
            simulate_predictions(fr, QualityProfile.symmetric(2.0), seed=1)

    def test_scores_do_not_depend_on_the_slice_count(self, monkeypatch):
        # one positive in 50, so that every slice scores both classes
        N = 20_000
        labels = (np.arange(N) % 50 == 7).astype(float)
        fr = Frame(_ids("c", N), np.full(N, 0.5), labels)
        prof = QualityProfile(shape_pos=(4.0, 1.5), shape_neg=(0.2, 8.0))
        scores = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # threads trade the interpreter often
        try:
            for parts in (1, 2, 3, 7):
                monkeypatch.setattr(classifier_sim, "_usable_cpus", lambda: parts)
                scores.append(simulate_predictions(fr, prof, seed=2022).aux_probs)
        finally:
            sys.setswitchinterval(interval)
        for other in scores[1:]:
            assert np.array_equal(other, scores[0])
        # digest of the scores drawn before the work was sliced
        assert hashlib.sha256(scores[0].tobytes()).hexdigest() == (
            "80eeee6b967e528e41240b55cecd275a81cec1c324d1015fae8665eaece321ae"
        )


class TestPopulationLoss:
    def test_near_perfect_unit(self):
        fr = Frame(["a"], [1.0], [1])  # clamps to 1 - 1e-6
        assert population_loss(fr) == pytest.approx(1e-6, rel=1e-3)

    def test_uninformative_unit(self):
        fr = Frame(["a"], [0.5], [1])
        assert population_loss(fr) == pytest.approx(math.log(2))

    def test_hand_value(self):
        fr = Frame(["a", "b"], [0.8, 0.1], [1, 0])
        expected = -math.log(0.8) - math.log(0.9)
        assert population_loss(fr) == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(0.3285, abs=5e-5)

    def test_always_positive(self):
        fr = Frame(["a", "b"], [1.0, 0.0], [1, 0])
        assert population_loss(fr) > 0.0


class TestConfusionCounts:
    def test_perfect_classifier(self):
        fr = Frame(["a", "b", "c"], [1.0, 0.0, 0.0], [1, 0, 0])
        c = confusion_counts(fr, 0.5)
        assert (c.tp, c.fp, c.fn, c.tn) == (1, 0, 0, 2)

    def test_all_below_threshold(self):
        fr = Frame(["a", "b", "c"], [0.4, 0.3, 0.2], [1, 1, 0])
        c = confusion_counts(fr, 0.5)
        assert (c.tp, c.fp, c.fn) == (0, 0, 2)

    def test_mixed(self):
        fr = Frame(["a", "b", "c", "d"], [0.9, 0.4, 0.6, 0.1], [1, 1, 0, 0])
        c = confusion_counts(fr, 0.5)
        assert (c.tp, c.fn, c.fp, c.tn) == (1, 1, 1, 1)
        assert c.total == 4

    def test_validation(self):
        with pytest.raises(ValueError):
            ConfusionCounts(tp=-1, fp=0, fn=0, tn=0)


def test_loss_and_counts_match_their_product_forms():
    # the sum of y log p + (1 - y) log(1 - p) and the four two-mask counts,
    # bit for bit, with scores at the clamp and labels of -0.0
    rng = np.random.default_rng(5)
    for _ in range(100):
        n = int(rng.integers(1, 500))
        fr = Frame(_ids("r", n), rng.choice([0.0, 1.0, 0.5, *rng.random(8)], n),
                   rng.choice([0.0, -0.0, 1.0], n))
        tau = float(rng.choice([0.5, rng.uniform(0.01, 0.99)]))
        y, p = fr.labels, fr.aux_probs
        loss = float(-np.sum(y * np.log(p) + (1.0 - y) * np.log1p(-p)))
        assert population_loss(fr).hex() == loss.hex()
        pred, pos = p >= tau, y == 1.0
        assert confusion_counts(fr, tau) == ConfusionCounts(
            np.sum(pred & pos), np.sum(pred & ~pos), np.sum(~pred & pos), np.sum(~pred & ~pos)
        )


class TestF1FromCounts:
    def test_perfect(self):
        assert f1_from_counts(ConfusionCounts(10, 0, 0, 0)) == 1.0

    def test_zero(self):
        assert f1_from_counts(ConfusionCounts(0, 5, 5, 0)) == 0.0

    def test_rare_prevalence_counts(self):
        # 0.5% prevalence, 99.6% accuracy, F1 exactly 0.68 at N=200,000:
        # tp+fn=1000, fp+fn=800 and 2tp/(2tp+fp+fn)=0.68 force these counts
        c = ConfusionCounts(tp=850, fp=650, fn=150, tn=198_350)
        assert c.total == 200_000
        assert (c.tp + c.fn) / c.total == 0.005
        assert (c.tp + c.tn) / c.total == 0.996
        assert f1_from_counts(c) == 0.68

    def test_undefined(self):
        with pytest.raises(UndefinedMetricError):
            f1_from_counts(ConfusionCounts(0, 0, 0, 7))

    def test_matches_precision_recall_form(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            tp, fp, fn = (int(v) for v in rng.integers(1, 400, 3))
            c = ConfusionCounts(tp, fp, fn, 10)
            p = tp / (tp + fp)
            r = tp / (tp + fn)
            assert f1_from_counts(c) == pytest.approx(2 * p * r / (p + r), abs=1e-12)


class TestCalibrateProfile:
    def test_loss_target_uninformative(self):
        fr = _label_frame(8000, 4000)
        res = calibrate_profile(fr, target_loss=math.log(2), seed=21)
        assert res.sharpness < 2.5  # log 2 is the uninformative loss
        assert abs(res.realized - math.log(2)) / math.log(2) <= 0.02

    def test_f1_target_rare_prevalence(self):
        fr = _label_frame(20_000, 100)
        res = calibrate_profile(fr, target_f1=0.68, tau=0.5, seed=21)
        assert res.sharpness > 1.0
        assert 0.666 <= res.realized <= 0.694

    def test_sharpness_increases_as_loss_target_drops(self):
        fr = _label_frame(8000, 400)
        sharps = [
            calibrate_profile(fr, target_loss=t, seed=9).sharpness
            for t in (0.5, 0.1, 0.01)
        ]
        assert sharps[0] < sharps[1] < sharps[2]

    def test_result_reproduces_measured_frame(self):
        fr = _label_frame(5000, 250)
        res = calibrate_profile(fr, target_loss=0.1, seed=33)
        sim = simulate_predictions(fr, res.profile, seed=33)
        assert population_loss(sim) / sim.N == pytest.approx(res.realized, abs=1e-12)

    @pytest.mark.parametrize(
        "N, t, target, sharpness",
        [
            (5000, 25, {"target_loss": 1.0}, 1.0),  # returns at sharpness 1
            (8000, 4000, {"target_f1": 0.5}, 1.0),
            (5000, 250, {"target_loss": 0.1}, 3.3125),  # returns while bisecting
            (20_000, 100, {"target_f1": 0.68}, 4.375),
        ],
    )
    def test_result_reproduces_its_realized_metric(self, N, t, target, sharpness):
        fr = _label_frame(N, t)
        res = calibrate_profile(fr, seed=3, **target)
        assert res.sharpness == sharpness
        scored = simulate_predictions(fr, res.profile, seed=3)
        if "target_loss" in target:
            assert population_loss(scored) / scored.N == res.realized
        else:
            assert f1_from_counts(confusion_counts(scored)) == res.realized

    def test_result_found_while_bracketing(self):
        fr = _label_frame(5000, 250)
        # a target just below the loss at sharpness 2, the bracket's first step
        at_two = simulate_predictions(fr, QualityProfile.symmetric(2.0), seed=7)
        target = 0.99 * population_loss(at_two) / fr.N
        res = calibrate_profile(fr, target_loss=target, seed=7)
        assert res.sharpness == 2.0
        assert res.realized == population_loss(at_two) / fr.N

    def test_unreachable_target_raises_with_best_point(self):
        fr = _label_frame(2000, 100)
        with pytest.raises(CalibrationError) as exc:
            calibrate_profile(fr, target_loss=2.0, seed=3)
        assert exc.value.best_sharpness is not None

    def test_a_search_out_of_steps_raises_with_best_point(self, monkeypatch):
        # this target is met at the bisection's fifth step (sharpness 3.3125)
        monkeypatch.setattr(classifier_sim, "CALIBRATION_MAX_STEPS", 1)
        with pytest.raises(CalibrationError, match="^calibration to loss 0.1 did not converge "
                           "in 1 steps; best realized ") as exc:
            calibrate_profile(_label_frame(5000, 250), target_loss=0.1, seed=3)
        assert exc.value.best_sharpness in (2.0, 3.0, 4.0)

    def test_an_infinite_loss_target_is_refused(self, monkeypatch):
        # every sharpness meets inf <= inf, so it would accept sharpness 1
        calls = _count_simulations(monkeypatch)
        with pytest.raises(ValueError, match="target_loss must be positive and finite"):
            calibrate_profile(_label_frame(100, 10), target_loss=math.inf, seed=1)
        assert calls == []

    def test_exactly_one_target_required(self):
        fr = _label_frame(100, 10)
        with pytest.raises(ValueError):
            calibrate_profile(fr, seed=1)
        with pytest.raises(ValueError):
            calibrate_profile(fr, target_loss=0.1, target_f1=0.5, seed=1)


def _count_simulations(monkeypatch) -> list:
    """Record the sharpness of every simulate_predictions call from here on."""
    calls, real = [], classifier_sim.simulate_predictions

    def counted(frame, profile, seed):
        calls.append(profile.shape_pos[0])
        return real(frame, profile, seed)

    monkeypatch.setattr(classifier_sim, "simulate_predictions", counted)
    return calls


class TestCalibrationWork:
    def test_f1_calibration_scores_no_frame(self, monkeypatch):
        calls = _count_simulations(monkeypatch)
        res = calibrate_profile(_label_frame(20_000, 100), target_f1=0.68, seed=3)
        assert res.sharpness == 4.375
        assert calls == []

    def test_loss_calibration_scores_every_step(self, monkeypatch):
        calls = _count_simulations(monkeypatch)
        res = calibrate_profile(_label_frame(5000, 250), target_loss=0.1, seed=3)
        assert res.sharpness == 3.3125
        assert calls == [1.0, 2.0, 4.0, 3.0, 3.5, 3.25, 3.375, 3.3125]

    # messages and best points as they were when every F1 step scored the frame
    @pytest.mark.parametrize(
        "N, t, target, tau, seed, message, best_metric",
        [
            (8000, 4000, 0.3, 0.5, 3, "target f1 0.3 is outside the family's range on "
             "this frame (best at sharpness 1: 0.50163)", 0.5016302984700276),
            (300, 12, 0.05, 0.5, 4, "target f1 0.05 is outside the family's range on "
             "this frame (best at sharpness 1: 0.0874317)", 0.08743169398907104),
            # at tau <= PROB_FLOOR every unit reads as 1, above 1 - PROB_FLOOR none
            (2000, 100, 0.5, 1e-7, 3, "target f1 0.5 not reachable: best realized "
             "0.0952381 at sharpness 1", 0.09523809523809523),
            (2000, 100, 0.5, 1 - 5e-7, 3, "target f1 0.5 not reachable: best realized "
             "0 at sharpness 1", 0.0),
        ],
    )
    def test_f1_errors_keep_message_and_best_point(
        self, monkeypatch, N, t, target, tau, seed, message, best_metric
    ):
        calls = _count_simulations(monkeypatch)
        with pytest.raises(CalibrationError) as exc:
            calibrate_profile(_label_frame(N, t), target_f1=target, tau=tau, seed=seed)
        assert str(exc.value) == message
        assert exc.value.best_sharpness == 1.0
        assert exc.value.best_metric == best_metric
        assert calls == []

    def test_f1_calibration_refuses_bad_tau(self):
        with pytest.raises(ValueError, match="threshold"):
            calibrate_profile(_label_frame(100, 10), target_f1=0.5, tau=1.0, seed=1)


_TAUS = (
    st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
    | st.just(0.5)
    | st.floats(0.0, PROB_FLOOR, exclude_min=True)
    | st.floats(1.0 - PROB_FLOOR, 1.0, exclude_min=True, exclude_max=True)
)


class TestCountsBySharpness:
    """The F1 steps' class counts equal the counts of the scored frame."""

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_counts_equal_scored_counts(self, data):
        N = data.draw(st.integers(1, 20_000) | st.integers(1, 40), label="N")
        t = data.draw(st.integers(0, N), label="positives")
        s = data.draw(
            st.sampled_from([1.0, 2.0**20]) | st.floats(1.0, 8.0) | st.floats(1.0, 2.0**20),
            label="sharpness",
        )
        seed = data.draw(st.integers(0, 2**63), label="seed")
        fr = _label_frame(N, t)
        sim = simulate_predictions(fr, QualityProfile.symmetric(s), seed)
        # a unit's own score as tau puts its uniform on its class's CDF at tau,
        # inside the guard band; half the cases are built that way
        at_unit = st.integers(0, N - 1).map(lambda i: float(sim.aux_probs[i]))
        tau = data.draw(at_unit if data.draw(st.booleans()) else _TAUS, label="tau")
        counts = classifier_sim._counts_by_sharpness(fr, seed, tau)(s)
        assert counts == confusion_counts(sim, tau)

    def test_only_the_guard_band_is_scored(self, monkeypatch):
        fr, s, seed = _label_frame(5000, 250), 3.0, 5
        sim = simulate_predictions(fr, QualityProfile.symmetric(s), seed)
        tau = float(sim.aux_probs[7])  # a positive's score: its uniform is in the band
        assert PROB_FLOOR < tau < 1.0 - PROB_FLOOR
        scored, real = [], scipy.special.betaincinv

        def counted(a, b, x, **kwargs):
            scored.append(np.size(x))
            return real(a, b, x, **kwargs)

        monkeypatch.setattr(scipy.special, "betaincinv", counted)
        counts = classifier_sim._counts_by_sharpness(fr, seed, tau)(s)
        assert counts == confusion_counts(sim, tau)
        assert 1 <= sum(scored) <= 10


def test_loss_and_errors_fall_together_over_sharpness_grid():
    fr = _label_frame(10_000, 500)
    losses, errors = [], []
    for s in (1.5, 2.0, 3.0, 5.0, 8.0):
        sim = simulate_predictions(fr, QualityProfile.symmetric(s), seed=17)
        losses.append(population_loss(sim) / sim.N)
        c = confusion_counts(sim, 0.5)
        errors.append(c.fp + c.fn)
    assert losses == sorted(losses, reverse=True)
    assert errors == sorted(errors, reverse=True)
