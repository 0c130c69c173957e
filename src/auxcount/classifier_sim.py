"""Synthetic classifier scores and population-level quality metrics.

Scores are drawn from a pair of Beta distributions, one per true class.
Sampling goes through the inverse CDF of a single per-unit uniform, so
for a fixed seed the realized scores move smoothly as the shapes move;
the calibration search below relies on that.  Uniforms are drawn whole,
then scored range by range on every usable CPU by ``_run_ranges``, the
one thread pool of the package, which runs replicate ranges too.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .errors import CalibrationError, UndefinedMetricError
from .population import PROB_FLOOR, Frame, _check_tau, _require_labels, clamp_probs

DEFAULT_THRESHOLD = 0.5

# Bisection defaults: stop once the realized metric is within 2% of the
# target, give up after 60 halvings.
CALIBRATION_REL_TOL = 0.02
CALIBRATION_MAX_STEPS = 60
_MAX_SHARPNESS = 2.0**20
# F1 steps score a unit whose score lies within this relative distance
# of tau, or whose uniform lies within this absolute one of the CDF at tau
_GUARD_REL, _GUARD_ABS = 1e-9, 1e-12


@dataclass(frozen=True)
class QualityProfile:
    """Beta shape pairs for scores given the true class.

    ``shape_pos`` parameterizes p_hat | y=1, ``shape_neg`` p_hat | y=0.
    """

    shape_pos: tuple[float, float]
    shape_neg: tuple[float, float]

    def __post_init__(self):
        for a, b in (self.shape_pos, self.shape_neg):
            if not (a > 0 and b > 0):
                raise ValueError("Beta shapes must be positive")

    @classmethod
    def symmetric(cls, sharpness: float) -> "QualityProfile":
        """One-parameter family Beta(s, 1/s) vs Beta(1/s, s), s >= 1.

        s = 1 gives identical uniform score distributions for both
        classes; larger s pushes positives toward 1 and negatives
        toward 0.
        """
        if sharpness < 1.0:
            raise ValueError("sharpness must be >= 1")
        s = float(sharpness)
        return cls(shape_pos=(s, 1.0 / s), shape_neg=(1.0 / s, s))


@dataclass(frozen=True)
class ConfusionCounts:
    tp: int
    fp: int
    fn: int
    tn: int

    def __post_init__(self):
        if min(self.tp, self.fp, self.fn, self.tn) < 0:
            raise ValueError("confusion counts must be nonnegative")

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.fn + self.tn


def simulate_predictions(frame: Frame, profile: QualityProfile, seed) -> Frame:
    """Replace a frame's scores with draws from the profile.

    Each unit gets an independent uniform from ``default_rng(seed)`` and
    is pushed through the inverse Beta CDF of its class.  The input frame
    is untouched; the result is clamped like any ingested frame.
    """
    _require_labels(frame, "simulate_predictions")
    scores, ranges = _scoring(frame.labels, profile, seed)
    for _ in ranges:
        pass  # each range of units is scored in place
    return frame.replace_probs(scores)


def _scoring(labels, profile: QualityProfile, seed, rows: int | None = None):
    """(scores, ranges): every unit's uniform, drawn whole from
    ``default_rng(seed)``, and a :func:`_run_ranges` generator that turns
    them into :func:`simulate_predictions`' clamped scores in place,
    yielding each range (lo, hi) once ``scores[lo:hi]`` is done, in order.
    The ranges are one per usable CPU, or of at most ``rows`` units where
    that makes more.  A unit's score depends on its own uniform alone, so
    the bytes do not depend on the CPU count or range size.
    """
    from scipy.special import betaincinv

    u = np.random.default_rng(seed).random(labels.size)
    pos = labels == 1.0
    (a1, b1), (a0, b0) = profile.shape_pos, profile.shape_neg

    def fill(lo: int, hi: int):  # the ufunc loops write a view of u and release the GIL
        part = u[lo:hi]
        betaincinv(a1, b1, part, out=part, where=pos[lo:hi])
        betaincinv(a0, b0, part, out=part, where=~pos[lo:hi])
        np.clip(part, PROB_FLOOR, 1.0 - PROB_FLOOR, out=part)
        if np.isnan(np.sum(part)):  # what no frame holds: shapes too large to invert
            raise ValueError("aux_prob values must lie in [0, 1]")

    return u, _run_ranges(fill, labels.size, _usable_cpus(), rows)


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):  # not on every platform
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _run_ranges(run, stop: int, k: int, rows: int | None = None):
    """Yield each (lo, hi) of near-equal ranges that tile [0, stop), in
    order, once ``run(lo, hi)`` has returned.  There are k ranges, or ranges
    of at most ``rows`` where that makes more.

    The calling thread runs the first range; a pool of max(k - 1, 1)
    threads runs the rest in order, ahead of the caller, which takes each
    in turn, so one range starts no thread.  A range's error is raised at
    its turn.  The generator returns, raises or is closed only once every
    range begun has ended, the rest cancelled, so no thread outlives it.
    """
    from concurrent.futures import ThreadPoolExecutor

    m = max(k, -(-stop // rows)) if rows else k
    bounds = [stop * i // m for i in range(m + 1)]
    pairs = list(zip(bounds, bounds[1:]))
    pool = ThreadPoolExecutor(max(k - 1, 1))
    try:
        futures = [pool.submit(run, lo, hi) for lo, hi in pairs[1:]]
        run(*pairs[0])
        yield pairs[0]
        for future, pair in zip(futures, pairs[1:]):
            future.result()
            yield pair
    finally:
        pool.shutdown(cancel_futures=True)  # and waits for the ranges begun


def population_loss(frame: Frame) -> float:
    """Total cross-entropy of the scores against the labels.

    Returns sum_i [-y_i log p_i - (1 - y_i) log(1 - p_i)], which is
    finite and positive thanks to the ingestion clamp.
    """
    _require_labels(frame, "population_loss")
    p = frame.aux_probs
    terms = np.negative(p)  # log(1 - p), or log p where y = 1, made in place
    np.log1p(terms, out=terms)
    return float(-np.sum(np.log(p, out=terms, where=frame.labels == 1.0)))


def confusion_counts(frame: Frame, tau: float = DEFAULT_THRESHOLD) -> ConfusionCounts:
    """Confusion table of thresholded scores against the labels."""
    _require_labels(frame, "confusion_counts")
    pred = frame.predicted_classes(tau)
    pos = frame.labels == 1.0
    tp, ones, positives = (int(np.count_nonzero(m)) for m in (pred & pos, pred, pos))
    return ConfusionCounts(tp, ones - tp, positives - tp, frame.N - ones - positives + tp)


def f1_from_counts(counts: ConfusionCounts) -> float:
    """F1 = 2 tp / (2 tp + fp + fn); raises if the denominator is zero."""
    denom = 2 * counts.tp + counts.fp + counts.fn
    if denom == 0:
        raise UndefinedMetricError("F1 undefined: no positives predicted or present")
    return 2.0 * counts.tp / denom


def _counts_by_sharpness(frame: Frame, seed, tau: float):
    """``s -> confusion_counts(simulate_predictions(frame, symmetric(s), seed), tau)``.

    A score is the inverse Beta CDF of its unit's uniform, so it reaches
    tau when the uniform reaches its class's CDF at tau.  Only units whose
    uniform lies in a guard band around that CDF value are scored.
    """
    from scipy.special import betainc, betaincinv

    _check_tau(tau)
    u = np.random.default_rng(seed).random(frame.N)
    u_pos, u_neg = u[frame.labels == 1.0], u[frame.labels == 0.0]
    near = np.minimum(1.0, tau * np.array([1.0 - _GUARD_REL, 1.0, 1.0 + _GUARD_REL]))

    def ones(a: float, b: float, v) -> int:  # units of v whose clamped score is >= tau
        if not PROB_FLOOR < tau <= 1.0 - PROB_FLOOR:  # the clamp decides alone
            return v.size if tau <= PROB_FLOOR else 0
        cdf = betainc(a, b, near)
        lo, hi = min(cdf[:2]) - _GUARD_ABS, max(cdf[1:]) + _GUARD_ABS
        band = clamp_probs(betaincinv(a, b, v[(v >= lo) & (v <= hi)]))
        return int(np.count_nonzero(v > hi) + np.count_nonzero(band >= tau))

    def counts(s: float) -> ConfusionCounts:
        profile = QualityProfile.symmetric(s)
        tp, fp = ones(*profile.shape_pos, u_pos), ones(*profile.shape_neg, u_neg)
        return ConfusionCounts(tp=tp, fp=fp, fn=u_pos.size - tp, tn=u_neg.size - fp)

    return counts


@dataclass(frozen=True)
class CalibrationResult:
    profile: QualityProfile
    sharpness: float
    realized: float


def calibrate_profile(
    frame: Frame,
    *,
    target_loss: float | None = None,
    target_f1: float | None = None,
    tau: float = DEFAULT_THRESHOLD,
    seed,
) -> CalibrationResult:
    """Find a symmetric-family sharpness matching a quality target.

    Exactly one of ``target_loss`` (mean cross-entropy per unit) or
    ``target_f1`` (F1 at threshold ``tau``) must be given.  The search
    brackets then bisects over sharpness, with the same seed at every
    step, and stops when the realized metric is within
    ``CALIBRATION_REL_TOL`` (relative) of the target.  A loss step scores
    every unit.  An F1 step counts each class against its Beta CDF at
    tau, scoring only the units in a guard band around that CDF value.
    The frame the result describes is ``simulate_predictions(frame,
    result.profile, seed)``.

    Raises
    ------
    CalibrationError
        If the target is outside what the family can reach on this
        frame, or the tolerance is not met within ``CALIBRATION_MAX_STEPS``.
    """
    if (target_loss is None) == (target_f1 is None):
        raise ValueError("give exactly one of target_loss or target_f1")
    _require_labels(frame, "calibrate_profile")
    if target_loss is not None:
        if not 0 < target_loss < np.inf:
            raise ValueError("target_loss must be positive and finite")
        target, metric = float(target_loss), "loss"
    else:
        if not 0.0 < target_f1 < 1.0:
            raise ValueError("target_f1 must lie in (0, 1)")
        target, metric = float(target_f1), "f1"

    # Loss falls and F1 rises with sharpness; fold both into a value
    # that falls, sign times the metric, so one bracketing loop serves.
    sign = 1.0 if metric == "loss" else -1.0
    goal = sign * target
    counts = _counts_by_sharpness(frame, seed, tau) if metric == "f1" else None

    def value(s: float) -> float:
        if metric == "f1":
            return -f1_from_counts(counts(s))
        sim = simulate_predictions(frame, QualityProfile.symmetric(s), seed)
        return population_loss(sim) / sim.N

    def close(v: float) -> bool:
        return abs(v - goal) <= CALIBRATION_REL_TOL * abs(goal)

    def result(s: float, v: float) -> CalibrationResult:
        return CalibrationResult(QualityProfile.symmetric(s), float(s), sign * v)

    def failure(message: str) -> CalibrationError:
        return CalibrationError(message, best_sharpness=best_s, best_metric=sign * best_v)

    best_s, best_v = 1.0, value(1.0)
    if close(best_v):
        return result(best_s, best_v)
    if best_v < goal:
        raise failure(
            f"target {metric} {target:g} is outside the family's range on this "
            f"frame (best at sharpness 1: {sign * best_v:g})"
        )

    lo, hi = 1.0, 2.0
    v_hi = value(hi)
    while v_hi > goal and hi < _MAX_SHARPNESS:
        if close(v_hi):
            return result(hi, v_hi)
        lo, hi = hi, hi * 2.0
        v_hi = value(hi)
    if abs(v_hi - goal) < abs(best_v - goal):
        best_s, best_v = hi, v_hi
    if v_hi > goal:  # never crossed, even at the sharpness cap
        raise failure(
            f"target {metric} {target:g} not reachable: best realized "
            f"{sign * best_v:g} at sharpness {best_s:g}"
        )

    for _ in range(CALIBRATION_MAX_STEPS):
        mid = 0.5 * (lo + hi)
        v = value(mid)
        if abs(v - goal) < abs(best_v - goal):
            best_s, best_v = mid, v
        if close(v):
            return result(mid, v)
        if v > goal:
            lo = mid
        else:
            hi = mid
    raise failure(
        f"calibration to {metric} {target:g} did not converge in {CALIBRATION_MAX_STEPS} "
        f"steps; best realized {sign * best_v:g} at sharpness {best_s:g}"
    )
