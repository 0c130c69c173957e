"""Synthetic classifier scores and population-level quality metrics.

Scores are drawn from a pair of Beta distributions, one per true class.
Sampling goes through the inverse CDF of a single per-unit uniform, so
for a fixed seed the realized scores move smoothly as the shapes move;
the calibration search below relies on that.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import betaincinv

from .errors import CalibrationError, UndefinedMetricError
from .population import Frame, clamp_probs

DEFAULT_THRESHOLD = 0.5

# Bisection defaults: stop once the realized metric is within 2% of the
# target, give up after 60 halvings.
CALIBRATION_REL_TOL = 0.02
CALIBRATION_MAX_STEPS = 60
_MAX_SHARPNESS = 2.0**20


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


def _require_labels(frame: Frame, what: str):
    if not frame.fully_labeled:
        raise ValueError(f"{what} needs a fully labeled frame")


def simulate_predictions(frame: Frame, profile: QualityProfile, seed) -> Frame:
    """Replace a frame's scores with draws from the profile.

    Each unit gets an independent uniform from ``default_rng(seed)`` and
    is pushed through the inverse Beta CDF of its class.  The input frame
    is untouched; the result is clamped like any ingested frame.  Same
    frame, profile and seed give bitwise-identical output.
    """
    _require_labels(frame, "simulate_predictions")
    rng = np.random.default_rng(seed)
    u = rng.random(frame.N)
    pos = frame.labels == 1.0
    probs = np.empty(frame.N)
    a1, b1 = profile.shape_pos
    a0, b0 = profile.shape_neg
    probs[pos] = betaincinv(a1, b1, u[pos])
    probs[~pos] = betaincinv(a0, b0, u[~pos])
    return frame.replace_probs(clamp_probs(probs))


def population_loss(frame: Frame) -> float:
    """Total cross-entropy of the scores against the labels.

    Returns sum_i [-y_i log p_i - (1 - y_i) log(1 - p_i)], which is
    finite and positive thanks to the ingestion clamp.
    """
    _require_labels(frame, "population_loss")
    y = frame.labels
    p = frame.aux_probs
    return float(-np.sum(y * np.log(p) + (1.0 - y) * np.log1p(-p)))


def confusion_counts(frame: Frame, tau: float = DEFAULT_THRESHOLD) -> ConfusionCounts:
    """Confusion table of thresholded scores against the labels."""
    _require_labels(frame, "confusion_counts")
    pred = frame.predicted_classes(tau)
    y = frame.labels.astype(np.int64)
    tp = int(np.sum((y == 1) & (pred == 1)))
    fp = int(np.sum((y == 0) & (pred == 1)))
    fn = int(np.sum((y == 1) & (pred == 0)))
    tn = int(np.sum((y == 0) & (pred == 0)))
    return ConfusionCounts(tp=tp, fp=fp, fn=fn, tn=tn)


def f1_from_counts(counts: ConfusionCounts) -> float:
    """F1 = 2 tp / (2 tp + fp + fn); raises if the denominator is zero."""
    denom = 2 * counts.tp + counts.fp + counts.fn
    if denom == 0:
        raise UndefinedMetricError("F1 undefined: no positives predicted or present")
    return 2.0 * counts.tp / denom


@dataclass(frozen=True)
class CalibrationResult:
    profile: QualityProfile
    sharpness: float
    realized: float
    target: float
    metric: str  # "loss" (per-unit) or "f1"


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
    brackets then bisects over sharpness, re-simulating scores with the
    same seed at every step, and stops when the realized metric is
    within ``CALIBRATION_REL_TOL`` (relative) of the target.

    The returned profile together with ``seed`` reproduces, through
    :func:`simulate_predictions`, exactly the frame the realized metric
    was measured on.

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
        if not target_loss > 0:
            raise ValueError("target_loss must be positive")
        target, metric = float(target_loss), "loss"
    else:
        if not 0.0 < target_f1 < 1.0:
            raise ValueError("target_f1 must lie in (0, 1)")
        target, metric = float(target_f1), "f1"

    def realized(s: float) -> float:
        sim = simulate_predictions(frame, QualityProfile.symmetric(s), seed)
        if metric == "loss":
            return population_loss(sim) / sim.N
        return f1_from_counts(confusion_counts(sim, tau))

    # Loss falls and F1 rises with sharpness; fold both into a value
    # that falls, so one bracketing loop serves.
    sign = 1.0 if metric == "loss" else -1.0
    goal = sign * target

    def value(s: float) -> float:
        return sign * realized(s)

    def close(v: float) -> bool:
        return abs(v - goal) <= CALIBRATION_REL_TOL * abs(goal)

    best_s, best_v = 1.0, value(1.0)
    if close(best_v):
        return _calibration_result(best_s, sign * best_v, target, metric)
    if best_v < goal:
        raise CalibrationError(
            f"target {metric} {target:g} is outside the family's range on this "
            f"frame (best at sharpness 1: {sign * best_v:g})",
            best_sharpness=best_s,
            best_metric=sign * best_v,
        )

    lo, hi = 1.0, 2.0
    v_hi = value(hi)
    while v_hi > goal and hi < _MAX_SHARPNESS:
        if close(v_hi):
            return _calibration_result(hi, sign * v_hi, target, metric)
        lo, hi = hi, hi * 2.0
        v_hi = value(hi)
    if abs(v_hi - goal) < abs(best_v - goal):
        best_s, best_v = hi, v_hi
    if v_hi > goal:  # never crossed, even at the sharpness cap
        raise CalibrationError(
            f"target {metric} {target:g} not reachable: best realized "
            f"{sign * best_v:g} at sharpness {best_s:g}",
            best_sharpness=best_s,
            best_metric=sign * best_v,
        )

    for _ in range(CALIBRATION_MAX_STEPS):
        mid = 0.5 * (lo + hi)
        v = value(mid)
        if abs(v - goal) < abs(best_v - goal):
            best_s, best_v = mid, v
        if close(v):
            return _calibration_result(mid, sign * v, target, metric)
        if v > goal:
            lo = mid
        else:
            hi = mid
    raise CalibrationError(
        f"calibration to {metric} {target:g} did not converge in {CALIBRATION_MAX_STEPS} "
        f"steps; best realized {sign * best_v:g} at sharpness {best_s:g}",
        best_sharpness=best_s,
        best_metric=sign * best_v,
    )


def _calibration_result(s, realized, target, metric):
    return CalibrationResult(
        profile=QualityProfile.symmetric(s),
        sharpness=float(s),
        realized=float(realized),
        target=target,
        metric=metric,
    )
