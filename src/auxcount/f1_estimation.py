"""Delta-method F1 inference when TP and FN are themselves estimated.

With C = tp + fp fixed by the classifier's hard predictions, F1 can be
written as a function of the two unknown counts only:

    f(TP, FN) = 2 TP / (TP + FN + C)

so an estimated TP and FN with known sampling variances propagate
through the gradient

    df/dTP = 2 (FN + C) / (TP + FN + C)^2
    df/dFN = -2 TP / (TP + FN + C)^2

with no covariance term when the two come from independent samples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .classifier_sim import ConfusionCounts
from .errors import UndefinedMetricError
from .estimators import Estimate


@dataclass(frozen=True)
class F1Inputs:
    """Estimated confusion pieces feeding the delta method.

    ``c`` is the total predicted-positive count, known exactly from the
    classifier's outputs over the frame.
    """

    tp_hat: float
    var_tp: float
    fn_hat: float
    var_fn: float
    c: float

    def __post_init__(self):
        if min(self.tp_hat, self.fn_hat, self.c) < 0:
            raise ValueError("counts must be nonnegative")
        if min(self.var_tp, self.var_fn) < 0:
            raise ValueError("variances must be nonnegative")
        if self.tp_hat > self.c:
            raise ValueError(
                f"tp_hat={self.tp_hat:g} exceeds predicted positives c={self.c:g}"
            )


def f1_gradient(inputs: F1Inputs) -> tuple[float, float]:
    """Gradient of f(TP, FN) at the estimated counts."""
    denom = inputs.tp_hat + inputs.fn_hat + inputs.c
    if denom <= 0:
        raise UndefinedMetricError("F1 undefined: tp_hat + fn_hat + c is zero")
    g_tp = 2.0 * (inputs.fn_hat + inputs.c) / denom**2
    g_fn = -2.0 * inputs.tp_hat / denom**2
    return g_tp, g_fn


def delta_f1(inputs: F1Inputs) -> tuple[float, float]:
    """Point F1 and its delta-method variance.

    Returns
    -------
    (f1, variance)
        f1 in [0, 1]; variance >= 0, and exactly 0 when both input
        variances are 0.
    """
    g_tp, g_fn = f1_gradient(inputs)  # raises where F1 is undefined
    f1 = 2.0 * inputs.tp_hat / (inputs.tp_hat + inputs.fn_hat + inputs.c)
    variance = g_tp**2 * inputs.var_tp + g_fn**2 * inputs.var_fn
    return f1, variance


def estimate_f1_two_stratum(
    stratum_one: Estimate,
    stratum_zero: Estimate,
    flagged: ConfusionCounts,
    c: float,
) -> tuple[float, float]:
    """Assemble F1 from audited counts plus two stratum estimates.

    The flagged units carry exact confusion counts; the unflagged frame
    contributes an estimated positive total in each prediction stratum:
    the "one" stratum estimate adds to TP, the "zero" stratum estimate
    (typically a PPS total over the mass of predicted negatives) adds to
    FN.  Independence across strata means the variances just add into
    the delta method.

    Parameters
    ----------
    stratum_one, stratum_zero : Estimate
        Positive-total estimates with defined variances.
    flagged : ConfusionCounts
        Exact counts on the audited units.
    c : float
        Total predicted positives over the whole frame.

    Returns
    -------
    (f1, se)
    """
    inputs = F1Inputs(
        tp_hat=flagged.tp + stratum_one.total,
        var_tp=stratum_one._require_variance(),
        fn_hat=flagged.fn + stratum_zero.total,
        var_fn=stratum_zero._require_variance(),
        c=c,
    )
    f1, variance = delta_f1(inputs)
    return f1, math.sqrt(variance)
