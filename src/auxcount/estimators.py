"""Design-based estimators of a population total of a binary trait.

All estimators return an :class:`Estimate`.  When a sample is too small
for a variance (a single draw that is not a census), the point estimate
is still returned and ``variance`` is None; anything that needs it raises
:class:`~auxcount.errors.VarianceUndefinedError` instead of inventing a
zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .errors import VarianceUndefinedError
from .population import Frame, _require_labels, first_repeat
from .designs import DESIGN_PPS, DESIGN_SRS, Sample

ESTIMATOR_STRAT = "STRAT"

DEFAULT_Z = 1.96


@dataclass(frozen=True, eq=False)
class Estimate:
    """A point estimate of a total with its estimated design variance."""

    estimator: str
    total: float
    variance: float | None
    n: int
    N: int
    components: tuple[tuple[str, "Estimate"], ...] | None = None

    def __post_init__(self):
        if self.variance is not None and self.variance < 0:
            raise ValueError("variance cannot be negative")

    @property
    def se(self) -> float | None:
        if self.variance is None:
            return None
        return math.sqrt(self.variance)

    @property
    def proportion(self) -> float:
        return self.total / self.N

    @property
    def proportion_se(self) -> float | None:
        se = self.se
        return None if se is None else se / self.N

    def _require_variance(self) -> float:
        if self.variance is None:
            raise VarianceUndefinedError(
                f"{self.estimator} estimate from n={self.n} draw(s) has no variance"
            )
        return self.variance


def _hh(x: np.ndarray, N: int = 0, base: float = 0.0):
    """(mean(x), var(x, ddof=1) / n) for PPS-WR draws x_i = y_i / pi_i,
    along the last axis: one sample's draws, or a row per replicate.

    Below two draws the variance is None.  N and base are unused here.
    """
    n = x.shape[-1]
    return np.mean(x, axis=-1), np.var(x, axis=-1, ddof=1) / n if n >= 2 else None


def _expansion(v: np.ndarray, N: int, base: float = 0.0):
    """(base + N * mean(v), N^2 (1 - n/N) s^2 / n) for an SRS-WOR of v,
    along the last axis as in :func:`_hh`.

    A census (n = N) has variance 0; below two draws the variance is None.
    """
    n = v.shape[-1]
    total = base + N * np.mean(v, axis=-1)
    if n == N:
        return total, 0.0
    if n < 2:
        return total, None
    return total, N * N * (1.0 - n / N) * np.var(v, axis=-1, ddof=1) / n


class Pairing(NamedTuple):
    function: str  # the public estimator's name
    design: str  # the Sample design it reads, and so its sampler
    label: str  # the Estimate's estimator
    kernel: Callable  # _hh or _expansion, called with (x, N, base)
    units: Callable  # (y, p_hat, score total) -> (x, base)


# The pairing table: an estimator of one stratum or a whole frame, by the
# names the CLI and run_replications take
PAIRINGS = {
    "hh": Pairing("hh_estimate", DESIGN_PPS, "HH", _hh, lambda y, p, a: (y / (p / a), 0.0)),
    "srs": Pairing("srs_estimate", DESIGN_SRS, "SRS", _expansion, lambda y, p, a: (y, 0.0)),
    "diff": Pairing(
        "difference_estimate", DESIGN_SRS, "DIFF", _expansion, lambda y, p, a: (y - p, a)
    ),
}
# Two-stratum pairings: the estimator of stratum "one", then of "zero"
STRATIFIED = {"strat_srs": ("srs", "srs"), "strat_diff": ("srs", "diff")}
# What f1 reads: TP from an SRS sample of "one", FN from a PPS-WR sample of "zero"
F1_STRATA = ("srs", "hh")


def _estimate(sample: Sample, name: str) -> Estimate:
    """The estimate of the PAIRINGS row ``name`` from one labeled sample."""
    pairing = PAIRINGS[name]
    if sample.design != pairing.design:
        raise ValueError(f"{pairing.function} needs a {pairing.design} sample")
    if not sample.labeled:
        raise ValueError("every draw must carry a label; annotate the sample first")
    x, base = pairing.units(sample.y, sample.p_hat, sample.parent_aux_total)
    if np.isnan(x).any():
        raise ValueError("every draw must carry a score")
    total, variance = pairing.kernel(x, sample.parent_N, base)
    variance = None if variance is None else float(variance)
    return Estimate(pairing.label, float(total), variance, n=sample.n, N=sample.parent_N)


def hh_estimate(sample: Sample) -> Estimate:
    """Hansen-Hurwitz estimator for a with-replacement PPS sample.

    total = (1/n) sum y_i / pi_i, with the textbook unbiased variance
    estimator (1/n) * sample variance of the y_i / pi_i.

    Parameters
    ----------
    sample : Sample
        A labeled PPS_WR sample.

    Returns
    -------
    Estimate
        With ``variance`` None when n < 2.
    """
    return _estimate(sample, "hh")


def exact_hh_design_variance(frame: Frame, n: int) -> float:
    """Closed-form design variance of the Hansen-Hurwitz total.

    For binary y and pi_i = p_hat_i / aux_total, the per-draw second
    moment collapses to a sum of inverse probabilities over the true
    positives:

        V = (1/n) * (sum_{i: y_i = 1} 1/pi_i - t^2)

    Needs a fully labeled frame; vanishes when every positive has
    pi_i = 1/t.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    _require_labels(frame, "exact_hh_design_variance")
    t = frame.true_total
    pos = frame.labels == 1.0
    inv_pi = frame.aux_total / frame.aux_probs[pos]
    return max(0.0, (float(np.sum(inv_pi)) - float(t) ** 2) / n)


def srs_estimate(sample: Sample) -> Estimate:
    """Expansion estimator N * ybar for an SRS-WOR sample.

    Variance is N^2 (1 - n/N) s^2 / n with the finite-population
    correction; a census (n = N, even of one unit) gets variance 0.
    """
    return _estimate(sample, "srs")


def census_estimate(positives: int, N: int) -> Estimate:
    """Estimate from complete enumeration of a stratum: no variance left."""
    if not 0 <= positives <= N:
        raise ValueError("need 0 <= positives <= N")
    return Estimate(PAIRINGS["srs"].label, float(positives), 0.0, n=N, N=N)


def difference_estimate(sample: Sample) -> Estimate:
    """Difference estimator: aux_total plus the expanded score residuals.

    total = A + (N/n) sum (y_i - p_hat_i), where A is the frame's score
    total; variance is the SRS formula applied to the residuals.  Exact
    (zero variance) when the scores equal the labels everywhere.
    """
    return _estimate(sample, "diff")


def stratified_estimate(components) -> Estimate:
    """Combine independent per-stratum estimates by summation.

    Parameters
    ----------
    components : iterable of (stratum_id, Estimate)

    Returns
    -------
    Estimate
        Totals and variances added across strata; the inputs ride along
        under ``components``.
    """
    parts = list(components)
    if not parts:
        raise ValueError("no stratum estimates given")
    repeat = first_repeat([name for name, _ in parts])
    if repeat is not None:
        raise ValueError(f"duplicate stratum id {parts[repeat][0]!r}")
    total = sum(e.total for _, e in parts)
    variance = sum(e._require_variance() for _, e in parts)
    return Estimate(
        ESTIMATOR_STRAT,
        float(total),
        float(variance),
        n=sum(e.n for _, e in parts),
        N=sum(e.N for _, e in parts),
        components=tuple((name, e) for name, e in parts),
    )


def confidence_interval(estimate: Estimate, z: float = DEFAULT_Z) -> tuple[float, float]:
    """Normal interval total +/- z * se; needs a defined variance, and a z
    (NaN, infinite, or too large for se) that gives no finite interval is refused."""
    _check_z(z)
    se = math.sqrt(estimate._require_variance())
    lo, hi = estimate.total - z * se, estimate.total + z * se
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError(f"z {z!r} and se {se!r} give no finite interval")
    return lo, hi


def _check_z(z: float) -> None:
    """Refuse a z with a sign bit, -0.0 too, which the record would carry."""
    if np.signbit(z):
        raise ValueError(f"z must be nonnegative with no minus sign, got {z!r}")


def _check_baseline_se(baseline_se: float | None) -> None:
    """A baseline SE is None (no design effect) or lies in (0, inf)."""
    if baseline_se is not None and not 0 < baseline_se < math.inf:
        raise ValueError("baseline SE must be positive and finite")


def design_effect(estimate, baseline_se_srs: float) -> float:
    """Squared SE ratio against an SRS baseline for the same frame and n;
    inf where the square is past the largest float."""
    _check_baseline_se(baseline_se_srs)
    se = estimate.se if isinstance(estimate, Estimate) else float(estimate)
    if se is None:
        raise VarianceUndefinedError("estimate has no variance, so no design effect")
    try:
        return (se / baseline_se_srs) ** 2
    except OverflowError:  # float ** raises where float * gives inf
        return math.inf


def _unit_variance(N: int, p: float) -> float:
    """The finite-population unit variance S^2 = p (1 - p) N / (N - 1) of
    a binary trait at prevalence p."""
    if N < 2:
        raise ValueError("N must be at least 2")
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    return p * (1.0 - p) * N / (N - 1)


def srs_se_for_total(N: int, p: float, n: int) -> float:
    """Standard error of the SRS expansion total at prevalence p.

    Uses the finite-population unit variance S^2 = p (1 - p) N / (N - 1).
    """
    s2 = _unit_variance(N, p)
    if not 1 <= n <= N:
        raise ValueError(f"need 1 <= n <= N, got n={n}")
    return math.sqrt(N * N * (1.0 - n / N) * s2 / n)


def equivalent_srs_n(N: int, p: float, target_se: float) -> int:
    """Smallest SRS size whose expansion-total SE meets the target.

    Inverts the SRS variance formula in closed form:
        1/n = target_se^2 / (N^2 S^2) + 1/N
    and rounds up.  Any positive target is achievable because the SE
    hits 0 at n = N.
    """
    s2 = _unit_variance(N, p)
    if not target_se > 0:
        raise ValueError(
            f"unachievable target SE {target_se!r}: the SE at n=N is 0.0 and "
            "targets must be positive"
        )
    if s2 == 0.0:
        return 1
    inv_n = target_se**2 / (N * N * s2) + 1.0 / N
    return min(N, max(1, math.ceil(1.0 / inv_n)))


@dataclass(frozen=True)
class UnderReport:
    """An excess total over a confirmed count, floored at zero."""

    point: float
    lo: float
    hi: float
    truncated: bool


def under_reporting(t_hat: Estimate, t_f: float, z: float = DEFAULT_Z) -> UnderReport:
    """Estimated unobserved positives: the total minus a confirmed count.

    Shifts the point estimate and its interval down by ``t_f`` and
    truncates below at 0 (a negative count of missed cases has no
    meaning); ``truncated`` records whether the floor bit.
    """
    if t_f < 0:
        raise ValueError("confirmed count cannot be negative")
    lo, hi = confidence_interval(t_hat, z)
    point = t_hat.total - t_f
    shifted = (point, lo - t_f, hi - t_f)
    truncated = any(v < 0 for v in shifted)
    point, lo, hi = (max(0.0, v) for v in shifted)
    return UnderReport(point=point, lo=lo, hi=hi, truncated=truncated)


RECORD_FIELDS = ("estimator", "total", "se", "n", "N", "z", "ci_lo", "ci_hi", "deff")


def estimate_record(
    estimate: Estimate, z: float = DEFAULT_Z, baseline_se: float | None = None
) -> dict:
    """Flatten an estimate to the serializable record layout.

    ``deff`` is None unless an SRS baseline SE is supplied.  Raises if
    the variance is undefined, since the record includes an interval.
    """
    lo, hi = confidence_interval(estimate, z)
    deff = None if baseline_se is None else design_effect(estimate, baseline_se)
    return {
        "estimator": estimate.estimator,
        "total": estimate.total,
        "se": estimate.se,
        "n": estimate.n,
        "N": estimate.N,
        "z": z,
        "ci_lo": lo,
        "ci_hi": hi,
        "deff": deff,
    }
