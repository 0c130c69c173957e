"""Replicated sampling experiments on a fully known frame.

Each replicate r of a run draws its randomness from a generator seeded
with (seed, r), so any single replicate can be reproduced alone.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from . import designs, estimators
from .classifier_sim import calibrate_profile, simulate_predictions
from .errors import CalibrationError, ConfigError, SweepError, VarianceUndefinedError
from .population import (
    Frame,
    STRATUM_ONE,
    STRATUM_ZERO,
    stratify_by_prediction,
)

DESIGN_CHOICES = ("pps", "srs", "stratified")
ESTIMATOR_CHOICES = ("hh", "srs", "diff", "strat_srs", "strat_diff")
_VALID_PAIRS = {
    "pps": ("hh",),
    "srs": ("srs", "diff"),
    "stratified": ("strat_srs", "strat_diff"),
}


def _seed_tuple(seed) -> tuple[int, ...]:
    if isinstance(seed, (int, np.integer)):
        return (int(seed),)
    return tuple(int(v) for v in seed)


def replicate_rng(seed, r: int) -> np.random.Generator:
    """The generator replicate r draws from: seeded with (seed, r)."""
    return np.random.default_rng(_seed_tuple(seed) + (int(r),))


# Freedman-Diaconis asks for one bin per IQR-scaled width, so a single
# far outlier can ask for millions; past this many, bins are equal-width
HISTOGRAM_MAX_BINS = 1000


@dataclass(frozen=True)
class HistogramBin:
    lo: float
    hi: float
    count: int


def estimate_histogram(values) -> tuple[HistogramBin, ...]:
    """Freedman-Diaconis bins, with exact zeros split into their own bin.

    A sampling distribution that piles up at exactly zero (the empty
    zero-stratum mode) keeps that mass visible instead of having it
    smeared into the first regular bin.  At most ``HISTOGRAM_MAX_BINS``
    regular bins are made.  Bin counts sum to len(values).
    """
    v = np.asarray(values, dtype=np.float64)
    if v.size == 0:
        raise ValueError("no values to bin")
    bins: list[HistogramBin] = []
    zero_count = int(np.sum(v == 0.0))
    if zero_count:
        bins.append(HistogramBin(0.0, 0.0, zero_count))
    nz = v[v != 0.0]
    if nz.size:
        if np.ptp(nz) == 0.0:
            bins.append(HistogramBin(float(nz[0]), float(nz[0]), int(nz.size)))
        else:
            # numpy's "fd" rule, with the bin count capped before any edge exists
            iqr = float(np.subtract(*np.percentile(nz, [75, 25])))
            width = 2.0 * iqr * nz.size ** (-1.0 / 3.0)
            n_bins = min(np.ceil(np.ptp(nz) / width), HISTOGRAM_MAX_BINS) if width else 1
            edges = np.histogram_bin_edges(nz, bins=int(n_bins))
            counts, edges = np.histogram(nz, bins=edges)
            bins.extend(
                HistogramBin(float(edges[i]), float(edges[i + 1]), int(c))
                for i, c in enumerate(counts)
            )
    bins.sort(key=lambda b: (b.lo, b.hi))
    return tuple(bins)


@dataclass(frozen=True, eq=False)
class SimReport:
    """Summary of one replicated run, plus the per-replicate estimates."""

    design: str
    estimator: str
    n: int
    R: int
    seed: tuple[int, ...]
    true_total: int
    empirical_mean: float
    empirical_se: float
    bias: float
    mean_estimated_variance: float
    deff_vs_srs: float | None
    bins: tuple[HistogramBin, ...]
    zero_stratum_empty_fraction: float | None
    estimates: np.ndarray
    estimated_variances: np.ndarray
    zero_stratum_estimates: np.ndarray | None

    def summary_dict(self) -> dict:
        """JSON-ready summary (per-replicate arrays stay out)."""
        return {
            "design": self.design,
            "estimator": self.estimator,
            "n": self.n,
            "R": self.R,
            "seed": list(self.seed),
            "true_total": self.true_total,
            "empirical_mean": self.empirical_mean,
            "empirical_se": self.empirical_se,
            "bias": self.bias,
            "mean_estimated_variance": self.mean_estimated_variance,
            "deff_vs_srs": self.deff_vs_srs,
            "zero_stratum_empty_fraction": self.zero_stratum_empty_fraction,
            "histogram": [[b.lo, b.hi, b.count] for b in self.bins],
        }


def _check_run_args(frame, design, estimator, n, R):
    if design not in DESIGN_CHOICES:
        raise ConfigError(f"unknown design {design!r}; choose from {DESIGN_CHOICES}")
    if estimator not in ESTIMATOR_CHOICES:
        raise ConfigError(
            f"unknown estimator {estimator!r}; choose from {ESTIMATOR_CHOICES}"
        )
    if estimator not in _VALID_PAIRS[design]:
        raise ConfigError(
            f"estimator {estimator!r} does not apply to design {design!r}; "
            f"valid here: {_VALID_PAIRS[design]}"
        )
    if not frame.fully_labeled:
        raise ValueError("replicated runs need a fully labeled frame")
    if n < 2:
        raise ValueError("n must be at least 2 so variances exist")
    if design == "srs" and n > frame.N:
        raise ValueError(f"n={n} exceeds N={frame.N}, and SRS draws are distinct units")
    if R < 1:
        raise ValueError("R must be at least 1")


def run_replications(
    frame: Frame,
    *,
    design: str,
    estimator: str,
    n: int,
    R: int,
    seed,
    tau: float | None = None,
    allocation: str | None = None,
    srs_baseline_se: float | None = None,
) -> SimReport:
    """Draw R independent samples and estimate the total each time.

    Supported pairings: design "pps" with estimator "hh"; "srs" with
    "srs" or "diff"; "stratified" (needs ``tau`` and ``allocation``)
    with "strat_srs" or "strat_diff", where the difference estimator is
    applied in the zero stratum only.

    Parameters
    ----------
    frame : Frame
        Fully labeled, so every replicate can be scored against truth.
    srs_baseline_se : float, optional
        Empirical SE of a plain-SRS run on the same frame and n; when
        given, the report carries the squared SE ratio as ``deff_vs_srs``.

    Returns
    -------
    SimReport
    """
    _check_run_args(frame, design, estimator, n, R)
    if R == 1:
        warnings.warn("R=1 gives a degenerate empirical SE of 0", stacklevel=2)

    if design == "stratified":
        if tau is None or allocation is None:
            raise ConfigError("stratified runs need tau and allocation")
        strat = stratify_by_prediction(frame, tau)
        sizes = designs.allocate(strat, n, allocation).sizes
        # (stratum, draws, is the zero stratum) in stratified_estimate's order
        parts = [
            (strat.strata[name], sizes[name], name == STRATUM_ZERO)
            for name in (STRATUM_ONE, STRATUM_ZERO)
            if sizes[name] > 0
        ]
    else:
        parts = [(frame, n, False)]
    # x, computed once so a draw is one gather: y / pi (HH), y - p_hat (difference) or y
    for k, (sub, n_h, zero) in enumerate(parts):
        x, base = sub.labels, 0.0
        if design == "pps":
            table = designs._alias_for(sub)
            x = sub.labels / (sub.aux_probs / sub.aux_total)
        elif estimator == "diff" or (zero and estimator == "strat_diff"):
            x, base = sub.labels - sub.aux_probs, sub.aux_total
        parts[k] = (n_h, zero, x, base)

    totals = np.empty(R)
    variances = np.empty(R)
    zero_totals = np.full(R, np.nan) if any(zero for _, zero, _, _ in parts) else None
    for r in range(R):
        rng = replicate_rng(seed, r)
        total = variance = 0.0
        for n_h, zero, x, base in parts:
            if design == "pps":
                t, v = estimators._hh(x[table.draw(rng, n_h)])
            else:
                idx = designs._srs_indices(rng, x.size, n_h)
                t, v = estimators._expansion(x[idx], x.size, base)
            if v is None:
                raise VarianceUndefinedError(f"a replicate of {n_h} draw(s) has no variance")
            if zero:
                zero_totals[r] = t
            total += t
            variance += v
        totals[r] = total
        variances[r] = variance

    mean = float(np.mean(totals))
    emp_se = float(np.std(totals, ddof=1)) if R >= 2 else 0.0
    deff = (
        None
        if srs_baseline_se is None
        else estimators.design_effect(emp_se, srs_baseline_se)
    )
    zero_fraction = None
    if zero_totals is not None:
        zero_fraction = float(np.mean(zero_totals == 0.0))
    return SimReport(
        design=design,
        estimator=estimator,
        n=n,
        R=R,
        seed=_seed_tuple(seed),
        true_total=frame.true_total,
        empirical_mean=mean,
        empirical_se=emp_se,
        bias=mean - frame.true_total,
        mean_estimated_variance=float(np.mean(variances)),
        deff_vs_srs=deff,
        bins=estimate_histogram(totals),
        zero_stratum_empty_fraction=zero_fraction,
        estimates=totals,
        estimated_variances=variances,
        zero_stratum_estimates=zero_totals,
    )


@dataclass(frozen=True)
class SweepPoint:
    target_loss: float
    realized_loss: float
    sharpness: float
    exact_variance: float
    empirical_variance: float


def proposition1_sweep(
    frame: Frame, loss_targets, *, n: int, R: int, seed
) -> list[SweepPoint]:
    """Design variance of the PPS total as classifier loss shrinks.

    For each per-unit loss target (strictly decreasing), calibrate a
    symmetric profile on the frame, regenerate scores, and record the
    closed-form design variance next to the empirical variance over R
    replicated samples.  Better classifiers should drive both toward 0.

    Raises
    ------
    SweepError
        If any target cannot be calibrated; the message names it.
    """
    targets = [float(t) for t in loss_targets]
    if not targets:
        raise ValueError("no loss targets given")
    if any(t <= 0 for t in targets):
        raise ValueError("loss targets must be positive")
    if any(b >= a for a, b in zip(targets, targets[1:])):
        raise ValueError("loss targets must be strictly decreasing")
    base = _seed_tuple(seed)
    points = []
    for k, target in enumerate(targets):
        cal_seed = base + (k, 0)
        try:
            cal = calibrate_profile(frame, target_loss=target, seed=cal_seed)
        except CalibrationError as exc:
            raise SweepError(f"sweep point {k} (target {target:g}): {exc}") from exc
        sim = simulate_predictions(frame, cal.profile, cal_seed)
        exact = estimators.exact_hh_design_variance(sim, n)
        report = run_replications(
            sim,
            design="pps",
            estimator="hh",
            n=n,
            R=R,
            seed=base + (k, 1),
        )
        points.append(
            SweepPoint(
                target_loss=target,
                realized_loss=cal.realized,
                sharpness=cal.sharpness,
                exact_variance=exact,
                empirical_variance=report.empirical_se**2,
            )
        )
    return points
