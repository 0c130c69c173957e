"""Exact design expectations by enumerating every possible sample.

On frames of at most eight units every SRS-WOR subset and every ordered
PPS-WR draw sequence can be listed with its probability, so the
expectation of an estimator is a finite sum; so can every pair of
per-stratum subsets, and every PPS sequence drawn within a stratum.  Unbiased totals and
unbiased variance estimators must then match the truth to rounding,
with no Monte Carlo tolerance.  The coverage of the normal interval is
such a sum too, and is pinned.
"""

import itertools
import math
from collections import Counter

import numpy as np
import pytest

from auxcount import (
    DESIGN_PPS,
    DESIGN_SRS,
    Frame,
    Sample,
    confidence_interval,
    difference_estimate,
    exact_hh_design_variance,
    hh_estimate,
    srs_estimate,
    stratified_estimate,
    stratify_by_prediction,
)
from auxcount.estimators import STRATIFIED

from conftest import _ids

REL = 1e-12

FRAMES = {
    "one unit": ([1.0], [0.7]),
    "four units": ([1.0, 0.0, 0.0, 1.0], [0.8, 0.3, 0.1, 0.45]),
    "six units": ([1.0, 0.0, 1.0, 0.0, 0.0, 1.0], [0.9, 0.2, 0.6, 0.05, 0.3, 0.45]),
    # one positive, scored below every negative
    "rare positive": ([1.0] + [0.0] * 7, [0.02, 0.1, 0.15, 0.2, 0.3, 0.35, 0.4, 0.5]),
}


def _frame(name) -> Frame:
    labels, scores = FRAMES[name]
    return Frame(_ids("e", len(labels)), scores, labels)


def _draws(frame: Frame, design: str, idx) -> Sample:
    idx = np.asarray(idx, dtype=np.intp)
    return Sample(
        design=design,
        unit_ids=frame.ids[idx],
        y=frame.labels[idx],
        p_hat=frame.aux_probs[idx],
        parent_N=frame.N,
        parent_aux_total=frame.aux_total,
    )


def _srs_variance(frame: Frame, values, n: int) -> float:
    """N^2 (1 - n/N) S^2 / n, the design variance of an SRS expansion total."""
    N = frame.N
    if n == N:
        return 0.0
    return N * N * (1.0 - n / N) * float(np.var(values, ddof=1)) / n


def _srs_cases():
    for name, (labels, _) in FRAMES.items():
        for n in range(1, len(labels) + 1):
            yield pytest.param(name, n, id=f"{name}-n{n}")


@pytest.mark.parametrize("name,n", list(_srs_cases()))
@pytest.mark.parametrize("estimator", [srs_estimate, difference_estimate])
def test_srs_estimators_are_exactly_unbiased(estimator, name, n):
    frame = _frame(name)
    ests = [
        estimator(_draws(frame, DESIGN_SRS, s))
        for s in itertools.combinations(range(frame.N), n)
    ]
    mean_total = math.fsum(e.total for e in ests) / len(ests)
    assert math.isclose(mean_total, frame.true_total, rel_tol=REL)
    if n == 1 and frame.N > 1:
        assert all(e.variance is None for e in ests)
        return
    residual = frame.labels - (frame.aux_probs if estimator is difference_estimate else 0.0)
    mean_variance = math.fsum(e.variance for e in ests) / len(ests)
    assert math.isclose(mean_variance, _srs_variance(frame, residual, n), rel_tol=REL)


@pytest.mark.parametrize("name,n", [("four units", n) for n in (2, 3, 4)]
                         + [("six units", n) for n in (2, 3, 4)])
def test_hansen_hurwitz_is_exactly_unbiased(name, n):
    frame = _frame(name)
    p = frame.aux_probs / frame.aux_total
    weighted_totals, weighted_variances, mass = [], [], []
    for seq in itertools.product(range(frame.N), repeat=n):
        w = math.prod(p[i] for i in seq)
        est = hh_estimate(_draws(frame, DESIGN_PPS, seq))
        weighted_totals.append(w * est.total)
        weighted_variances.append(w * est.variance)
        mass.append(w)
    assert math.isclose(math.fsum(mass), 1.0, rel_tol=REL)
    assert math.isclose(math.fsum(weighted_totals), frame.true_total, rel_tol=REL)
    assert math.isclose(
        math.fsum(weighted_variances), exact_hh_design_variance(frame, n), rel_tol=REL
    )


def _exact_interval(frame: Frame, design: str, n: int, z: float = 1.96):
    """(coverage, zero-variance probability, total probability) of the z
    interval of the design's estimator, over every sample of n draws.

    An SRS-WOR sample is a subset of units.  A PPS-WR sample is a multiset
    of units with its multinomial probability, since the Hansen-Hurwitz
    total and variance depend on the draw counts alone.
    """
    if design == DESIGN_PPS:
        p = frame.aux_probs / frame.aux_total
        samples, estimator = itertools.combinations_with_replacement(range(frame.N), n), hh_estimate

        def weight(idx):
            ways = math.factorial(n) / math.prod(map(math.factorial, Counter(idx).values()))
            return ways * math.prod(p[i] for i in idx)
    else:
        samples, estimator = itertools.combinations(range(frame.N), n), srs_estimate

        def weight(idx):
            return 1.0 / math.comb(frame.N, n)

    covered, zero, mass = [], [], []
    for idx in samples:
        est, w = estimator(_draws(frame, design, idx)), weight(idx)
        lo, hi = confidence_interval(est, z)
        mass.append(w)
        covered.append(w if lo <= frame.true_total <= hi else 0.0)
        zero.append(w if est.variance == 0.0 else 0.0)
    return math.fsum(covered), math.fsum(zero), math.fsum(mass)


# (coverage, zero-variance probability) of the z = 1.96 interval at n = 2, 3
# and 4, as _exact_interval sums them.  A rare positive scored near the floor
# is seldom drawn: nearly every sample then reads [0, 0], and misses.
EXACT_INTERVALS = {
    ("rare positive", DESIGN_PPS): [
        (0.019605920988138424, 0.980394079011862),
        (0.02911770443782935, 0.970591118517793),
        (0.03901580198600237, 0.9609803540926205),
    ],
    ("six units", DESIGN_PPS): [
        (0.6455999999999997, 0.26799999999999985),
        (0.8163359999999994, 0.07695999999999995),
        (0.7900886399999992, 0.02350623999999998),
    ],
    ("six units", DESIGN_SRS): [(0.6, 0.4), (0.9, 0.1), (1.0, 0.0)],
}
# the same to six decimals, as the README quotes them
ROUNDED_INTERVALS = {
    ("rare positive", DESIGN_PPS): [(0.019606, 0.980394), (0.029118, 0.970591),
                                    (0.039016, 0.960980)],
    ("six units", DESIGN_PPS): [(0.6456, 0.268), (0.816336, 0.07696), (0.790089, 0.023506)],
    ("six units", DESIGN_SRS): [(0.6, 0.4), (0.9, 0.1), (1.0, 0.0)],
}


@pytest.mark.parametrize("name,design", list(EXACT_INTERVALS))
@pytest.mark.parametrize("n", [2, 3, 4])
def test_interval_coverage_is_exact(name, design, n):
    covered, zero, mass = _exact_interval(_frame(name), design, n)
    assert math.isclose(mass, 1.0, rel_tol=REL)
    want_covered, want_zero = EXACT_INTERVALS[name, design][n - 2]
    assert math.isclose(covered, want_covered, rel_tol=REL)
    assert math.isclose(zero, want_zero, rel_tol=REL)
    rounded_covered, rounded_zero = ROUNDED_INTERVALS[name, design][n - 2]
    assert covered == pytest.approx(rounded_covered, abs=5e-7)
    assert zero == pytest.approx(rounded_zero, abs=5e-7)


# eight units split at tau 0.5 into a "one" stratum of 3 units and a "zero"
# stratum of 5, 4 positives in all, 2 of them in each stratum
STRATIFIED_FRAME = ([1.0, 0.0, 1.0, 0.0, 0.0, 1.0, 0.0, 1.0],
                    [0.9, 0.2, 0.6, 0.05, 0.3, 0.45, 0.7, 0.1])
_BY_PAIRING = {"srs": srs_estimate, "diff": difference_estimate}


def _strata():
    """(frame, {name: (rows, the stratum's units as a Frame of their own)})."""
    labels, scores = STRATIFIED_FRAME
    frame = Frame(_ids("e", len(labels)), scores, labels)
    strata = stratify_by_prediction(frame, 0.5)
    alone = {h: Frame(frame.ids[r], frame.aux_probs[r], frame.labels[r]) for h, r in strata.items()}
    return frame, {h: (rows, alone[h]) for h, rows in strata.items()}


def _stratum_draws(frame: Frame, name: str, rows, design: str, idx) -> Sample:
    """As _draws, of the stratum's units at positions ``idx`` of ``rows``."""
    idx = rows[np.asarray(idx, dtype=np.intp)]
    return Sample(
        design=design,
        unit_ids=frame.ids[idx],
        y=frame.labels[idx],
        p_hat=frame.aux_probs[idx],
        parent_N=rows.size,
        parent_aux_total=float(np.sum(frame.aux_probs[rows])),
        stratum=name,
    )


@pytest.mark.parametrize("pairing", list(STRATIFIED))
@pytest.mark.parametrize("n1,n0", list(itertools.product((2, 3), (2, 3, 4))))
def test_stratified_pairings_are_exactly_unbiased(pairing, n1, n0):
    frame, strata = _strata()
    assert {h: rows.size for h, (rows, _) in strata.items()} == {"one": 3, "zero": 5}
    sizes, want_variance = {"one": n1, "zero": n0}, 0.0
    subsets = []
    for (h, (rows, alone)), name in zip(strata.items(), STRATIFIED[pairing]):
        estimator = _BY_PAIRING[name]
        residual = alone.labels - (alone.aux_probs if estimator is difference_estimate else 0.0)
        want_variance += _srs_variance(alone, residual, sizes[h])
        subsets.append([
            (h, estimator(_stratum_draws(frame, h, rows, DESIGN_SRS, s)))
            for s in itertools.combinations(range(rows.size), sizes[h])
        ])
    ests = [stratified_estimate(pair) for pair in itertools.product(*subsets)]
    assert len(ests) == math.comb(3, n1) * math.comb(5, n0)
    mean_total = math.fsum(e.total for e in ests) / len(ests)
    assert math.isclose(mean_total, frame.true_total, rel_tol=REL)
    assert frame.true_total == 4
    mean_variance = math.fsum(e.variance for e in ests) / len(ests)
    assert math.isclose(mean_variance, want_variance, rel_tol=REL)


@pytest.mark.parametrize("n", [2, 3])
def test_hansen_hurwitz_within_the_zero_stratum_is_exactly_unbiased(n):
    frame, strata = _strata()
    rows, alone = strata["zero"]
    p = alone.aux_probs / alone.aux_total
    weighted_totals, weighted_variances, mass = [], [], []
    for seq in itertools.product(range(rows.size), repeat=n):
        w = math.prod(p[i] for i in seq)
        est = hh_estimate(_stratum_draws(frame, "zero", rows, DESIGN_PPS, seq))
        weighted_totals.append(w * est.total)
        weighted_variances.append(w * est.variance)
        mass.append(w)
    assert math.isclose(math.fsum(mass), 1.0, rel_tol=REL)
    assert math.isclose(math.fsum(weighted_totals), alone.true_total, rel_tol=REL)
    assert alone.true_total == 2
    assert math.isclose(
        math.fsum(weighted_variances), exact_hh_design_variance(alone, n), rel_tol=REL
    )
