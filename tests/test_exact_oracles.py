"""Exact design expectations by enumerating every possible sample.

On frames of at most six units every SRS-WOR subset and every ordered
PPS-WR draw sequence can be listed with its probability, so the
expectation of an estimator is a finite sum.  Unbiased totals and
unbiased variance estimators must then match the truth to rounding,
with no Monte Carlo tolerance.
"""

import itertools
import math

import numpy as np
import pytest

from auxcount import (
    DESIGN_PPS,
    DESIGN_SRS,
    Frame,
    Sample,
    difference_estimate,
    exact_hh_design_variance,
    hh_estimate,
    srs_estimate,
)

from conftest import _ids

REL = 1e-12

FRAMES = {
    "one unit": ([1.0], [0.7]),
    "four units": ([1.0, 0.0, 0.0, 1.0], [0.8, 0.3, 0.1, 0.45]),
    "six units": ([1.0, 0.0, 1.0, 0.0, 0.0, 1.0], [0.9, 0.2, 0.6, 0.05, 0.3, 0.45]),
}


def _frame(name) -> Frame:
    labels, scores = FRAMES[name]
    return Frame(_ids("e", len(labels)), scores, labels)


def _draws(frame: Frame, design: str, idx) -> Sample:
    idx = np.asarray(idx, dtype=np.intp)
    n = idx.size
    if design == DESIGN_PPS:
        pi = frame.aux_probs[idx] / frame.aux_total
    else:
        pi = np.full(n, n / frame.N)
    return Sample(
        design=design,
        unit_ids=frame.ids[idx],
        pi=pi,
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
