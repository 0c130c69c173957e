"""Shared fixtures: frozen synthetic frames and the expensive runs.

Seeds and shape constants below were chosen once so that closed-form
design variances, calibrated classifier quality, and Monte Carlo
tolerances all sit well inside what the tests assert.  Treat them as
frozen; several tests reproduce known arithmetic exactly.
"""

import contextlib
import os
import threading
import tracemalloc

import numpy as np
import pytest

from auxcount import (
    DESIGN_PPS,
    DESIGN_SRS,
    Frame,
    Sample,
    clamp_probs,
    proposition1_sweep,
    run_replications,
    srs_estimate,
)

N_2022 = 1_463_762

ACCEPT_FRAME_SEED = 20260823
ACCEPT_MC_SEED = 77
ACCEPT_N = 500
ACCEPT_R = 10_000

SWEEP_TARGETS = (0.35, 0.15, 0.06, 0.012, 0.002)
SWEEP_SEED = 93
SWEEP_N = 150
SWEEP_R = 20_000

BENIGN_SEED = 42
BIMODAL_SEED = 43


def _ids(prefix: str, n: int) -> list:
    return [f"{prefix}{i}" for i in range(n)]


def traced(build):
    """build()'s result, the bytes it left traced and its traced peak."""
    tracemalloc.start()
    try:
        result = build()
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, kept, peak


@contextlib.contextmanager
def piped(data: bytes):
    """A path, /dev/fd/N, that reads ``data`` through a pipe: it cannot
    seek, and its size reads 0."""
    read, write = os.pipe()

    def feed():  # a reader that stops early leaves the rest unwritten
        with contextlib.suppress(BrokenPipeError), os.fdopen(write, "wb") as fh:
            fh.write(data)

    feeder = threading.Thread(target=feed)
    feeder.start()
    try:
        yield f"/dev/fd/{read}"
    finally:
        os.close(read)
        feeder.join(timeout=30)
    assert not feeder.is_alive()


def build_acceptance_frame() -> Frame:
    """Rare-outcome frame, about 190,944 units with 944 positives.

    Positives mix a well-scored majority with a hard minority whose
    scores stay below the 0.5 threshold; negatives are mostly near
    zero with a thin right tail.  Measured F1 at 0.5 is about 0.68.
    """
    rng = np.random.default_rng(ACCEPT_FRAME_SEED)
    n_pos, n_hard, n_neg = 944, 100, 190_000
    probs = clamp_probs(
        np.concatenate(
            [
                rng.beta(8.0, 0.8, n_pos - n_hard),
                rng.uniform(0.02, 0.45, n_hard),
                rng.beta(0.018, 2.0, n_neg),
            ]
        )
    )
    labels = np.zeros(n_pos + n_neg)
    labels[:n_pos] = 1.0
    return Frame(_ids("u", n_pos + n_neg), probs, labels)


def build_benign_frame() -> Frame:
    """Moderate frame with bounded scores; tame estimator tails."""
    rng = np.random.default_rng(BENIGN_SEED)
    N, t = 4000, 160
    probs = clamp_probs(
        np.concatenate([rng.uniform(0.35, 0.95, t), rng.uniform(0.05, 0.45, N - t)])
    )
    labels = np.zeros(N)
    labels[:t] = 1.0
    return Frame(_ids("b", N), probs, labels)


def build_bimodal_frame(N: int = 5000, t: int = 12) -> Frame:
    """Every score below 0.5: the one-stratum is empty of units."""
    rng = np.random.default_rng(BIMODAL_SEED)
    probs = clamp_probs(
        np.concatenate([rng.uniform(0.05, 0.45, t), rng.uniform(0.001, 0.4, N - t)])
    )
    labels = np.zeros(N)
    labels[:t] = 1.0
    return Frame(_ids("z", N), probs, labels)


def build_sweep_frame() -> Frame:
    """Label-only frame for calibration sweeps; scores get regenerated."""
    N, t = 4000, 200
    labels = np.zeros(N)
    labels[:t] = 1.0
    return Frame(_ids("s", N), np.full(N, 0.5), labels)


def make_sample(design, y, p_hat, parent_N, aux_total, stratum=None) -> Sample:
    n = len(y)
    if p_hat is None:
        p_hat = np.full(n, np.nan)
    return Sample(
        design=design,
        unit_ids=np.array(_ids("x", n), dtype=object),
        y=np.asarray(y, dtype=np.float64),
        p_hat=np.asarray(p_hat, dtype=np.float64),
        parent_N=parent_N,
        parent_aux_total=aux_total,
        stratum=stratum,
    )


def one_stratum_review_sample(positives: int = 99) -> Sample:
    """Stratum-one style SRS: N=4964, n=200, given positive count."""
    n, N = 200, 4964
    y = np.zeros(n)
    y[:positives] = 1.0
    return make_sample(
        DESIGN_SRS, y, np.full(n, 0.6), N, 2600.0, stratum="one"
    )


def register_pps_sample() -> Sample:
    """PPS sample whose Hansen-Hurwitz estimate prints as 6051 (548)."""
    n, k = 200, 76
    v = 6051.0 * n / k
    y = np.zeros(n)
    y[:k] = 1.0
    aux = 7118.0
    pi = np.full(n, 1.0 / v)
    return make_sample(DESIGN_PPS, y, pi * aux, N_2022, aux)


def register_stratified_samples() -> tuple[Sample, Sample, Sample]:
    """(one-stratum SRS, zero-stratum SRS, zero-stratum diff) trio.

    The one-stratum sample plus the plain zero-stratum sample print as
    4618 (263); swapping in the difference-ready zero sample prints as
    6193 (1220).  The diff sample's score spread is solved from the
    target variance in closed form.
    """
    N1, n1, k1 = 6343, 114, 83
    N0, n0 = N_2022 - N1, 100
    y1 = np.zeros(n1)
    y1[:k1] = 1.0
    one = make_sample(
        DESIGN_SRS, y1, np.full(n1, 0.62), N1, 3900.0, "one"
    )
    zero_srs = make_sample(
        DESIGN_SRS,
        np.zeros(n0),
        np.full(n0, 0.011),
        N0,
        16149.0,
        "zero",
    )

    e1 = srs_estimate(one)
    var0 = 1220.0**2 - e1.variance
    total0 = 6193.0 - e1.total
    sd2 = var0 * n0 / (N0**2 * (1 - n0 / N0))
    delta = np.sqrt(sd2 * (n0 - 1) / n0)
    p0 = np.empty(n0)
    p0[0::2] = 0.01 + delta
    p0[1::2] = 0.01 - delta
    aux0 = total0 + (N0 / n0) * p0.sum()
    zero_diff = make_sample(
        DESIGN_SRS, np.zeros(n0), p0, N0, aux0, "zero"
    )
    return one, zero_srs, zero_diff


@pytest.fixture(scope="session")
def acceptance_frame() -> Frame:
    return build_acceptance_frame()


@pytest.fixture(scope="session")
def acceptance_runs(acceptance_frame):
    """The four frozen replication runs behind the estimator-ordering checks."""
    srs = run_replications(
        acceptance_frame,
        design="srs",
        estimator="srs",
        n=ACCEPT_N,
        R=ACCEPT_R,
        seed=ACCEPT_MC_SEED,
    )
    baseline = srs.empirical_se
    common = dict(n=ACCEPT_N, R=ACCEPT_R, seed=ACCEPT_MC_SEED, srs_baseline_se=baseline)
    hh = run_replications(acceptance_frame, design="pps", estimator="hh", **common)
    ssrs = run_replications(
        acceptance_frame,
        design="stratified",
        estimator="strat_srs",
        tau=0.5,
        allocation="neyman_oracle",
        **common,
    )
    sdiff = run_replications(
        acceptance_frame,
        design="stratified",
        estimator="strat_diff",
        tau=0.5,
        allocation="neyman_oracle",
        **common,
    )
    return {"srs": srs, "hh": hh, "strat_srs": ssrs, "strat_diff": sdiff}


@pytest.fixture(scope="session")
def sweep_points():
    return proposition1_sweep(
        build_sweep_frame(),
        list(SWEEP_TARGETS),
        n=SWEEP_N,
        R=SWEEP_R,
        seed=SWEEP_SEED,
    )


@pytest.fixture(scope="session")
def benign_frame() -> Frame:
    return build_benign_frame()


@pytest.fixture(scope="session")
def benign_run(benign_frame):
    return run_replications(
        benign_frame, design="pps", estimator="hh", n=200, R=10_000, seed=5
    )


@pytest.fixture(scope="session")
def bimodal_frame() -> Frame:
    return build_bimodal_frame()


@pytest.fixture(scope="session")
def bimodal_run(bimodal_frame):
    return run_replications(
        bimodal_frame,
        design="stratified",
        estimator="strat_srs",
        n=200,
        R=10_000,
        seed=11,
        tau=0.5,
        allocation="proportional",
    )
