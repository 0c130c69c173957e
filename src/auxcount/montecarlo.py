"""Replicated sampling experiments on a fully known frame.

Replicate r of a run draws what ``np.random.default_rng((seed..., r))``
gives, so any single replicate can be reproduced alone, and a run's
bytes do not depend on the CPU count or the block size.  A run hashes
its replicates' PCG64 seed words in vectorised passes of SeedSequence's
hash, then takes its replicates a block at a time: each replicate fills
its row of the block's draws, and the rest runs once per block.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass, fields

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from . import classifier_sim, designs, estimators
from .errors import CalibrationError, ConfigError, SweepError, VarianceUndefinedError
from .population import STRATUM_ZERO, Frame, _require_labels

# each design's estimators, from the pairing table
_VALID_PAIRS = {
    "pps": tuple(k for k, p in estimators.PAIRINGS.items() if p.design == designs.DESIGN_PPS),
    "srs": tuple(k for k, p in estimators.PAIRINGS.items() if p.design == designs.DESIGN_SRS),
    "stratified": tuple(estimators.STRATIFIED),
}
DESIGN_CHOICES = tuple(_VALID_PAIRS)
ESTIMATOR_CHOICES = tuple(e for pairs in _VALID_PAIRS.values() for e in pairs)


def _seed_tuple(seed) -> tuple[int, ...]:
    """A seed's words, an int as one; a negative word is refused, as SeedSequence refuses it."""
    words = (int(seed),) if isinstance(seed, (int, np.integer)) else tuple(int(v) for v in seed)
    if min(words, default=0) < 0:
        raise ValueError("expected non-negative integer")
    return words


# SeedSequence's constants (NumPy NEP 19); its hash constants run through
# the same values whatever the entropy, so the hash vectorises over seeds
_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_XSHIFT = np.uint32(16)


def _hasher(const: int, mult: int):
    """SeedSequence's hashmix, its hash constant advancing call by call."""

    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal const
        value = value ^ np.uint32(const)
        const = const * mult & _MASK32
        value = value * np.uint32(const)
        return value ^ (value >> _XSHIFT)

    return hashmix


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
    return result ^ (result >> _XSHIFT)


def _replicate_states(seed, start: int, stop: int) -> np.ndarray:
    """PCG64 seed words of replicates start..stop-1, one row each.

    Row k equals ``SeedSequence(seed + (start + k,)).generate_state(4,
    np.uint64)``, the words ``default_rng(seed + (start + k,))`` seeds
    PCG64 with, computed for every row in one pass.  Replicate indices
    must lie in [0, 2**32) so each is exactly one entropy word.
    """
    if not 0 <= start <= stop <= 2**32:
        raise ValueError("replicate indices must lie in [0, 2**32)")
    r = np.arange(start, stop, dtype=np.uint32)
    words = []  # the seed's uint32 entropy words, least significant first
    for v in _seed_tuple(seed):
        words.append(v & _MASK32)
        while v > _MASK32:
            v >>= 32
            words.append(v & _MASK32)
    entropy = [np.full(r.size, w, dtype=np.uint32) for w in words] + [r]
    hashmix = _hasher(_INIT_A, _MULT_A)
    pool = [
        hashmix(entropy[i] if i < len(entropy) else np.zeros_like(r))
        for i in range(_POOL_SIZE)
    ]
    for i_src in range(_POOL_SIZE):
        for i_dst in range(_POOL_SIZE):
            if i_src != i_dst:
                pool[i_dst] = _mix(pool[i_dst], hashmix(pool[i_src]))
    for word in entropy[_POOL_SIZE:]:
        for i_dst in range(_POOL_SIZE):
            pool[i_dst] = _mix(pool[i_dst], hashmix(word))
    # generate_state(4, np.uint64): 8 uint32 words cycling over the pool,
    # paired low word first, so a little-endian view pairs them
    out = _hasher(_INIT_B, _MULT_B)
    halves = np.empty((r.size, 8), dtype="<u4")
    for i in range(8):
        halves[:, i] = out(pool[i % _POOL_SIZE])
    return halves.view("<u8").astype(np.uint64, copy=False)


class _State(ISeedSequence):
    """Hands PCG64 seed words computed in advance by ``_replicate_states``."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


def _numpy_seeds(seed, start: int, stop: int) -> list:
    """numpy's own SeedSequence of replicates start..stop-1, for a numpy
    whose seeding or draws ``_numpy_agrees`` found unlike the emulation."""
    key = _seed_tuple(seed)
    return [np.random.SeedSequence(key + (r,)) for r in range(start, stop)]


def _generator(state) -> np.random.Generator:
    """numpy's generator from ``_replicate_states`` words or a SeedSequence."""
    if not isinstance(state, np.random.SeedSequence):
        state = _State(state)
    return np.random.Generator(np.random.PCG64(state))


# draws per block of replicates evaluated together: 512 KiB per float64 matrix
_BLOCK_DRAWS = 2**16


def _draws_raw(slots: int) -> bool:
    # numpy's integers(1) draws no words, and 2**32 slots or more take 64-bit halves
    return 1 < slots < 2**32


def _block_draws(states, n: int, slots: int, raw: bool):
    """(j, u), arrays of their own: row b holds the draws of the generator
    seeded by ``states[b]``, ``integers(slots, size=n)`` then ``random(n)``.

    If ``raw``, each row is computed from its raw words by numpy's rules,
    as ``_numpy_agrees`` checks against numpy itself: ceil(n/2) words give
    the n 32-bit halves that Lemire's rule maps to slots, the next n words
    the uniforms.  A row with a rejected half draws more halves, so it
    draws through numpy.
    """
    if not raw:
        return designs._draws(map(_generator, states), len(states), n, slots)
    half = -(-n // 2)
    # little-endian, so that a uint32 view reads each word's low half first
    words = np.empty((len(states), half + n), dtype="<u8")
    for b, state in enumerate(states):
        words[b] = np.random.PCG64(_State(state)).random_raw(half + n)
    # each half times slots is below 2**64, so nothing wraps
    m = np.multiply(words[:, :half].view("<u4")[:, :n], slots, dtype=np.uint64)
    redo = np.flatnonzero((m & _MASK32).min(axis=1) < (2**32 - slots) % slots)
    j = (m >> 32).view(np.int64)
    u = (words[:, half:] >> 11) * 2.0**-53
    for b in redo:
        rj, ru = designs._draws([_generator(states[b])], 1, n, slots)
        j[b], u[b] = rj[0], ru[0]
    return j, u


# the probe's replicates: slot count 3 never rejects a half in practice,
# and 2**31 + 1 rejects about half, so its rows both compute and redraw
_PROBE_SEED, _PROBE_ROWS, _PROBE_N, _PROBE_SLOTS = 29, 8, 3, (3, 2**31 + 1)


@functools.cache
def _numpy_agrees() -> bool:
    """Whether this numpy seeds and draws as the emulation computes, probed
    once per process: ``_replicate_states`` rows against numpy's own
    ``SeedSequence.generate_state(4, np.uint64)``, and raw ``_block_draws``
    rows against ``default_rng``'s ``integers`` then ``random``.  On a
    mismatch it warns once, and runs then seed and draw through numpy's
    own generators, on one thread."""
    key, rows, n = (_PROBE_SEED,), _PROBE_ROWS, _PROBE_N
    states = _replicate_states(key, 0, rows)
    agrees = all(
        np.array_equal(words, seq.generate_state(4, np.uint64))
        for words, seq in zip(states, _numpy_seeds(key, 0, rows))
    )
    for slots in _PROBE_SLOTS:
        j, u = _block_draws(states, n, slots, raw=True)
        for b in range(rows):
            rng = np.random.default_rng(key + (b,))
            agrees = (
                agrees
                and np.array_equal(j[b], rng.integers(slots, size=n))
                and np.array_equal(u[b].view(np.uint64), rng.random(n).view(np.uint64))
            )
    if not agrees:
        warnings.warn(
            f"numpy {np.__version__} seeds or draws unlike auxcount's emulation of it; "
            "replicates draw through numpy's own generators, on one thread",
            RuntimeWarning,
            stacklevel=3,
        )
    return bool(agrees)


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
    if not np.isfinite(v).all():  # as AliasTable refuses non-finite weights
        raise ValueError("values to bin must be finite, not NaN or infinite")
    bins: list[HistogramBin] = []
    zero_count = int(np.sum(v == 0.0))
    if zero_count:
        bins.append(HistogramBin(0.0, 0.0, zero_count))
    nz = v[v != 0.0]
    if nz.size:
        spread = np.ptp(nz)
        if spread == 0.0:
            bins.append(HistogramBin(float(nz[0]), float(nz[0]), int(nz.size)))
        else:
            # numpy's "fd" rule, with the bin count capped before any edge exists
            iqr = float(np.subtract(*np.percentile(nz, [75, 25])))
            width = 2.0 * iqr * nz.size ** (-1.0 / 3.0)
            n_bins = min(np.ceil(spread / width), HISTOGRAM_MAX_BINS) if width else 1
            counts, edges = np.histogram(nz, bins=int(n_bins))
            bins.extend(map(HistogramBin, edges[:-1].tolist(), edges[1:].tolist(), counts.tolist()))
    bins.sort(key=lambda b: (b.lo, b.hi))
    return tuple(bins)


_PER_REPLICATE = ("estimates", "estimated_variances", "zero_stratum_estimates")


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
        """Strict-JSON summary: all but the per-replicate fields, ``bins`` as ``histogram``
        rows of [lo, hi, count], and an overflowed ``deff_vs_srs`` as the text "inf"."""
        names = [f.name for f in fields(self) if f.name not in _PER_REPLICATE]
        summary = {name: getattr(self, name) for name in names}
        summary["seed"] = list(self.seed)
        summary["histogram"] = [[b.lo, b.hi, b.count] for b in summary.pop("bins")]
        if self.deff_vs_srs == np.inf:
            summary["deff_vs_srs"] = "inf"
        return summary


def check_run_settings(
    *, design, estimator, n, R, seed, tau=None, allocation=None, srs_baseline_se=None
) -> None:
    """Refuse the settings of a ``run_replications`` call that are wrong
    whatever the frame: a design and estimator that do not pair, tau and
    allocation off a stratified run or missing on one, n below 2, R outside
    [1, 2**32), a negative seed word and a baseline SE outside (0, inf)."""
    if estimator not in _VALID_PAIRS.get(design, ()):
        raise ConfigError(
            f"no run pairs design {design!r} with estimator {estimator!r}; "
            f"valid runs: {_VALID_PAIRS}"
        )
    if design == "stratified" and (tau is None or allocation is None):
        raise ConfigError("stratified runs need tau and allocation")
    if design != "stratified" and (tau is not None or allocation is not None):
        raise ConfigError(f"tau and allocation apply only to stratified runs, not {design!r}")
    if n < 2:
        raise ValueError("n must be at least 2 so variances exist")
    if R < 1:
        raise ValueError("R must be at least 1")
    if R >= 2**32:
        raise ValueError("R must be below 2**32, so each replicate index is one seed word")
    _seed_tuple(seed)  # which refuses a negative seed word
    estimators._check_baseline_se(srs_baseline_se)  # design_effect's rule


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

    ``design`` and ``estimator`` pair as ``_VALID_PAIRS`` lists them, from
    the pairing table ``estimators.PAIRINGS`` and ``estimators.STRATIFIED``.
    Only "stratified" takes ``tau`` and ``allocation``, and needs them.
    :func:`check_run_settings` states every rule that needs no frame.

    Replicate r draws what ``np.random.default_rng((*seed, r))`` gives,
    an int seed as ``(seed,)``: n alias slots by ``integers`` (PPS only),
    then n uniforms by ``random``.  The bytes do not depend on the CPU
    count or the block size, and memory stays flat in R.  A PPS run whose
    blocks draw raw PCG64 words (``_block_draws``) runs one contiguous
    range of replicates per usable CPU; other runs take one range.

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
    check_run_settings(
        design=design, estimator=estimator, n=n, R=R, seed=seed, tau=tau, allocation=allocation,
        srs_baseline_se=srs_baseline_se,
    )
    _require_labels(frame, "run_replications")
    # each part's estimator from the table, its alias table, built here so
    # that the build's index arrays never coexist with a block, and its unit
    # values x, computed once so that a draw is one gather
    names = estimators.STRATIFIED.get(estimator, (estimator,))
    parts = []
    for h, stratum, n_h in designs.sampling_plan(frame, n, tau, allocation):
        zero = h == STRATUM_ZERO
        pairing = estimators.PAIRINGS[names[zero]]
        labels, scores, N, total, table = designs._part(frame, stratum, pairing.design, n_h)
        parts.append((N, n_h, zero, pairing, table, *pairing.units(labels, scores, total)))
    # the alias slots of the run's one PPS part: both strata of every STRATIFIED row are SRS
    slots = next((table.size for *_, table, _, _ in parts if table is not None), 0)
    if R == 1:
        warnings.warn("R=1 gives a degenerate empirical SE of 0", stacklevel=2)

    totals = np.zeros(R)
    variances = np.zeros(R)
    zero_totals = np.full(R, np.nan) if any(zero for _, _, zero, *_ in parts) else None
    emulated = _numpy_agrees()
    seed_words = _replicate_states if emulated else _numpy_seeds
    raw = emulated and _draws_raw(slots)
    k = min(classifier_sim._usable_cpus(), R) if raw else 1

    def run_range(lo: int, hi: int):  # replicates lo..hi-1
        rows = min(max(1, _BLOCK_DRAWS // (n * k)), hi - lo)
        span = rows * max(1, _BLOCK_DRAWS // (rows * k))  # replicates per hash pass
        for start in range(lo, hi, rows):
            if (start - lo) % span == 0:
                states = seed_words(seed, start, min(start + span, hi))
            block = slice(start, min(start + rows, hi))
            j, u = _block_draws(states[(start - lo) % span :][:rows], n, slots, raw)
            col = 0  # the strata's uniforms lie side by side, stratum one first
            for N, n_h, zero, pairing, table, x, base in parts:
                drawn = x[designs._units(table, N, j, u[:, col : col + n_h])]
                t, v = pairing.kernel(drawn, N, base)
                col += n_h
                if v is None:
                    raise VarianceUndefinedError(f"a replicate of {n_h} draw(s) has no variance")
                if zero:
                    zero_totals[block] = t
                totals[block] += t
                variances[block] += v

    for _ in classifier_sim._run_ranges(run_range, R, k):
        pass  # each range's replicates are written into totals and variances

    mean = float(np.mean(totals))
    emp_se = float(np.std(totals, ddof=1)) if R >= 2 else 0.0
    deff = None if srs_baseline_se is None else estimators.design_effect(emp_se, srs_baseline_se)
    zero_fraction = None if zero_totals is None else float(np.mean(zero_totals == 0.0))
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
    symmetric profile on the frame, score the frame at it, and record
    the closed-form design variance next to the empirical variance over R
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
            cal = classifier_sim.calibrate_profile(frame, target_loss=target, seed=cal_seed)
        except CalibrationError as exc:
            raise SweepError(f"sweep point {k} (target {target:g}): {exc}") from exc
        scored = classifier_sim.simulate_predictions(frame, cal.profile, cal_seed)
        exact = estimators.exact_hh_design_variance(scored, n)
        report = run_replications(
            scored,
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
